//! The paper's workload registry with calibrated descriptors.
//!
//! IPC values come straight from the paper where reported (FIRESTARTER:
//! 3.56 core IPC with SMT, 3.23 without; busy loops retire one branch per
//! cycle). Activity vectors encode which units each kernel keeps busy; the
//! absolute power scale lives in `zen2-power`, so the vectors here only
//! need to get the *relative* unit mix right.

use crate::activity::ActivityVector;
use crate::kernel::{Kernel, KernelClass, MemoryProfile};

/// Registry of all workload kernels used by the experiments.
#[derive(Debug, Clone)]
pub struct WorkloadSet {
    kernels: Vec<Kernel>,
}

impl WorkloadSet {
    /// Builds the full calibrated paper workload set.
    ///
    /// # Panics
    /// Panics if any descriptor fails validation — that is a construction
    /// bug, caught at startup rather than mid-experiment.
    pub fn paper() -> Self {
        let kernels = vec![
            Kernel {
                class: KernelClass::Idle,
                ipc_single: 0.0,
                ipc_smt: 0.0,
                activity: ActivityVector::IDLE,
                memory: MemoryProfile::NONE,
                edc_intensity: 0.0,
                toggle_sensitivity: 0.0,
            },
            Kernel {
                class: KernelClass::Pause,
                // `pause` stalls the pipeline for tens of cycles; the
                // unrolled loop retires very few instructions.
                ipc_single: 0.05,
                ipc_smt: 0.10,
                activity: ActivityVector {
                    frontend: 0.04,
                    int_alu: 0.02,
                    fp128: 0.0,
                    fp256_upper: 0.0,
                    load_store: 0.0,
                    l2: 0.0,
                    l3: 0.0,
                },
                memory: MemoryProfile::NONE,
                edc_intensity: 0.05,
                toggle_sensitivity: 0.0,
            },
            Kernel {
                class: KernelClass::Poll,
                // POLL adds per-iteration need_resched checks: more
                // front-end and ALU work than the unrolled pause loop.
                ipc_single: 0.12,
                ipc_smt: 0.22,
                activity: ActivityVector {
                    frontend: 0.08,
                    int_alu: 0.05,
                    fp128: 0.0,
                    fp256_upper: 0.0,
                    load_store: 0.02,
                    l2: 0.0,
                    l3: 0.0,
                },
                memory: MemoryProfile::NONE,
                edc_intensity: 0.07,
                toggle_sensitivity: 0.0,
            },
            Kernel {
                class: KernelClass::BusyWait,
                // while(1);  — one taken branch per cycle.
                ipc_single: 1.0,
                ipc_smt: 2.0,
                activity: ActivityVector {
                    frontend: 0.35,
                    int_alu: 0.25,
                    fp128: 0.0,
                    fp256_upper: 0.0,
                    load_store: 0.0,
                    l2: 0.0,
                    l3: 0.0,
                },
                memory: MemoryProfile::NONE,
                edc_intensity: 0.25,
                toggle_sensitivity: 0.02,
            },
            Kernel {
                class: KernelClass::Compute,
                ipc_single: 2.5,
                ipc_smt: 3.2,
                activity: ActivityVector {
                    frontend: 0.7,
                    int_alu: 0.7,
                    fp128: 0.3,
                    fp256_upper: 0.0,
                    load_store: 0.3,
                    l2: 0.1,
                    l3: 0.02,
                },
                memory: MemoryProfile::NONE,
                edc_intensity: 0.55,
                toggle_sensitivity: 0.08,
            },
            Kernel {
                class: KernelClass::Matmul,
                ipc_single: 3.0,
                ipc_smt: 3.4,
                activity: ActivityVector {
                    frontend: 0.8,
                    int_alu: 0.5,
                    fp128: 0.9,
                    fp256_upper: 0.9,
                    load_store: 0.7,
                    l2: 0.5,
                    l3: 0.3,
                },
                memory: MemoryProfile {
                    dram_read_bytes_per_instr: 0.2,
                    dram_write_bytes_per_instr: 0.05,
                    latency_bound: false,
                    bandwidth_bound: false,
                },
                edc_intensity: 0.95,
                toggle_sensitivity: 0.10,
            },
            Kernel {
                class: KernelClass::Sqrt,
                // vsqrtpd: ~20-cycle reciprocal throughput, latency chain.
                ipc_single: 0.25,
                ipc_smt: 0.45,
                activity: ActivityVector {
                    frontend: 0.1,
                    int_alu: 0.05,
                    fp128: 0.35,
                    fp256_upper: 0.25,
                    load_store: 0.0,
                    l2: 0.0,
                    l3: 0.0,
                },
                memory: MemoryProfile::NONE,
                edc_intensity: 0.35,
                toggle_sensitivity: 0.06,
            },
            Kernel {
                class: KernelClass::AddPd,
                // Two 256-bit FADD pipes.
                ipc_single: 2.0,
                ipc_smt: 2.0,
                activity: ActivityVector {
                    frontend: 0.5,
                    int_alu: 0.1,
                    fp128: 0.9,
                    fp256_upper: 0.9,
                    load_store: 0.0,
                    l2: 0.0,
                    l3: 0.0,
                },
                memory: MemoryProfile::NONE,
                edc_intensity: 0.70,
                toggle_sensitivity: 0.12,
            },
            Kernel {
                class: KernelClass::MulPd,
                // Two 256-bit FMUL pipes; multipliers switch more logic
                // than adders.
                ipc_single: 2.0,
                ipc_smt: 2.0,
                activity: ActivityVector {
                    frontend: 0.5,
                    int_alu: 0.1,
                    fp128: 1.0,
                    fp256_upper: 1.0,
                    load_store: 0.0,
                    l2: 0.0,
                    l3: 0.0,
                },
                memory: MemoryProfile::NONE,
                edc_intensity: 0.80,
                toggle_sensitivity: 0.14,
            },
            Kernel {
                class: KernelClass::MemoryRead,
                ipc_single: 0.40,
                ipc_smt: 0.50,
                activity: ActivityVector {
                    frontend: 0.2,
                    int_alu: 0.1,
                    fp128: 0.0,
                    fp256_upper: 0.0,
                    load_store: 0.6,
                    l2: 0.6,
                    l3: 0.6,
                },
                memory: MemoryProfile {
                    dram_read_bytes_per_instr: 16.0,
                    dram_write_bytes_per_instr: 0.0,
                    latency_bound: false,
                    bandwidth_bound: true,
                },
                edc_intensity: 0.35,
                toggle_sensitivity: 0.04,
            },
            Kernel {
                class: KernelClass::MemoryWrite,
                ipc_single: 0.40,
                ipc_smt: 0.50,
                activity: ActivityVector {
                    frontend: 0.2,
                    int_alu: 0.1,
                    fp128: 0.0,
                    fp256_upper: 0.0,
                    load_store: 0.6,
                    l2: 0.6,
                    l3: 0.6,
                },
                memory: MemoryProfile {
                    dram_read_bytes_per_instr: 0.0,
                    dram_write_bytes_per_instr: 16.0,
                    latency_bound: false,
                    bandwidth_bound: true,
                },
                edc_intensity: 0.35,
                toggle_sensitivity: 0.04,
            },
            Kernel {
                class: KernelClass::MemoryCopy,
                ipc_single: 0.40,
                ipc_smt: 0.50,
                activity: ActivityVector {
                    frontend: 0.2,
                    int_alu: 0.1,
                    fp128: 0.0,
                    fp256_upper: 0.0,
                    load_store: 0.7,
                    l2: 0.7,
                    l3: 0.7,
                },
                memory: MemoryProfile {
                    dram_read_bytes_per_instr: 8.0,
                    dram_write_bytes_per_instr: 8.0,
                    latency_bound: false,
                    bandwidth_bound: true,
                },
                edc_intensity: 0.35,
                toggle_sensitivity: 0.04,
            },
            Kernel {
                class: KernelClass::Firestarter,
                // Paper Fig. 6: 3.23 core IPC without SMT, 3.56 with
                // (maximum is 4 due to the L1I-resident inner loop).
                ipc_single: 3.23,
                ipc_smt: 3.56,
                activity: ActivityVector {
                    frontend: 0.95,
                    int_alu: 0.65,
                    fp128: 1.0,
                    fp256_upper: 1.0,
                    load_store: 0.85,
                    l2: 0.5,
                    l3: 0.35,
                },
                memory: MemoryProfile {
                    dram_read_bytes_per_instr: 0.3,
                    dram_write_bytes_per_instr: 0.1,
                    latency_bound: false,
                    bandwidth_bound: false,
                },
                // Above 1: exceeds the electrical design envelope at
                // nominal frequency, which is what forces the EDC manager
                // to throttle to ~2.0-2.1 GHz.
                edc_intensity: 1.30,
                toggle_sensitivity: 0.10,
            },
            Kernel {
                class: KernelClass::StreamTriad,
                ipc_single: 0.9,
                ipc_smt: 1.0,
                activity: ActivityVector {
                    frontend: 0.4,
                    int_alu: 0.2,
                    fp128: 0.3,
                    fp256_upper: 0.3,
                    load_store: 0.9,
                    l2: 0.8,
                    l3: 0.8,
                },
                memory: MemoryProfile {
                    // Triad: 16 B read (b, c) + 8 B write (a) per 8 B of
                    // arithmetic; expressed per instruction of the loop.
                    dram_read_bytes_per_instr: 10.0,
                    dram_write_bytes_per_instr: 5.0,
                    latency_bound: false,
                    bandwidth_bound: true,
                },
                edc_intensity: 0.45,
                toggle_sensitivity: 0.04,
            },
            Kernel {
                class: KernelClass::PointerChase,
                // One dependent load outstanding; IPC is derived from the
                // memory-latency model at run time.
                ipc_single: 0.01,
                ipc_smt: 0.02,
                activity: ActivityVector {
                    frontend: 0.02,
                    int_alu: 0.01,
                    fp128: 0.0,
                    fp256_upper: 0.0,
                    load_store: 0.05,
                    l2: 0.05,
                    l3: 0.05,
                },
                memory: MemoryProfile {
                    dram_read_bytes_per_instr: 64.0,
                    dram_write_bytes_per_instr: 0.0,
                    latency_bound: true,
                    bandwidth_bound: false,
                },
                edc_intensity: 0.10,
                toggle_sensitivity: 0.0,
            },
            Kernel {
                class: KernelClass::VXorps,
                // 256-bit xors on both FP pipes. An xor switches far less
                // logic than a multiplier (no partial products), so its
                // unit activity is modest — but what it does switch is the
                // datapath itself, so destination toggles track the
                // operand Hamming weight almost directly, hence the high
                // toggle sensitivity (Fig. 10a: 21 W / 7.6 % system swing).
                ipc_single: 2.0,
                ipc_smt: 2.0,
                activity: ActivityVector {
                    frontend: 0.3,
                    int_alu: 0.1,
                    fp128: 0.35,
                    fp256_upper: 0.35,
                    load_store: 0.0,
                    l2: 0.0,
                    l3: 0.0,
                },
                memory: MemoryProfile::NONE,
                edc_intensity: 0.60,
                toggle_sensitivity: 0.55,
            },
            Kernel {
                class: KernelClass::Shr,
                // Scalar 64-bit shifts: narrow datapath, so the operand
                // weight barely matters (paper: system power within 0.9 %).
                ipc_single: 3.5,
                ipc_smt: 4.0,
                activity: ActivityVector {
                    frontend: 0.8,
                    int_alu: 0.9,
                    fp128: 0.0,
                    fp256_upper: 0.0,
                    load_store: 0.0,
                    l2: 0.0,
                    l3: 0.0,
                },
                memory: MemoryProfile::NONE,
                edc_intensity: 0.40,
                toggle_sensitivity: 0.05,
            },
        ];
        for (i, k) in kernels.iter().enumerate() {
            if let Err(e) = k.validate() {
                panic!("invalid kernel descriptor: {e}");
            }
            // `kernel` indexes by class, so the registry must list every
            // class in `KernelClass` declaration order.
            assert_eq!(k.class as usize, i, "{} is out of declaration order", k.class.name());
        }
        Self { kernels }
    }

    /// Looks a kernel up by class.
    ///
    /// # Panics
    /// Panics if the class is missing from the registry (construction bug).
    pub fn kernel(&self, class: KernelClass) -> &Kernel {
        &self.kernels[class as usize]
    }

    /// Looks a kernel up by its stable name.
    pub fn by_name(&self, name: &str) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.class.name() == name)
    }

    /// All kernels.
    pub fn all(&self) -> &[Kernel] {
        &self.kernels
    }

    /// The ten workloads of the Fig. 9 RAPL-quality sweep, in the paper's
    /// legend order.
    pub fn rapl_quality_set(&self) -> Vec<&Kernel> {
        [
            KernelClass::Idle,
            KernelClass::AddPd,
            KernelClass::BusyWait,
            KernelClass::Compute,
            KernelClass::Matmul,
            KernelClass::MemoryRead,
            KernelClass::MulPd,
            KernelClass::Sqrt,
            KernelClass::MemoryWrite,
            KernelClass::MemoryCopy,
        ]
        .iter()
        .map(|&c| self.kernel(c))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipc::SmtMode;

    #[test]
    fn registry_contains_all_classes() {
        let set = WorkloadSet::paper();
        assert_eq!(set.all().len(), 17);
        for class in [
            KernelClass::Idle,
            KernelClass::Pause,
            KernelClass::Poll,
            KernelClass::BusyWait,
            KernelClass::Compute,
            KernelClass::Matmul,
            KernelClass::Sqrt,
            KernelClass::AddPd,
            KernelClass::MulPd,
            KernelClass::MemoryRead,
            KernelClass::MemoryWrite,
            KernelClass::MemoryCopy,
            KernelClass::Firestarter,
            KernelClass::StreamTriad,
            KernelClass::PointerChase,
            KernelClass::VXorps,
            KernelClass::Shr,
        ] {
            assert_eq!(set.kernel(class).class, class);
        }
    }

    #[test]
    fn by_name_round_trips() {
        let set = WorkloadSet::paper();
        for k in set.all() {
            assert_eq!(set.by_name(k.class.name()).unwrap().class, k.class);
        }
        assert!(set.by_name("no_such_kernel").is_none());
    }

    #[test]
    fn rapl_quality_set_matches_figure_legend() {
        let set = WorkloadSet::paper();
        let names: Vec<_> = set.rapl_quality_set().iter().map(|k| k.class.name()).collect();
        assert_eq!(
            names,
            vec![
                "idle",
                "add_pd",
                "busywait",
                "compute",
                "matmul",
                "memory_read",
                "mul_pd",
                "sqrt",
                "memory_write",
                "memory_copy"
            ]
        );
    }

    #[test]
    fn firestarter_matches_paper_ipc() {
        let set = WorkloadSet::paper();
        let fs = set.kernel(KernelClass::Firestarter);
        assert!((fs.ipc_core(SmtMode::Both) - 3.56).abs() < 1e-12);
        assert!((fs.ipc_core(SmtMode::Single) - 3.23).abs() < 1e-12);
        assert!(fs.edc_intensity > 1.0, "FIRESTARTER must exceed the EDC envelope");
    }

    #[test]
    fn only_wide_simd_kernels_power_upper_lanes() {
        let set = WorkloadSet::paper();
        assert_eq!(set.kernel(KernelClass::Shr).activity.fp256_upper, 0.0);
        assert_eq!(set.kernel(KernelClass::BusyWait).activity.fp256_upper, 0.0);
        assert!(set.kernel(KernelClass::Firestarter).activity.fp256_upper > 0.9);
        assert!(set.kernel(KernelClass::VXorps).activity.fp256_upper > 0.2);
    }

    #[test]
    fn vxorps_is_data_sensitive_and_shr_is_not() {
        let set = WorkloadSet::paper();
        let vx = set.kernel(KernelClass::VXorps).toggle_sensitivity;
        let shr = set.kernel(KernelClass::Shr).toggle_sensitivity;
        assert!(vx > 5.0 * shr, "vxorps {vx} should dwarf shr {shr}");
    }

    #[test]
    fn memory_kernels_are_bandwidth_bound() {
        let set = WorkloadSet::paper();
        for class in [KernelClass::MemoryRead, KernelClass::MemoryWrite, KernelClass::MemoryCopy] {
            assert!(set.kernel(class).memory.bandwidth_bound);
        }
        assert!(set.kernel(KernelClass::PointerChase).memory.latency_bound);
        assert!(!set.kernel(KernelClass::AddPd).memory.bandwidth_bound);
    }
}
