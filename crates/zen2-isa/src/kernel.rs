//! Workload kernel descriptors.

use crate::activity::ActivityVector;
use crate::ipc::SmtMode;

/// The paper's workload families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// No runnable thread: the OS parks the hardware thread in an idle state.
    Idle,
    /// Unrolled loop of `pause` instructions (Fig. 7 "active" workload).
    Pause,
    /// The cpuidle POLL loop: `pause` plus per-iteration checks; "less
    /// stable and slightly higher power" than the unrolled loop.
    Poll,
    /// `while(1);` — a one-instruction branch loop (Sections V-A, V-C).
    BusyWait,
    /// Generic scalar compute mix (Fig. 9).
    Compute,
    /// Blocked matrix multiply (Fig. 9).
    Matmul,
    /// `vsqrtpd` latency-bound loop (Fig. 9).
    Sqrt,
    /// Packed double adds, 256-bit (Fig. 9).
    AddPd,
    /// Packed double multiplies, 256-bit (Fig. 9).
    MulPd,
    /// Streaming reads missing all caches (Fig. 9).
    MemoryRead,
    /// Streaming writes missing all caches (Fig. 9).
    MemoryWrite,
    /// Streaming copy (Fig. 9).
    MemoryCopy,
    /// FIRESTARTER 2: near-peak back-end utilization, two 256-bit FMAs per
    /// cycle plus loads/stores and integer ops, loop sized to L1I (Fig. 6).
    Firestarter,
    /// STREAM triad `a[i] = b[i] + s*c[i]` (Fig. 5a).
    StreamTriad,
    /// Dependent-load pointer chase (Figs. 4, 5b).
    PointerChase,
    /// 256-bit `vxorps` with controlled operand Hamming weight (Fig. 10).
    VXorps,
    /// 64-bit `shr` with controlled operand Hamming weight (Fig. 10,
    /// contrasting PLATYPUS).
    Shr,
}

impl KernelClass {
    /// Stable lowercase name used in tables and CLI arguments.
    pub fn name(self) -> &'static str {
        match self {
            KernelClass::Idle => "idle",
            KernelClass::Pause => "pause",
            KernelClass::Poll => "poll",
            KernelClass::BusyWait => "busywait",
            KernelClass::Compute => "compute",
            KernelClass::Matmul => "matmul",
            KernelClass::Sqrt => "sqrt",
            KernelClass::AddPd => "add_pd",
            KernelClass::MulPd => "mul_pd",
            KernelClass::MemoryRead => "memory_read",
            KernelClass::MemoryWrite => "memory_write",
            KernelClass::MemoryCopy => "memory_copy",
            KernelClass::Firestarter => "firestarter",
            KernelClass::StreamTriad => "stream_triad",
            KernelClass::PointerChase => "pointer_chase",
            KernelClass::VXorps => "vxorps",
            KernelClass::Shr => "shr",
        }
    }
}

/// Memory behavior of a kernel, per retired instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryProfile {
    /// Bytes read from DRAM per instruction (cache-miss traffic only).
    pub dram_read_bytes_per_instr: f64,
    /// Bytes written to DRAM per instruction.
    pub dram_write_bytes_per_instr: f64,
    /// Performance is bounded by DRAM *latency* (dependent loads): the
    /// simulator derives IPC from the memory model instead of the nominal
    /// value.
    pub latency_bound: bool,
    /// Performance is bounded by DRAM *bandwidth*: the simulator caps
    /// throughput with the bandwidth model.
    pub bandwidth_bound: bool,
}

impl MemoryProfile {
    /// No DRAM traffic at all (cache-resident kernel).
    pub const NONE: MemoryProfile = MemoryProfile {
        dram_read_bytes_per_instr: 0.0,
        dram_write_bytes_per_instr: 0.0,
        latency_bound: false,
        bandwidth_bound: false,
    };
}

/// A fully-described workload kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Which family this kernel belongs to.
    pub class: KernelClass,
    /// Sustained instructions per cycle with one thread on the core.
    pub ipc_single: f64,
    /// Sustained *combined* core IPC with both SMT siblings running it.
    pub ipc_smt: f64,
    /// Per-unit activity with a single thread active.
    pub activity: ActivityVector,
    /// DRAM behavior.
    pub memory: MemoryProfile,
    /// Fraction of the EDC current envelope the kernel pulls per core at
    /// nominal frequency and full activity. Values above ~1 trigger the
    /// EDC manager (Section V-E).
    pub edc_intensity: f64,
    /// Fraction of the kernel's dynamic power that scales with the operand
    /// toggle factor (Section VII-B).
    pub toggle_sensitivity: f64,
}

impl Kernel {
    /// Per-thread IPC under the given SMT occupancy.
    pub fn ipc_per_thread(&self, mode: SmtMode) -> f64 {
        match mode {
            SmtMode::Single => self.ipc_single,
            SmtMode::Both => self.ipc_smt / 2.0,
        }
    }

    /// Whole-core IPC under the given SMT occupancy.
    pub fn ipc_core(&self, mode: SmtMode) -> f64 {
        match mode {
            SmtMode::Single => self.ipc_single,
            SmtMode::Both => self.ipc_smt,
        }
    }

    /// Whole-core activity under the given SMT occupancy. With both
    /// siblings active the per-unit activity grows by the same ratio as the
    /// core IPC, saturating at 1 per unit.
    pub fn core_activity(&self, mode: SmtMode) -> ActivityVector {
        match mode {
            SmtMode::Single => self.activity,
            SmtMode::Both => {
                let ratio =
                    if self.ipc_single > 0.0 { self.ipc_smt / self.ipc_single } else { 1.0 };
                self.activity.scaled(ratio)
            }
        }
    }

    /// DRAM bytes touched per second by one core at the given effective
    /// frequency (Hz), before any bandwidth capping.
    pub fn dram_demand_bytes_per_s(&self, mode: SmtMode, freq_hz: f64) -> f64 {
        let instr_per_s = self.ipc_core(mode) * freq_hz;
        instr_per_s
            * (self.memory.dram_read_bytes_per_instr + self.memory.dram_write_bytes_per_instr)
    }

    /// Internal consistency checks; run by the workload-set constructor.
    pub fn validate(&self) -> Result<(), String> {
        self.activity.validate().map_err(|e| format!("{}: {e}", self.class.name()))?;
        if self.ipc_single < 0.0 || self.ipc_smt < 0.0 {
            return Err(format!("{}: negative IPC", self.class.name()));
        }
        if self.ipc_smt + 1e-12 < self.ipc_single {
            return Err(format!(
                "{}: SMT core IPC {} below single-thread IPC {}",
                self.class.name(),
                self.ipc_smt,
                self.ipc_single
            ));
        }
        if !(0.0..=2.0).contains(&self.edc_intensity) {
            return Err(format!("{}: implausible EDC intensity", self.class.name()));
        }
        if !(0.0..=1.0).contains(&self.toggle_sensitivity) {
            return Err(format!("{}: toggle sensitivity outside [0,1]", self.class.name()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::WorkloadSet;

    #[test]
    fn names_are_stable() {
        assert_eq!(KernelClass::AddPd.name(), "add_pd");
        assert_eq!(KernelClass::MemoryRead.name(), "memory_read");
        assert_eq!(KernelClass::Firestarter.name(), "firestarter");
    }

    #[test]
    fn smt_ipc_split() {
        let set = WorkloadSet::paper();
        let fs = set.kernel(KernelClass::Firestarter);
        assert!((fs.ipc_core(SmtMode::Both) - 3.56).abs() < 1e-9);
        assert!((fs.ipc_core(SmtMode::Single) - 3.23).abs() < 1e-9);
        assert!((fs.ipc_per_thread(SmtMode::Both) - 1.78).abs() < 1e-9);
    }

    #[test]
    fn core_activity_grows_with_smt_but_saturates() {
        let set = WorkloadSet::paper();
        let fs = set.kernel(KernelClass::Firestarter);
        let single = fs.core_activity(SmtMode::Single);
        let both = fs.core_activity(SmtMode::Both);
        assert!(both.int_alu >= single.int_alu);
        assert!(both.fp256_upper <= 1.0);
        both.validate().unwrap();
    }

    #[test]
    fn dram_demand_scales_with_frequency() {
        let set = WorkloadSet::paper();
        let mr = set.kernel(KernelClass::MemoryRead);
        let at_1 = mr.dram_demand_bytes_per_s(SmtMode::Single, 1.0e9);
        let at_2 = mr.dram_demand_bytes_per_s(SmtMode::Single, 2.0e9);
        assert!(at_1 > 0.0);
        assert!((at_2 / at_1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn validate_catches_smt_regression() {
        let set = WorkloadSet::paper();
        let mut k = set.kernel(KernelClass::Compute).clone();
        k.ipc_smt = k.ipc_single / 2.0;
        assert!(k.validate().unwrap_err().contains("below single-thread"));
    }
}
