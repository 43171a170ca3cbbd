//! Per-thread MSR register file with `/dev/cpu/N/msr`-like semantics.
//!
//! Software (the experiments) accesses registers through [`MsrFile::read`]
//! and [`MsrFile::write`], which enforce the architectural access rules:
//! unknown registers fault like a #GP, read-only registers reject writes.
//! The simulator plays the hardware role through [`MsrFile::poke`], which
//! bypasses access control to keep status registers coherent with the
//! machine state.
//!
//! Most registers hold one value per hardware thread. The RAPL energy
//! counters hold one per domain, as on the hardware: `CORE_ENERGY_STAT`
//! one per core and `PKG_ENERGY_STAT` one per package, so a read, peek,
//! poke or bump through any thread of the domain reaches that one value.

use crate::address as addr;
use crate::cstate_addr::CstateBaseAddress;
use crate::pstate::PstateTable;
use crate::rapl::RaplUnits;
use std::fmt;
use zen2_topology::{ThreadId, Topology};

/// Errors surfaced to software MSR accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsrError {
    /// The register is not implemented on this part; a real `rdmsr`/`wrmsr`
    /// raises #GP and the msr module returns EIO.
    GeneralProtectionFault {
        /// The faulting register address.
        msr: u32,
    },
    /// The register exists but rejects software writes.
    ReadOnly {
        /// The register address.
        msr: u32,
    },
    /// The thread id is outside the machine.
    NoSuchCpu {
        /// The raw thread index.
        thread: u32,
    },
}

impl fmt::Display for MsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsrError::GeneralProtectionFault { msr } => {
                write!(f, "rdmsr/wrmsr 0x{msr:08X}: general protection fault (unimplemented)")
            }
            MsrError::ReadOnly { msr } => write!(f, "wrmsr 0x{msr:08X}: register is read-only"),
            MsrError::NoSuchCpu { thread } => write!(f, "no MSR file for thread {thread}"),
        }
    }
}

impl std::error::Error for MsrError {}

/// Number of registers stored per hardware thread: nine named registers
/// plus the eight P-state definitions.
const NUM_REGS: usize = 9 + addr::NUM_PSTATE_DEFS as usize;

/// Where an implemented register's value lives.
#[derive(Debug, Clone, Copy)]
enum Storage {
    /// One value per hardware thread, at this slot of its array.
    Thread(usize),
    /// One value per core, shared by its SMT siblings.
    Core,
    /// One value per package, shared by all of its threads.
    Package,
}

/// The storage of an implemented register; `None` for every other
/// address (those fault like a #GP).
fn storage(msr: u32) -> Option<Storage> {
    Some(Storage::Thread(match msr {
        addr::TSC => 0,
        addr::MPERF => 1,
        addr::APERF => 2,
        addr::HWCR => 3,
        addr::PSTATE_CUR_LIM => 4,
        addr::PSTATE_CTL => 5,
        addr::PSTATE_STAT => 6,
        addr::CSTATE_BASE_ADDR => 7,
        addr::RAPL_PWR_UNIT => 8,
        addr::CORE_ENERGY_STAT => return Some(Storage::Core),
        addr::PKG_ENERGY_STAT => return Some(Storage::Package),
        _ if (addr::PSTATE_DEF_BASE..addr::PSTATE_DEF_BASE + addr::NUM_PSTATE_DEFS)
            .contains(&msr) =>
        {
            9 + (msr - addr::PSTATE_DEF_BASE) as usize
        }
        _ => return None,
    }))
}

/// Registers that reject software writes. P-state definitions are locked on
/// production parts; status/limit/energy registers are hardware-owned.
fn read_only(msr: u32) -> bool {
    matches!(
        msr,
        addr::PSTATE_CUR_LIM
            | addr::PSTATE_STAT
            | addr::RAPL_PWR_UNIT
            | addr::CORE_ENERGY_STAT
            | addr::PKG_ENERGY_STAT
            | addr::TSC
            | addr::MPERF
            | addr::APERF
    ) || (addr::PSTATE_DEF_BASE..addr::PSTATE_DEF_BASE + addr::NUM_PSTATE_DEFS).contains(&msr)
}

/// MSR storage for a whole machine: one fixed array of the per-thread
/// registers per hardware thread, addressed through a register-to-slot
/// `match`, plus one energy counter per core and per package, so a clone
/// is a few flat copies.
#[derive(Debug, Clone)]
pub struct MsrFile {
    per_thread: Vec<[u64; NUM_REGS]>,
    /// `CORE_ENERGY_STAT`, per core.
    core_energy: Vec<u64>,
    /// `PKG_ENERGY_STAT`, per package.
    pkg_energy: Vec<u64>,
    /// Threads are numbered core by core, and cores package by package.
    threads_per_core: usize,
    threads_per_package: usize,
}

impl MsrFile {
    /// Initializes the register file for a topology with the EPYC 7502
    /// reset values: the paper's three-entry P-state table, AMD RAPL units,
    /// and the Rome C-state I/O window.
    pub fn new(topology: &Topology) -> Self {
        Self::with_pstate_table(topology, &PstateTable::epyc_7502())
    }

    /// Initializes with a caller-provided P-state table.
    pub fn with_pstate_table(topology: &Topology, table: &PstateTable) -> Self {
        let mut template = [0u64; NUM_REGS];
        let mut set = |msr: u32, value: u64| match storage(msr) {
            Some(Storage::Thread(slot)) => template[slot] = value,
            _ => panic!("reset values cover per-thread registers only: 0x{msr:08X}"),
        };
        set(addr::PSTATE_CUR_LIM, table.cur_lim_register());
        set(addr::CSTATE_BASE_ADDR, CstateBaseAddress::rome_default().encode());
        set(addr::RAPL_PWR_UNIT, RaplUnits::amd_default().encode());
        for i in 0..addr::NUM_PSTATE_DEFS {
            set(addr::pstate_def(i), table.get(i as usize).map(|d| d.encode()).unwrap_or(0));
        }
        let threads_per_core = topology.threads_per_core();
        Self {
            per_thread: vec![template; topology.num_threads()],
            core_energy: vec![0; topology.num_cores()],
            pkg_energy: vec![0; topology.num_sockets()],
            threads_per_core,
            threads_per_package: topology.cores_per_socket() * threads_per_core,
        }
    }

    /// The value `storage` keeps for thread index `t`; panics when the
    /// machine has no such thread.
    fn cell(&self, t: usize, storage: Storage) -> u64 {
        match storage {
            Storage::Thread(slot) => self.per_thread[t][slot],
            Storage::Core => self.core_energy[t / self.threads_per_core],
            Storage::Package => self.pkg_energy[t / self.threads_per_package],
        }
    }

    /// [`cell`](Self::cell), writable.
    fn cell_mut(&mut self, t: usize, storage: Storage) -> &mut u64 {
        match storage {
            Storage::Thread(slot) => &mut self.per_thread[t][slot],
            Storage::Core => &mut self.core_energy[t / self.threads_per_core],
            Storage::Package => &mut self.pkg_energy[t / self.threads_per_package],
        }
    }

    /// The index of `thread`, if the machine has it.
    fn index(&self, thread: ThreadId) -> Result<usize, MsrError> {
        let t = thread.index();
        if t < self.per_thread.len() {
            Ok(t)
        } else {
            Err(MsrError::NoSuchCpu { thread: thread.0 })
        }
    }

    /// Software read (rdmsr through the msr module).
    pub fn read(&self, thread: ThreadId, msr: u32) -> Result<u64, MsrError> {
        let storage = storage(msr).ok_or(MsrError::GeneralProtectionFault { msr })?;
        Ok(self.cell(self.index(thread)?, storage))
    }

    /// Software write (wrmsr through the msr module).
    pub fn write(&mut self, thread: ThreadId, msr: u32, value: u64) -> Result<(), MsrError> {
        let storage = storage(msr).ok_or(MsrError::GeneralProtectionFault { msr })?;
        if read_only(msr) {
            return Err(MsrError::ReadOnly { msr });
        }
        let t = self.index(thread)?;
        *self.cell_mut(t, storage) = value;
        Ok(())
    }

    /// Hardware-side write: the simulator keeps status registers coherent.
    ///
    /// # Panics
    /// Panics on unknown threads or unimplemented registers — those are
    /// simulator bugs, not recoverable software errors.
    pub fn poke(&mut self, thread: ThreadId, msr: u32, value: u64) {
        let storage =
            storage(msr).unwrap_or_else(|| panic!("simulator poked unimplemented MSR 0x{msr:08X}"));
        *self.cell_mut(thread.index(), storage) = value;
    }

    /// Hardware-side read without access checks.
    ///
    /// # Panics
    /// Panics on unknown threads or unimplemented registers.
    pub fn peek(&self, thread: ThreadId, msr: u32) -> u64 {
        let storage = storage(msr)
            .unwrap_or_else(|| panic!("simulator peeked unimplemented MSR 0x{msr:08X}"));
        self.cell(thread.index(), storage)
    }

    /// Adds a counter increment to a hardware-owned register (TSC, APERF,
    /// MPERF, energy counters), wrapping at the register's natural width.
    pub fn bump(&mut self, thread: ThreadId, msr: u32, delta: u64, width_bits: u32) {
        let old = self.peek(thread, msr);
        let mask = if width_bits >= 64 { u64::MAX } else { (1u64 << width_bits) - 1 };
        self.poke(thread, msr, old.wrapping_add(delta) & mask);
    }

    /// Number of per-thread register files.
    pub fn num_threads(&self) -> usize {
        self.per_thread.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pstate::PstateTable;

    fn file() -> MsrFile {
        MsrFile::new(&Topology::epyc_7502_2s())
    }

    #[test]
    fn reset_values_expose_paper_pstate_table() {
        let f = file();
        let t0 = ThreadId(0);
        let lim = f.read(t0, addr::PSTATE_CUR_LIM).unwrap();
        assert_eq!(PstateTable::num_pstates_from_cur_lim(lim), 3);
        let p0 = crate::PstateDef::decode(f.read(t0, addr::pstate_def(0)).unwrap());
        assert_eq!(p0.frequency_mhz(), Some(2500));
        let p2 = crate::PstateDef::decode(f.read(t0, addr::pstate_def(2)).unwrap());
        assert_eq!(p2.frequency_mhz(), Some(1500));
        // Undefined table slots decode as disabled.
        let p7 = crate::PstateDef::decode(f.read(t0, addr::pstate_def(7)).unwrap());
        assert!(!p7.enabled);
    }

    #[test]
    fn unimplemented_msr_faults_like_gp() {
        let f = file();
        let err = f.read(ThreadId(0), addr::INTEL_PKG_ENERGY_STATUS).unwrap_err();
        assert_eq!(err, MsrError::GeneralProtectionFault { msr: 0x611 });
        assert!(err.to_string().contains("general protection"));
    }

    #[test]
    fn every_implemented_register_has_its_own_slot() {
        let mut f = file();
        let named = [
            addr::TSC,
            addr::MPERF,
            addr::APERF,
            addr::HWCR,
            addr::PSTATE_CUR_LIM,
            addr::PSTATE_CTL,
            addr::PSTATE_STAT,
            addr::CSTATE_BASE_ADDR,
            addr::RAPL_PWR_UNIT,
            addr::CORE_ENERGY_STAT,
            addr::PKG_ENERGY_STAT,
        ];
        let all: Vec<u32> = named.into_iter().chain((0..8).map(addr::pstate_def)).collect();
        // Every per-thread register plus the two energy counters.
        assert_eq!(all.len(), NUM_REGS + 2);
        for (i, &msr) in all.iter().enumerate() {
            f.poke(ThreadId(5), msr, 0x1000 + i as u64);
        }
        for (i, &msr) in all.iter().enumerate() {
            assert_eq!(f.read(ThreadId(5), msr).unwrap(), 0x1000 + i as u64, "0x{msr:08X}");
        }
        // The addresses just past the table and Intel's RAPL MSR stay #GP.
        for msr in [addr::PSTATE_DEF_BASE + 8, addr::INTEL_PKG_ENERGY_STATUS] {
            assert_eq!(
                f.read(ThreadId(5), msr).unwrap_err(),
                MsrError::GeneralProtectionFault { msr }
            );
            assert_eq!(
                f.write(ThreadId(5), msr, 1).unwrap_err(),
                MsrError::GeneralProtectionFault { msr }
            );
        }
    }

    #[test]
    fn status_registers_reject_software_writes() {
        let mut f = file();
        for msr in [addr::PSTATE_STAT, addr::CORE_ENERGY_STAT, addr::RAPL_PWR_UNIT, addr::APERF] {
            assert_eq!(
                f.write(ThreadId(3), msr, 1).unwrap_err(),
                MsrError::ReadOnly { msr },
                "0x{msr:08X}"
            );
        }
        // PStateCtl is the software knob and accepts writes.
        f.write(ThreadId(3), addr::PSTATE_CTL, 2).unwrap();
        assert_eq!(f.read(ThreadId(3), addr::PSTATE_CTL).unwrap(), 2);
    }

    #[test]
    fn pstate_defs_are_locked() {
        let mut f = file();
        let err = f.write(ThreadId(0), addr::pstate_def(0), 0).unwrap_err();
        assert_eq!(err, MsrError::ReadOnly { msr: addr::pstate_def(0) });
    }

    #[test]
    fn poke_updates_hardware_owned_state() {
        let mut f = file();
        f.poke(ThreadId(9), addr::PSTATE_STAT, 2);
        assert_eq!(f.read(ThreadId(9), addr::PSTATE_STAT).unwrap(), 2);
        // Other threads are unaffected.
        assert_eq!(f.read(ThreadId(8), addr::PSTATE_STAT).unwrap(), 0);
    }

    #[test]
    fn bump_wraps_at_register_width() {
        let mut f = file();
        f.poke(ThreadId(0), addr::CORE_ENERGY_STAT, u32::MAX as u64);
        f.bump(ThreadId(0), addr::CORE_ENERGY_STAT, 5, 32);
        assert_eq!(f.peek(ThreadId(0), addr::CORE_ENERGY_STAT), 4);
        f.poke(ThreadId(0), addr::APERF, u64::MAX);
        f.bump(ThreadId(0), addr::APERF, 2, 64);
        assert_eq!(f.peek(ThreadId(0), addr::APERF), 1);
    }

    #[test]
    fn energy_counters_are_one_per_domain() {
        let mut f = file();
        // Core 1's SMT siblings are threads 2 and 3.
        f.poke(ThreadId(2), addr::CORE_ENERGY_STAT, 77);
        assert_eq!(f.read(ThreadId(3), addr::CORE_ENERGY_STAT).unwrap(), 77);
        assert_eq!(f.read(ThreadId(1), addr::CORE_ENERGY_STAT).unwrap(), 0, "core 0");
        f.bump(ThreadId(3), addr::CORE_ENERGY_STAT, 3, 32);
        assert_eq!(f.peek(ThreadId(2), addr::CORE_ENERGY_STAT), 80);
        // Package 1 holds threads 64..128: its first thread's value is
        // its last thread's, and package 0's stays apart.
        f.poke(ThreadId(64), addr::PKG_ENERGY_STAT, 9);
        assert_eq!(f.read(ThreadId(127), addr::PKG_ENERGY_STAT).unwrap(), 9);
        assert_eq!(f.read(ThreadId(63), addr::PKG_ENERGY_STAT).unwrap(), 0);
        f.poke(ThreadId(63), addr::PKG_ENERGY_STAT, 5);
        assert_eq!(f.read(ThreadId(0), addr::PKG_ENERGY_STAT).unwrap(), 5);
        assert_eq!(f.read(ThreadId(127), addr::PKG_ENERGY_STAT).unwrap(), 9);
    }

    #[test]
    fn out_of_range_thread_errors() {
        let f = file();
        assert_eq!(
            f.read(ThreadId(128), addr::TSC).unwrap_err(),
            MsrError::NoSuchCpu { thread: 128 }
        );
    }

    #[test]
    fn per_thread_isolation() {
        let mut f = file();
        f.write(ThreadId(0), addr::PSTATE_CTL, 1).unwrap();
        f.write(ThreadId(1), addr::PSTATE_CTL, 2).unwrap();
        assert_eq!(f.read(ThreadId(0), addr::PSTATE_CTL).unwrap(), 1);
        assert_eq!(f.read(ThreadId(1), addr::PSTATE_CTL).unwrap(), 2);
        assert_eq!(f.num_threads(), 128);
    }
}
