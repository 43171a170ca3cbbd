//! Linux-style logical CPU numbering.
//!
//! The paper sweeps C-state configurations "following the logical CPU
//! numbering in steps of single CPUs ... the hardware thread of each core
//! within the first processor package, the second processor package, and
//! then the second hardware threads of each core, again grouped by package"
//! (Section VI-A). That is the standard Linux enumeration on a two-socket
//! SMT system:
//!
//! ```text
//! cpu0..31    socket 0, cores 0..31, SMT thread 0
//! cpu32..63   socket 1, cores 0..31, SMT thread 0
//! cpu64..95   socket 0, cores 0..31, SMT thread 1
//! cpu96..127  socket 1, cores 0..31, SMT thread 1
//! ```
//!
//! [`CpuNumbering`] provides the bijection between [`LogicalCpu`] and
//! [`ThreadId`] so experiments can express sweeps in OS order while the
//! simulator operates on physical ids.

use crate::ids::{LogicalCpu, SmtSibling, ThreadId};
use crate::topology::Topology;

/// How logical CPU numbers map onto hardware threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumberingPolicy {
    /// Linux default on x86 servers: all primary SMT threads first (grouped
    /// by package), then all secondary threads (grouped by package).
    LinuxSiblingsLast,
    /// Siblings adjacent: cpu0/cpu1 are the two threads of core 0. Some
    /// BIOSes enumerate this way; kept for completeness and testing.
    SiblingsAdjacent,
}

/// A concrete logical-CPU numbering for a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuNumbering {
    policy: NumberingPolicy,
    num_cores: u32,
    threads_per_core: u32,
}

impl CpuNumbering {
    /// Builds the numbering for a topology under the given policy.
    pub fn new(topology: &Topology, policy: NumberingPolicy) -> Self {
        Self {
            policy,
            num_cores: topology.num_cores() as u32,
            threads_per_core: topology.threads_per_core() as u32,
        }
    }

    /// The Linux default numbering for a topology.
    pub fn linux_default(topology: &Topology) -> Self {
        Self::new(topology, NumberingPolicy::LinuxSiblingsLast)
    }

    /// Total number of logical CPUs.
    pub fn num_cpus(&self) -> usize {
        (self.num_cores * self.threads_per_core) as usize
    }

    /// Maps a logical CPU number to its hardware thread.
    ///
    /// # Panics
    /// Panics if `cpu` is out of range for this system.
    pub fn thread_of(&self, cpu: LogicalCpu) -> ThreadId {
        assert!(
            (cpu.0 as usize) < self.num_cpus(),
            "{cpu} out of range for {} logical CPUs",
            self.num_cpus()
        );
        match self.policy {
            NumberingPolicy::LinuxSiblingsLast => {
                let sibling = cpu.0 / self.num_cores;
                let core = cpu.0 % self.num_cores;
                ThreadId(core * self.threads_per_core + sibling)
            }
            NumberingPolicy::SiblingsAdjacent => ThreadId(cpu.0),
        }
    }

    /// Maps a hardware thread to its logical CPU number.
    pub fn cpu_of(&self, thread: ThreadId) -> LogicalCpu {
        match self.policy {
            NumberingPolicy::LinuxSiblingsLast => {
                let core = thread.0 / self.threads_per_core;
                let sibling = thread.0 % self.threads_per_core;
                LogicalCpu(sibling * self.num_cores + core)
            }
            NumberingPolicy::SiblingsAdjacent => LogicalCpu(thread.0),
        }
    }

    /// Which SMT sibling a logical CPU is under this numbering.
    pub fn sibling_of(&self, cpu: LogicalCpu) -> SmtSibling {
        match self.policy {
            NumberingPolicy::LinuxSiblingsLast => {
                SmtSibling::from_index((cpu.0 / self.num_cores) as usize)
            }
            NumberingPolicy::SiblingsAdjacent => {
                SmtSibling::from_index((cpu.0 % self.threads_per_core) as usize)
            }
        }
    }

    /// All logical CPUs in OS order — the sweep order of the paper's Fig. 7.
    pub fn cpus_in_os_order(&self) -> impl Iterator<Item = LogicalCpu> + '_ {
        (0..self.num_cpus() as u32).map(LogicalCpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn linux_numbering_matches_paper_sweep_order() {
        let topo = Topology::epyc_7502_2s();
        let numbering = CpuNumbering::linux_default(&topo);
        assert_eq!(numbering.num_cpus(), 128);

        // cpu0 = core0 thread0; cpu31 = core31 thread0 (socket 0)
        assert_eq!(numbering.thread_of(LogicalCpu(0)), ThreadId(0));
        assert_eq!(numbering.thread_of(LogicalCpu(31)), ThreadId(62));
        // cpu32 = first core of socket 1, thread 0
        assert_eq!(numbering.thread_of(LogicalCpu(32)), ThreadId(64));
        assert_eq!(topo.socket_of_thread(numbering.thread_of(LogicalCpu(32))).0, 1);
        // cpu64 = core0 thread1 (second sibling of socket 0's first core)
        assert_eq!(numbering.thread_of(LogicalCpu(64)), ThreadId(1));
        // cpu127 = last core of socket 1, thread 1
        assert_eq!(numbering.thread_of(LogicalCpu(127)), ThreadId(127));
    }

    #[test]
    fn round_trip_all_cpus() {
        let topo = Topology::epyc_7502_2s();
        for policy in [NumberingPolicy::LinuxSiblingsLast, NumberingPolicy::SiblingsAdjacent] {
            let numbering = CpuNumbering::new(&topo, policy);
            for cpu in numbering.cpus_in_os_order() {
                let thread = numbering.thread_of(cpu);
                assert_eq!(numbering.cpu_of(thread), cpu, "policy {policy:?}");
            }
        }
    }

    #[test]
    fn first_64_cpus_cover_all_cores_once() {
        let topo = Topology::epyc_7502_2s();
        let numbering = CpuNumbering::linux_default(&topo);
        let mut seen = vec![false; topo.num_cores()];
        for cpu in 0..64u32 {
            let thread = numbering.thread_of(LogicalCpu(cpu));
            let core = topo.core_of(thread);
            assert!(!seen[core.index()], "core {core} hit twice in first 64 cpus");
            seen[core.index()] = true;
            assert_eq!(topo.sibling_of(thread).index(), 0);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sibling_classification() {
        let topo = Topology::epyc_7502_2s();
        let numbering = CpuNumbering::linux_default(&topo);
        assert_eq!(numbering.sibling_of(LogicalCpu(5)).index(), 0);
        assert_eq!(numbering.sibling_of(LogicalCpu(70)).index(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cpu_panics() {
        let topo = Topology::epyc_7502_2s();
        let numbering = CpuNumbering::linux_default(&topo);
        let _ = numbering.thread_of(LogicalCpu(128));
    }

    #[test]
    fn numbering_without_smt_is_identity() {
        let topo =
            crate::TopologyBuilder::new().sockets(2).ccds_per_socket(4).smt(false).build().unwrap();
        let numbering = CpuNumbering::linux_default(&topo);
        assert_eq!(numbering.num_cpus(), 64);
        for cpu in numbering.cpus_in_os_order() {
            assert_eq!(numbering.thread_of(cpu).0, cpu.0);
        }
    }
}
