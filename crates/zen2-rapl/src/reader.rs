//! Software-side RAPL reading (the paper's `x86_energy` role).
//!
//! Readers poll the 32-bit energy MSRs and must handle wraparound — at
//! the default 15.26 µJ unit and a 180 W package the counter wraps every
//! ~6 minutes. [`CounterTracker`] accumulates deltas across wraps;
//! [`RaplReader`] layers the MSR addressing on top of `zen2-msr`.

use zen2_msr::{address, rapl::counter_delta, MsrError, MsrFile, RaplUnits};
use zen2_topology::{ThreadId, Topology};

/// Wrap-aware accumulator over a 32-bit energy counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterTracker {
    last_raw: u32,
    total_counts: u64,
}

impl CounterTracker {
    /// Starts tracking from an initial raw counter value.
    pub fn new(initial_raw: u32) -> Self {
        Self { last_raw: initial_raw, total_counts: 0 }
    }

    /// Feeds a new raw reading; returns the delta in counts since the
    /// previous reading (wrap-corrected).
    pub fn update(&mut self, raw: u32) -> u64 {
        let delta = counter_delta(self.last_raw, raw);
        self.last_raw = raw;
        self.total_counts += delta;
        delta
    }

    /// Total accumulated energy in joules.
    pub fn total_joules(&self, units: &RaplUnits) -> f64 {
        units.counts_to_joules(self.total_counts)
    }
}

/// Reads core and package energy through the MSR interface.
#[derive(Debug)]
pub struct RaplReader {
    units: RaplUnits,
    core_trackers: Vec<CounterTracker>,
    pkg_trackers: Vec<CounterTracker>,
    pkg_lead_thread: Vec<ThreadId>,
    threads_per_core: usize,
}

impl RaplReader {
    /// Initializes trackers for every core and package, reading the unit
    /// register and initial counter values.
    pub fn new(topology: &Topology, msrs: &MsrFile) -> Result<Self, MsrError> {
        let units = RaplUnits::decode(msrs.read(ThreadId(0), address::RAPL_PWR_UNIT)?);
        let threads_per_core = topology.threads_per_core();
        let mut core_trackers = Vec::with_capacity(topology.num_cores());
        for core in topology.all_cores() {
            let thread = topology.threads_of_core(core)[0].expect("cores have a first thread");
            let raw = msrs.read(thread, address::CORE_ENERGY_STAT)? as u32;
            core_trackers.push(CounterTracker::new(raw));
        }
        let mut pkg_trackers = Vec::with_capacity(topology.num_sockets());
        let mut pkg_lead_thread = Vec::with_capacity(topology.num_sockets());
        for socket in topology.all_sockets() {
            let lead = ThreadId(
                (socket.0 as usize * topology.cores_per_socket() * threads_per_core) as u32,
            );
            let raw = msrs.read(lead, address::PKG_ENERGY_STAT)? as u32;
            pkg_trackers.push(CounterTracker::new(raw));
            pkg_lead_thread.push(lead);
        }
        Ok(Self { units, core_trackers, pkg_trackers, pkg_lead_thread, threads_per_core })
    }

    /// The decoded unit register.
    pub fn units(&self) -> &RaplUnits {
        &self.units
    }

    /// Polls every counter once; call periodically (well under the wrap
    /// interval) to keep totals exact.
    pub fn poll(&mut self, msrs: &MsrFile) -> Result<(), MsrError> {
        for (core, tracker) in self.core_trackers.iter_mut().enumerate() {
            let thread = ThreadId((core * self.threads_per_core) as u32);
            tracker.update(msrs.read(thread, address::CORE_ENERGY_STAT)? as u32);
        }
        for (pkg, tracker) in self.pkg_trackers.iter_mut().enumerate() {
            tracker.update(msrs.read(self.pkg_lead_thread[pkg], address::PKG_ENERGY_STAT)? as u32);
        }
        Ok(())
    }

    /// Accumulated joules for a core since construction.
    pub fn core_joules(&self, core: usize) -> f64 {
        self.core_trackers[core].total_joules(&self.units)
    }

    /// Accumulated joules for a package since construction.
    pub fn package_joules(&self, package: usize) -> f64 {
        self.pkg_trackers[package].total_joules(&self.units)
    }

    /// Sum of all package domains (the paper's "RAPL Sum Package").
    pub fn package_sum_joules(&self) -> f64 {
        (0..self.pkg_trackers.len()).map(|p| self.package_joules(p)).sum()
    }

    /// Sum of all core domains (the paper's "RAPL Sum Core").
    pub fn core_sum_joules(&self) -> f64 {
        (0..self.core_trackers.len()).map(|c| self.core_joules(c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zen2_msr::address as a;

    #[test]
    fn tracker_accumulates_across_wrap() {
        let mut t = CounterTracker::new(u32::MAX - 10);
        assert_eq!(t.update(u32::MAX), 10);
        assert_eq!(t.update(20), 21);
        let units = RaplUnits::amd_default();
        let expected = units.counts_to_joules(31);
        assert!((t.total_joules(&units) - expected).abs() < 1e-15);
    }

    #[test]
    fn reader_reads_poked_counters() {
        let topo = Topology::epyc_7502_2s();
        let mut msrs = MsrFile::new(&topo);
        let mut reader = RaplReader::new(&topo, &msrs).unwrap();

        // Hardware deposits one joule into core 0 and both packages.
        let units = RaplUnits::amd_default();
        let one_joule = units.joules_to_counts(1.0);
        msrs.poke(ThreadId(0), a::CORE_ENERGY_STAT, one_joule);
        msrs.poke(ThreadId(0), a::PKG_ENERGY_STAT, one_joule);
        msrs.poke(ThreadId(64), a::PKG_ENERGY_STAT, one_joule * 2);
        reader.poll(&msrs).unwrap();

        assert!((reader.core_joules(0) - 1.0).abs() < 1e-4);
        assert_eq!(reader.core_joules(1), 0.0);
        assert!((reader.package_joules(0) - 1.0).abs() < 1e-4);
        assert!((reader.package_joules(1) - 2.0).abs() < 1e-4);
        assert!((reader.package_sum_joules() - 3.0).abs() < 1e-4);
    }

    #[test]
    fn core_domain_is_shared_by_smt_siblings() {
        // Both threads of a core expose the same core-energy counter; the
        // reader polls through the first sibling.
        let topo = Topology::epyc_7502_2s();
        let mut msrs = MsrFile::new(&topo);
        let mut reader = RaplReader::new(&topo, &msrs).unwrap();
        let units = RaplUnits::amd_default();
        msrs.poke(ThreadId(2), a::CORE_ENERGY_STAT, units.joules_to_counts(5.0));
        reader.poll(&msrs).unwrap();
        assert!((reader.core_joules(1) - 5.0).abs() < 1e-4);
    }

    #[test]
    fn core_sum_covers_all_cores() {
        let topo = Topology::epyc_7502_2s();
        let mut msrs = MsrFile::new(&topo);
        let mut reader = RaplReader::new(&topo, &msrs).unwrap();
        let units = RaplUnits::amd_default();
        for core in 0..64u32 {
            msrs.poke(ThreadId(core * 2), a::CORE_ENERGY_STAT, units.joules_to_counts(0.5));
        }
        reader.poll(&msrs).unwrap();
        assert!((reader.core_sum_joules() - 32.0).abs() < 0.01);
    }
}
