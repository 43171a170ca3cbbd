//! Cache hierarchy parameters (PPR / Suggs et al., "The AMD Zen 2
//! Processor").

/// Structural and timing parameters of the Zen 2 cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheHierarchy {
    /// L1D capacity in bytes.
    pub l1d_bytes: u64,
    /// L1I capacity in bytes.
    pub l1i_bytes: u64,
    /// Per-core unified L2 capacity in bytes.
    pub l2_bytes: u64,
    /// Per-CCX L3 capacity in bytes (four 4 MiB slices).
    pub l3_bytes: u64,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// L1D load-to-use latency in core cycles.
    pub l1_cycles: f64,
    /// L2 load-to-use latency in core cycles.
    pub l2_cycles: f64,
    /// Core-domain share of an L3 hit, in core cycles (see
    /// [`crate::latency::L3LatencyModel`]).
    pub l3_core_cycles: f64,
    /// L3-domain share of an L3 hit, in L3 cycles.
    pub l3_mesh_cycles: f64,
}

impl Default for CacheHierarchy {
    fn default() -> Self {
        Self::zen2()
    }
}

impl CacheHierarchy {
    /// Zen 2 values. The L3 split is calibrated from the paper's Fig. 4:
    /// with all cores at the same frequency `f`, an L3 hit costs
    /// `(l3_core_cycles + l3_mesh_cycles) / f`; the paper measures 25.2 ns
    /// at 1.5 GHz, 17.2 ns at 2.2 GHz and 15.2 ns at 2.5 GHz, and the
    /// mixed-frequency cells separate the two shares.
    pub fn zen2() -> Self {
        Self {
            l1d_bytes: 32 * 1024,
            l1i_bytes: 32 * 1024,
            l2_bytes: 512 * 1024,
            l3_bytes: 16 * 1024 * 1024,
            line_bytes: 64,
            l1_cycles: 4.0,
            l2_cycles: 12.0,
            l3_core_cycles: 22.7,
            l3_mesh_cycles: 15.1,
        }
    }

    /// Which cache level a working set of `bytes` is resident in.
    pub fn level_for_working_set(&self, bytes: u64) -> CacheLevel {
        if bytes <= self.l1d_bytes {
            CacheLevel::L1
        } else if bytes <= self.l2_bytes {
            CacheLevel::L2
        } else if bytes <= self.l3_bytes {
            CacheLevel::L3
        } else {
            CacheLevel::Dram
        }
    }

    /// Load-to-use latency in nanoseconds for a level, at a core frequency
    /// `core_ghz` and L3 mesh frequency `l3_ghz` (DRAM handled by
    /// [`crate::latency::DramLatencyModel`]).
    pub fn hit_latency_ns(&self, level: CacheLevel, core_ghz: f64, l3_ghz: f64) -> Option<f64> {
        assert!(core_ghz > 0.0 && l3_ghz > 0.0, "frequencies must be positive");
        match level {
            CacheLevel::L1 => Some(self.l1_cycles / core_ghz),
            CacheLevel::L2 => Some(self.l2_cycles / core_ghz),
            CacheLevel::L3 => Some(self.l3_core_cycles / core_ghz + self.l3_mesh_cycles / l3_ghz),
            CacheLevel::Dram => None,
        }
    }
}

/// A memory-hierarchy level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheLevel {
    /// Level-1 data cache.
    L1,
    /// Per-core level-2 cache.
    L2,
    /// CCX-shared level-3 cache.
    L3,
    /// Main memory behind the I/O die.
    Dram,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn working_set_classification() {
        let h = CacheHierarchy::zen2();
        assert_eq!(h.level_for_working_set(16 * 1024), CacheLevel::L1);
        assert_eq!(h.level_for_working_set(32 * 1024), CacheLevel::L1);
        assert_eq!(h.level_for_working_set(33 * 1024), CacheLevel::L2);
        assert_eq!(h.level_for_working_set(512 * 1024), CacheLevel::L2);
        assert_eq!(h.level_for_working_set(4 * 1024 * 1024), CacheLevel::L3);
        assert_eq!(h.level_for_working_set(64 * 1024 * 1024), CacheLevel::Dram);
    }

    #[test]
    fn l3_latency_matches_same_frequency_diagonal() {
        // Fig. 4 diagonal (all cores equal): 25.2 / 17.2 / 15.2 ns.
        let h = CacheHierarchy::zen2();
        let cases = [(1.5, 25.2), (2.2, 17.2), (2.5, 15.2)];
        for (f, expect) in cases {
            let got = h.hit_latency_ns(CacheLevel::L3, f, f).unwrap();
            assert!(
                (got - expect).abs() / expect < 0.01,
                "at {f} GHz expected ~{expect} ns, got {got:.2} ns"
            );
        }
    }

    #[test]
    fn faster_l3_reduces_latency_for_slow_reader() {
        // Fig. 4, reading core at 1.5 GHz: 25.2 -> 22.0 -> 21.2 ns as the
        // other cores (and with them the L3 mesh) speed up.
        let h = CacheHierarchy::zen2();
        let own = 1.5;
        let at_15 = h.hit_latency_ns(CacheLevel::L3, own, 1.5).unwrap();
        let at_22 = h.hit_latency_ns(CacheLevel::L3, own, 2.2).unwrap();
        let at_25 = h.hit_latency_ns(CacheLevel::L3, own, 2.5).unwrap();
        assert!((at_15 - 25.2).abs() < 0.3);
        assert!((at_22 - 22.0).abs() < 0.3);
        assert!((at_25 - 21.2).abs() < 0.3);
    }

    #[test]
    fn l1_l2_scale_with_core_clock_only() {
        let h = CacheHierarchy::zen2();
        let l1 = h.hit_latency_ns(CacheLevel::L1, 2.0, 1.0).unwrap();
        assert!((l1 - 2.0).abs() < 1e-12);
        let l2 = h.hit_latency_ns(CacheLevel::L2, 2.0, 1.0).unwrap();
        assert!((l2 - 6.0).abs() < 1e-12);
        assert!(h.hit_latency_ns(CacheLevel::Dram, 2.0, 2.0).is_none());
    }
}
