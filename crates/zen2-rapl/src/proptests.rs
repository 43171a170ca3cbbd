//! Property-based tests of the RAPL accounting pipeline.

use crate::accounting::{Ns, RaplAccounting, UPDATE_PERIOD_NS};
use crate::model::RaplModel;
use crate::reader::CounterTracker;
use proptest::prelude::*;
use zen2_isa::{KernelClass, SmtMode, WorkloadSet};
use zen2_msr::RaplUnits;

/// The accounting with an eager publication, which copies the pending
/// joules to the published ones at every boundary crossed: the reference
/// the lazy publication of [`RaplAccounting`] must match.
struct EagerAccounting {
    units: RaplUnits,
    core_pending_j: Vec<f64>,
    pkg_pending_j: Vec<f64>,
    core_published_j: Vec<f64>,
    pkg_published_j: Vec<f64>,
    last_publish_ns: Ns,
}

impl EagerAccounting {
    fn new(cores: usize, packages: usize) -> Self {
        Self {
            units: RaplUnits::amd_default(),
            core_pending_j: vec![0.0; cores],
            pkg_pending_j: vec![0.0; packages],
            core_published_j: vec![0.0; cores],
            pkg_published_j: vec![0.0; packages],
            last_publish_ns: 0,
        }
    }

    fn accumulate(&mut self, dt_s: f64, core_w: &[f64], pkg_w: &[f64]) {
        for (acc, &w) in self.core_pending_j.iter_mut().zip(core_w) {
            *acc += w * dt_s;
        }
        for (acc, &w) in self.pkg_pending_j.iter_mut().zip(pkg_w) {
            *acc += w * dt_s;
        }
    }

    fn maybe_publish(&mut self, now_ns: Ns) -> bool {
        let boundary = now_ns - now_ns % UPDATE_PERIOD_NS;
        if boundary <= self.last_publish_ns && now_ns != 0 {
            return false;
        }
        self.last_publish_ns = boundary;
        self.core_published_j.copy_from_slice(&self.core_pending_j);
        self.pkg_published_j.copy_from_slice(&self.pkg_pending_j);
        true
    }

    /// Every counter a reader can see: each core's and package's raw
    /// value, then each package's published joules, as bits.
    fn reading(&self) -> Vec<u64> {
        let counts = |j: &[f64]| -> Vec<u64> {
            j.iter().map(|&j| self.units.joules_to_counts(j) & 0xFFFF_FFFF).collect()
        };
        let mut out = counts(&self.core_published_j);
        out.extend(counts(&self.pkg_published_j));
        out.extend(self.pkg_published_j.iter().map(|j| j.to_bits()));
        out
    }
}

/// [`EagerAccounting::reading`] of the accounting under test.
fn reading(acc: &RaplAccounting, cores: usize, packages: usize) -> Vec<u64> {
    let mut out: Vec<u64> = acc.core_counters().map(|(_, raw)| u64::from(raw)).collect();
    assert_eq!(out.len(), cores, "every core domain is kept");
    out.extend((0..packages).map(|p| u64::from(acc.package_counter(p))));
    out.extend((0..packages).map(|p| acc.package_published_joules(p).to_bits()));
    out
}

/// One step of an accounting interleaving: `(kind, length ns, watts)`.
fn arb_accounting_op() -> impl Strategy<Value = (u8, u64, f64)> {
    (0u8..7, 0u64..3_000_000, 0.0f64..300.0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    /// Publishing by swapping buffers, and moving pending energy out of
    /// the published buffers after a publication, reads exactly as an
    /// eager copy at every publication, whatever interleaves: segments
    /// ending on a 1 ms boundary, exactly 1 ms long from anywhere, or of
    /// any length (zero included); an accumulation with no publication
    /// after it; reads with or without a publication first, twice at one
    /// instant; and a publication after time passed with no energy
    /// accrued.
    #[test]
    fn lazy_publication_matches_eager_copy(
        ops in prop::collection::vec(arb_accounting_op(), 1..80),
    ) {
        const CORES: usize = 3;
        const PACKAGES: usize = 2;
        let mut lazy = RaplAccounting::new(CORES, PACKAGES);
        let mut eager = EagerAccounting::new(CORES, PACKAGES);
        let mut now: Ns = 0;
        for (i, &(kind, len, w)) in ops.iter().enumerate() {
            if kind <= 3 {
                let dt = match kind {
                    0 => UPDATE_PERIOD_NS - now % UPDATE_PERIOD_NS,
                    1 => UPDATE_PERIOD_NS,
                    _ => len,
                };
                let core_w: Vec<f64> = (0..CORES).map(|c| w / (c + 1) as f64).collect();
                let pkg_w = [w * 1.5, w * 0.25 + 40.0];
                let dt_s = dt as f64 * 1e-9;
                lazy.accumulate(dt_s, &core_w, &pkg_w);
                eager.accumulate(dt_s, &core_w, &pkg_w);
                now += dt;
            } else if kind == 6 {
                now += len;
            }
            match kind {
                // A segment, published at its end as the simulator does.
                0..=2 => {
                    prop_assert_eq!(lazy.maybe_publish(now), eager.maybe_publish(now), "op {}", i);
                }
                // Two reads at one instant, each publishing first as an
                // MSR sync does; kind 6 makes one after idle time.
                4 | 6 => {
                    for _ in 0..2 {
                        prop_assert_eq!(lazy.maybe_publish(now), eager.maybe_publish(now));
                        prop_assert_eq!(
                            reading(&lazy, CORES, PACKAGES),
                            eager.reading(),
                            "op {} at {} ns",
                            i,
                            now
                        );
                    }
                }
                // A read between an accumulation and its publication.
                5 => {
                    prop_assert_eq!(
                        reading(&lazy, CORES, PACKAGES),
                        eager.reading(),
                        "op {} at {} ns",
                        i,
                        now
                    );
                }
                // Kind 3 accumulates and publishes nothing.
                _ => {}
            }
        }
        prop_assert_eq!(reading(&lazy, CORES, PACKAGES), eager.reading());
    }

    /// Published counters are monotone (pre-wrap) and never ahead of the
    /// continuously integrated energy.
    #[test]
    fn publication_is_monotone(powers in prop::collection::vec(0.0f64..300.0, 1..40)) {
        let mut acc = RaplAccounting::new(1, 1);
        let mut now = 0u64;
        let mut last_pub = 0.0;
        let mut total = 0.0;
        for w in powers {
            let dt = 0.0004; // 400 us steps
            acc.accumulate(dt, &[w / 2.0], &[w]);
            total += w * dt;
            now += 400_000;
            acc.maybe_publish(now);
            let published = acc.package_published_joules(0);
            prop_assert!(published >= last_pub);
            prop_assert!(published <= total + 1e-9);
            last_pub = published;
        }
    }

    /// A tracker polling the quantized counter reconstructs total energy
    /// within quantization error, for any poll pattern that outruns the
    /// wrap interval.
    #[test]
    fn tracker_reconstructs_energy(chunks in prop::collection::vec(0.1f64..50.0, 1..30)) {
        let units = RaplUnits::amd_default();
        let mut acc = RaplAccounting::new(1, 1);
        let mut tracker = CounterTracker::new(0);
        let mut now = 0u64;
        let mut total = 0.0;
        for j in chunks {
            // Deposit `j` joules over 1 ms and publish.
            acc.accumulate(0.001, &[0.0], &[j * 1000.0]);
            total += j;
            now += 1_000_000;
            acc.maybe_publish(now);
            tracker.update(acc.package_counter(0));
        }
        let reconstructed = tracker.total_joules(&units);
        prop_assert!((reconstructed - total).abs() <= units.joules_per_count() * 2.0,
            "reconstructed {reconstructed} vs {total}");
    }

    /// The estimate model is monotone in frequency and temperature for
    /// every kernel.
    #[test]
    fn estimate_is_monotone(idx in 0usize..17, f1 in 1.0f64..3.0, f2 in 1.0f64..3.0) {
        let set = WorkloadSet::paper();
        let kernel = &set.all()[idx];
        if kernel.class == KernelClass::Idle {
            return Ok(());
        }
        let m = RaplModel::zen2();
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let at = |f: f64| m.core_estimate_w(kernel, SmtMode::Single, f, 0.9, 68.0);
        prop_assert!(at(hi) >= at(lo) - 1e-12);
        let warm = m.core_estimate_w(kernel, SmtMode::Single, lo, 0.9, 80.0);
        prop_assert!(warm >= at(lo));
    }

    /// Package estimates decompose exactly into cores + uncore constant.
    #[test]
    fn package_estimate_decomposes(cores_sum in 0.0f64..400.0, awake in any::<bool>()) {
        let m = RaplModel::zen2();
        let pkg = m.package_estimate_w(cores_sum, awake);
        let uncore = if awake { m.uncore_awake_w } else { m.uncore_pc6_w };
        prop_assert!((pkg - cores_sum - uncore).abs() < 1e-12);
    }
}
