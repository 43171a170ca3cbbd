//! Energy-counter accounting with the 1 ms publication cadence.
//!
//! The paper: "We measured an update rate of 1 ms for RAPL by polling the
//! MSRs via the msr kernel module." Energy accrues continuously inside
//! the SMU, but the MSR-visible counters step only at update boundaries;
//! between updates a reader sees a frozen value. Counters are quantized
//! to the energy-status unit and wrap at 32 bits.
//!
//! A publication copies nothing: it swaps the pending and published
//! buffers, so the published ones hold the pending energy and the
//! pending ones are scratch. The next accumulation writes the moved sums
//! from the published buffers into the pending ones. A run of segments
//! that each end on a publication boundary, the simulator's busy 1 ms
//! slots, thus never copies a counter, and every read sees the values an
//! eager copy at each publication would show.

use zen2_msr::RaplUnits;

/// Time in nanoseconds (the simulator's clock domain).
pub type Ns = u64;

/// Nanoseconds between counter publications.
pub const UPDATE_PERIOD_NS: Ns = 1_000_000;

/// Per-domain energy accounting for a whole machine.
#[derive(Debug, Clone)]
pub struct RaplAccounting {
    units: RaplUnits,
    /// Continuously-integrated joules per core (the SMU's internal view),
    /// unless `pending_is_published`.
    core_pending_j: Vec<f64>,
    /// Continuously-integrated joules per package, unless
    /// `pending_is_published`.
    pkg_pending_j: Vec<f64>,
    /// Published joules per core (what the MSR shows, pre-quantization).
    core_published_j: Vec<f64>,
    /// Published joules per package.
    pkg_published_j: Vec<f64>,
    /// Whether the pending energy is the published one, the pending
    /// buffers being scratch: set by a publication, cleared when pending
    /// energy next moves.
    pending_is_published: bool,
    /// Timestamp of the last publication boundary.
    last_publish_ns: Ns,
}

impl RaplAccounting {
    /// Creates accounting for `cores` cores and `packages` packages.
    pub fn new(cores: usize, packages: usize) -> Self {
        Self {
            units: RaplUnits::amd_default(),
            core_pending_j: vec![0.0; cores],
            pkg_pending_j: vec![0.0; packages],
            core_published_j: vec![0.0; cores],
            pkg_published_j: vec![0.0; packages],
            pending_is_published: false,
            last_publish_ns: 0,
        }
    }

    /// The unit configuration (for the `RAPL_PWR_UNIT` MSR).
    pub fn units(&self) -> &RaplUnits {
        &self.units
    }

    /// Integrates estimated power over an interval. `core_w[i]` and
    /// `pkg_w[p]` are the estimated powers during the whole interval.
    ///
    /// # Panics
    /// Panics if slice lengths disagree with the machine shape.
    #[inline]
    pub fn accumulate(&mut self, dt_s: f64, core_w: &[f64], pkg_w: &[f64]) {
        assert!(dt_s >= 0.0, "time cannot run backwards");
        assert_eq!(core_w.len(), self.core_pending_j.len(), "core count mismatch");
        assert_eq!(pkg_w.len(), self.pkg_pending_j.len(), "package count mismatch");
        if std::mem::take(&mut self.pending_is_published) {
            // The published counters keep the values pending energy moves
            // from; the moved sums go to the scratch pending buffers.
            integrate_into(&mut self.core_pending_j, &self.core_published_j, core_w, dt_s);
            integrate_into(&mut self.pkg_pending_j, &self.pkg_published_j, pkg_w, dt_s);
        } else {
            for (acc, &w) in self.core_pending_j.iter_mut().zip(core_w) {
                *acc += w * dt_s;
            }
            for (acc, &w) in self.pkg_pending_j.iter_mut().zip(pkg_w) {
                *acc += w * dt_s;
            }
        }
    }

    /// Publishes pending energy to the MSR-visible counters if `now_ns`
    /// has crossed at least one 1 ms boundary since the last publication.
    /// Returns `true` if the visible counters changed.
    #[inline]
    pub fn maybe_publish(&mut self, now_ns: Ns) -> bool {
        let boundary = now_ns - now_ns % UPDATE_PERIOD_NS;
        if boundary <= self.last_publish_ns && now_ns != 0 {
            return false;
        }
        self.last_publish_ns = boundary;
        if !self.pending_is_published {
            std::mem::swap(&mut self.core_pending_j, &mut self.core_published_j);
            std::mem::swap(&mut self.pkg_pending_j, &mut self.pkg_published_j);
            self.pending_is_published = true;
        }
        true
    }

    /// The raw 32-bit counter value for a core domain.
    pub fn core_counter(&self, core: usize) -> u32 {
        quantize(self.core_published_j[core], &self.units)
    }

    /// The raw 32-bit counter value for a package domain.
    pub fn package_counter(&self, package: usize) -> u32 {
        quantize(self.pkg_published_j[package], &self.units)
    }

    /// Total (unquantized, unwrapped) published joules for a package —
    /// for test assertions, not visible to simulated software.
    pub fn package_published_joules(&self, package: usize) -> f64 {
        self.pkg_published_j[package]
    }
}

/// Writes `from[i] + w[i] * dt_s` to `into[i]`: the in-place sum of
/// [`RaplAccounting::accumulate`], bit for bit, into another buffer.
fn integrate_into(into: &mut [f64], from: &[f64], w: &[f64], dt_s: f64) {
    for ((acc, &j), &w) in into.iter_mut().zip(from).zip(w) {
        *acc = j + w * dt_s;
    }
}

fn quantize(joules: f64, units: &RaplUnits) -> u32 {
    (units.joules_to_counts(joules) & 0xFFFF_FFFF) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_freeze_between_updates() {
        let mut acc = RaplAccounting::new(2, 1);
        acc.accumulate(0.0005, &[10.0, 10.0], &[30.0]);
        // 0.5 ms in: nothing published yet beyond the t=0 snapshot.
        assert!(!acc.maybe_publish(500_000));
        assert_eq!(acc.package_counter(0), 0);
        // Crossing 1 ms publishes.
        acc.accumulate(0.0005, &[10.0, 10.0], &[30.0]);
        assert!(acc.maybe_publish(1_000_000));
        let j = acc.package_published_joules(0);
        assert!((j - 0.030).abs() < 1e-12);
    }

    #[test]
    fn update_rate_is_observable_as_1ms() {
        // Poll every 100 us; distinct counter values must appear at 1 ms
        // spacing (the Section VII measurement).
        let mut acc = RaplAccounting::new(1, 1);
        let mut change_times = Vec::new();
        let mut last = acc.package_counter(0);
        for step in 1..=50 {
            let now = step * 100_000u64;
            acc.accumulate(0.0001, &[5.0], &[50.0]);
            acc.maybe_publish(now);
            let v = acc.package_counter(0);
            if v != last {
                change_times.push(now);
                last = v;
            }
        }
        assert!(change_times.len() >= 4, "changes {change_times:?}");
        for w in change_times.windows(2) {
            assert_eq!(w[1] - w[0], 1_000_000, "updates must be 1 ms apart");
        }
    }

    #[test]
    fn quantization_uses_esu() {
        let mut acc = RaplAccounting::new(1, 1);
        acc.accumulate(1.0, &[1.0], &[1.0]);
        acc.maybe_publish(1_000_000_000);
        // 1 J at 2^-16 J/count = 65536 counts.
        assert_eq!(acc.core_counter(0), 65536);
    }

    #[test]
    fn counter_wraps_at_32_bits() {
        let mut acc = RaplAccounting::new(1, 1);
        // Just over the wrap: 2^32 counts = 65536 J at default units.
        acc.accumulate(1.0, &[65537.0], &[65537.0]);
        acc.maybe_publish(1_000_000_000);
        assert_eq!(acc.core_counter(0), 65536, "one joule past the wrap");
    }

    #[test]
    #[should_panic(expected = "core count mismatch")]
    fn shape_mismatch_is_a_bug() {
        let mut acc = RaplAccounting::new(2, 1);
        acc.accumulate(0.001, &[1.0], &[1.0]);
    }
}
