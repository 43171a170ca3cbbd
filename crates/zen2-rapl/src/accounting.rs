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
//!
//! A machine may keep fewer core domains than it has cores
//! ([`RaplAccounting::keep_cores`]): the others integrate and publish
//! nothing. A run of whole update periods that each publish at their end
//! can also be integrated in one call ([`RaplAccounting::publish_periods`])
//! with the per-period expressions in their order.

use zen2_msr::RaplUnits;

/// Time in nanoseconds (the simulator's clock domain).
pub type Ns = u64;

/// Nanoseconds between counter publications.
pub const UPDATE_PERIOD_NS: Ns = 1_000_000;

/// Per-domain energy accounting for a whole machine.
#[derive(Debug, Clone)]
pub struct RaplAccounting {
    units: RaplUnits,
    /// The cores whose domains are kept, ascending: every core from
    /// construction, fewer after [`keep_cores`](Self::keep_cores).
    cores: Vec<usize>,
    /// The machine's core count, the length of the per-core watts
    /// [`accumulate`](Self::accumulate) takes.
    num_cores: usize,
    /// Continuously-integrated joules per kept core (the SMU's internal
    /// view), unless `pending_is_published`.
    core_pending_j: Vec<f64>,
    /// Continuously-integrated joules per package, unless
    /// `pending_is_published`.
    pkg_pending_j: Vec<f64>,
    /// Published joules per kept core (what the MSR shows,
    /// pre-quantization).
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
    /// Creates accounting for `cores` cores and `packages` packages,
    /// keeping every domain.
    pub fn new(cores: usize, packages: usize) -> Self {
        Self {
            units: RaplUnits::amd_default(),
            cores: (0..cores).collect(),
            num_cores: cores,
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

    /// Keeps the domains of `cores` only, for good, with the energy they
    /// hold: the other core domains no longer integrate or publish, and
    /// [`core_counters`](Self::core_counters) no longer yields them. The
    /// package domains stay.
    pub fn keep_cores(&mut self, cores: &[usize]) {
        let mut kept = 0;
        for i in 0..self.cores.len() {
            if cores.contains(&self.cores[i]) {
                self.cores[kept] = self.cores[i];
                self.core_pending_j[kept] = self.core_pending_j[i];
                self.core_published_j[kept] = self.core_published_j[i];
                kept += 1;
            }
        }
        self.cores.truncate(kept);
        self.core_pending_j.truncate(kept);
        self.core_published_j.truncate(kept);
    }

    /// The kept core domains, ascending.
    pub fn cores(&self) -> &[usize] {
        &self.cores
    }

    /// Integrates estimated power over an interval. `core_w[c]` and
    /// `pkg_w[p]` are the estimated powers during the whole interval, one
    /// per core of the machine, kept or not.
    ///
    /// # Panics
    /// Panics if slice lengths disagree with the machine shape.
    #[inline]
    pub fn accumulate(&mut self, dt_s: f64, core_w: &[f64], pkg_w: &[f64]) {
        assert!(dt_s >= 0.0, "time cannot run backwards");
        assert_eq!(core_w.len(), self.num_cores, "core count mismatch");
        assert_eq!(pkg_w.len(), self.pkg_pending_j.len(), "package count mismatch");
        if std::mem::take(&mut self.pending_is_published) {
            // The published counters keep the values pending energy moves
            // from; the moved sums go to the scratch pending buffers.
            let from = self.core_published_j.iter().zip(&self.cores);
            for (acc, (&j, &core)) in self.core_pending_j.iter_mut().zip(from) {
                *acc = j + core_w[core] * dt_s;
            }
            for ((acc, &j), &w) in
                self.pkg_pending_j.iter_mut().zip(&self.pkg_published_j).zip(pkg_w)
            {
                *acc = j + w * dt_s;
            }
        } else {
            for (acc, &core) in self.core_pending_j.iter_mut().zip(&self.cores) {
                *acc += core_w[core] * dt_s;
            }
            for (acc, &w) in self.pkg_pending_j.iter_mut().zip(pkg_w) {
                *acc += w * dt_s;
            }
        }
    }

    /// Whether the pending energy is the published one: from a
    /// publication until energy next accrues.
    pub fn is_published(&self) -> bool {
        self.pending_is_published
    }

    /// Integrates `watts.len()` whole update periods in one call, the last
    /// ending on the publication boundary `end_ns`, as
    /// [`accumulate`](Self::accumulate) over each period and
    /// [`maybe_publish`](Self::maybe_publish) at its end would, bit for
    /// bit: each period adds `w·dt_s` to each kept domain's published
    /// joules, in period order. `core_w(core, watts)` fills `watts` with a
    /// kept core domain's power in each period, `pkg_w(package, watts)` a
    /// package's; `watts` is their scratch.
    ///
    /// # Panics
    /// Panics unless the pending energy is the published one
    /// ([`is_published`](Self::is_published)): the periods must start on
    /// a publication.
    pub fn publish_periods(
        &mut self,
        end_ns: Ns,
        dt_s: f64,
        watts: &mut [f64],
        mut core_w: impl FnMut(usize, &mut [f64]),
        mut pkg_w: impl FnMut(usize, &mut [f64]),
    ) {
        assert!(self.pending_is_published, "periods must start on a publication");
        for (j, &core) in self.core_published_j.iter_mut().zip(&self.cores) {
            core_w(core, watts);
            integrate_periods(j, watts, dt_s);
        }
        for (pkg, j) in self.pkg_published_j.iter_mut().enumerate() {
            pkg_w(pkg, watts);
            integrate_periods(j, watts, dt_s);
        }
        self.last_publish_ns = end_ns - end_ns % UPDATE_PERIOD_NS;
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

    /// Each kept core domain with its raw 32-bit counter value, in core
    /// order.
    pub fn core_counters(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.cores
            .iter()
            .zip(&self.core_published_j)
            .map(|(&core, &j)| (core, quantize(j, &self.units)))
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

/// Adds `w·dt_s` to `joules` for each `w` of `watts` in turn: one
/// domain's published energy over consecutive update periods.
fn integrate_periods(joules: &mut f64, watts: &[f64], dt_s: f64) {
    for &w in watts {
        *joules += w * dt_s;
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
        assert_eq!(acc.core_counters().next(), Some((0, 65536)));
    }

    #[test]
    fn counter_wraps_at_32_bits() {
        let mut acc = RaplAccounting::new(1, 1);
        // Just over the wrap: 2^32 counts = 65536 J at default units.
        acc.accumulate(1.0, &[65537.0], &[65537.0]);
        acc.maybe_publish(1_000_000_000);
        assert_eq!(acc.core_counters().next(), Some((0, 65536)), "one joule past the wrap");
    }

    #[test]
    fn kept_cores_integrate_like_the_same_cores_of_a_whole_machine() {
        let mut whole = RaplAccounting::new(4, 2);
        let mut kept = RaplAccounting::new(4, 2);
        kept.keep_cores(&[3, 1]);
        assert_eq!(kept.cores(), [1, 3]);
        for (step, now) in [(0.0004, 400_000), (0.0006, 1_000_000), (0.001, 2_000_000)] {
            let core_w = [1.0, 2.5, 7.0, 11.0];
            for acc in [&mut whole, &mut kept] {
                acc.accumulate(step, &core_w, &[40.0, 50.0]);
                acc.maybe_publish(now);
            }
        }
        let whole_kept: Vec<(usize, u32)> =
            whole.core_counters().filter(|&(core, _)| core % 2 == 1).collect();
        assert_eq!(kept.core_counters().collect::<Vec<_>>(), whole_kept);
        for pkg in 0..2 {
            assert_eq!(kept.package_counter(pkg), whole.package_counter(pkg));
        }
    }

    #[test]
    fn a_batch_of_periods_publishes_like_one_period_at_a_time() {
        let core_w = |k: usize| [0.1 * k as f64, 3.0 + k as f64];
        let pkg_w = |k: usize| [60.0 + 0.3 * k as f64];
        let mut stepped = RaplAccounting::new(2, 1);
        let mut batched = RaplAccounting::new(2, 1);
        for acc in [&mut stepped, &mut batched] {
            acc.accumulate(0.001, &[2.0, 4.0], &[50.0]);
            acc.maybe_publish(1_000_000);
        }
        for k in 0..5 {
            stepped.accumulate(0.001, &core_w(k), &pkg_w(k));
            stepped.maybe_publish((k as u64 + 2) * 1_000_000);
        }
        assert!(batched.is_published());
        let mut watts = [0.0; 5];
        batched.publish_periods(
            6_000_000,
            0.001,
            &mut watts,
            |core, w| w.iter_mut().enumerate().for_each(|(k, w)| *w = core_w(k)[core]),
            |pkg, w| w.iter_mut().enumerate().for_each(|(k, w)| *w = pkg_w(k)[pkg]),
        );
        assert_eq!(
            batched.core_counters().collect::<Vec<_>>(),
            stepped.core_counters().collect::<Vec<_>>()
        );
        assert_eq!(
            batched.package_published_joules(0).to_bits(),
            stepped.package_published_joules(0).to_bits()
        );
        // Both published at 6 ms: a read there publishes nothing new.
        assert!(!batched.maybe_publish(6_000_000) && !stepped.maybe_publish(6_000_000));
        assert!(batched.maybe_publish(7_000_000) && stepped.maybe_publish(7_000_000));
    }

    #[test]
    #[should_panic(expected = "core count mismatch")]
    fn shape_mismatch_is_a_bug() {
        let mut acc = RaplAccounting::new(2, 1);
        acc.accumulate(0.001, &[1.0], &[1.0]);
    }
}
