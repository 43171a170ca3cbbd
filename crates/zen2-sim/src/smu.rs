//! The SMU network's DVFS behavior (Section V-B).
//!
//! Frequency-change requests are not serviced immediately: the master SMU
//! grants them only at fixed 1 ms update slots ("AMD introduced update
//! intervals for core frequencies that define times when frequency
//! transitions can be initiated"), after which the actual transition takes
//! another ~390 µs (down) or ~360 µs (up) — likely SMU-to-SMU
//! communication, much slower than Intel's centralized PCU. A request
//! landing at a random time therefore completes after a delay uniformly
//! distributed in [ramp, ramp + 1 ms] (Fig. 3).
//!
//! A transition's electrical state stays latched for ~5 ms after it
//! completes. Returning toward the previous operating point within that
//! window — *and* within a small voltage distance — takes a fast path:
//! an increase applies quasi-instantaneously (1 µs, no slot wait, because
//! the voltage is still high enough), a decrease still waits for its slot
//! but ramps in only 160 µs. On the paper's system only the 2.2/2.5 GHz
//! pair is close enough in voltage to qualify, and "the effect disappears
//! with random wait times of at least 5 ms".
//!
//! [`Smu`] keeps its earliest pending completion, the simulator's next SMU
//! event, so a segment reads it instead of scanning every core: a request
//! lowers it and each [`Smu::advance`] recomputes it.

use crate::config::SmuParams;
use crate::time::{next_boundary, Ns};

/// One applied frequency transition, as reported by [`Smu::advance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedTransition {
    /// The core whose frequency changed.
    pub core: usize,
    /// The now-active frequency in MHz.
    pub mhz: u32,
    /// Completion time.
    pub at: Ns,
    /// Whether the fast path was used.
    pub fast_path: bool,
}

/// A pending, granted-or-waiting frequency transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingTransition {
    /// Requested target frequency.
    pub target_mhz: u32,
    /// When the request was made.
    pub requested_at: Ns,
    /// When the transition will complete and the new frequency applies.
    pub completes_at: Ns,
    /// Whether the fast path was used.
    pub fast_path: bool,
}

/// Per-core DVFS state machine.
#[derive(Debug, Clone)]
pub struct CoreDvfs {
    applied_mhz: u32,
    pending: Option<PendingTransition>,
    /// The latest request that arrived while a transition was in flight;
    /// issued once the in-flight ramp completes (a ramp is never aborted).
    queued_mhz: Option<u32>,
    /// Completion time of the most recent transition.
    last_complete_at: Ns,
    /// The frequency before the most recent transition (the fast path
    /// returns *toward* this point).
    previous_mhz: u32,
}

impl CoreDvfs {
    fn new(initial_mhz: u32) -> Self {
        Self {
            applied_mhz: initial_mhz,
            pending: None,
            queued_mhz: None,
            // A fresh machine has no latched transition state.
            last_complete_at: 0,
            previous_mhz: initial_mhz,
        }
    }

    /// The frequency currently delivered to the core's DFS.
    pub fn applied_mhz(&self) -> u32 {
        self.applied_mhz
    }

    /// The in-flight transition, if any.
    pub fn pending(&self) -> Option<&PendingTransition> {
        self.pending.as_ref()
    }

    /// The effective target: queued request, pending target, or applied
    /// frequency.
    pub fn target_mhz(&self) -> u32 {
        self.queued_mhz.or(self.pending.map(|p| p.target_mhz)).unwrap_or(self.applied_mhz)
    }
}

/// The SMU's DVFS service for all cores.
#[derive(Debug, Clone)]
pub struct Smu {
    params: SmuParams,
    cores: Vec<CoreDvfs>,
    /// The earliest `completes_at` over every core's pending transition.
    next_event: Option<Ns>,
    vf_points: Vec<(u32, f64)>,
}

impl Smu {
    /// Creates the service with every core at `initial_mhz`. `vf_points`
    /// maps frequency (MHz) to voltage for fast-path eligibility.
    pub fn new(
        params: SmuParams,
        num_cores: usize,
        initial_mhz: u32,
        vf_points: Vec<(u32, f64)>,
    ) -> Self {
        assert!(!vf_points.is_empty(), "the SMU needs V/f points");
        Self {
            params,
            cores: vec![CoreDvfs::new(initial_mhz); num_cores],
            next_event: None,
            vf_points,
        }
    }

    /// Voltage the regulator supplies for a frequency: the V/f points,
    /// interpolated linearly and clamped at both ends.
    pub fn voltage(&self, mhz: u32) -> f64 {
        let pts = &self.vf_points;
        if mhz <= pts[0].0 {
            return pts[0].1;
        }
        if let Some(last) = pts.last() {
            if mhz >= last.0 {
                return last.1;
            }
        }
        for w in pts.windows(2) {
            if mhz <= w[1].0 {
                let t = (mhz - w[0].0) as f64 / (w[1].0 - w[0].0) as f64;
                return w[0].1 + t * (w[1].1 - w[0].1);
            }
        }
        unreachable!("covered by clamps")
    }

    /// Per-core state access.
    pub fn core(&self, core: usize) -> &CoreDvfs {
        &self.cores[core]
    }

    /// Number of cores under management.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The earliest pending completion across all cores, if any — the
    /// simulator's next SMU event.
    pub fn next_event(&self) -> Option<Ns> {
        self.next_event
    }

    /// Submits a frequency request for a core at time `now`. Returns the
    /// transition descriptor, or `None` if the core is already at (or
    /// heading to) the target, or if the request was queued behind an
    /// in-flight ramp (a ramp is never aborted; the latest queued request
    /// wins once it completes).
    pub fn request(&mut self, now: Ns, core: usize, target_mhz: u32) -> Option<PendingTransition> {
        assert!(target_mhz > 0, "target frequency must be positive");
        let slot_period = self.params.slot_period_ns;
        let state = &mut self.cores[core];
        if state.target_mhz() == target_mhz {
            return None;
        }
        if state.pending.is_some() {
            state.queued_mhz = if state.pending.map(|p| p.target_mhz) == Some(target_mhz) {
                None
            } else {
                Some(target_mhz)
            };
            return None;
        }
        state.queued_mhz = None;
        let applied = state.applied_mhz;
        if applied == target_mhz {
            return None;
        }
        let state = &self.cores[core];

        // Fast-path eligibility: a recent transition's state is still
        // latched, the request returns toward the previous operating
        // point, and the voltage distance is small.
        let fast = self.params.fast_path_enabled
            && state.pending.is_none()
            && now < state.last_complete_at.saturating_add(self.params.settle_window_ns)
            && state.last_complete_at > 0
            && target_mhz == state.previous_mhz
            && (self.voltage(target_mhz) - self.voltage(applied)).abs()
                <= self.params.fast_path_max_dv;

        let up = target_mhz > applied;
        let completes_at = if fast && up {
            // Voltage still high enough: apply without a slot grant.
            now + self.params.fast_up_ns
        } else {
            let grant = next_boundary(now, slot_period);
            let ramp = match (up, fast) {
                (true, _) => self.params.ramp_up_ns,
                (false, true) => self.params.fast_ramp_down_ns,
                (false, false) => self.params.ramp_down_ns,
            };
            grant + ramp
        };
        let pending =
            PendingTransition { target_mhz, requested_at: now, completes_at, fast_path: fast };
        self.cores[core].pending = Some(pending);
        self.next_event = Some(self.next_event.map_or(completes_at, |e| e.min(completes_at)));
        Some(pending)
    }

    /// Completes every transition due at or before `now`, issuing queued
    /// follow-up requests as ramps finish; returns one record per applied
    /// transition in completion order per core.
    pub fn advance(&mut self, now: Ns) -> Vec<CompletedTransition> {
        let mut completed = Vec::new();
        for idx in 0..self.cores.len() {
            while let Some(p) = self.cores[idx].pending {
                if p.completes_at > now {
                    break;
                }
                {
                    let core = &mut self.cores[idx];
                    core.previous_mhz = core.applied_mhz;
                    core.applied_mhz = p.target_mhz;
                    core.last_complete_at = p.completes_at;
                    core.pending = None;
                }
                completed.push(CompletedTransition {
                    core: idx,
                    mhz: p.target_mhz,
                    at: p.completes_at,
                    fast_path: p.fast_path,
                });
                // Issue the queued follow-up from the completion instant.
                if let Some(next_target) = self.cores[idx].queued_mhz.take() {
                    if next_target != self.cores[idx].applied_mhz {
                        self.request(p.completes_at, idx, next_target);
                    }
                } else {
                    break;
                }
            }
        }
        self.next_event = self.cores.iter().filter_map(|c| c.pending.map(|p| p.completes_at)).min();
        completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MICROSECOND, MILLISECOND};

    fn smu() -> Smu {
        Smu::new(SmuParams::default(), 4, 2500, vec![(1500, 0.85), (2200, 0.95), (2500, 1.00)])
    }

    fn settle(s: &mut Smu, now: &mut Ns) {
        // Run past the settle window so no latched state remains.
        *now += 20 * MILLISECOND;
        s.advance(*now);
    }

    #[test]
    fn transition_waits_for_slot_then_ramps() {
        let mut s = smu();
        let mut now = 0;
        settle(&mut s, &mut now);
        // Request 2.2 GHz at 300 us past a slot boundary.
        let t0 = now + 300 * MICROSECOND;
        let p = s.request(t0, 0, 2200).unwrap();
        assert!(!p.fast_path);
        // Grant at the next 1 ms boundary, plus the 390 us down-ramp.
        let expected = next_boundary(t0, MILLISECOND) + 390 * MICROSECOND;
        assert_eq!(p.completes_at, expected);
        let delay = p.completes_at - t0;
        assert!((390 * MICROSECOND..=1390 * MICROSECOND).contains(&delay));
        // Nothing applies early.
        assert!(s.advance(p.completes_at - 1).is_empty());
        assert_eq!(s.core(0).applied_mhz(), 2500);
        let done = s.advance(p.completes_at);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].core, 0);
        assert_eq!(done[0].mhz, 2200);
        assert!(!done[0].fast_path);
        assert_eq!(s.core(0).applied_mhz(), 2200);
    }

    #[test]
    fn delay_distribution_bounds_match_fig3() {
        // Request times swept across the slot: delays must cover
        // (390, 1390] us and nothing outside.
        let mut lo = u64::MAX;
        let mut hi = 0;
        for offset in (0..1000).map(|i| i * MICROSECOND) {
            let mut s = smu();
            let mut now = 0;
            settle(&mut s, &mut now);
            let t0 = now + offset;
            let p = s.request(t0, 0, 1500).unwrap();
            let d = p.completes_at - t0;
            lo = lo.min(d);
            hi = hi.max(d);
        }
        // The grant falls strictly after the request, so the observable
        // window is (390, 1390] µs with 1 µs-grid request times.
        assert!((390 * MICROSECOND..=392 * MICROSECOND).contains(&lo), "lo {lo}");
        assert_eq!(hi, 1390 * MICROSECOND);
    }

    #[test]
    fn up_ramp_is_shorter_than_down_ramp() {
        let mut s = smu();
        let mut now = 0;
        settle(&mut s, &mut now);
        let p = s.request(now, 0, 1500).unwrap();
        s.advance(p.completes_at);
        let mut now = p.completes_at + 20 * MILLISECOND;
        s.advance(now);
        now += 100 * MICROSECOND;
        let up = s.request(now, 0, 2500).unwrap();
        assert!(!up.fast_path, "after settling, no fast path");
        let delay = up.completes_at - now;
        assert!((360 * MICROSECOND..=1360 * MICROSECOND).contains(&delay));
    }

    #[test]
    fn fast_up_path_is_instantaneous_within_settle_window() {
        // 2.5 -> 2.2, then back to 2.5 quickly: voltage still latched.
        let mut s = smu();
        let mut now = 0;
        settle(&mut s, &mut now);
        let down = s.request(now + 100, 0, 2200).unwrap();
        s.advance(down.completes_at);
        let back_at = down.completes_at + MILLISECOND; // well inside 5 ms
        let up = s.request(back_at, 0, 2500).unwrap();
        assert!(up.fast_path);
        assert_eq!(up.completes_at - back_at, MICROSECOND);
    }

    #[test]
    fn fast_down_path_skips_most_of_the_ramp() {
        // 2.2 -> 2.5, then back down to 2.2 quickly: 160 us ramp, but the
        // slot wait still applies (min observed 160 us, max 1160 us).
        let mut s = smu();
        let mut now = 0;
        settle(&mut s, &mut now);
        let d = s.request(now + 100, 0, 2200).unwrap();
        s.advance(d.completes_at);
        let mut now2 = d.completes_at + 20 * MILLISECOND;
        s.advance(now2);
        now2 += 10;
        let u = s.request(now2, 0, 2500).unwrap();
        s.advance(u.completes_at);
        // Return down within the settle window, right before a slot.
        let back_at = next_boundary(u.completes_at, MILLISECOND) - 10;
        let down = s.request(back_at, 0, 2200).unwrap();
        assert!(down.fast_path);
        let delay = down.completes_at - back_at;
        assert!(delay < 390 * MICROSECOND, "fast down {delay} ns");
        assert!(delay >= 160 * MICROSECOND);
    }

    #[test]
    fn fast_path_needs_small_voltage_distance() {
        // 2.2 -> 1.5 and back: dV = 0.1 V exceeds the window, so the
        // anomaly never appears for this pair (as in the paper).
        let mut s = smu();
        let mut now = 0;
        settle(&mut s, &mut now);
        let a = s.request(now + 5, 0, 2200).unwrap();
        s.advance(a.completes_at);
        let b = s.request(a.completes_at + 100, 0, 1500).unwrap();
        assert!(!b.fast_path);
        s.advance(b.completes_at);
        let c = s.request(b.completes_at + 100, 0, 2200).unwrap();
        assert!(!c.fast_path, "2.2<->1.5 must never take the fast path");
    }

    #[test]
    fn fast_path_expires_after_settle_window() {
        let mut s = smu();
        let mut now = 0;
        settle(&mut s, &mut now);
        let down = s.request(now + 100, 0, 2200).unwrap();
        s.advance(down.completes_at);
        // 6 ms later: the state has unlatched.
        let back_at = down.completes_at + 6 * MILLISECOND;
        let up = s.request(back_at, 0, 2500).unwrap();
        assert!(!up.fast_path);
    }

    #[test]
    fn fast_path_requires_returning_to_previous_point() {
        let mut s = smu();
        let mut now = 0;
        settle(&mut s, &mut now);
        let down = s.request(now + 100, 0, 2200).unwrap();
        s.advance(down.completes_at);
        // Heading to 1.5 GHz (not back to 2.5) is a normal transition.
        let other = s.request(down.completes_at + 500, 0, 1500).unwrap();
        assert!(!other.fast_path);
    }

    #[test]
    fn redundant_requests_are_ignored() {
        let mut s = smu();
        let mut now = 0;
        settle(&mut s, &mut now);
        assert!(s.request(now, 0, 2500).is_none(), "already applied");
        let p = s.request(now + 5, 0, 2200).unwrap();
        assert!(s.request(now + 10, 0, 2200).is_none(), "already pending");
        s.advance(p.completes_at);
        assert!(s.request(p.completes_at + 1, 0, 2200).is_none());
    }

    #[test]
    fn cores_are_independent() {
        let mut s = smu();
        let mut now = 0;
        settle(&mut s, &mut now);
        let a = s.request(now + 5, 0, 1500).unwrap();
        let b = s.request(now + 5, 3, 2200).unwrap();
        s.advance(a.completes_at.max(b.completes_at));
        assert_eq!(s.core(0).applied_mhz(), 1500);
        assert_eq!(s.core(3).applied_mhz(), 2200);
        assert_eq!(s.core(1).applied_mhz(), 2500);
    }

    #[test]
    fn ablation_disables_fast_path() {
        let params = SmuParams { fast_path_enabled: false, ..SmuParams::default() };
        let mut s = Smu::new(params, 1, 2500, vec![(1500, 0.85), (2200, 0.95), (2500, 1.00)]);
        let down = s.request(100, 0, 2200).unwrap();
        s.advance(down.completes_at);
        let up = s.request(down.completes_at + 100, 0, 2500).unwrap();
        assert!(!up.fast_path);
    }
}
