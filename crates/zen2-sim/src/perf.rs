//! Hardware performance counters (TSC, APERF, MPERF, instructions).
//!
//! The paper observes effective frequencies through `perf stat` — i.e.
//! through the APERF/MPERF ratio and cycle counts. Two Zen 2 behaviors
//! matter for the experiments:
//!
//! * counters *halt* in C1 and C2 ("the hardware counters for cycles,
//!   aperf, and mperf do not advance on cores that are in C1"), while the
//!   TSC is invariant and always runs at the nominal rate;
//! * an "idle" hardware thread still executes timer interrupts and
//!   reports "less than 60 000 cycle/s" (Section V-A).
//!
//! A machine keeps one [`ThreadCounters`] per thread it can be asked
//! about: every thread on a hand-driven machine, only the threads its
//! counter probes read in a session case (`System::keep_counters`).

use crate::cstate::ThreadState;

/// Accumulated counters of one hardware thread, kept as fractional
/// counts and read through `System::counters` and the counter probes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadCounters {
    /// Invariant time-stamp counter (nominal rate, always running).
    pub tsc: f64,
    /// Actual-performance counter (effective rate, C0 only).
    pub aperf: f64,
    /// Max-performance counter (nominal rate, C0 only).
    pub mperf: f64,
    /// Unhalted core cycles attributed to this thread.
    pub cycles: f64,
    /// Retired instructions attributed to this thread.
    pub instructions: f64,
}

impl ThreadCounters {
    /// Advances the counters over `dt_s` seconds.
    ///
    /// * `state` — the thread's scheduling state during the interval,
    /// * `eff_ghz` — the core's delivered frequency,
    /// * `nominal_ghz` — the P0 reference frequency,
    /// * `thread_ipc` — instructions per cycle attributed to this thread,
    /// * `idle_wake_cycles_per_s` — timer-tick cycles for idle threads.
    #[allow(clippy::too_many_arguments)]
    pub fn advance(
        &mut self,
        dt_s: f64,
        state: ThreadState,
        eff_ghz: f64,
        nominal_ghz: f64,
        thread_ipc: f64,
        idle_wake_cycles_per_s: f64,
    ) {
        assert!(dt_s >= 0.0, "time cannot run backwards");
        self.tsc += nominal_ghz * 1e9 * dt_s;
        match state {
            ThreadState::Active => {
                let cycles = eff_ghz * 1e9 * dt_s;
                self.aperf += cycles;
                self.mperf += nominal_ghz * 1e9 * dt_s;
                self.cycles += cycles;
                self.instructions += thread_ipc * cycles;
            }
            ThreadState::C1 | ThreadState::C2 => {
                // Timer interrupts briefly pop the thread into C0.
                let wake_cycles = idle_wake_cycles_per_s * dt_s;
                let c0_time_s = if eff_ghz > 0.0 { wake_cycles / (eff_ghz * 1e9) } else { 0.0 };
                self.aperf += wake_cycles;
                self.mperf += nominal_ghz * 1e9 * c0_time_s;
                self.cycles += wake_cycles;
                // Interrupt handlers retire roughly one instruction per
                // cycle on this short path.
                self.instructions += wake_cycles;
            }
            ThreadState::Offline => {}
        }
    }

    /// Effective frequency over a counter delta, the `perf`/cpufreq way.
    pub fn effective_ghz(before: &Self, after: &Self, nominal_ghz: f64) -> f64 {
        let da = after.aperf - before.aperf;
        let dm = after.mperf - before.mperf;
        if dm <= 0.0 {
            return 0.0;
        }
        nominal_ghz * da / dm
    }

    /// Instructions per cycle over a counter delta.
    pub fn ipc(before: &Self, after: &Self) -> f64 {
        let dc = after.cycles - before.cycles;
        if dc <= 0.0 {
            return 0.0;
        }
        (after.instructions - before.instructions) / dc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_thread_accumulates_at_effective_rate() {
        let mut c = ThreadCounters::default();
        c.advance(1.0, ThreadState::Active, 2.0, 2.5, 3.0, 50_000.0);
        assert!((c.aperf - 2.0e9).abs() < 1.0);
        assert!((c.mperf - 2.5e9).abs() < 1.0);
        assert!((c.tsc - 2.5e9).abs() < 1.0);
        assert!((c.instructions - 6.0e9).abs() < 1.0);
    }

    #[test]
    fn aperf_mperf_ratio_recovers_effective_frequency() {
        let mut before = ThreadCounters::default();
        let mut after = before;
        after.advance(2.0, ThreadState::Active, 2.0, 2.5, 1.0, 0.0);
        let eff = ThreadCounters::effective_ghz(&before, &after, 2.5);
        assert!((eff - 2.0).abs() < 1e-9);
        before.advance(1.0, ThreadState::Active, 1.4667, 2.5, 1.0, 0.0);
        let eff = ThreadCounters::effective_ghz(&ThreadCounters::default(), &before, 2.5);
        assert!((eff - 1.4667).abs() < 1e-9);
    }

    #[test]
    fn idle_thread_reports_under_60k_cycles_per_second() {
        // The Section V-A observation that motivated the paper's check.
        let mut c = ThreadCounters::default();
        c.advance(1.0, ThreadState::C2, 2.5, 2.5, 0.0, 50_000.0);
        assert!(c.cycles > 0.0 && c.cycles < 60_000.0, "idle cycles {}", c.cycles);
        // The TSC keeps running regardless.
        assert!((c.tsc - 2.5e9).abs() < 1.0);
    }

    #[test]
    fn offline_thread_counts_nothing_but_tsc() {
        let mut c = ThreadCounters::default();
        c.advance(1.0, ThreadState::Offline, 2.5, 2.5, 1.0, 50_000.0);
        assert_eq!(c.cycles, 0.0);
        assert_eq!(c.aperf, 0.0);
        assert!(c.tsc > 0.0);
    }

    #[test]
    fn ipc_over_delta() {
        let before = ThreadCounters::default();
        let mut after = before;
        after.advance(1.0, ThreadState::Active, 2.0, 2.5, 3.56, 0.0);
        assert!((ThreadCounters::ipc(&before, &after) - 3.56).abs() < 1e-9);
    }

    #[test]
    fn zero_deltas_do_not_divide_by_zero() {
        let c = ThreadCounters::default();
        assert_eq!(ThreadCounters::effective_ghz(&c, &c, 2.5), 0.0);
        assert_eq!(ThreadCounters::ipc(&c, &c), 0.0);
    }
}
