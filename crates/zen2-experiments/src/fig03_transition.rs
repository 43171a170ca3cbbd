//! Fig. 3 — frequency transition delays, plus the §V-B 2.2↔2.5 GHz
//! anomaly.
//!
//! Methodology (refined from Mazouz et al., as in the paper): the
//! benchmark switches the core frequency and watches a minimal workload's
//! performance until the target level is reached and validated; before
//! the next sample it waits a random time between 0 and 10 ms. Each
//! (initial, target) combination is measured many times; other cores sit
//! at the minimum frequency.
//!
//! The whole schedule is a declarative [`Scenario`]: the random waits are
//! pre-drawn from the seed, every switch is a recorded step, and the
//! delays are recovered from the lo2s-style event trace via
//! [`Probe::TraceEvents`] — the time from `FreqRequested` to the matching
//! `FreqApplied` is exactly what the polling benchmark observes, up to
//! its detection granularity (added as noise in the reduction).

use crate::report::{compare, Table};
use crate::Scale;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use zen2_isa::{KernelClass, OperandWeight};
use zen2_sim::methodology::{mean, Histogram};
use zen2_sim::sweep::child_seed;
use zen2_sim::time::{Ns, MICROSECOND, MILLISECOND};
use zen2_sim::trace::Event;
use zen2_sim::{Case, EventFilter, Probe, Run, Scenario, Session, SimConfig, Window};
use zen2_topology::{CoreId, ThreadId};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Samples per direction.
    pub samples: usize,
    /// Initial frequency (MHz).
    pub from_mhz: u32,
    /// Target frequency (MHz).
    pub to_mhz: u32,
    /// Maximum random wait between samples, milliseconds.
    pub max_wait_ms: u64,
    /// Minimum random wait between samples, milliseconds.
    pub min_wait_ms: u64,
}

impl Config {
    /// The Fig. 3 configuration (2.2 → 1.5 GHz) at a given scale
    /// (paper: 100 000 samples).
    pub fn fig3(scale: Scale) -> Self {
        Self {
            samples: scale.pick(2_000, 100_000),
            from_mhz: 2200,
            to_mhz: 1500,
            max_wait_ms: 10,
            min_wait_ms: 0,
        }
    }

    /// The §V-B anomaly configuration (2.5 ↔ 2.2 GHz, short waits).
    pub fn anomaly(scale: Scale) -> Self {
        Self {
            samples: scale.pick(2_000, 100_000),
            from_mhz: 2500,
            to_mhz: 2200,
            max_wait_ms: 10,
            min_wait_ms: 0,
        }
    }

    /// The anomaly configuration with ≥5 ms waits (effect must vanish).
    pub fn anomaly_long_waits(scale: Scale) -> Self {
        Self { min_wait_ms: 5, max_wait_ms: 15, ..Self::anomaly(scale) }
    }
}

/// Measured delay distribution for one direction.
#[derive(Debug, Clone)]
pub struct DirectionResult {
    /// Transition direction label.
    pub label: String,
    /// All measured delays in microseconds.
    pub delays_us: Vec<f64>,
    /// Minimum delay (µs).
    pub min_us: f64,
    /// Maximum delay (µs).
    pub max_us: f64,
    /// Mean delay (µs).
    pub mean_us: f64,
    /// Fraction of samples that took a fast path (<350 µs for a
    /// down-switch, <5 µs for an up-switch).
    pub fast_fraction: f64,
}

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Down-switch (from → to) distribution.
    pub down: DirectionResult,
    /// Up-switch (to → from) distribution.
    pub up: DirectionResult,
    /// Histogram of down-switch delays in 25 µs bins over [0, 1500) µs.
    pub histogram_counts: Vec<u64>,
    /// Coefficient of variation over the uniform plateau bins.
    pub plateau_cv: f64,
}

/// Settling time at the initial frequency before the first sample.
const SETTLE_NS: Ns = 20 * MILLISECOND;

/// Upper bound on any transition delay (a ≤1 ms slot wait plus the 390 µs
/// ramp, with margin): consecutive switches are spaced at least this far
/// apart, so every transition completes — and is visible in the trace —
/// before the next request lands.
const SPACING_NS: Ns = 1_500 * MICROSECOND;

/// Builds the declarative benchmark schedule: other cores pinned to the
/// minimum frequency, a busy loop on the measured core, a settle phase at
/// the initial frequency, then `samples` down/up switch pairs separated
/// by the paper's random waits (pre-drawn from the seed).
pub fn scenario(cfg: &Config, seed: u64) -> Scenario {
    let sim = SimConfig::epyc_7502_2s();
    let min_mhz = sim.min_mhz();
    let num_threads = sim.topology.num_threads() as u32;

    let mut sc = Scenario::new();
    let mut at = sc.at(0);
    for t in 2..num_threads {
        at = at.pstate(ThreadId(t), min_mhz);
    }
    at.workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF)
        .pstate(ThreadId(1), cfg.from_mhz)
        .pstate(ThreadId(0), cfg.from_mhz);

    let mut rng = ChaCha8Rng::seed_from_u64(child_seed(seed, 1));
    let span_us = (cfg.max_wait_ms - cfg.min_wait_ms) * 1000;
    let mut t = SETTLE_NS;
    for _ in 0..cfg.samples {
        t += cfg.min_wait_ms * MILLISECOND + rng.gen_range(0..=span_us) * MICROSECOND;
        sc.at(t).pstate(ThreadId(1), cfg.to_mhz).pstate(ThreadId(0), cfg.to_mhz);
        t += SPACING_NS;
        t += cfg.min_wait_ms * MILLISECOND + rng.gen_range(0..=span_us) * MICROSECOND;
        sc.at(t).pstate(ThreadId(1), cfg.from_mhz).pstate(ThreadId(0), cfg.from_mhz);
        t += SPACING_NS;
    }
    sc.probe(
        "freq_events",
        Probe::TraceEvents(EventFilter::Freq(CoreId(0))),
        Window::span(0, t + MILLISECOND),
    );
    sc
}

/// The performance-polling benchmark detects a completed transition only
/// at the granularity of its minimal-workload iterations (~µs): uniform
/// detection lag added to every measured delay.
fn detection_noise_ns<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    rng.gen_range(0.0..2_000.0)
}

/// Recovers the per-direction delay distributions from the event trace.
fn reduce(cfg: &Config, seed: u64, run: &Run) -> Fig3Result {
    let mut noise_rng = ChaCha8Rng::seed_from_u64(child_seed(seed, 2));
    let mut down_delays = Vec::with_capacity(cfg.samples);
    let mut up_delays = Vec::with_capacity(cfg.samples);

    // Both siblings request at the same instant and at most one of the
    // two requests starts a transition, so pair each applied frequency
    // with the first same-target request since the last application.
    let mut pending: Option<(Ns, u32)> = None;
    for record in run.events("freq_events") {
        match record.event {
            Event::FreqRequested { target_mhz, .. }
                if pending.map(|(_, mhz)| mhz) != Some(target_mhz) =>
            {
                pending = Some((record.at_ns, target_mhz));
            }
            Event::FreqApplied { mhz, .. } => {
                let Some((requested_at, target)) = pending.take() else { continue };
                // The settle transition into the initial frequency is not
                // a sample.
                if mhz != target || requested_at < SETTLE_NS {
                    continue;
                }
                let delay =
                    (record.at_ns - requested_at) as f64 + detection_noise_ns(&mut noise_rng);
                if target == cfg.to_mhz {
                    down_delays.push(delay / 1000.0);
                } else {
                    up_delays.push(delay / 1000.0);
                }
            }
            _ => {}
        }
    }

    let mut histogram = Histogram::new(0.0, 1500.0, 60);
    for &d in &down_delays {
        histogram.add(d);
    }
    // The uniform plateau spans bins 16..=54 (400-1375 µs).
    let plateau_cv = histogram.plateau_cv(16, 55);

    let direction = |label: String, delays: &[f64], fast_threshold_us: f64| DirectionResult {
        label,
        min_us: delays.iter().copied().fold(f64::INFINITY, f64::min),
        max_us: delays.iter().copied().fold(0.0, f64::max),
        mean_us: mean(delays),
        fast_fraction: delays.iter().filter(|&&d| d < fast_threshold_us).count() as f64
            / delays.len() as f64,
        delays_us: delays.to_vec(),
    };

    Fig3Result {
        down: direction(format!("{} -> {} MHz", cfg.from_mhz, cfg.to_mhz), &down_delays, 350.0),
        up: direction(format!("{} -> {} MHz", cfg.to_mhz, cfg.from_mhz), &up_delays, 5.0),
        histogram_counts: histogram.counts().to_vec(),
        plateau_cv,
    }
}

/// Runs the transition-delay experiment through a [`Session`].
pub fn run(cfg: &Config, seed: u64) -> Fig3Result {
    let case =
        Case::new("fig03", SimConfig::epyc_7502_2s(), scenario(cfg, seed), child_seed(seed, 0));
    let runs = Session::new().run(std::slice::from_ref(&case)).expect("fig03 scenario validates");
    reduce(cfg, seed, &runs[0])
}

/// Renders the paper-style summary.
pub fn render(result: &Fig3Result) -> String {
    let tables = tables(result);
    let mut out = tables[0].render();
    out.push_str(&format!(
        "plateau uniformity (CV over 400-1375 us bins): {:.3}\n",
        result.plateau_cv
    ));
    out.push_str(&format!(
        "paper vs measured mean (down): {}\n",
        compare(890.0, result.down.mean_us, " us")
    ));
    out.push_str(&tables[1].render());
    out
}

/// The summary and histogram as [`Table`]s (for text or JSON output).
pub fn tables(result: &Fig3Result) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 3 — frequency transition delays (paper: uniform 390-1390 us for 2.2->1.5 GHz)",
        &["direction", "min [us]", "max [us]", "mean [us]", "fast-path fraction"],
    );
    for d in [&result.down, &result.up] {
        t.row(&[
            d.label.clone(),
            format!("{:.0}", d.min_us),
            format!("{:.0}", d.max_us),
            format!("{:.0}", d.mean_us),
            format!("{:.3}", d.fast_fraction),
        ]);
    }
    let mut hist = Table::new("Fig. 3 histogram (25 us bins)", &["bin start [us]", "count"]);
    for (i, &c) in result.histogram_counts.iter().enumerate() {
        hist.row(&[format!("{}", i * 25), format!("{c}")]);
    }
    vec![t, hist]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_distribution_is_uniform_390_to_1390() {
        let result = run(&Config::fig3(Scale::Quick), 7);
        assert_eq!(result.down.delays_us.len(), Config::fig3(Scale::Quick).samples);
        assert_eq!(result.up.delays_us.len(), Config::fig3(Scale::Quick).samples);
        assert!(result.down.min_us >= 389.0, "min {}", result.down.min_us);
        assert!(result.down.max_us <= 1393.0, "max {}", result.down.max_us);
        assert!((result.down.mean_us - 890.0).abs() < 25.0, "mean {}", result.down.mean_us);
        // No fast paths for the 2.2<->1.5 pair.
        assert_eq!(result.down.fast_fraction, 0.0);
        assert_eq!(result.up.fast_fraction, 0.0);
        // Roughly uniform plateau.
        assert!(result.plateau_cv < 0.35, "plateau CV {}", result.plateau_cv);
    }

    #[test]
    fn up_switches_are_slightly_faster() {
        let result = run(&Config::fig3(Scale::Quick), 11);
        // 360 us ramp vs 390 us ramp.
        assert!(result.up.min_us >= 359.0 && result.up.min_us < 375.0, "{}", result.up.min_us);
        assert!(result.up.mean_us < result.down.mean_us);
    }

    #[test]
    fn anomaly_appears_for_25_22_with_short_waits() {
        let result = run(&Config::anomaly(Scale::Quick), 13);
        // Down-switches below the 390 us minimum exist (down to ~160 us).
        assert!(result.down.min_us < 250.0, "fast down min {}", result.down.min_us);
        assert!(result.down.fast_fraction > 0.05, "{}", result.down.fast_fraction);
        // Some up-switches are quasi-instantaneous (~1 us).
        assert!(result.up.min_us < 5.0, "fast up min {}", result.up.min_us);
        assert!(result.up.fast_fraction > 0.05, "{}", result.up.fast_fraction);
    }

    #[test]
    fn anomaly_vanishes_with_5ms_waits() {
        let result = run(&Config::anomaly_long_waits(Scale::Quick), 17);
        assert_eq!(result.down.fast_fraction, 0.0, "min {}", result.down.min_us);
        assert_eq!(result.up.fast_fraction, 0.0, "min {}", result.up.min_us);
    }

    #[test]
    fn noise_is_bounded_microseconds() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..1000 {
            let n = detection_noise_ns(&mut rng);
            assert!((0.0..2_000.0).contains(&n));
        }
    }

    #[test]
    fn render_contains_key_lines() {
        let mut cfg = Config::fig3(Scale::Quick);
        cfg.samples = 50;
        let s = render(&run(&cfg, 3));
        assert!(s.contains("Fig. 3"));
        assert!(s.contains("2200 -> 1500 MHz"));
        assert!(s.contains("histogram"));
    }
}
