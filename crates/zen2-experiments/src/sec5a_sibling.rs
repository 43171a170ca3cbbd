//! §V-A — influence of idling hardware threads on core frequencies.
//!
//! One thread runs `while(1);` at the minimum frequency; the sibling
//! hardware thread is set to the nominal frequency and left idle (or
//! offlined). On Zen 2 the idle/offline sibling's request still elevates
//! the core — never observed on Intel with deep idle states enabled.
//!
//! The three sibling configurations are declarative [`Scenario`]s on one
//! axis of a [`Sweep`] streamed through the [`Session`] worker pool.

use crate::report::Table;
use zen2_sim::perf::ThreadCounters;
use zen2_sim::time::{MILLISECOND, SECOND};
use zen2_sim::{Axis, Probe, Scenario, Session, SimConfig, Sweep, Window};
use zen2_topology::ThreadId;

/// Sibling configurations swept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiblingMode {
    /// Sibling idle in C2 with a nominal-frequency request.
    IdleAtNominal,
    /// Sibling offlined while requesting nominal.
    OfflineAtNominal,
    /// Sibling idle with its request lowered to the minimum — the paper's
    /// recommended mitigation.
    IdleAtMinimum,
}

/// The swept sibling configurations, in presentation order.
const MODES: [SiblingMode; 3] =
    [SiblingMode::IdleAtNominal, SiblingMode::OfflineAtNominal, SiblingMode::IdleAtMinimum];

/// One observation.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The sibling configuration.
    pub mode: SiblingMode,
    /// perf-observed frequency of the active thread, GHz.
    pub active_freq_ghz: f64,
    /// Cycles per second the idle sibling reports.
    pub sibling_cycles_per_s: f64,
}

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct Sec5aResult {
    /// All observations.
    pub observations: Vec<Observation>,
}

/// Builds one sibling configuration's scenario.
fn scenario(mode: SiblingMode) -> Scenario {
    let active = ThreadId(0);
    let sibling = ThreadId(1);
    let mut sc = Scenario::new();
    let at = sc
        .at(0)
        .workload(active, zen2_isa::KernelClass::BusyWait, zen2_isa::OperandWeight::HALF)
        .pstate(active, 1500);
    match mode {
        SiblingMode::IdleAtNominal => at.pstate(sibling, 2500),
        SiblingMode::OfflineAtNominal => at.pstate(sibling, 2500).online(sibling, false),
        SiblingMode::IdleAtMinimum => at.pstate(sibling, 1500),
    };
    // 20 ms settling, then one second of perf counting on both threads.
    let window = Window::span(20 * MILLISECOND, 20 * MILLISECOND + SECOND);
    sc.probe("active", Probe::CounterDelta(active), window);
    sc.probe("sibling", Probe::CounterDelta(sibling), window);
    sc
}

/// The sibling configurations as a one-axis [`Sweep`].
fn sweep(seed: u64) -> Sweep {
    let sim_cfg = SimConfig::epyc_7502_2s();
    Sweep::new("sec5a", move |ix| (sim_cfg.clone(), scenario(MODES[ix[0]])))
        .seed(seed)
        .axis(Axis::new("sibling", MODES.map(|mode| format!("{mode:?}"))))
}

/// Runs the three sibling configurations through `session`.
pub fn run(seed: u64, session: &Session) -> Sec5aResult {
    let mut observations = Vec::with_capacity(MODES.len());
    sweep(seed)
        .stream(session, |i, run| {
            let (a_begin, a_end, _) = run.counter_delta("active");
            let (s_begin, s_end, wall_s) = run.counter_delta("sibling");
            observations.push(Observation {
                mode: MODES[i],
                active_freq_ghz: ThreadCounters::effective_ghz(&a_begin, &a_end, 2.5),
                sibling_cycles_per_s: (s_end.cycles - s_begin.cycles) / wall_s,
            });
        })
        .expect("sec5a scenarios validate");
    Sec5aResult { observations }
}

/// Renders the observation table.
pub fn render(r: &Sec5aResult) -> String {
    tables(r).iter().map(Table::render).collect()
}

/// The observations as a [`Table`] (for text or JSON output).
pub fn tables(r: &Sec5aResult) -> Vec<Table> {
    let mut t = Table::new(
        "SS V-A — active thread set to 1.5 GHz; sibling influence (paper: idle/offline sibling at 2.5 GHz elevates the core to 2.5 GHz)",
        &["sibling", "active thread freq [GHz]", "sibling cycles/s"],
    );
    for o in &r.observations {
        t.row(&[
            format!("{:?}", o.mode),
            format!("{:.3}", o.active_freq_ghz),
            format!("{:.0}", o.sibling_cycles_per_s),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(r: &Sec5aResult, mode: SiblingMode) -> &Observation {
        r.observations.iter().find(|o| o.mode == mode).expect("mode present")
    }

    #[test]
    fn sweep_builds_the_hand_built_cases() {
        // The sweep port must not change results: the three cases as the
        // module built them by hand hold the sweep's cases.
        use zen2_sim::{sweep::child_seed, Case};
        let seed = 100;
        let modes =
            [SiblingMode::IdleAtNominal, SiblingMode::OfflineAtNominal, SiblingMode::IdleAtMinimum];
        let sim_cfg = SimConfig::epyc_7502_2s();
        let cases: Vec<Case> = modes
            .iter()
            .enumerate()
            .map(|(i, &mode)| {
                Case::new(
                    format!("{mode:?}"),
                    sim_cfg.clone(),
                    scenario(mode),
                    child_seed(seed, i as u64),
                )
            })
            .collect();
        crate::assert_same_cases(&sweep(seed), &cases);
    }

    #[test]
    fn idle_sibling_elevates_the_core() {
        let r = run(101, &Session::new());
        let o = find(&r, SiblingMode::IdleAtNominal);
        assert!((o.active_freq_ghz - 2.5).abs() < 0.01, "elevated to {}", o.active_freq_ghz);
    }

    #[test]
    fn offline_sibling_also_elevates() {
        let r = run(102, &Session::new());
        let o = find(&r, SiblingMode::OfflineAtNominal);
        assert!((o.active_freq_ghz - 2.5).abs() < 0.01, "elevated to {}", o.active_freq_ghz);
        // Offline threads execute nothing at all.
        assert_eq!(o.sibling_cycles_per_s, 0.0);
    }

    #[test]
    fn lowering_the_sibling_request_restores_control() {
        let r = run(103, &Session::new());
        let o = find(&r, SiblingMode::IdleAtMinimum);
        assert!((o.active_freq_ghz - 1.5).abs() < 0.01, "restored to {}", o.active_freq_ghz);
    }

    #[test]
    fn idle_sibling_reports_under_60k_cycles() {
        // "The idling thread reports only a usage of less than
        // 60 000 cycle/s".
        let r = run(104, &Session::new());
        let o = find(&r, SiblingMode::IdleAtNominal);
        assert!(
            o.sibling_cycles_per_s > 0.0 && o.sibling_cycles_per_s < 60_000.0,
            "sibling cycles {}",
            o.sibling_cycles_per_s
        );
    }
}
