//! Fig. 7 — full-system AC power for different idle-state combinations.
//!
//! Three sweeps over the number of threads *not* in C2, applied "following
//! the logical CPU numbering in steps of single CPUs":
//!
//! * **C1** — C2 disabled on the first *n* logical CPUs;
//! * **active (pause)** — an unrolled pause loop pinned to the first *n*
//!   logical CPUs, at 1.5 / 2.2 / 2.5 GHz;
//! * the all-C2 baseline.
//!
//! Every configuration is one declarative [`Scenario`]; the whole grid is
//! a two-axis [`Sweep`] (sweep kind × thread count) streamed through the
//! [`Session`] worker pool, with the curves read out of one cell per
//! case: its mean AC power. [`run_checkpointed`] persists those cells
//! at every shard boundary for the `--checkpoint` / `--resume` workflow
//! of `docs/SWEEPS.md`; the all-C2 baseline runs as one extra case once
//! the grid has returned.

use crate::report::{compare, Table};
use crate::Scale;
use zen2_isa::{KernelClass, OperandWeight};
use zen2_sim::checkpoint::run_resumable;
use zen2_sim::sweep::child_seed;
use zen2_sim::{
    Axis, Case, CheckpointError, CheckpointSpec, Probe, Run, Scenario, Session, SimConfig, Sweep,
    Window,
};
use zen2_topology::{CpuNumbering, LogicalCpu, ThreadId};

/// Paper reference points.
pub mod paper {
    /// All threads in C2.
    pub const ALL_C2_W: f64 = 99.1;
    /// One core in C1 (the package wake step): 99.1 + 81.2.
    pub const FIRST_C1_W: f64 = 180.3;
    /// Each additional C1 core.
    pub const PER_C1_CORE_W: f64 = 0.09;
    /// One active pause thread, others C2.
    pub const FIRST_ACTIVE_W: f64 = 180.4;
    /// Each additional active core at 2.5 GHz.
    pub const PER_ACTIVE_CORE_W: f64 = 0.33;
    /// Each additional active sibling thread at 2.5 GHz.
    pub const PER_ACTIVE_THREAD_W: f64 = 0.05;
}

/// Which idle sweep a curve belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// Threads moved from C2 to C1.
    C1,
    /// Threads running the unrolled pause loop at a frequency (MHz).
    ActivePause(u32),
}

/// One measured curve.
#[derive(Debug, Clone)]
pub struct Curve {
    /// The sweep this curve belongs to.
    pub kind: SweepKind,
    /// The swept thread counts.
    pub thread_counts: Vec<usize>,
    /// Mean AC power at each count, W.
    pub ac_w: Vec<f64>,
}

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// The all-C2 baseline, W.
    pub baseline_w: f64,
    /// All sweeps.
    pub curves: Vec<Curve>,
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Measurement time per configuration, seconds (paper: 10 s).
    pub duration_s: f64,
    /// Thread counts to sweep (paper: every count 1..=128).
    pub thread_counts: Vec<usize>,
    /// Frequencies for the active sweep, MHz.
    pub freqs_mhz: Vec<u32>,
}

impl Config {
    /// Scaled configuration.
    pub fn new(scale: Scale) -> Self {
        Self {
            duration_s: scale.pick(0.4, 10.0),
            thread_counts: match scale {
                Scale::Quick => vec![1, 2, 4, 16, 32, 64, 65, 96, 128],
                Scale::Paper => (1..=128).collect(),
            },
            freqs_mhz: vec![1500, 2200, 2500],
        }
    }
}

/// The AC-power measurement label shared by every case.
const AC: &str = "ac";

/// Builds the declarative scenario for one sweep configuration:
/// `n_threads` logical CPUs leave C2 at t = 0, the machine settles for
/// 50 ms, and mean AC power is observed over the next `duration_s`.
fn scenario(
    cfg: &Config,
    numbering: &CpuNumbering,
    kind: Option<SweepKind>,
    n_threads: usize,
) -> Scenario {
    let mut sc = Scenario::new();
    if let Some(kind) = kind {
        let mut at = sc.at(0);
        for cpu_idx in 0..n_threads {
            let thread = numbering.thread_of(LogicalCpu(cpu_idx as u32));
            at = match kind {
                SweepKind::C1 => at.cstate(thread, 2, false),
                SweepKind::ActivePause(mhz) => at
                    // Both siblings' requests must drop or the idle
                    // sibling's nominal request pins the core (the
                    // Section V-A rule).
                    .pstate(thread, mhz)
                    .pstate(ThreadId(thread.0 ^ 1), mhz)
                    .workload(thread, KernelClass::Pause, OperandWeight::HALF),
            };
        }
    }
    sc.probe(AC, Probe::AcTrueMeanW, Window::span_secs(0.05, 0.05 + cfg.duration_s));
    sc
}

/// The sweep kinds in presentation order: C1 first, then one active
/// pause sweep per configured frequency.
fn kinds(cfg: &Config) -> Vec<SweepKind> {
    let mut kinds = vec![SweepKind::C1];
    kinds.extend(cfg.freqs_mhz.iter().map(|&f| SweepKind::ActivePause(f)));
    kinds
}

/// The full staircase grid as a declarative [`Sweep`]: a kind axis
/// (outermost, like the figure's curves) crossed with a thread-count
/// axis, the joint cell scenario built in the finish hook. The seed
/// derivation reproduces the module's historical per-case seeds
/// (`child(seed, kind_index * 1000 + count_index)`).
pub fn sweep(cfg: &Config, seed: u64) -> Sweep {
    let sim_cfg = SimConfig::epyc_7502_2s();
    let numbering = CpuNumbering::linux_default(&sim_cfg.topology);
    let kinds = kinds(cfg);
    let mut kind_axis = Axis::new("kind");
    for (ki, kind) in kinds.iter().enumerate() {
        kind_axis =
            kind_axis.with(format!("{kind:?}"), move |draft| draft.set_param("kind", ki as f64));
    }
    let count_axis = Axis::param("threads", cfg.thread_counts.iter().map(|&count| count as f64));
    let counts = cfg.thread_counts.len().max(1) as u64;
    let cfg = cfg.clone();
    Sweep::new("fig07", sim_cfg)
        .seed_fn(move |i| child_seed(seed, (i / counts) * 1000 + i % counts))
        .axis(kind_axis)
        .axis(count_axis)
        .finish(move |draft| {
            let kind = kinds[draft.param("kind") as usize];
            let count = draft.param("threads") as usize;
            draft.scenario = scenario(&cfg, &numbering, Some(kind), count);
        })
}

/// Runs the staircase through the streaming sweep engine.
pub fn run(cfg: &Config, seed: u64) -> Fig7Result {
    run_with(cfg, seed, &Session::new())
}

/// [`run`] on an explicit session (the worker/shard-invariance hook).
fn run_with(cfg: &Config, seed: u64, session: &Session) -> Fig7Result {
    run_checkpointed(cfg, seed, session, &CheckpointSpec::none())
        .expect("checkpointing disabled")
        .expect("no halt configured")
}

/// [`run`] with checkpoint/resume: persists the staircase cells at
/// every shard boundary per `spec`, and resumes byte-identically. The
/// all-C2 baseline is not checkpointed: it runs once the grid has
/// returned. Returns `None` on a deliberate `--halt-after` halt or a
/// `--shard-range` slice.
///
/// # Errors
/// Errors when the checkpoint cannot be read, written, or does not
/// belong to this grid.
pub fn run_checkpointed(
    cfg: &Config,
    seed: u64,
    session: &Session,
    spec: &CheckpointSpec,
) -> Result<Option<Fig7Result>, CheckpointError> {
    let reduce = |_, run: Run| run.watts(AC);
    let Some(cells) = run_resumable(&sweep(cfg, seed), session, spec, reduce)? else {
        return Ok(None);
    };
    // The all-C2 baseline sits outside the kind × count seed layout
    // (historical seed 999), so it runs as its own case.
    let sim_cfg = SimConfig::epyc_7502_2s();
    let numbering = CpuNumbering::linux_default(&sim_cfg.topology);
    let baseline_case = Case::new(
        "fig07/baseline",
        sim_cfg,
        scenario(cfg, &numbering, None, 0),
        child_seed(seed, 999),
    );
    let baseline = session.run(&[baseline_case]).expect("the baseline scenario validates");

    // One cell per (kind, count) case, in grid order — split them into
    // the figure's per-kind curves.
    let mut cells = cells.into_iter();
    let curves = kinds(cfg)
        .into_iter()
        .map(|kind| Curve {
            kind,
            thread_counts: cfg.thread_counts.clone(),
            ac_w: cells.by_ref().take(cfg.thread_counts.len()).collect(),
        })
        .collect();
    Ok(Some(Fig7Result { baseline_w: baseline[0].watts(AC), curves }))
}

/// Derived staircase parameters from a C1 curve.
pub fn c1_staircase(result: &Fig7Result) -> (f64, f64) {
    let c1 = result.curves.iter().find(|c| c.kind == SweepKind::C1).expect("C1 curve present");
    let first = c1.ac_w[0];
    // Slope per additional core over the first-socket portion.
    let idx64 = c1.thread_counts.iter().position(|&n| n == 64).expect("64-thread point");
    let slope = (c1.ac_w[idx64] - c1.ac_w[0]) / (c1.thread_counts[idx64] - 1) as f64;
    (first, slope)
}

/// Renders the summary and curves.
pub fn render(result: &Fig7Result) -> String {
    tables(result).iter().map(Table::render).collect()
}

/// The summary and curves as [`Table`]s (for text or JSON output).
pub fn tables(result: &Fig7Result) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 7 — idle-state power staircase, paper / measured",
        &["quantity", "paper / measured"],
    );
    t.row(&["all threads C2 [W]".into(), compare(paper::ALL_C2_W, result.baseline_w, "")]);
    let (first_c1, slope_c1) = c1_staircase(result);
    t.row(&["first core in C1 [W]".into(), compare(paper::FIRST_C1_W, first_c1, "")]);
    t.row(&[
        "per additional C1 core [W]".into(),
        format!("{:.2} / {:.3}", paper::PER_C1_CORE_W, slope_c1),
    ]);
    if let Some(active) = result.curves.iter().find(|c| c.kind == SweepKind::ActivePause(2500)) {
        t.row(&[
            "first active thread [W]".into(),
            compare(paper::FIRST_ACTIVE_W, active.ac_w[0], ""),
        ]);
    }
    let mut curves = Table::new(
        "Fig. 7 curves — AC power [W] vs threads not in C2",
        &["threads", "C1", "pause@1.5GHz", "pause@2.2GHz", "pause@2.5GHz"],
    );
    for (i, &n) in result.curves[0].thread_counts.iter().enumerate() {
        let mut row = vec![format!("{n}")];
        for c in &result.curves {
            row.push(format!("{:.1}", c.ac_w[i]));
        }
        curves.row(&row);
    }
    vec![t, curves]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config {
            duration_s: 0.2,
            thread_counts: vec![1, 2, 4, 64, 65, 128],
            freqs_mhz: vec![1500, 2500],
        }
    }

    #[test]
    fn sweep_engine_matches_materialized_session() {
        // The sweep port must not change results: the same case list
        // built by hand (as the module did before the sweep engine —
        // baseline first, then kind-major cells with the historical
        // `ki * 1000 + ci` seed layout) and run materialized produces
        // identical curves, for more than one worker/shard split.
        use zen2_sim::Case;
        let cfg = quick();
        let seed = 65;
        let sim_cfg = SimConfig::epyc_7502_2s();
        let numbering = CpuNumbering::linux_default(&sim_cfg.topology);
        let kinds = super::kinds(&cfg);
        let mut cases = vec![Case::new(
            "baseline",
            sim_cfg.clone(),
            scenario(&cfg, &numbering, None, 0),
            child_seed(seed, 999),
        )];
        for (ki, &kind) in kinds.iter().enumerate() {
            for (ci, &count) in cfg.thread_counts.iter().enumerate() {
                cases.push(Case::new(
                    format!("{kind:?}/{count}"),
                    sim_cfg.clone(),
                    scenario(&cfg, &numbering, Some(kind), count),
                    child_seed(seed, (ki * 1000 + ci) as u64),
                ));
            }
        }
        let runs = Session::new().run(&cases).unwrap();
        let mut curves = Vec::new();
        let mut next = 1;
        for &kind in &kinds {
            let ac_w: Vec<f64> =
                runs[next..next + cfg.thread_counts.len()].iter().map(|r| r.watts(AC)).collect();
            next += cfg.thread_counts.len();
            curves.push(Curve { kind, thread_counts: cfg.thread_counts.clone(), ac_w });
        }
        let materialized = Fig7Result { baseline_w: runs[0].watts(AC), curves };

        for (workers, shard) in [(1, 1), (7, 5)] {
            let streamed = run_with(&cfg, seed, &Session::new().workers(workers).shard_size(shard));
            assert_eq!(streamed.baseline_w, materialized.baseline_w);
            for (s, m) in streamed.curves.iter().zip(&materialized.curves) {
                assert_eq!(s.kind, m.kind);
                assert_eq!(s.ac_w, m.ac_w, "workers {workers} shard {shard} kind {:?}", s.kind);
            }
        }
    }

    #[test]
    fn baseline_and_first_step_match_paper() {
        let r = run(&quick(), 61);
        assert!((r.baseline_w - paper::ALL_C2_W).abs() < 1.5, "baseline {}", r.baseline_w);
        let (first_c1, slope) = c1_staircase(&r);
        assert!((first_c1 - paper::FIRST_C1_W).abs() < 2.0, "first C1 {first_c1}");
        assert!((slope - paper::PER_C1_CORE_W).abs() < 0.02, "slope {slope}");
    }

    #[test]
    fn second_hardware_threads_add_nothing_in_c1() {
        let r = run(&quick(), 62);
        let c1 = &r.curves[0];
        let at_64 = c1.ac_w[c1.thread_counts.iter().position(|&n| n == 64).unwrap()];
        let at_128 = c1.ac_w[c1.thread_counts.iter().position(|&n| n == 128).unwrap()];
        assert!((at_128 - at_64).abs() < 0.5, "siblings add {:.2} W", at_128 - at_64);
    }

    #[test]
    fn active_power_depends_on_frequency_c1_does_not() {
        let r = run(&quick(), 63);
        let slope = |kind: SweepKind| {
            let c = r.curves.iter().find(|c| c.kind == kind).unwrap();
            let i1 = c.thread_counts.iter().position(|&n| n == 1).unwrap();
            let i64 = c.thread_counts.iter().position(|&n| n == 64).unwrap();
            (c.ac_w[i64] - c.ac_w[i1]) / 63.0
        };
        let slow = slope(SweepKind::ActivePause(1500));
        let fast = slope(SweepKind::ActivePause(2500));
        assert!(fast > 1.5 * slow, "active slope must scale with f*V^2: {slow} vs {fast}");
        assert!((fast - paper::PER_ACTIVE_CORE_W).abs() < 0.05, "fast slope {fast}");
    }

    #[test]
    fn first_active_thread_matches_first_c1_level() {
        // Paper: 180.4 W vs 180.3 W — the package wake dominates.
        let r = run(&quick(), 64);
        let active = r.curves.iter().find(|c| c.kind == SweepKind::ActivePause(2500)).unwrap();
        let (first_c1, _) = c1_staircase(&r);
        assert!((active.ac_w[0] - first_c1).abs() < 1.0);
    }
}
