//! Fig. 6 — frequency limitations for high-throughput workloads
//! (FIRESTARTER 2, ± SMT).
//!
//! "Before we run our tests, we execute FIRESTARTER for 15 min in order to
//! create a stable temperature. We run our tests at nominal frequency for
//! two minutes and measure frequency and throughput with perf stat ...
//! We exclude data for the first 5 s and last 2 s."
//!
//! Both SMT modes are declarative [`Scenario`]s on one SMT [`Axis`] of a
//! [`Sweep`] streamed through the [`Session`] worker pool: the pre-heat,
//! the perf-stat sampling cadence, the AC window and the trailing RAPL
//! poll are all recorded as data, and the per-mode rows come back as
//! one cell per case.

use crate::report::{compare, compare_precise, Table};
use crate::Scale;
use zen2_isa::{KernelClass, OperandWeight};
use zen2_sim::checkpoint::run_resumable;
use zen2_sim::methodology::{mean, std_dev};
use zen2_sim::perf::ThreadCounters;
use zen2_sim::time::from_secs;
use zen2_sim::{
    Axis, CheckpointError, CheckpointSpec, Json, Probe, Run, Scenario, Session, SimConfig,
    Snapshot, SnapshotError, Sweep, Window,
};
use zen2_topology::{SocketId, ThreadId};

/// Paper reference values for one SMT mode.
#[derive(Debug, Clone, Copy)]
pub struct PaperRef {
    /// Mean core frequency, GHz.
    pub freq_ghz: f64,
    /// Core IPC.
    pub ipc: f64,
    /// System AC power, W.
    pub ac_w: f64,
    /// RAPL package reading per socket, W.
    pub rapl_pkg_w: f64,
}

/// Paper values with SMT (both hardware threads per core).
pub const PAPER_SMT: PaperRef =
    PaperRef { freq_ghz: 2.03, ipc: 3.56, ac_w: 509.0, rapl_pkg_w: 170.0 };
/// Paper values without SMT.
pub const PAPER_NO_SMT: PaperRef =
    PaperRef { freq_ghz: 2.10, ipc: 3.23, ac_w: 489.0, rapl_pkg_w: 170.0 };

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Measured run duration in seconds (paper: 120 s).
    pub duration_s: f64,
    /// perf-stat sampling interval (paper: 1 s).
    pub sample_interval_s: f64,
    /// Run with Core Performance Boost enabled (paper: "almost no
    /// influence").
    pub boost: bool,
}

impl Config {
    /// Scaled configuration.
    pub fn new(scale: Scale) -> Self {
        Self {
            duration_s: scale.pick(2.0, 120.0),
            sample_interval_s: scale.pick(0.2, 1.0),
            boost: false,
        }
    }
}

/// Measured values for one SMT mode.
#[derive(Debug, Clone)]
pub struct ModeResult {
    /// Whether both hardware threads per core were used.
    pub smt: bool,
    /// Mean effective core frequency, GHz.
    pub freq_ghz: f64,
    /// Standard deviation of the per-interval frequency samples, MHz.
    pub freq_std_mhz: f64,
    /// Mean core IPC.
    pub ipc: f64,
    /// Standard deviation of per-interval IPC samples.
    pub ipc_std: f64,
    /// Mean system AC power over the trimmed window, W.
    pub ac_w: f64,
    /// Mean RAPL package reading per socket, W.
    pub rapl_pkg_w: f64,
    /// True (simulator ground-truth) package power per socket, W.
    pub true_pkg_w: f64,
}

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// With SMT.
    pub smt: ModeResult,
    /// Without SMT.
    pub no_smt: ModeResult,
}

/// A mode's reduced result snapshots exactly (for checkpoint/resume —
/// each case's cell is an `Option<ModeResult>`).
impl Snapshot for ModeResult {
    fn snapshot(&self) -> Json {
        Json::obj([
            ("smt", Json::Bool(self.smt)),
            ("freq_ghz", Json::f64(self.freq_ghz)),
            ("freq_std_mhz", Json::f64(self.freq_std_mhz)),
            ("ipc", Json::f64(self.ipc)),
            ("ipc_std", Json::f64(self.ipc_std)),
            ("ac_w", Json::f64(self.ac_w)),
            ("rapl_pkg_w", Json::f64(self.rapl_pkg_w)),
            ("true_pkg_w", Json::f64(self.true_pkg_w)),
        ])
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        Ok(Self {
            smt: json.get("smt")?.as_bool()?,
            freq_ghz: json.get("freq_ghz")?.as_f64()?,
            freq_std_mhz: json.get("freq_std_mhz")?.as_f64()?,
            ipc: json.get("ipc")?.as_f64()?,
            ipc_std: json.get("ipc_std")?.as_f64()?,
            ac_w: json.get("ac_w")?.as_f64()?,
            rapl_pkg_w: json.get("rapl_pkg_w")?.as_f64()?,
            true_pkg_w: json.get("true_pkg_w")?.as_f64()?,
        })
    }
}

/// Measurement window start: 0.2 s settling + pre-heat + 0.1 s re-settle.
const T_MEASURE_S: f64 = 0.3;

/// Builds one SMT mode's scenario: FIRESTARTER everywhere at t = 0, the
/// paper's 15-minute pre-heat fast-forwarded at 0.2 s, then a sampled
/// measurement window followed by a 0.5 s RAPL poll.
fn scenario(cfg: &Config, smt: bool) -> Scenario {
    let mut sc = Scenario::new();
    let step = if smt { 1 } else { 2 };
    let mut at = sc.at(0);
    for t in (0..128u32).step_by(step) {
        at = at.workload(ThreadId(t), KernelClass::Firestarter, OperandWeight::HALF);
    }
    sc.at_secs(0.2).preheat();

    let samples = (cfg.duration_s / cfg.sample_interval_s).round() as u64;
    let t_end = T_MEASURE_S + samples as f64 * cfg.sample_interval_s;
    let window = Window::span_secs(T_MEASURE_S, t_end);
    let every = from_secs(cfg.sample_interval_s);
    sc.probe("ac", Probe::AcTrueMeanW, window);
    sc.probe("perf0", Probe::CounterSeries { thread: ThreadId(0), every }, window);
    sc.probe("perf1", Probe::CounterSeries { thread: ThreadId(1), every }, window);
    sc.probe("rapl", Probe::RaplW, Window::span_secs(t_end, t_end + 0.5));
    sc.probe("pkg0", Probe::PkgTrueW(SocketId(0)), Window::at_secs(t_end + 0.5));
    sc
}

/// Reduces one mode's [`Run`] to the paper's table entries.
fn reduce(run: &Run, smt: bool) -> ModeResult {
    let perf0 = run.counter_series("perf0");
    let perf1 = run.counter_series("perf1");
    let mut freqs = Vec::with_capacity(perf0.len() - 1);
    let mut ipcs = Vec::with_capacity(perf0.len() - 1);
    for k in 1..perf0.len() {
        freqs.push(ThreadCounters::effective_ghz(&perf0[k - 1], &perf0[k], 2.5));
        // Core IPC: both threads' instructions over the core's cycles.
        let instr = (perf0[k].instructions - perf0[k - 1].instructions)
            + if smt { perf1[k].instructions - perf1[k - 1].instructions } else { 0.0 };
        let cycles = perf0[k].cycles - perf0[k - 1].cycles;
        ipcs.push(instr / cycles);
    }
    let (rapl_pkg_sum, _) = run.watts_pair("rapl");
    ModeResult {
        smt,
        freq_ghz: mean(&freqs),
        freq_std_mhz: if freqs.len() > 1 { std_dev(&freqs) * 1000.0 } else { 0.0 },
        ipc: mean(&ipcs),
        ipc_std: if ipcs.len() > 1 { std_dev(&ipcs) } else { 0.0 },
        ac_w: run.watts("ac"),
        rapl_pkg_w: rapl_pkg_sum / 2.0,
        true_pkg_w: run.watts("pkg0"),
    }
}

/// The SMT axis's values, in presentation order: `(label, smt)`. The
/// single source of truth for [`sweep`]'s axis and the per-case SMT
/// flag the sink hands to `reduce`.
const SMT_MODES: [(&str, bool); 2] = [("on", true), ("off", false)];

/// The two SMT modes as a declarative [`Sweep`]: one axis whose values
/// swap in the per-mode scenario ("on" first, matching the paper's
/// presentation order).
pub fn sweep(cfg: &Config, seed: u64) -> Sweep {
    let mut sim_cfg = SimConfig::epyc_7502_2s();
    if cfg.boost {
        sim_cfg.controller.boost_max_mhz = Some(3350);
    }
    let mut axis = Axis::new("smt");
    for (label, smt) in SMT_MODES {
        let sc = scenario(cfg, smt);
        axis = axis.with(label, move |draft| draft.scenario = sc.clone());
    }
    Sweep::new("fig06", sim_cfg).seed(seed).axis(axis)
}

/// Runs both SMT modes through the streaming sweep engine.
pub fn run(cfg: &Config, seed: u64) -> Fig6Result {
    run_with(cfg, seed, &Session::new())
}

/// [`run`] on an explicit session (the worker/shard-invariance hook).
fn run_with(cfg: &Config, seed: u64, session: &Session) -> Fig6Result {
    run_checkpointed(cfg, seed, session, &CheckpointSpec::none())
        .expect("checkpointing disabled")
        .expect("no halt configured")
}

/// [`run`] with checkpoint/resume: persists the per-mode reductions at
/// every shard boundary per `spec` and resumes byte-identically.
/// Returns `None` on a deliberate `--halt-after` halt.
///
/// # Errors
/// Errors when the checkpoint cannot be read, written, or does not
/// belong to this grid.
pub fn run_checkpointed(
    cfg: &Config,
    seed: u64,
    session: &Session,
    spec: &CheckpointSpec,
) -> Result<Option<Fig6Result>, CheckpointError> {
    let fold = |cell: &mut Option<ModeResult>, index: usize, run: Run| {
        *cell = Some(reduce(&run, SMT_MODES[index].1));
    };
    let Some(cells) = run_resumable(&sweep(cfg, seed), session, spec, fold)? else {
        return Ok(None);
    };
    // One cell per SMT mode, in `SMT_MODES` order: on, then off.
    let [smt, no_smt] = [0, 1].map(|i| cells[i].clone().expect("both modes streamed"));
    Ok(Some(Fig6Result { smt, no_smt }))
}

/// Renders the paper-style comparison.
pub fn render(r: &Fig6Result) -> String {
    let mut out = String::new();
    for t in tables(r) {
        out.push_str(&t.render());
    }
    out.push_str(&format!(
        "true package power (TDP 180 W): SMT {:.1} W, no-SMT {:.1} W — RAPL under-reports\n",
        r.smt.true_pkg_w, r.no_smt.true_pkg_w
    ));
    out
}

/// The summary as [`Table`]s (for text or JSON output).
pub fn tables(r: &Fig6Result) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 6 — FIRESTARTER at nominal 2.5 GHz, paper / measured",
        &["metric", "with SMT", "without SMT"],
    );
    t.row(&[
        "frequency [GHz]".into(),
        compare_precise(PAPER_SMT.freq_ghz, r.smt.freq_ghz, ""),
        compare_precise(PAPER_NO_SMT.freq_ghz, r.no_smt.freq_ghz, ""),
    ]);
    t.row(&[
        "core IPC".into(),
        compare_precise(PAPER_SMT.ipc, r.smt.ipc, ""),
        compare_precise(PAPER_NO_SMT.ipc, r.no_smt.ipc, ""),
    ]);
    t.row(&[
        "AC power [W]".into(),
        compare(PAPER_SMT.ac_w, r.smt.ac_w, ""),
        compare(PAPER_NO_SMT.ac_w, r.no_smt.ac_w, ""),
    ]);
    t.row(&[
        "RAPL package [W]".into(),
        compare(PAPER_SMT.rapl_pkg_w, r.smt.rapl_pkg_w, ""),
        compare(PAPER_NO_SMT.rapl_pkg_w, r.no_smt.rapl_pkg_w, ""),
    ]);
    t.row(&[
        "freq std-dev [MHz]".into(),
        format!("{:.2} (paper 3.04)", r.smt.freq_std_mhz),
        format!("{:.2} (paper 0.82)", r.no_smt.freq_std_mhz),
    ]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config { duration_s: 1.0, sample_interval_s: 0.2, boost: false }
    }

    #[test]
    fn sweep_engine_matches_materialized_session() {
        // The sweep port must not change results: the same two cases
        // built by hand (as the module did before the sweep engine) and
        // run materialized produce byte-identical paper-comparison
        // output, for more than one worker/shard split.
        use zen2_sim::{sweep::child_seed, Case};
        let cfg = quick();
        let seed = 55;
        let sim_cfg = SimConfig::epyc_7502_2s();
        let cases = vec![
            Case::new("smt", sim_cfg.clone(), scenario(&cfg, true), child_seed(seed, 0)),
            Case::new("no-smt", sim_cfg, scenario(&cfg, false), child_seed(seed, 1)),
        ];
        let runs = Session::new().run(&cases).unwrap();
        let materialized =
            Fig6Result { smt: reduce(&runs[0], true), no_smt: reduce(&runs[1], false) };
        for (workers, shard) in [(1, 1), (7, 64)] {
            let streamed = run_with(&cfg, seed, &Session::new().workers(workers).shard_size(shard));
            assert_eq!(render(&streamed), render(&materialized), "workers {workers} shard {shard}");
        }
        assert_eq!(tables(&run(&cfg, seed))[0].to_json(), tables(&materialized)[0].to_json());
    }

    #[test]
    fn equilibria_match_fig6() {
        let r = run(&quick(), 51);
        assert!((r.smt.freq_ghz - PAPER_SMT.freq_ghz).abs() < 0.05, "smt {}", r.smt.freq_ghz);
        assert!(
            (r.no_smt.freq_ghz - PAPER_NO_SMT.freq_ghz).abs() < 0.05,
            "no-smt {}",
            r.no_smt.freq_ghz
        );
        // SMT runs slower but retires more per cycle.
        assert!(r.smt.freq_ghz < r.no_smt.freq_ghz);
        assert!(r.smt.ipc > r.no_smt.ipc);
    }

    #[test]
    fn power_and_rapl_match_fig6() {
        let r = run(&quick(), 52);
        assert!((r.smt.ac_w - PAPER_SMT.ac_w).abs() < 10.0, "smt AC {}", r.smt.ac_w);
        assert!((r.no_smt.ac_w - PAPER_NO_SMT.ac_w).abs() < 10.0, "no-smt AC {}", r.no_smt.ac_w);
        // RAPL reads ~the same in both modes while AC differs by ~20 W.
        assert!((r.smt.rapl_pkg_w - r.no_smt.rapl_pkg_w).abs() < 5.0);
        assert!(r.smt.ac_w - r.no_smt.ac_w > 10.0);
        // RAPL stays below the 180 W TDP.
        assert!(r.smt.rapl_pkg_w < 175.0 && r.smt.rapl_pkg_w > 160.0);
    }

    #[test]
    fn ipc_matches_paper_throughput() {
        let r = run(&quick(), 53);
        assert!((r.smt.ipc - 3.56).abs() < 0.05, "smt IPC {}", r.smt.ipc);
        assert!((r.no_smt.ipc - 3.23).abs() < 0.05, "no-smt IPC {}", r.no_smt.ipc);
    }

    #[test]
    fn boost_has_almost_no_influence() {
        // Paper: "Enabling Core Performance Boost has almost no influence
        // on throughput, frequency and power" — the workload sits below
        // nominal anyway.
        let plain = run(&quick(), 54);
        let boosted = run(&Config { boost: true, ..quick() }, 54);
        assert!((plain.smt.freq_ghz - boosted.smt.freq_ghz).abs() < 0.05);
        assert!((plain.smt.ac_w - boosted.smt.ac_w).abs() < 10.0);
    }
}
