//! Table I — applied mean core frequencies in a mixed-frequency setup on
//! one CCX.
//!
//! "We run a simple workload (`while(1);`) on all cores of a CCX and
//! measure the frequency of one core, which is configured differently
//! than other cores. We monitor each setup for 120 s and capture the
//! frequency every second via perf stat."
//!
//! Each cell is a declarative [`Scenario`] — the CCX placement as steps
//! and the perf-stat readout as a [`Probe::CounterSeries`] — and the 3×3
//! matrix is a two-axis [`Sweep`] streamed through the [`Session`]
//! worker pool.

use crate::report::Table;
use crate::Scale;
use zen2_isa::{KernelClass, OperandWeight};
use zen2_sim::checkpoint::run_resumable;
use zen2_sim::perf::ThreadCounters;
use zen2_sim::time::{from_secs, Ns, MILLISECOND};
use zen2_sim::{
    Axis, CheckpointError, CheckpointSpec, OnlineStats, Probe, Run, Scenario, Session, SimConfig,
    Sweep, Window,
};
use zen2_topology::ThreadId;

/// The swept frequencies (GHz ×1000), in the paper's order.
pub const FREQS_MHZ: [u32; 3] = [1500, 2200, 2500];

/// Paper Table I reference values (GHz): rows = set frequency of the
/// measured core, columns = set frequency of the other cores.
pub const PAPER_GHZ: [[f64; 3]; 3] =
    [[1.499, 1.466, 1.428], [2.200, 2.199, 2.000], [2.497, 2.499, 2.499]];

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Measurement duration per cell in seconds (paper: 120 s).
    pub duration_s: f64,
    /// Sampling interval for the perf-stat style frequency readout.
    pub sample_interval_s: f64,
}

impl Config {
    /// Scaled configuration.
    pub fn new(scale: Scale) -> Self {
        Self { duration_s: scale.pick(1.0, 120.0), sample_interval_s: scale.pick(0.1, 1.0) }
    }
}

/// Measured matrix.
#[derive(Debug, Clone)]
pub struct Tab1Result {
    /// Mean applied frequency (GHz) per (measured-set, others-set) cell.
    pub measured_ghz: [[f64; 3]; 3],
    /// Worst relative deviation from the paper's Table I.
    pub worst_rel_err: f64,
}

/// DVFS settle time before sampling starts.
const SETTLE_NS: Ns = 20 * MILLISECOND;

/// Builds one cell's scenario: the measured core set to `set_mhz`, the
/// other three CCX cores to `others_mhz`, all running `while(1);`, with
/// the perf-stat frequency readout as a counter series.
pub fn cell_scenario(cfg: &Config, set_mhz: u32, others_mhz: u32) -> Scenario {
    let mut sc = Scenario::new();
    let mut at = sc.at(0);
    for t in 0..8u32 {
        let mhz = if t < 2 { set_mhz } else { others_mhz };
        at = at
            .workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF)
            .pstate(ThreadId(t), mhz);
    }
    let samples = (cfg.duration_s / cfg.sample_interval_s).round() as u64;
    let every = from_secs(cfg.sample_interval_s);
    sc.probe(
        "freq",
        Probe::CounterSeries { thread: ThreadId(0), every },
        Window::span(SETTLE_NS, SETTLE_NS + samples * every),
    );
    sc
}

/// Reduces one cell's [`Run`]: mean effective frequency over the
/// per-interval counter deltas.
fn reduce(run: &Run) -> f64 {
    let snaps = run.counter_series("freq");
    let means: Vec<f64> =
        snaps.windows(2).map(|w| ThreadCounters::effective_ghz(&w[0], &w[1], 2.5)).collect();
    zen2_sim::methodology::mean(&means)
}

/// The 3×3 matrix as a declarative [`Sweep`]: one parameter axis per
/// Table I dimension (measured core's set frequency outermost, like the
/// paper's rows), with the joint cell scenario built in the finish hook.
pub fn sweep(cfg: &Config, seed: u64) -> Sweep {
    let freqs = FREQS_MHZ.map(|mhz| mhz as f64);
    let cfg = cfg.clone();
    Sweep::new("tab1", SimConfig::epyc_7502_2s())
        .seed(seed)
        .axis(Axis::param("set", freqs))
        .axis(Axis::param("others", freqs))
        .finish(move |draft| {
            draft.scenario =
                cell_scenario(&cfg, draft.param("set") as u32, draft.param("others") as u32);
        })
}

/// Runs the full 3×3 matrix through the streaming sweep engine.
pub fn run(cfg: &Config, seed: u64) -> Tab1Result {
    run_checkpointed(cfg, seed, &Session::new(), &CheckpointSpec::none())
        .expect("checkpointing disabled")
        .expect("no halt configured")
}

/// [`run`] with checkpoint/resume: persists the per-cell reductions at
/// every shard boundary per `spec` and resumes byte-identically (the
/// mean of a cell's single observation is that observation, exactly).
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
) -> Result<Option<Tab1Result>, CheckpointError> {
    let fold = |cell: &mut OnlineStats, _, run: Run| cell.push(reduce(&run));
    let Some(cells) = run_resumable(&sweep(cfg, seed), session, spec, fold)? else {
        return Ok(None);
    };
    let mut measured = [[0.0; 3]; 3];
    for (flat, cell) in cells.iter().enumerate() {
        measured[flat / 3][flat % 3] = cell.mean();
    }
    let mut worst = 0.0f64;
    for (row, paper_row) in measured.iter().zip(&PAPER_GHZ) {
        for (&cell, &paper) in row.iter().zip(paper_row) {
            worst = worst.max((cell - paper).abs() / paper);
        }
    }
    Ok(Some(Tab1Result { measured_ghz: measured, worst_rel_err: worst }))
}

/// Renders the paper-style table (paper value / measured value per cell).
pub fn render(result: &Tab1Result) -> String {
    let mut out = table(result).render();
    out.push_str(&format!("worst relative deviation: {:.2}%\n", result.worst_rel_err * 100.0));
    out
}

/// [`table`] in the uniform multi-table shape every binary emits.
pub fn tables(result: &Tab1Result) -> Vec<Table> {
    vec![table(result)]
}

/// The summary as a [`Table`] (for text or JSON output).
pub fn table(result: &Tab1Result) -> Table {
    let mut t = Table::new(
        "Table I — applied mean core frequencies [GHz], paper / measured",
        &["set freq \\ others", "1.5 GHz", "2.2 GHz", "2.5 GHz"],
    );
    for (i, &set) in FREQS_MHZ.iter().enumerate() {
        let mut row = vec![format!("{:.1} GHz", set as f64 / 1000.0)];
        for (&paper, &measured) in PAPER_GHZ[i].iter().zip(&result.measured_ghz[i]) {
            row.push(format!("{paper:.3} / {measured:.3}"));
        }
        t.row(&row);
    }
    t
}

/// The mesh-coupling observation in one number: how much a 2.2 GHz core
/// loses under a 2.5 GHz neighbor.
pub fn coupling_penalty_ghz(result: &Tab1Result) -> f64 {
    result.measured_ghz[1][1] - result.measured_ghz[1][2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config { duration_s: 0.3, sample_interval_s: 0.1 }
    }

    #[test]
    fn sweep_engine_matches_materialized_session() {
        // The sweep port must not change results: the 3×3 grid built by
        // hand (as the module did before the sweep engine) and run
        // materialized produces a byte-identical Table I rendering.
        use zen2_sim::{sweep::child_seed, Case};
        let cfg = quick();
        let seed = 21;
        let mut cases = Vec::new();
        for (i, &set) in FREQS_MHZ.iter().enumerate() {
            for (j, &others) in FREQS_MHZ.iter().enumerate() {
                cases.push(Case::new(
                    format!("set{set}-others{others}"),
                    SimConfig::epyc_7502_2s(),
                    cell_scenario(&cfg, set, others),
                    child_seed(seed, (i * 3 + j) as u64),
                ));
            }
        }
        let runs = Session::new().run(&cases).unwrap();
        let mut measured = [[0.0; 3]; 3];
        for (flat, r) in runs.iter().enumerate() {
            measured[flat / 3][flat % 3] = reduce(r);
        }
        let streamed = run(&cfg, seed);
        assert_eq!(streamed.measured_ghz, measured);
        let mut worst = 0.0f64;
        for (row, paper_row) in measured.iter().zip(&PAPER_GHZ) {
            for (&cell, &paper) in row.iter().zip(paper_row) {
                worst = worst.max((cell - paper).abs() / paper);
            }
        }
        let materialized = Tab1Result { measured_ghz: measured, worst_rel_err: worst };
        assert_eq!(render(&streamed), render(&materialized));
    }

    #[test]
    fn matrix_matches_table1_within_one_percent() {
        let result = run(&quick(), 21);
        assert!(result.worst_rel_err < 0.01, "worst {:.3}%", result.worst_rel_err * 100.0);
    }

    #[test]
    fn severe_penalty_for_22_under_25_neighbors() {
        let result = run(&quick(), 22);
        // Paper: 200 MHz loss.
        let penalty = coupling_penalty_ghz(&result);
        assert!((penalty - 0.2).abs() < 0.01, "penalty {penalty:.3} GHz");
    }

    #[test]
    fn diagonal_is_unperturbed() {
        let result = run(&quick(), 23);
        for (i, &mhz) in FREQS_MHZ.iter().enumerate() {
            let set = mhz as f64 / 1000.0;
            assert!((result.measured_ghz[i][i] - set).abs() < 0.005);
        }
    }

    #[test]
    fn render_shows_highlighted_cells() {
        let s = render(&run(&quick(), 24));
        assert!(s.contains("Table I"));
        assert!(s.contains("2.000") || s.contains("1.999"));
    }
}
