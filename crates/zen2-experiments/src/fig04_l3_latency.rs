//! Fig. 4 — L3-cache latencies in a mixed-frequency setup on one CCX.
//!
//! Pointer chasing (Molka et al.) with hardware prefetchers disabled and
//! huge pages; one reading core per CCX while the other cores spin at a
//! configured frequency. The paper reports the *minimum* over repeated
//! runs to filter OS/hardware interference.
//!
//! Each of the nine cells is a declarative [`Scenario`] — the workload
//! placement, the DVFS settle and the repeated [`Probe::L3LatencyNs`]
//! reads are all recorded as data — and the matrix is a two-axis
//! [`Sweep`] streamed through the [`Session`] worker pool.

use crate::report::Table;
use crate::Scale;
use zen2_isa::{KernelClass, OperandWeight};
use zen2_sim::time::{Ns, MILLISECOND};
use zen2_sim::{Axis, Probe, Run, Scenario, Session, SimConfig, Sweep, Window};
use zen2_topology::{CoreId, ThreadId};

/// The swept frequencies (MHz), as in Fig. 4.
pub const FREQS_MHZ: [u32; 3] = [1500, 2200, 2500];

/// Paper Fig. 4 reference latencies in ns: rows = reading-core frequency,
/// columns = frequency of the remaining cores.
pub const PAPER_NS: [[f64; 3]; 3] = [[25.2, 22.0, 21.2], [17.2, 17.2, 17.2], [15.2, 15.2, 15.2]];

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Repetitions per cell (minimum taken, as in the paper).
    pub repetitions: usize,
}

impl Config {
    /// Scaled configuration.
    pub fn new(scale: Scale) -> Self {
        Self { repetitions: scale.pick(3, 10) }
    }
}

/// Measured matrix.
///
/// Note on the (2.2 GHz reader, 2.5 GHz others) cell: a naive two-domain
/// model with the reader at its *set* frequency predicts ~16.4 ns where
/// the paper measured 17.2 ns. Our reproduction measures the reader at its
/// *coupling-reduced* effective frequency (2.0 GHz, Table I), which lands
/// at ~17.4 ns — the CCX divider mechanism explains the paper's cell.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Minimum pointer-chase L3 latency (ns) per cell.
    pub measured_ns: [[f64; 3]; 3],
    /// Worst relative deviation from the paper across all cells.
    pub worst_rel_err: f64,
    /// Deviation of the (2.2, 2.5) cell that the naive model misses.
    pub outlier_cell_rel_err: f64,
}

/// DVFS settle time before the first latency read.
const SETTLE_NS: Ns = 20 * MILLISECOND;

/// Builds one cell's scenario: the reader core runs the chase, the other
/// CCX cores run `while(1)`, and the latency is read once per repetition
/// after the transitions settle.
pub fn cell_scenario(cfg: &Config, reader_mhz: u32, others_mhz: u32) -> Scenario {
    let mut sc = Scenario::new();
    let mut at = sc.at(0);
    for t in 0..8u32 {
        let class = if t < 2 { KernelClass::PointerChase } else { KernelClass::BusyWait };
        at = at
            .workload(ThreadId(t), class, OperandWeight::HALF)
            .pstate(ThreadId(t), if t < 2 { reader_mhz } else { others_mhz });
    }
    for rep in 0..cfg.repetitions {
        sc.probe(
            format!("l3_{rep}"),
            Probe::L3LatencyNs(CoreId(0)),
            Window::at(SETTLE_NS + (rep as Ns + 1) * MILLISECOND),
        );
    }
    sc
}

/// Reduces one cell's [`Run`] to the paper's minimum-over-repetitions.
fn reduce(cfg: &Config, run: &Run) -> f64 {
    (0..cfg.repetitions).map(|rep| run.nanos(&format!("l3_{rep}"))).fold(f64::INFINITY, f64::min)
}

/// The 3×3 matrix as a declarative [`Sweep`]: the reader's frequency
/// outermost (the figure's rows), the other cores' innermost.
fn sweep(cfg: &Config, seed: u64) -> Sweep {
    let cfg = cfg.clone();
    let sim_cfg = SimConfig::epyc_7502_2s();
    Sweep::new("fig04", move |ix| {
        (sim_cfg.clone(), cell_scenario(&cfg, FREQS_MHZ[ix[0]], FREQS_MHZ[ix[1]]))
    })
    .seed(seed)
    .axis(Axis::new("reader", FREQS_MHZ))
    .axis(Axis::new("others", FREQS_MHZ))
}

/// Runs the full 3×3 matrix through `session`.
pub fn run(cfg: &Config, seed: u64, session: &Session) -> Fig4Result {
    let mut measured = [[0.0; 3]; 3];
    sweep(cfg, seed)
        .stream(session, |flat, run| measured[flat / 3][flat % 3] = reduce(cfg, &run))
        .expect("fig04 scenarios validate");
    let mut worst = 0.0f64;
    for (row, paper_row) in measured.iter().zip(&PAPER_NS) {
        for (&cell, &paper) in row.iter().zip(paper_row) {
            worst = worst.max((cell - paper).abs() / paper);
        }
    }
    let outlier = (measured[1][2] - PAPER_NS[1][2]).abs() / PAPER_NS[1][2];
    Fig4Result { measured_ns: measured, worst_rel_err: worst, outlier_cell_rel_err: outlier }
}

/// Renders the paper-style matrix.
pub fn render(result: &Fig4Result) -> String {
    let mut out = tables(result)[0].render();
    out.push_str(&format!(
        "worst deviation {:.1}% (documented 2.2/2.5 cell: {:.1}%)\n",
        result.worst_rel_err * 100.0,
        result.outlier_cell_rel_err * 100.0
    ));
    out
}

/// The matrix as a [`Table`] (for text or JSON output).
pub fn tables(result: &Fig4Result) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 4 — L3 latency [ns] in a mixed-frequency CCX, paper / measured",
        &["reader \\ others", "1.5 GHz", "2.2 GHz", "2.5 GHz"],
    );
    for (i, &reader) in FREQS_MHZ.iter().enumerate() {
        let mut row = vec![format!("{:.1} GHz", reader as f64 / 1000.0)];
        for (&paper, &measured) in PAPER_NS[i].iter().zip(&result.measured_ns[i]) {
            row.push(format!("{paper:.1} / {measured:.1}"));
        }
        t.row(&row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config { repetitions: 2 }
    }

    #[test]
    fn sweep_builds_the_hand_built_cases() {
        // The sweep port must not change results: the 3×3 grid as the
        // module built it by hand holds the sweep's cases.
        use zen2_sim::{sweep::child_seed, Case};
        let cfg = quick();
        let seed = 30;
        let mut cases = Vec::new();
        for (i, &reader) in FREQS_MHZ.iter().enumerate() {
            for (j, &others) in FREQS_MHZ.iter().enumerate() {
                cases.push(Case::new(
                    format!("reader{reader}-others{others}"),
                    SimConfig::epyc_7502_2s(),
                    cell_scenario(&cfg, reader, others),
                    child_seed(seed, (i * 3 + j) as u64),
                ));
            }
        }
        crate::assert_same_cases(&sweep(&cfg, seed), &cases);
    }

    #[test]
    fn matrix_matches_fig4_within_four_percent() {
        let r = run(&quick(), 31, &Session::new());
        assert!(r.worst_rel_err < 0.04, "worst {:.3}", r.worst_rel_err);
        // The coupling mechanism explains the cell a naive model misses:
        // reader at an effective 2.0 GHz gives ~17.4 ns vs paper 17.2 ns.
        assert!(r.outlier_cell_rel_err < 0.02, "outlier {:.3}", r.outlier_cell_rel_err);
    }

    #[test]
    fn fast_neighbors_help_slow_readers() {
        // Paper: "the latency to the L3 cache decreases for a core running
        // at 1.5 GHz when other cores in the same CCX apply a higher core
        // frequency".
        let r = run(&quick(), 32, &Session::new());
        assert!(r.measured_ns[0][1] < r.measured_ns[0][0]);
        assert!(r.measured_ns[0][2] < r.measured_ns[0][1]);
    }

    #[test]
    fn reader_frequency_dominates() {
        let r = run(&quick(), 33, &Session::new());
        assert!(r.measured_ns[2][0] < r.measured_ns[1][0]);
        assert!(r.measured_ns[1][0] < r.measured_ns[0][0]);
    }
}
