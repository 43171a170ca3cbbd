//! Fig. 10 — data-dependent power and what RAPL sees of it.
//!
//! Blocks of an unrolled instruction loop run on all hardware threads;
//! each block randomly picks a relative operand Hamming weight of 0, 0.5
//! or 1. The external reference separates the weights cleanly for
//! `vxorps` (≈21 W, 7.6 %, no overlap); AMD's RAPL averages stay within
//! ~0.1 % with strongly overlapping distributions, and only indirect
//! (thermal) effects leak any information at all. The `shr` variant
//! contrasts PLATYPUS: the narrow datapath barely shows even at the wall.
//!
//! The whole sweep is one declarative [`Scenario`]: the per-block weight
//! sequence is pre-drawn from the seed, each block re-schedules the
//! kernel at its weight, and every block carries its own AC
//! ([`Probe::AcTrueMeanW`]), RAPL package ([`Probe::RaplW`]) and RAPL
//! core-0 ([`Probe::RaplCoreW`]) windows. The blocks must share one
//! machine (thermal state carries across them, which is exactly the
//! side channel under study), so the grid is a single-case [`Sweep`]
//! over an instruction axis streamed through the [`Session`] worker
//! pool, its one run reduced into per-weight buckets.

use crate::report::Table;
use crate::Scale;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use zen2_isa::{KernelClass, OperandWeight};
use zen2_sim::checkpoint::run_resumable;
use zen2_sim::methodology::mean;
use zen2_sim::sweep::child_seed;
use zen2_sim::{
    Axis, CheckpointError, CheckpointSpec, Json, Measurement, Probe, Run, Scenario, Session,
    SimConfig, Snapshot, SnapshotError, Sweep, Window,
};
use zen2_topology::{CoreId, ThreadId};

/// Per-weight sample sets for one metric.
#[derive(Debug, Clone, Default)]
pub struct WeightSamples {
    /// Samples at weight 0.
    pub w0: Vec<f64>,
    /// Samples at weight 0.5.
    pub w05: Vec<f64>,
    /// Samples at weight 1.
    pub w1: Vec<f64>,
}

impl WeightSamples {
    fn push(&mut self, w: OperandWeight, v: f64) {
        if w.0 == 0.0 {
            self.w0.push(v);
        } else if w.0 == 1.0 {
            self.w1.push(v);
        } else {
            self.w05.push(v);
        }
    }

    /// Mean per weight (w0, w05, w1).
    pub fn means(&self) -> (f64, f64, f64) {
        (mean(&self.w0), mean(&self.w05), mean(&self.w1))
    }

    /// Absolute spread of the three means.
    pub fn mean_spread(&self) -> f64 {
        let (a, b, c) = self.means();
        a.max(b).max(c) - a.min(b).min(c)
    }

    /// Whether the w0 and w1 sample sets overlap at all.
    pub fn distributions_overlap(&self) -> bool {
        let max0 = self.w0.iter().copied().fold(f64::MIN, f64::max);
        let min1 = self.w1.iter().copied().fold(f64::MAX, f64::min);
        max0 >= min1
    }
}

/// Full experiment output for one instruction.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// The instruction swept.
    pub instruction: String,
    /// Full-system AC power per weight.
    pub ac_w: WeightSamples,
    /// RAPL core-0 power per weight.
    pub rapl_core0_w: WeightSamples,
    /// RAPL package sum per weight.
    pub rapl_pkg_w: WeightSamples,
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Total instruction blocks (paper: 3000, ~1000 per weight).
    pub blocks: usize,
    /// Duration per block, seconds (paper: 10 s).
    pub block_s: f64,
}

impl Config {
    /// Scaled configuration.
    pub fn new(scale: Scale) -> Self {
        Self { blocks: scale.pick(90, 3000), block_s: scale.pick(0.15, 10.0) }
    }
}

/// Warm-up before the first block (settle + the paper's pre-heat).
const T_BLOCKS_S: f64 = 0.1;

/// Builds the weight-sweep scenario plus the pre-drawn per-block weight
/// sequence it schedules.
pub fn scenario(cfg: &Config, seed: u64, class: KernelClass) -> (Scenario, Vec<OperandWeight>) {
    let mut rng = ChaCha8Rng::seed_from_u64(child_seed(seed, 1));
    let mut sc = Scenario::new();
    let mut at = sc.at(0);
    for t in 0..128u32 {
        at = at.workload(ThreadId(t), class, OperandWeight::HALF);
    }
    sc.at_secs(T_BLOCKS_S).preheat();

    let mut weights = Vec::with_capacity(cfg.blocks);
    for k in 0..cfg.blocks {
        let weight = *OperandWeight::PAPER_SWEEP.choose(&mut rng).expect("non-empty weight set");
        weights.push(weight);
        let t0 = T_BLOCKS_S + k as f64 * cfg.block_s;
        let mut at = sc.at_secs(t0);
        for t in 0..128u32 {
            at = at.workload(ThreadId(t), class, weight);
        }
        let window = Window::span_secs(t0, t0 + cfg.block_s);
        sc.probe(format!("ac{k}"), Probe::AcTrueMeanW, window);
        sc.probe(format!("pkg{k}"), Probe::RaplW, window);
        sc.probe(format!("core0_{k}"), Probe::RaplCoreW(CoreId(0)), window);
    }
    (sc, weights)
}

/// The three per-weight metric buckets one instruction's blocks reduce
/// into — the cell of the sweep's one case.
#[derive(Debug, Default)]
struct WeightBuckets {
    ac_w: WeightSamples,
    rapl_core0_w: WeightSamples,
    rapl_pkg_w: WeightSamples,
}

impl Snapshot for WeightSamples {
    fn snapshot(&self) -> Json {
        Json::obj([
            ("w0", Json::f64s(self.w0.iter().copied())),
            ("w05", Json::f64s(self.w05.iter().copied())),
            ("w1", Json::f64s(self.w1.iter().copied())),
        ])
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        Ok(Self {
            w0: json.get("w0")?.as_f64s()?,
            w05: json.get("w05")?.as_f64s()?,
            w1: json.get("w1")?.as_f64s()?,
        })
    }
}

impl Snapshot for WeightBuckets {
    fn snapshot(&self) -> Json {
        Json::obj([
            ("ac_w", self.ac_w.snapshot()),
            ("rapl_core0_w", self.rapl_core0_w.snapshot()),
            ("rapl_pkg_w", self.rapl_pkg_w.snapshot()),
        ])
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        Ok(Self {
            ac_w: WeightSamples::restore(json.get("ac_w")?)?,
            rapl_core0_w: WeightSamples::restore(json.get("rapl_core0_w")?)?,
            rapl_pkg_w: WeightSamples::restore(json.get("rapl_pkg_w")?)?,
        })
    }
}

/// The weight sweep as a declarative [`Sweep`]: a single-value
/// instruction axis (the blocks of one instruction must share one
/// machine, so they stay inside one case), plus the pre-drawn per-block
/// weight sequence its scenario schedules.
pub fn sweep(cfg: &Config, seed: u64, class: KernelClass) -> (Sweep, Vec<OperandWeight>) {
    let (sc, weights) = scenario(cfg, seed, class);
    let sweep = Sweep::new("fig10", SimConfig::epyc_7502_2s())
        .seed(seed)
        .axis(Axis::new("instr").with(class.name(), move |draft| draft.scenario = sc.clone()));
    (sweep, weights)
}

/// Runs the weight sweep for one instruction kernel through the
/// streaming sweep engine.
pub fn run(cfg: &Config, seed: u64, class: KernelClass) -> Fig10Result {
    run_with(cfg, seed, class, &Session::new())
}

/// [`run`] on an explicit session (the worker/shard-invariance hook).
fn run_with(cfg: &Config, seed: u64, class: KernelClass, session: &Session) -> Fig10Result {
    run_checkpointed(cfg, seed, class, session, &CheckpointSpec::none())
        .expect("checkpointing disabled")
        .expect("no halt configured")
}

/// [`run`] with checkpoint/resume. The grid is a single case (the
/// blocks must share one machine), so the only possible cut is after
/// that case completes — `--checkpoint` still makes a finished run
/// re-emittable via `--resume` without re-simulating, and the flag
/// exists uniformly across every wide-grid binary. Returns `None` on a
/// deliberate `--halt-after` halt.
///
/// # Errors
/// Errors when the checkpoint cannot be read, written, or does not
/// belong to this grid.
pub fn run_checkpointed(
    cfg: &Config,
    seed: u64,
    class: KernelClass,
    session: &Session,
    spec: &CheckpointSpec,
) -> Result<Option<Fig10Result>, CheckpointError> {
    assert!(
        matches!(class, KernelClass::VXorps | KernelClass::Shr),
        "Fig. 10 sweeps vxorps or shr"
    );
    let (sweep, weights) = sweep(cfg, seed, class);
    // Route each block's readings by the pre-drawn weight sequence. Block
    // k declared its `ac`, `pkg` and `core0_` probes in a row and a `Run`
    // keeps declaration order, so its readings are measurements 3k..3k+3;
    // reading them by position spares a label scan per reading, and the
    // label and kind checks keep a layout change loud.
    let reduce = |_, run: Run| {
        let mut buckets = WeightBuckets::default();
        assert_eq!(run.measurements.len(), 3 * weights.len(), "three probes per block");
        for (k, (&weight, block)) in
            weights.iter().zip(run.measurements.chunks_exact(3)).enumerate()
        {
            let labels = [format!("ac{k}"), format!("pkg{k}"), format!("core0_{k}")];
            assert!(
                block.iter().zip(&labels).all(|((label, _), want)| label == want),
                "block {k}: unexpected labels in {block:?}"
            );
            let (
                Measurement::Watts(ac_w),
                Measurement::WattsPair { pkg_w, .. },
                Measurement::Watts(core0_w),
            ) = (&block[0].1, &block[1].1, &block[2].1)
            else {
                panic!("block {k}: unexpected measurement kinds in {block:?}");
            };
            buckets.ac_w.push(weight, *ac_w);
            buckets.rapl_core0_w.push(weight, *core0_w);
            buckets.rapl_pkg_w.push(weight, *pkg_w);
        }
        buckets
    };
    let Some(cells) = run_resumable(&sweep, session, spec, reduce)? else {
        return Ok(None);
    };
    let buckets = cells.into_iter().next().expect("the instruction axis has exactly one case");
    Ok(Some(Fig10Result {
        instruction: class.name().into(),
        ac_w: buckets.ac_w,
        rapl_core0_w: buckets.rapl_core0_w,
        rapl_pkg_w: buckets.rapl_pkg_w,
    }))
}

/// Renders the paper-style summary.
pub fn render(r: &Fig10Result) -> String {
    let mut out = tables(r)[0].render();
    let ac_rel = r.ac_w.mean_spread() / mean(&r.ac_w.w05) * 100.0;
    let rapl_rel = r.rapl_core0_w.mean_spread() / mean(&r.rapl_core0_w.w05).max(1e-9) * 100.0;
    out.push_str(&format!(
        "AC spread {:.1} W ({:.1} %; paper vxorps: 21 W / 7.6 %), RAPL core spread {:.2} % \
         (paper: within 0.08 %)\n",
        r.ac_w.mean_spread(),
        ac_rel,
        rapl_rel
    ));
    out
}

/// The summary as a [`Table`] (for text or JSON output).
pub fn tables(r: &Fig10Result) -> Vec<Table> {
    let mut t = Table::new(
        format!("Fig. 10 — {} operand-weight sweep", r.instruction),
        &["metric", "mean @w=0", "mean @w=0.5", "mean @w=1", "spread", "w0/w1 overlap"],
    );
    for (name, s) in [
        ("system AC [W]", &r.ac_w),
        ("RAPL core0 [W]", &r.rapl_core0_w),
        ("RAPL pkg sum [W]", &r.rapl_pkg_w),
    ] {
        let (a, b, c) = s.means();
        t.row(&[
            name.into(),
            format!("{a:.3}"),
            format!("{b:.3}"),
            format!("{c:.3}"),
            format!("{:.3}", s.mean_spread()),
            format!("{}", s.distributions_overlap()),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config { blocks: 36, block_s: 0.1 }
    }

    #[test]
    fn sweep_engine_matches_materialized_session() {
        // The sweep port must not change results: the same single case
        // built by hand (as the module did before the sweep engine) and
        // run materialized produces a byte-identical summary table, for
        // more than one worker/shard split.
        use zen2_sim::Case;
        let cfg = quick();
        let seed = 95;
        let class = KernelClass::VXorps;
        let (sc, weights) = scenario(&cfg, seed, class);
        let case = Case::new("fig10", SimConfig::epyc_7502_2s(), sc, child_seed(seed, 0));
        let runs = Session::new().run(std::slice::from_ref(&case)).unwrap();
        let mut materialized = Fig10Result {
            instruction: class.name().into(),
            ac_w: WeightSamples::default(),
            rapl_core0_w: WeightSamples::default(),
            rapl_pkg_w: WeightSamples::default(),
        };
        for (k, &weight) in weights.iter().enumerate() {
            materialized.ac_w.push(weight, runs[0].watts(&format!("ac{k}")));
            materialized.rapl_core0_w.push(weight, runs[0].watts(&format!("core0_{k}")));
            materialized.rapl_pkg_w.push(weight, runs[0].watts_pair(&format!("pkg{k}")).0);
        }
        for (workers, shard) in [(1, 1), (7, 64)] {
            let streamed =
                run_with(&cfg, seed, class, &Session::new().workers(workers).shard_size(shard));
            assert_eq!(render(&streamed), render(&materialized), "workers {workers} shard {shard}");
            assert_eq!(streamed.ac_w.w0, materialized.ac_w.w0);
            assert_eq!(streamed.rapl_pkg_w.w1, materialized.rapl_pkg_w.w1);
        }
        assert_eq!(
            tables(&run(&cfg, seed, class))[0].to_json(),
            tables(&materialized)[0].to_json()
        );
    }

    #[test]
    fn vxorps_ac_separation_matches_fig10a() {
        let r = run(&quick(), 91, KernelClass::VXorps);
        let spread = r.ac_w.mean_spread();
        assert!((spread - 21.0).abs() < 4.0, "AC spread {spread:.1} W");
        // "with no overlap in distributions".
        assert!(!r.ac_w.distributions_overlap(), "AC weight classes must separate");
        // Ordering 0 < 0.5 < 1.
        let (a, b, c) = r.ac_w.means();
        assert!(a < b && b < c);
    }

    #[test]
    fn vxorps_rapl_is_blind_fig10b() {
        let r = run(&quick(), 92, KernelClass::VXorps);
        let (_, mid, _) = r.rapl_core0_w.means();
        let rel = r.rapl_core0_w.mean_spread() / mid;
        assert!(rel < 0.005, "RAPL core relative spread {rel:.5}");
        assert!(r.rapl_core0_w.distributions_overlap(), "RAPL distributions must overlap");
    }

    #[test]
    fn shr_barely_shows_even_at_the_wall() {
        let r = run(&quick(), 93, KernelClass::Shr);
        let (_, mid, _) = r.ac_w.means();
        let rel = r.ac_w.mean_spread() / mid;
        // Paper: "much closer, within 0.9 %".
        assert!(rel < 0.012, "shr AC relative spread {rel:.4}");
    }

    #[test]
    #[should_panic(expected = "vxorps or shr")]
    fn other_kernels_are_rejected() {
        let _ = run(&quick(), 94, KernelClass::AddPd);
    }
}
