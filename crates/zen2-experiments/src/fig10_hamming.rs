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
//! ([`Probe::AcTrueMeanW`]), RAPL package sum ([`Probe::RaplPkgW`]) and
//! RAPL core-0 ([`Probe::RaplCoreW`]) windows. The figure reads no other
//! RAPL domain, so its machine keeps the energy of both packages and of
//! core 0 only. The blocks of one instruction
//! must share one machine (thermal state carries across them, which is
//! exactly the side channel under study), so each instruction is one
//! case of a [`Sweep`] over an instruction axis, streamed through the
//! [`Session`] worker pool and reduced into per-weight buckets. The
//! figure runs both instructions as one two-case grid ([`run_grid`]);
//! [`run`] runs one of them alone, as the same case.

use crate::report::Table;
use crate::Scale;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write;
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
    sc.at(0).workloads(ThreadId(0), 128, class, OperandWeight::HALF);
    sc.at_secs(T_BLOCKS_S).preheat();

    let mut weights = Vec::with_capacity(cfg.blocks);
    for k in 0..cfg.blocks {
        let weight = *OperandWeight::PAPER_SWEEP.choose(&mut rng).expect("non-empty weight set");
        weights.push(weight);
        let t0 = T_BLOCKS_S + k as f64 * cfg.block_s;
        sc.at_secs(t0).workloads(ThreadId(0), 128, class, weight);
        let window = Window::span_secs(t0, t0 + cfg.block_s);
        sc.probe(format!("ac{k}"), Probe::AcTrueMeanW, window);
        sc.probe(format!("pkg{k}"), Probe::RaplPkgW, window);
        sc.probe(format!("core0_{k}"), Probe::RaplCoreW(CoreId(0)), window);
    }
    (sc, weights)
}

/// The three per-weight metric buckets one instruction's blocks reduce
/// into — the cell of its case.
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

/// The weight sweeps of `(instruction, seed)` pairs as one [`Sweep`] over
/// an instruction axis: case `i` runs pair `i`'s scenario on a machine
/// seeded `child_seed(seed, 0)`, whatever the other pairs. Also returns
/// each case's pre-drawn per-block weight sequence.
fn grid(cfg: &Config, pairs: &[(KernelClass, u64)]) -> (Sweep, Vec<Vec<OperandWeight>>) {
    let (scenarios, weights): (Vec<Scenario>, Vec<_>) =
        pairs.iter().map(|&(class, seed)| scenario(cfg, seed, class)).unzip();
    let seeds: Vec<u64> = pairs.iter().map(|&(_, seed)| child_seed(seed, 0)).collect();
    let sim_cfg = SimConfig::epyc_7502_2s();
    let sweep = Sweep::new("fig10", move |ix| (sim_cfg.clone(), scenarios[ix[0]].clone()))
        .seed_fn(move |index| seeds[index as usize])
        .axis(Axis::new("instr", pairs.iter().map(|(class, _)| class.name())));
    (sweep, weights)
}

/// The weight sweep of one instruction as a declarative [`Sweep`] of one
/// case, plus the pre-drawn per-block weight sequence its scenario
/// schedules.
pub fn sweep(cfg: &Config, seed: u64, class: KernelClass) -> (Sweep, Vec<OperandWeight>) {
    let (sweep, mut weights) = grid(cfg, &[(class, seed)]);
    (sweep, weights.swap_remove(0))
}

/// Runs the weight sweep for one instruction kernel through the
/// streaming sweep engine.
pub fn run(cfg: &Config, seed: u64, class: KernelClass, session: &Session) -> Fig10Result {
    run_checkpointed(cfg, seed, class, session, &CheckpointSpec::none())
        .expect("checkpointing disabled")
        .expect("no halt configured")
}

/// [`run`] with checkpoint/resume. The grid is a single case (the
/// blocks must share one machine), so the only possible cut is after
/// that case completes — `--checkpoint` still makes a finished run
/// re-emittable via `--resume` without re-simulating. Returns `None` on
/// a deliberate `--halt-after` halt.
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
    Ok(run_grid(cfg, &[(class, seed)], session, spec)?.map(|mut r| r.swap_remove(0)))
}

/// Runs the weight sweep of each `(instruction, seed)` pair as one case
/// of one grid, each exactly the case [`run`] runs for it at that seed,
/// so they share the session's worker pool and one checkpoint file. One
/// result per pair, in order; `None` on a deliberate `--halt-after` halt
/// or a [`CheckpointSpec::shard`] slice.
///
/// # Errors
/// Errors when the checkpoint cannot be read, written, or does not
/// belong to this grid.
pub fn run_grid(
    cfg: &Config,
    pairs: &[(KernelClass, u64)],
    session: &Session,
    spec: &CheckpointSpec,
) -> Result<Option<Vec<Fig10Result>>, CheckpointError> {
    assert!(
        pairs.iter().all(|(class, _)| matches!(class, KernelClass::VXorps | KernelClass::Shr)),
        "Fig. 10 sweeps vxorps or shr"
    );
    let (sweep, weights) = grid(cfg, pairs);
    // Route each block's readings by its case's pre-drawn weight
    // sequence. Block k declared its `ac`, `pkg` and `core0_` probes in a
    // row and a `Run` keeps declaration order, so its readings are
    // measurements 3k..3k+3; reading them by position spares a label scan
    // per reading, and the label and kind checks keep a layout change
    // loud. A label is its prefix and then `k`, written once per block
    // into one reused buffer.
    let reduce = |index: usize, run: Run| {
        let weights = &weights[index];
        let mut buckets = WeightBuckets::default();
        assert_eq!(run.measurements.len(), 3 * weights.len(), "three probes per block");
        let mut digits = String::new();
        for (k, (&weight, block)) in
            weights.iter().zip(run.measurements.chunks_exact(3)).enumerate()
        {
            digits.clear();
            write!(digits, "{k}").expect("writing to a String cannot fail");
            assert!(
                block
                    .iter()
                    .zip(["ac", "pkg", "core0_"])
                    .all(|((label, _), prefix)| label.strip_prefix(prefix) == Some(digits.as_str())),
                "block {k}: unexpected labels in {block:?}"
            );
            let (Measurement::Watts(ac_w), Measurement::Watts(pkg_w), Measurement::Watts(core0_w)) =
                (&block[0].1, &block[1].1, &block[2].1)
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
    let results = cells.into_iter().zip(pairs).map(|(buckets, (class, _))| Fig10Result {
        instruction: class.name().into(),
        ac_w: buckets.ac_w,
        rapl_core0_w: buckets.rapl_core0_w,
        rapl_pkg_w: buckets.rapl_pkg_w,
    });
    Ok(Some(results.collect()))
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
        crate::assert_same_cases(&sweep(&cfg, seed, class).0, std::slice::from_ref(&case));
        // The figure's two-case grid runs each instruction as that case.
        let (shr, _) = scenario(&cfg, seed + 1, KernelClass::Shr);
        let shr = Case::new("fig10", SimConfig::epyc_7502_2s(), shr, child_seed(seed + 1, 0));
        let pairs = [(class, seed), (KernelClass::Shr, seed + 1)];
        crate::assert_same_cases(&grid(&cfg, &pairs).0, &[case.clone(), shr]);
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
            materialized.rapl_pkg_w.push(weight, runs[0].watts(&format!("pkg{k}")));
        }
        for (workers, shard) in [(1, 1), (7, 64)] {
            let streamed =
                run(&cfg, seed, class, &Session::new().workers(workers).shard_size(shard));
            assert_eq!(render(&streamed), render(&materialized), "workers {workers} shard {shard}");
            assert_eq!(streamed.ac_w.w0, materialized.ac_w.w0);
            assert_eq!(streamed.rapl_pkg_w.w1, materialized.rapl_pkg_w.w1);
        }
        assert_eq!(
            tables(&run(&cfg, seed, class, &Session::new()))[0].to_json(),
            tables(&materialized)[0].to_json()
        );
    }

    #[test]
    fn the_paper_scenario_schedules_its_actions_one_by_one() {
        let cfg = Config::new(Scale::Paper);
        let class = KernelClass::VXorps;
        let (sc, weights) = scenario(&cfg, 7, class);
        let blocks =
            weights.iter().enumerate().map(|(k, &w)| (T_BLOCKS_S + k as f64 * cfg.block_s, w));
        let mut one_by_one = Scenario::new();
        for (i, (t, weight)) in
            std::iter::once((0.0, OperandWeight::HALF)).chain(blocks).enumerate()
        {
            if i == 1 {
                one_by_one.at_secs(T_BLOCKS_S).preheat();
            }
            let mut at = one_by_one.at_secs(t);
            for thread in 0..128 {
                at = at.workload(ThreadId(thread), class, weight);
            }
        }
        assert_eq!(sc.steps().len(), 384_129);
        assert!(sc.steps().eq(one_by_one.steps()));
    }

    #[test]
    fn vxorps_ac_separation_matches_fig10a() {
        let r = run(&quick(), 91, KernelClass::VXorps, &Session::new());
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
        let r = run(&quick(), 92, KernelClass::VXorps, &Session::new());
        let (_, mid, _) = r.rapl_core0_w.means();
        let rel = r.rapl_core0_w.mean_spread() / mid;
        assert!(rel < 0.005, "RAPL core relative spread {rel:.5}");
        assert!(r.rapl_core0_w.distributions_overlap(), "RAPL distributions must overlap");
    }

    #[test]
    fn shr_barely_shows_even_at_the_wall() {
        let r = run(&quick(), 93, KernelClass::Shr, &Session::new());
        let (_, mid, _) = r.ac_w.means();
        let rel = r.ac_w.mean_spread() / mid;
        // Paper: "much closer, within 0.9 %".
        assert!(rel < 0.012, "shr AC relative spread {rel:.4}");
    }

    #[test]
    #[should_panic(expected = "vxorps or shr")]
    fn other_kernels_are_rejected() {
        let _ = run(&quick(), 94, KernelClass::AddPd, &Session::new());
    }
}
