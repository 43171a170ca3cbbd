//! Extension: the paper's future-work prediction on many-core parts.
//!
//! "As future work, we will analyze the frequency throttling on processors
//! with more cores. We expect a more severe impact, since the ratio of
//! compute to I/O resources is higher." (Section VIII)
//!
//! This experiment runs the Fig. 6 FIRESTARTER methodology on a simulated
//! single-socket EPYC 7742 (64 cores behind one I/O die, 225 W-class PPT)
//! and compares the throttle depth against the EPYC 7502 baseline. The
//! paper publishes no numbers for this — the results here are *model
//! predictions*, clearly labeled as such. The SKU grid is a declarative
//! [`Sweep`] streamed through the [`Session`] worker pool.

use crate::report::Table;
use crate::Scale;
use zen2_isa::{KernelClass, OperandWeight};
use zen2_sim::checkpoint::run_resumable;
use zen2_sim::{
    Axis, CheckpointError, CheckpointSpec, Json, Probe, Run, Scenario, Session, SimConfig,
    Snapshot, SnapshotError, Sweep, Window,
};
use zen2_topology::{CoreId, ThreadId};

/// One SKU's throttling result.
#[derive(Debug, Clone)]
pub struct SkuResult {
    /// SKU label.
    pub sku: String,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// Nominal frequency, GHz.
    pub nominal_ghz: f64,
    /// FIRESTARTER (SMT) equilibrium frequency, GHz.
    pub equilibrium_ghz: f64,
    /// Throttle depth relative to nominal (0 = none).
    pub throttle_depth: f64,
    /// RAPL-visible package power at equilibrium, W per socket.
    pub rapl_pkg_w: f64,
    /// Per-core share of the PPT budget at equilibrium, W.
    pub per_core_budget_w: f64,
}

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct ManyCoreResult {
    /// The paper's 32-core baseline.
    pub epyc_7502: SkuResult,
    /// The future-work 64-core part.
    pub epyc_7742: SkuResult,
}

/// A SKU's reduced result snapshots exactly: it is the cell each case
/// reduces to for checkpoint/resume.
impl Snapshot for SkuResult {
    fn snapshot(&self) -> Json {
        Json::obj([
            ("sku", Json::str(self.sku.clone())),
            ("cores_per_socket", Json::usize(self.cores_per_socket)),
            ("nominal_ghz", Json::f64(self.nominal_ghz)),
            ("equilibrium_ghz", Json::f64(self.equilibrium_ghz)),
            ("throttle_depth", Json::f64(self.throttle_depth)),
            ("rapl_pkg_w", Json::f64(self.rapl_pkg_w)),
            ("per_core_budget_w", Json::f64(self.per_core_budget_w)),
        ])
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        Ok(Self {
            sku: json.get("sku")?.as_str()?.to_string(),
            cores_per_socket: json.get("cores_per_socket")?.as_usize()?,
            nominal_ghz: json.get("nominal_ghz")?.as_f64()?,
            equilibrium_ghz: json.get("equilibrium_ghz")?.as_f64()?,
            throttle_depth: json.get("throttle_depth")?.as_f64()?,
            rapl_pkg_w: json.get("rapl_pkg_w")?.as_f64()?,
            per_core_budget_w: json.get("per_core_budget_w")?.as_f64()?,
        })
    }
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Settling/measurement time per SKU, seconds.
    pub duration_s: f64,
}

impl Config {
    /// Scaled configuration.
    pub fn new(scale: Scale) -> Self {
        Self { duration_s: scale.pick(0.5, 10.0) }
    }
}

/// Builds one SKU's scenario: FIRESTARTER on every hardware thread, the
/// paper's pre-heat partway through the settle, then the equilibrium
/// frequency and a trailing RAPL window.
pub fn sku_scenario(cfg: &Config, sim_cfg: &SimConfig) -> Scenario {
    let threads = sim_cfg.topology.num_threads() as u32;
    let mut sc = Scenario::new();
    sc.at(0).workloads(ThreadId(0), threads, KernelClass::Firestarter, OperandWeight::HALF);
    sc.at_secs(cfg.duration_s * 0.4).preheat();
    sc.probe("ghz", Probe::EffectiveGhz(CoreId(0)), Window::at_secs(cfg.duration_s));
    sc.probe("rapl", Probe::RaplPkgW, Window::span_secs(cfg.duration_s, cfg.duration_s + 0.3));
    sc
}

/// Reduces one SKU's [`Run`].
fn reduce(sim_cfg: &SimConfig, sku: &str, run: &Run) -> SkuResult {
    let nominal_ghz = sim_cfg.nominal_mhz() as f64 / 1000.0;
    let cores_per_socket = sim_cfg.topology.cores_per_socket();
    let sockets = sim_cfg.topology.num_sockets();
    let equilibrium_ghz = run.ghz("ghz");
    let rapl_pkg_w = run.watts("rapl") / sockets as f64;
    SkuResult {
        sku: sku.into(),
        cores_per_socket,
        nominal_ghz,
        equilibrium_ghz,
        throttle_depth: 1.0 - equilibrium_ghz / nominal_ghz,
        rapl_pkg_w,
        per_core_budget_w: rapl_pkg_w / cores_per_socket as f64,
    }
}

/// The swept SKUs, in presentation order: label and machine.
fn skus() -> [(&'static str, SimConfig); 2] {
    [("EPYC 7502", SimConfig::epyc_7502_2s()), ("EPYC 7742", SimConfig::epyc_7742_1s())]
}

/// The SKU grid as a declarative [`Sweep`]: one axis picking both the
/// machine configuration and its matching scenario, built once.
pub fn sweep(cfg: &Config, seed: u64) -> Sweep {
    let cases = skus().map(|(_, sim_cfg)| {
        let scenario = sku_scenario(cfg, &sim_cfg);
        (sim_cfg, scenario)
    });
    Sweep::new("manycore", move |ix| cases[ix[0]].clone())
        .seed(seed)
        .axis(Axis::new("sku", skus().map(|(label, _)| label)))
}

/// Runs both SKUs through the streaming sweep engine.
pub fn run(cfg: &Config, seed: u64, session: &Session) -> ManyCoreResult {
    run_checkpointed(cfg, seed, session, &CheckpointSpec::none())
        .expect("checkpointing disabled")
        .expect("no halt configured")
}

/// [`run`] with checkpoint/resume: persists the per-SKU reductions at
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
) -> Result<Option<ManyCoreResult>, CheckpointError> {
    let skus = skus();
    let reduce_sku = |index: usize, run: Run| {
        let (label, sim_cfg) = &skus[index];
        reduce(sim_cfg, label, &run)
    };
    let Some(cells) = run_resumable(&sweep(cfg, seed), session, spec, reduce_sku)? else {
        return Ok(None);
    };
    // One cell per SKU, in axis order: the 7502, then the 7742.
    let [epyc_7502, epyc_7742] = <[SkuResult; 2]>::try_from(cells).expect("one cell per SKU");
    Ok(Some(ManyCoreResult { epyc_7502, epyc_7742 }))
}

/// Renders the prediction table.
pub fn render(r: &ManyCoreResult) -> String {
    let t = table(r);
    let mut out = t.render();
    out.push_str(&format!(
        "prediction: the 64-core part throttles {:.1}x deeper than the 32-core part\n",
        r.epyc_7742.throttle_depth / r.epyc_7502.throttle_depth
    ));
    out
}

/// [`table`] in the uniform multi-table shape every binary emits.
pub fn tables(r: &ManyCoreResult) -> Vec<Table> {
    vec![table(r)]
}

/// The summary as a [`Table`] (for text or JSON output).
pub fn table(r: &ManyCoreResult) -> Table {
    let mut t = Table::new(
        "Extension — many-core throttling prediction (paper SS VIII future work; \
         7742 numbers are model predictions, not paper measurements)",
        &[
            "SKU",
            "cores",
            "nominal [GHz]",
            "FIRESTARTER eq. [GHz]",
            "throttle depth",
            "W/core budget",
        ],
    );
    for s in [&r.epyc_7502, &r.epyc_7742] {
        t.row(&[
            s.sku.clone(),
            format!("{}", s.cores_per_socket),
            format!("{:.2}", s.nominal_ghz),
            format!("{:.3}", s.equilibrium_ghz),
            format!("{:.1}%", s.throttle_depth * 100.0),
            format!("{:.2}", s.per_core_budget_w),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config { duration_s: 0.4 }
    }

    #[test]
    fn sweep_engine_matches_materialized_session() {
        // The sweep port must not change results: the same cases built
        // by hand (as the module did before the sweep engine) and run
        // materialized produce byte-identical paper-comparison output.
        use zen2_sim::{sweep::child_seed, Case};
        let cfg = quick();
        let seed = 131;
        let cfg_7502 = SimConfig::epyc_7502_2s();
        let cfg_7742 = SimConfig::epyc_7742_1s();
        let cases = vec![
            Case::new(
                "EPYC 7502",
                cfg_7502.clone(),
                sku_scenario(&cfg, &cfg_7502),
                child_seed(seed, 0),
            ),
            Case::new(
                "EPYC 7742",
                cfg_7742.clone(),
                sku_scenario(&cfg, &cfg_7742),
                child_seed(seed, 1),
            ),
        ];
        crate::assert_same_cases(&sweep(&cfg, seed), &cases);
        let runs = Session::new().run(&cases).unwrap();
        let materialized = ManyCoreResult {
            epyc_7502: reduce(&cfg_7502, "EPYC 7502", &runs[0]),
            epyc_7742: reduce(&cfg_7742, "EPYC 7742", &runs[1]),
        };
        assert_eq!(render(&run(&cfg, seed, &Session::new())), render(&materialized));
        assert_eq!(
            table(&run(&cfg, seed, &Session::new())).to_json(),
            table(&materialized).to_json()
        );
    }

    #[test]
    fn many_core_part_throttles_deeper() {
        // The paper's expectation: "a more severe impact".
        let r = run(&quick(), 131, &Session::new());
        assert!(
            r.epyc_7742.throttle_depth > r.epyc_7502.throttle_depth + 0.02,
            "7742 {:.3} vs 7502 {:.3}",
            r.epyc_7742.throttle_depth,
            r.epyc_7502.throttle_depth
        );
    }

    #[test]
    fn per_core_budget_shrinks_with_core_count() {
        let r = run(&quick(), 132, &Session::new());
        assert!(r.epyc_7742.per_core_budget_w < r.epyc_7502.per_core_budget_w);
        // Both stay regulated near their PPT targets.
        assert!((r.epyc_7502.rapl_pkg_w - 170.0).abs() < 8.0);
        assert!((r.epyc_7742.rapl_pkg_w - 212.0).abs() < 10.0);
    }

    #[test]
    fn baseline_matches_fig6() {
        let r = run(&quick(), 133, &Session::new());
        assert!((r.epyc_7502.equilibrium_ghz - 2.03).abs() < 0.05);
    }

    #[test]
    fn render_labels_the_prediction() {
        let s = render(&run(&quick(), 134, &Session::new()));
        assert!(s.contains("model predictions"));
        assert!(s.contains("EPYC 7742"));
    }
}
