//! Whole-system power evaluation for one machine state.
//!
//! Given a snapshot of thread states, workloads and clocks, computes the
//! true DC/AC power (what the LMG670 sees) and the SMU's estimated powers
//! (what RAPL reports and the PPT loop regulates), plus DRAM traffic.
//! The simulator re-evaluates after every tick of actions and every
//! integrated segment; power is constant between evaluations, so energy
//! integration is exact. It evaluates through its own `PowerEval`, whose
//! per-core memo recomputes an active core's terms only when one of their
//! five inputs changed bit for bit, and an active core whose inputs equal
//! the previous active core's takes that core's terms, so a tick that
//! re-weights every core alike computes them once; [`evaluate`] runs the
//! same code from an empty memo, so both give bit-identical breakdowns.
//! After a segment in which only the die temperatures moved,
//! `PowerEval::reevaluate_thermal` recomputes just the
//! temperature-dependent terms, with the same expressions and the same
//! package tail: from the last full evaluation's dense per-core activity
//! estimates it makes one branch-free pass of the active expression over
//! an awake package's cores, then writes the idle-core term to that
//! package's gated cores, kept as an index list; a sleeping package is
//! skipped. Each package's sum of true core powers and the awake package
//! base power do not depend on temperature, so the full evaluation
//! computes them once and the thermal path reuses them; only the
//! estimates are summed again.
//!
//! A machine that keeps no RAPL accounting skips even that: its thermal
//! path recomputes only true package, DC and AC power and leaves the
//! estimates stale. Each package's estimate is linear in the die
//! temperature term, so the full evaluation also keeps per package the
//! sum of (activity estimate + noise) over active cores, the sum of those
//! terms' magnitudes and the active and gated core counts; from them
//! `PowerEval::estimate_bounds` returns an interval that provably holds
//! the estimate the thermal path would compute at any die temperature of
//! a span — the last evaluation's alone, or every temperature the die can
//! reach before the next full evaluation, up to the fixed point
//! `PowerEval::die_fixed_point_c` — and `PowerEval::refresh_estimates`
//! computes it exactly when the PPT controller cannot decide from the
//! interval.

use crate::config::SimConfig;
use crate::cstate::{classify_core, package_c6_allowed, CoreIdleClass, ThreadState};
use zen2_isa::{KernelClass, OperandWeight, SmtMode, WorkloadSet};
use zen2_mem::ClockPlan;
use zen2_topology::Topology;

/// A full power evaluation of one machine state.
#[derive(Debug, Clone)]
pub struct PowerBreakdown {
    /// True DC power per core (active, clock-gate residual, or 0).
    pub core_true_w: Vec<f64>,
    /// SMU-estimated power per core.
    pub core_est_w: Vec<f64>,
    /// True package power (base + cores, with leakage feedback).
    pub pkg_true_w: Vec<f64>,
    /// SMU-estimated package power.
    pub pkg_est_w: Vec<f64>,
    /// Whether each package is awake (out of PC6).
    pub pkg_awake: Vec<bool>,
    /// Total DRAM traffic in GB/s after per-CCD capping.
    pub dram_traffic_gbs: f64,
    /// DIMM power.
    pub dram_w: f64,
    /// Total DC power (packages + DRAM + platform).
    pub dc_w: f64,
    /// Wall (AC) power.
    pub ac_w: f64,
}

impl PowerBreakdown {
    /// An all-zero breakdown shaped for `topo`.
    pub(crate) fn zeroed(topo: &Topology) -> Self {
        Self {
            core_true_w: vec![0.0; topo.num_cores()],
            core_est_w: vec![0.0; topo.num_cores()],
            pkg_true_w: vec![0.0; topo.num_sockets()],
            pkg_est_w: vec![0.0; topo.num_sockets()],
            pkg_awake: vec![false; topo.num_sockets()],
            dram_traffic_gbs: 0.0,
            dram_w: 0.0,
            dc_w: 0.0,
            ac_w: 0.0,
        }
    }
}

/// Inputs that vary at runtime (everything else comes from [`SimConfig`]).
pub struct MachineState<'a> {
    /// Scheduling state per hardware thread.
    pub thread_states: &'a [ThreadState],
    /// Workload per thread (`None` while idle).
    pub workloads: &'a [Option<(KernelClass, OperandWeight)>],
    /// Effective (post-coupling) frequency per core, GHz.
    pub core_eff_ghz: &'a [f64],
    /// Supply voltage per core.
    pub core_voltage: &'a [f64],
    /// Die temperature per package, °C.
    pub die_temp_c: &'a [f64],
    /// Slow estimate-noise per core (resampled on workload changes).
    pub est_noise_w: &'a [f64],
}

/// Evaluates the power of a machine state.
pub fn evaluate(cfg: &SimConfig, state: &MachineState<'_>) -> PowerBreakdown {
    let mut out = PowerBreakdown::zeroed(&cfg.topology);
    PowerEval::new(&cfg.topology).evaluate(cfg, &WorkloadSet::paper(), state, &mut out);
    out
}

/// Everything an active core's temperature-independent terms depend on:
/// kernel class, operand weight, SMT occupancy, effective GHz and
/// voltage, the floats compared bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CoreKey {
    class: KernelClass,
    weight_bits: u64,
    smt: SmtMode,
    ghz_bits: u64,
    voltage_bits: u64,
}

/// One active core's terms for the inputs in `key`.
#[derive(Debug, Clone, Copy)]
struct CoreTerms {
    key: CoreKey,
    true_w: f64,
    est_activity_w: f64,
    dram_demand_gbs: f64,
}

/// The temperature-independent parts of one package's estimate at the
/// last full evaluation. The estimate the thermal path computes is, in
/// exact arithmetic, `active_sum_w + active · t + gated · max(t, 0)` plus
/// the uncore term, where `t` is the die temperature term and `gated`
/// the length of the package's gated-core list.
#[derive(Debug, Clone, Copy, Default)]
struct EstimateTerms {
    /// Σ (activity estimate + noise) over the package's active cores.
    active_sum_w: f64,
    /// Σ (|activity estimate| + |noise|) over the same cores.
    magnitude_w: f64,
    /// Active cores.
    active: u32,
}

/// The simulator's evaluator: each core's last active terms, and from the
/// last full evaluation each core's activity estimate, each awake
/// package's gated cores, each package's true-core sum and estimate
/// terms and the awake package base power; the die temperatures of the
/// last evaluation, and the per-CCD demand scratch, so a step allocates
/// nothing and recomputes only the terms whose inputs moved.
#[derive(Debug, Clone)]
pub(crate) struct PowerEval {
    memo: Vec<Option<CoreTerms>>,
    /// Each core's RAPL activity estimate: an active core's, 0 for the
    /// others. Only a change of thread states, workloads or clocks can
    /// move it; die temperature cannot.
    est_activity_w: Vec<f64>,
    /// Per package, its clock- or power-gated cores, whose estimate is
    /// the idle-core term; empty while the package sleeps.
    gated: Vec<Vec<usize>>,
    cores_true_w: Vec<f64>,
    est_terms: Vec<EstimateTerms>,
    /// An awake package's power before its cores' contributions.
    awake_base_w: f64,
    /// The die temperatures the last evaluation, full or thermal, used.
    die_c: Vec<f64>,
    /// Whether the last thermal re-evaluation left the breakdown's
    /// estimates as an earlier evaluation computed them.
    estimates_stale: bool,
    ccd_demand_gbs: Vec<f64>,
}

impl PowerEval {
    /// An evaluator with an empty memo.
    pub(crate) fn new(topo: &Topology) -> Self {
        Self {
            memo: vec![None; topo.num_cores()],
            est_activity_w: vec![0.0; topo.num_cores()],
            gated: vec![Vec::new(); topo.num_sockets()],
            cores_true_w: vec![0.0; topo.num_sockets()],
            est_terms: vec![EstimateTerms::default(); topo.num_sockets()],
            awake_base_w: 0.0,
            die_c: vec![0.0; topo.num_sockets()],
            estimates_stale: false,
            ccd_demand_gbs: vec![0.0; topo.num_ccds()],
        }
    }

    /// Evaluates `state` into `out`, a breakdown shaped for `cfg`'s
    /// topology.
    pub(crate) fn evaluate(
        &mut self,
        cfg: &SimConfig,
        kernels: &WorkloadSet,
        state: &MachineState<'_>,
        out: &mut PowerBreakdown,
    ) {
        let topo = &cfg.topology;
        let num_cores = topo.num_cores();
        let tpc = topo.threads_per_core();

        // Global package-C6 criterion (or per-package ablation).
        let (all, offline_c1) = (state.thread_states, cfg.os.offline_parks_in_c1);
        let per_pkg = topo.cores_per_socket() * tpc;
        let pkg_awake = &mut out.pkg_awake;
        for (pkg, awake) in pkg_awake.iter_mut().enumerate() {
            let own = &all[pkg * per_pkg..(pkg + 1) * per_pkg];
            *awake = !package_c6_allowed(all, own, offline_c1, cfg.global_package_c6);
        }

        let core_true_w = &mut out.core_true_w;
        let core_est_w = &mut out.core_est_w;
        core_true_w.fill(0.0);
        core_est_w.fill(0.0);
        let ccd_demand_gbs = &mut self.ccd_demand_gbs;
        ccd_demand_gbs.fill(0.0);
        let est_terms = &mut self.est_terms;
        est_terms.fill(EstimateTerms::default());
        self.est_activity_w.fill(0.0);
        self.gated.iter_mut().for_each(Vec::clear);
        // The last active core's terms: the terms are a function of their
        // key, so an equal key may take them.
        let mut previous: Option<CoreTerms> = None;

        for core_idx in 0..num_cores {
            let core = zen2_topology::CoreId::from_index(core_idx);
            let pkg = topo.socket_of_core(core).index();
            if !pkg_awake[pkg] {
                continue;
            }
            let t0 = core_idx * tpc;
            let threads = &state.thread_states[t0..t0 + tpc];
            let die_c = state.die_temp_c[pkg];
            match classify_core(threads, offline_c1) {
                CoreIdleClass::Active { active_threads } => {
                    let f = state.core_eff_ghz[core_idx];
                    let v = state.core_voltage[core_idx];
                    let smt = SmtMode::from_active(active_threads);
                    // The kernel/weight of the first active thread drives the
                    // core model; mixed-kernel cores take the busier kernel
                    // (experiments never mix kernels within a core).
                    let (class, weight) = (0..tpc)
                        .filter(|&i| threads[i].is_active())
                        .filter_map(|i| state.workloads[t0 + i])
                        .next()
                        .unwrap_or((KernelClass::Idle, OperandWeight::HALF));
                    let key = CoreKey {
                        class,
                        weight_bits: weight.0.to_bits(),
                        smt,
                        ghz_bits: f.to_bits(),
                        voltage_bits: v.to_bits(),
                    };
                    let terms = match (self.memo[core_idx], previous) {
                        (Some(terms), _) if terms.key == key => terms,
                        (_, Some(terms)) if terms.key == key => {
                            self.memo[core_idx] = Some(terms);
                            terms
                        }
                        _ => {
                            let kernel = kernels.kernel(class);
                            let terms = CoreTerms {
                                key,
                                true_w: cfg.power.core.active_power_w(kernel, smt, f, v, weight),
                                est_activity_w: cfg
                                    .rapl
                                    .core_activity_estimate_w(kernel, smt, f, v),
                                dram_demand_gbs: kernel.dram_demand_bytes_per_s(smt, f * 1e9) / 1e9,
                            };
                            self.memo[core_idx] = Some(terms);
                            terms
                        }
                    };
                    previous = Some(terms);
                    self.est_activity_w[core_idx] = terms.est_activity_w;
                    core_true_w[core_idx] = terms.true_w;
                    let noise_w = state.est_noise_w[core_idx];
                    core_est_w[core_idx] =
                        terms.est_activity_w + cfg.rapl.temperature_term_w(die_c) + noise_w;
                    let ccd = topo.ccd_of_core(core).index();
                    // Accumulates in ascending core-index order, fixed by the topology.
                    ccd_demand_gbs[ccd] += terms.dram_demand_gbs;
                    // So do the estimate terms; `estimate_bounds` covers
                    // the rounding whatever the order.
                    let pkg_terms = &mut est_terms[pkg];
                    pkg_terms.active_sum_w += terms.est_activity_w + noise_w;
                    pkg_terms.magnitude_w += terms.est_activity_w.abs() + noise_w.abs();
                    pkg_terms.active += 1;
                }
                CoreIdleClass::ClockGated => {
                    core_true_w[core_idx] = cfg.power.core.c1_power_w();
                    core_est_w[core_idx] = cfg.rapl.idle_core_estimate_w(die_c);
                    self.gated[pkg].push(core_idx);
                }
                CoreIdleClass::PowerGated => {
                    core_true_w[core_idx] = cfg.power.core.c2_power_w();
                    core_est_w[core_idx] = cfg.rapl.idle_core_estimate_w(die_c);
                    self.gated[pkg].push(core_idx);
                }
            }
        }

        // Cap per-CCD DRAM demand at the fabric/DRAM capacity.
        let plan = ClockPlan::resolve(cfg.iod_pstate, cfg.dram);
        let ccd_cap = cfg.bandwidth.link_cap_gbs(&plan).min(cfg.bandwidth.dram_cap_gbs(&plan));
        // zen2-lint: allow(float-order) — one pass in ascending CCD-index order, fixed by the topology
        let dram_traffic_gbs: f64 = ccd_demand_gbs.iter().map(|&d| d.min(ccd_cap)).sum();

        let any_awake = pkg_awake.iter().any(|&a| a);
        out.dram_w = if any_awake {
            cfg.power.dram.power_w(dram_traffic_gbs)
        } else {
            cfg.power.dram.self_refresh_w()
        };
        out.dram_traffic_gbs = dram_traffic_gbs;
        let per_pkg = topo.cores_per_socket();
        for (sum, cores) in self.cores_true_w.iter_mut().zip(out.core_true_w.chunks(per_pkg)) {
            // One pass in ascending core-index order, fixed by the topology.
            *sum = cores.iter().sum();
        }
        self.die_c.copy_from_slice(state.die_temp_c);
        self.estimates_stale = false;
        self.awake_base_w = cfg.power.package.awake_base_w(cfg.iod_pstate, cfg.dram);
        package_estimates(cfg, out);
        self.package_truth(cfg, state.die_temp_c, out);
    }

    /// Re-evaluates `out`, this evaluator's last breakdown, after only the
    /// die temperatures moved: each core keeps the true power and
    /// activity estimate of the last full [`evaluate`](Self::evaluate),
    /// each package its gated cores and true-core sum, and the DRAM terms
    /// and awake base power stay. Only the
    /// core estimates' temperature terms and the package tail are
    /// recomputed, with the full path's expressions, so the result is the
    /// full evaluation's bit for bit. Without `estimates` it recomputes
    /// only true package, DC and AC power, and the estimates stay stale
    /// until [`refresh_estimates`](Self::refresh_estimates).
    pub(crate) fn reevaluate_thermal(
        &mut self,
        cfg: &SimConfig,
        die_temp_c: &[f64],
        est_noise_w: &[f64],
        estimates: bool,
        out: &mut PowerBreakdown,
    ) {
        self.die_c.copy_from_slice(die_temp_c);
        self.estimates_stale = !estimates;
        if estimates {
            self.thermal_estimates(cfg, est_noise_w, out);
        }
        self.package_truth(cfg, die_temp_c, out);
    }

    /// Whether `out`'s estimates predate the last evaluation.
    pub(crate) fn estimates_stale(&self) -> bool {
        self.estimates_stale
    }

    /// Brings `out`'s stale estimates up to the last evaluation: the
    /// estimates [`reevaluate_thermal`](Self::reevaluate_thermal) skipped,
    /// with its expressions at its die temperatures.
    pub(crate) fn refresh_estimates(
        &mut self,
        cfg: &SimConfig,
        est_noise_w: &[f64],
        out: &mut PowerBreakdown,
    ) {
        self.thermal_estimates(cfg, est_noise_w, out);
        self.estimates_stale = false;
    }

    /// The thermal path's estimates: each core's at the die temperatures
    /// of the last evaluation, then each package's. An awake package's
    /// cores all take the active expression `(a + t) + n` in one pass,
    /// then its gated cores the idle-core term; a sleeping package's
    /// estimates stay the full evaluation's zeros.
    pub(crate) fn thermal_estimates(
        &self,
        cfg: &SimConfig,
        est_noise_w: &[f64],
        out: &mut PowerBreakdown,
    ) {
        let per_pkg = cfg.topology.cores_per_socket();
        for (pkg, &awake) in out.pkg_awake.iter().enumerate() {
            if !awake {
                continue;
            }
            let cores = pkg * per_pkg..(pkg + 1) * per_pkg;
            let die_c = self.die_c[pkg];
            let temperature_w = cfg.rapl.temperature_term_w(die_c);
            let core_est_w = &mut out.core_est_w[cores.clone()];
            let terms = self.est_activity_w[cores.clone()].iter().zip(&est_noise_w[cores]);
            for (est_w, (&activity_w, &noise_w)) in core_est_w.iter_mut().zip(terms) {
                *est_w = activity_w + temperature_w + noise_w;
            }
            let idle_w = cfg.rapl.idle_core_estimate_w(die_c);
            for &core in &self.gated[pkg] {
                out.core_est_w[core] = idle_w;
            }
        }
        package_estimates(cfg, out);
    }

    /// Core `core`'s estimate, of awake package `pkg`, at each slot of a
    /// held span, as the thermal path computes it: `(a + t) + n` for an
    /// active core, with `t` the slot's die-temperature term, and the
    /// slot's idle-core term for a gated one. `temperature_w`, `idle_w`
    /// and `out` hold one entry per slot.
    pub(crate) fn span_core_estimates(
        &self,
        pkg: usize,
        core: usize,
        noise_w: f64,
        temperature_w: &[f64],
        idle_w: &[f64],
        out: &mut [f64],
    ) {
        if self.gated[pkg].contains(&core) {
            out.copy_from_slice(idle_w);
        } else {
            let activity_w = self.est_activity_w[core];
            for (est_w, &t) in out.iter_mut().zip(temperature_w) {
                *est_w = activity_w + t + noise_w;
            }
        }
    }

    /// Awake package `pkg`'s estimate at each slot of a held span, as the
    /// thermal path computes it: its cores' estimates
    /// ([`span_core_estimates`](Self::span_core_estimates)) summed in
    /// index order from the float sum's start, then the uncore term
    /// added. The sums of every slot are accumulated core by core, so no
    /// slot's sum waits on another's. `temperature_w`, `idle_w` and `out`
    /// hold one entry per slot.
    pub(crate) fn span_package_estimates(
        &self,
        cfg: &SimConfig,
        pkg: usize,
        est_noise_w: &[f64],
        temperature_w: &[f64],
        idle_w: &[f64],
        out: &mut [f64],
    ) {
        // The value `Iterator::sum` starts its fold from, as
        // `package_estimates` sums.
        // zen2-lint: allow(float-order) — the sum of no terms, which has no order
        let empty_sum_w: f64 = std::iter::empty::<f64>().sum();
        out.fill(empty_sum_w);
        let per_pkg = cfg.topology.cores_per_socket();
        let cores = pkg * per_pkg..(pkg + 1) * per_pkg;
        let terms = self.est_activity_w[cores.clone()].iter().zip(&est_noise_w[cores.clone()]);
        let mut gated = self.gated[pkg].iter().peekable();
        for (core, (&activity_w, &noise_w)) in cores.zip(terms) {
            if gated.next_if_eq(&&core).is_some() {
                for (sum_w, &idle_w) in out.iter_mut().zip(idle_w) {
                    *sum_w += idle_w;
                }
            } else {
                for (sum_w, &t) in out.iter_mut().zip(temperature_w) {
                    *sum_w += activity_w + t + noise_w;
                }
            }
        }
        for est_w in out.iter_mut() {
            *est_w = cfg.rapl.package_estimate_w(*est_w, true);
        }
    }

    /// True package power (with leakage), DC and AC power from each
    /// package's true-core sum, the awake base power and the wake states
    /// and DRAM power already in `out`: the true half of the tail both
    /// evaluation paths share.
    fn package_truth(&self, cfg: &SimConfig, die_temp_c: &[f64], out: &mut PowerBreakdown) {
        for (pkg, &awake) in out.pkg_awake.iter().enumerate() {
            out.pkg_true_w[pkg] =
                package_true_w(cfg, awake, self.package_base_w(pkg), die_temp_c[pkg]);
        }
        (out.dc_w, out.ac_w) = dc_ac_w(cfg, &out.pkg_true_w, out.dram_w);
    }

    /// Package `pkg`'s power before leakage while awake, as of the last
    /// full evaluation: the awake base power plus its true-core sum.
    #[inline]
    pub(crate) fn package_base_w(&self, pkg: usize) -> f64 {
        self.awake_base_w + self.cores_true_w[pkg]
    }

    /// Records a thermal re-evaluation without estimates that the caller
    /// made itself through [`package_true_w`] and [`dc_ac_w`], as
    /// `System`'s held PPT slots do: the die temperatures it used, with
    /// the estimates left stale.
    pub(crate) fn record_thermal(&mut self, die_temp_c: &[f64]) {
        self.die_c.copy_from_slice(die_temp_c);
        self.estimates_stale = true;
    }

    /// The die temperature of package `pkg` that the last evaluation,
    /// full or thermal, used.
    pub(crate) fn die_c(&self, pkg: usize) -> f64 {
        self.die_c[pkg]
    }

    /// The die temperature package `pkg`'s thermal step relaxes toward
    /// while the machine state of the last full evaluation lasts: the
    /// steady state of a sleeping package's constant power, or the fixed
    /// point of an awake package's leakage-coupled step
    /// ([`ThermalModel::coupled_steady_state_c`](zen2_power::ThermalModel::coupled_steady_state_c)
    /// of the package's power before leakage). `None` when the leakage
    /// feedback runs away.
    pub(crate) fn die_fixed_point_c(
        &self,
        cfg: &SimConfig,
        pkg: usize,
        awake: bool,
    ) -> Option<f64> {
        let thermal = &cfg.power.thermal;
        if awake {
            thermal.coupled_steady_state_c(&cfg.power.leakage, self.package_base_w(pkg))
        } else {
            Some(thermal.steady_state_c(cfg.power.package.sleeping_w()))
        }
    }

    /// An interval that holds package `pkg`'s estimate as the thermal
    /// path computes it at every die temperature in `[lo_c, hi_c]`,
    /// `awake` being the package's wake state and the other inputs those
    /// of the last full evaluation; the span `[d, d]` bounds it at `d`.
    ///
    /// At one temperature: with `t` the temperature term and
    /// `g = max(t, 0)` the gated-core term (the same floats on both
    /// paths), the thermal path computes `fl(a + t) + n` per active core,
    /// sums the package's `N` cores in order and adds the uncore term
    /// `U`. Let `W` be the sum of the magnitudes of every term:
    /// `Σ(|a| + |n|) + A·|t| + G·g + |U|` over `A` active and `G` gated
    /// cores. With `u = 2⁻⁵³`, the two roundings per active core cost at
    /// most `2u·W`, the `N − 1` roundings of the core sum at most
    /// `(N − 1)u·W` and the uncore addition `u·W`, so the thermal path is
    /// within `(N + 2)u·W` of the exact value, to first order. The
    /// interval's centre sums `A` rounded `a + n` terms (at most
    /// `A·u·W`), then forms `A·t` and `G·g` and adds three terms (at most
    /// `4u·W` more), so it is within `(N + 4)u·W` of the exact value. The
    /// two differ by at most `(2N + 6)u·W ≤ (N + 4)·2⁻⁵²·W`. The
    /// half-width doubles that, which covers the second-order terms
    /// (`O(N²u²)·W`) and the rounding of `W`, of the half-width and of
    /// the two ends.
    ///
    /// Over a span: the float `t` is monotone in the die temperature
    /// (a subtraction and a scaling, each rounding monotone), `g` moves
    /// with it, and both enter the exact value with non-negative counts,
    /// so the exact value at any temperature of the span lies between its
    /// values at the two ends. `|t|` and `max(t, 0)` are convex in `t`, so
    /// `W` at any temperature of the span is at most `W*`, the larger of
    /// its values at the two ends. The thermal path is then within
    /// `(N + 2)u·W*` of an exact value between the ends' exact values,
    /// each within `(N + 4)u·W*` of its own centre: the lower centre less
    /// the half-width at `W*`, up to the higher centre plus it, holds it.
    pub(crate) fn estimate_bounds(
        &self,
        cfg: &SimConfig,
        pkg: usize,
        awake: bool,
        (lo_c, hi_c): (f64, f64),
    ) -> (f64, f64) {
        let (lo_centre_w, lo_magnitude_w) = self.estimate_centre(cfg, pkg, awake, lo_c);
        let (hi_centre_w, hi_magnitude_w) = self.estimate_centre(cfg, pkg, awake, hi_c);
        let cores = cfg.topology.cores_per_socket() as f64;
        let half_width_w = 2.0 * (cores + 4.0) * f64::EPSILON * lo_magnitude_w.max(hi_magnitude_w);
        (lo_centre_w.min(hi_centre_w) - half_width_w, lo_centre_w.max(hi_centre_w) + half_width_w)
    }

    /// The centre of [`estimate_bounds`](Self::estimate_bounds) at die
    /// temperature `die_c`, and `W` there.
    fn estimate_centre(&self, cfg: &SimConfig, pkg: usize, awake: bool, die_c: f64) -> (f64, f64) {
        let terms = &self.est_terms[pkg];
        let temperature_w = cfg.rapl.temperature_term_w(die_c);
        let idle_w = cfg.rapl.idle_core_estimate_w(die_c);
        let (active, gated) = (f64::from(terms.active), self.gated[pkg].len() as f64);
        let cores_w = terms.active_sum_w + active * temperature_w + gated * idle_w;
        let centre_w = cfg.rapl.package_estimate_w(cores_w, awake);
        let uncore_w = cfg.rapl.package_estimate_w(0.0, awake);
        let magnitude_w =
            terms.magnitude_w + active * temperature_w.abs() + gated * idle_w + uncore_w.abs();
        (centre_w, magnitude_w)
    }
}

/// A package's true power at die temperature `die_c`: while awake, its
/// power before leakage, `base_w` ([`PowerEval::package_base_w`]), times
/// the leakage multiplier; while asleep, its PC6 power.
#[inline]
pub(crate) fn package_true_w(cfg: &SimConfig, awake: bool, base_w: f64, die_c: f64) -> f64 {
    if awake {
        base_w * cfg.power.leakage.multiplier(die_c)
    } else {
        cfg.power.package.sleeping_w()
    }
}

/// DC and AC power from each package's true power and the DRAM power.
#[inline]
pub(crate) fn dc_ac_w(cfg: &SimConfig, pkg_true_w: &[f64], dram_w: f64) -> (f64, f64) {
    // zen2-lint: allow(float-order) — one pass in ascending package-index order, fixed by the topology
    let dc_w = pkg_true_w.iter().sum::<f64>() + dram_w + cfg.power.platform_dc_w;
    (dc_w, cfg.power.psu.ac_from_dc(dc_w))
}

/// Each package's estimate from the per-core estimates and wake states
/// already in `out`: the estimate half of the tail both evaluation paths
/// share.
fn package_estimates(cfg: &SimConfig, out: &mut PowerBreakdown) {
    let per_pkg = cfg.topology.cores_per_socket();
    for (pkg, &awake) in out.pkg_awake.iter().enumerate() {
        let cores = pkg * per_pkg..(pkg + 1) * per_pkg;
        // zen2-lint: allow(float-order) — one pass in ascending core-index order, fixed by the topology
        let cores_est: f64 = out.core_est_w[cores].iter().sum();
        out.pkg_est_w[pkg] = cfg.rapl.package_estimate_w(cores_est, awake);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_state(
        cfg: &SimConfig,
    ) -> (Vec<ThreadState>, Vec<Option<(KernelClass, OperandWeight)>>) {
        let n = cfg.topology.num_threads();
        (vec![ThreadState::C2; n], vec![None; n])
    }

    fn eval_with(
        cfg: &SimConfig,
        threads: &[ThreadState],
        workloads: &[Option<(KernelClass, OperandWeight)>],
    ) -> PowerBreakdown {
        let cores = cfg.topology.num_cores();
        let pkgs = cfg.topology.num_sockets();
        let state = MachineState {
            thread_states: threads,
            workloads,
            core_eff_ghz: &vec![2.5; cores],
            core_voltage: &vec![1.0; cores],
            die_temp_c: &vec![68.0; pkgs],
            est_noise_w: &vec![0.0; cores],
        };
        evaluate(cfg, &state)
    }

    #[test]
    fn all_c2_idles_at_fig7_floor() {
        let cfg = SimConfig::epyc_7502_2s();
        let (threads, workloads) = idle_state(&cfg);
        let b = eval_with(&cfg, &threads, &workloads);
        assert!(!b.pkg_awake[0] && !b.pkg_awake[1]);
        assert!((b.ac_w - 99.1).abs() < 1.5, "all-C2 floor {:.1} W", b.ac_w);
    }

    #[test]
    fn one_c1_thread_costs_the_package_wake_adder() {
        let cfg = SimConfig::epyc_7502_2s();
        let (mut threads, workloads) = idle_state(&cfg);
        threads[0] = ThreadState::C1;
        let b = eval_with(&cfg, &threads, &workloads);
        assert!(b.pkg_awake[0] && b.pkg_awake[1], "global criterion wakes both");
        assert!((b.ac_w - 180.3).abs() < 2.0, "one-C1 level {:.1} W", b.ac_w);
    }

    #[test]
    fn additional_c1_cores_cost_90_milliwatts() {
        let cfg = SimConfig::epyc_7502_2s();
        let (mut threads, workloads) = idle_state(&cfg);
        threads[0] = ThreadState::C1;
        let one = eval_with(&cfg, &threads, &workloads);
        threads[2] = ThreadState::C1; // second core's first thread
        let two = eval_with(&cfg, &threads, &workloads);
        let delta = two.ac_w - one.ac_w;
        assert!((delta - 0.09).abs() < 0.01, "per-C1-core delta {delta:.3} W");
        // The sibling thread of an already-C1 core adds nothing.
        threads[1] = ThreadState::C1;
        let sib = eval_with(&cfg, &threads, &workloads);
        assert!((sib.ac_w - two.ac_w).abs() < 1e-9);
    }

    #[test]
    fn offline_anomaly_holds_power_at_c1_level() {
        let cfg = SimConfig::epyc_7502_2s();
        let (mut threads, workloads) = idle_state(&cfg);
        threads[64] = ThreadState::Offline;
        let b = eval_with(&cfg, &threads, &workloads);
        assert!(b.pkg_awake[0], "offline thread blocks PC6");
        assert!((b.ac_w - 180.3).abs() < 2.0, "anomaly level {:.1} W", b.ac_w);

        // Ablation: a kernel that parks offline threads cleanly.
        let mut cfg2 = SimConfig::epyc_7502_2s();
        cfg2.os.offline_parks_in_c1 = false;
        let b2 = eval_with(&cfg2, &threads, &workloads);
        assert!((b2.ac_w - 99.1).abs() < 1.5, "clean parking restores the floor");
    }

    #[test]
    fn active_pause_core_costs_a_third_of_a_watt() {
        let cfg = SimConfig::epyc_7502_2s();
        let (mut threads, mut workloads) = idle_state(&cfg);
        threads[0] = ThreadState::Active;
        workloads[0] = Some((KernelClass::Pause, OperandWeight::HALF));
        let one = eval_with(&cfg, &threads, &workloads);
        threads[2] = ThreadState::Active;
        workloads[2] = Some((KernelClass::Pause, OperandWeight::HALF));
        let two = eval_with(&cfg, &threads, &workloads);
        let delta = two.ac_w - one.ac_w;
        assert!((delta - 0.33).abs() < 0.03, "per-active-core delta {delta:.3} W");
    }

    #[test]
    fn memory_workload_power_is_invisible_to_rapl() {
        let cfg = SimConfig::epyc_7502_2s();
        let (mut threads, mut workloads) = idle_state(&cfg);
        for t in 0..64 {
            threads[t * 2] = ThreadState::Active;
            workloads[t * 2] = Some((KernelClass::MemoryRead, OperandWeight::HALF));
        }
        let b = eval_with(&cfg, &threads, &workloads);
        assert!(b.dram_traffic_gbs > 50.0, "traffic {:.0} GB/s", b.dram_traffic_gbs);
        assert!(b.dram_w > cfg.power.dram.standby_w());
        // The estimate has no DRAM term: package estimate stays core-side.
        let est: f64 = b.pkg_est_w.iter().sum();
        let truth: f64 = b.pkg_true_w.iter().sum::<f64>() + b.dram_w;
        assert!(est < truth * 0.8, "est {est:.0} W vs true-with-dram {truth:.0} W");
    }

    #[test]
    fn span_bounds_hold_every_estimate_and_instant_bound_inside_them() {
        // Every third thread runs FIRESTARTER, one more idles in C1, the
        // rest in C2, and each core carries its own estimate noise.
        let cfg = SimConfig::epyc_7502_2s();
        let (mut threads, mut workloads) = idle_state(&cfg);
        for t in (0..threads.len()).step_by(3) {
            threads[t] = ThreadState::Active;
            workloads[t] = Some((KernelClass::Firestarter, OperandWeight::HALF));
        }
        threads[4] = ThreadState::C1;
        let cores = cfg.topology.num_cores();
        let noise_w: Vec<f64> = (0..cores).map(|c| (c as f64 - 30.0) * 1e-3).collect();
        let state = MachineState {
            thread_states: &threads,
            workloads: &workloads,
            core_eff_ghz: &vec![2.5; cores],
            core_voltage: &vec![1.0; cores],
            die_temp_c: &[40.0, 90.0],
            est_noise_w: &noise_w,
        };
        let mut eval = PowerEval::new(&cfg.topology);
        let mut out = PowerBreakdown::zeroed(&cfg.topology);
        eval.evaluate(&cfg, &WorkloadSet::paper(), &state, &mut out);
        let fixed = eval.clone();

        // Die temperatures on both sides of the estimate's 68 °C reference.
        let temps = [-40.0, 20.0, 67.5, 68.0, 68.25, 90.0, 150.0];
        for pkg in 0..2 {
            for (i, &from_c) in temps.iter().enumerate() {
                for &to_c in &temps[i..] {
                    let (lo_w, hi_w) = fixed.estimate_bounds(&cfg, pkg, true, (from_c, to_c));
                    for share in [0.0, 0.3, 0.5, 0.9, 1.0] {
                        let die_c = from_c + (to_c - from_c) * share;
                        let (at_lo_w, at_hi_w) =
                            fixed.estimate_bounds(&cfg, pkg, true, (die_c, die_c));
                        assert!(
                            lo_w <= at_lo_w && at_hi_w <= hi_w,
                            "package {pkg}, [{from_c}, {to_c}] °C at {die_c} °C"
                        );
                        eval.reevaluate_thermal(&cfg, &[die_c; 2], &noise_w, true, &mut out);
                        let est_w = out.pkg_est_w[pkg];
                        assert!(lo_w <= est_w && est_w <= hi_w, "{est_w} W at {die_c} °C");
                    }
                }
            }
        }
    }

    #[test]
    fn dram_demand_is_capped_per_ccd() {
        let cfg = SimConfig::epyc_7502_2s();
        let (mut threads, mut workloads) = idle_state(&cfg);
        for t in 0..128 {
            threads[t] = ThreadState::Active;
            workloads[t] = Some((KernelClass::MemoryRead, OperandWeight::HALF));
        }
        let b = eval_with(&cfg, &threads, &workloads);
        let plan = ClockPlan::resolve(cfg.iod_pstate, cfg.dram);
        let cap = cfg.bandwidth.link_cap_gbs(&plan).min(cfg.bandwidth.dram_cap_gbs(&plan));
        assert!(b.dram_traffic_gbs <= cap * cfg.topology.num_ccds() as f64 + 1e-9);
    }
}
