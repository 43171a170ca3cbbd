//! Whole-system power evaluation for one machine state.
//!
//! Given a snapshot of thread states, workloads and clocks, computes the
//! true DC/AC power (what the LMG670 sees) and the SMU's estimated powers
//! (what RAPL reports and the PPT loop regulates), plus DRAM traffic.
//! The simulator re-evaluates after every tick of actions and every
//! integrated segment; power is constant between evaluations, so energy
//! integration is exact. It evaluates through its own `PowerEval`, whose
//! per-core memo recomputes an active core's terms only when one of their
//! five inputs changed bit for bit; [`evaluate`] runs the same code from
//! an empty memo, so both give bit-identical breakdowns. After a segment
//! in which only the die temperatures moved, `PowerEval::reevaluate_thermal`
//! recomputes just the temperature-dependent terms from the last full
//! evaluation's per-core classes, with the same expressions and the same
//! package tail. Each package's sum of true core powers does not depend
//! on temperature, so the full evaluation sums it once and the thermal
//! path reuses it; only the estimates are summed again.

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

/// What the last full evaluation found for one core. Only a change of
/// thread states, workloads or clocks can move it; die temperature
/// cannot.
#[derive(Debug, Clone, Copy)]
enum CoreClass {
    /// Its package sleeps: both powers are 0.
    Asleep,
    /// Executing, with this RAPL activity estimate.
    Active { est_activity_w: f64 },
    /// Clock- or power-gated: its estimate is the idle-core term.
    Gated,
}

/// The simulator's evaluator: each core's last active terms, each core's
/// class and each package's true-core sum at the last full evaluation,
/// and the per-CCD demand scratch, so a step allocates nothing and
/// recomputes only the terms whose inputs moved.
#[derive(Debug, Clone)]
pub(crate) struct PowerEval {
    memo: Vec<Option<CoreTerms>>,
    class: Vec<CoreClass>,
    cores_true_w: Vec<f64>,
    ccd_demand_gbs: Vec<f64>,
}

impl PowerEval {
    /// An evaluator with an empty memo.
    pub(crate) fn new(topo: &Topology) -> Self {
        Self {
            memo: vec![None; topo.num_cores()],
            class: vec![CoreClass::Asleep; topo.num_cores()],
            cores_true_w: vec![0.0; topo.num_sockets()],
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

        for core_idx in 0..num_cores {
            let core = zen2_topology::CoreId::from_index(core_idx);
            let pkg = topo.socket_of_core(core).index();
            if !pkg_awake[pkg] {
                self.class[core_idx] = CoreClass::Asleep;
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
                    let terms = match self.memo[core_idx] {
                        Some(terms) if terms.key == key => terms,
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
                    self.class[core_idx] =
                        CoreClass::Active { est_activity_w: terms.est_activity_w };
                    core_true_w[core_idx] = terms.true_w;
                    core_est_w[core_idx] = terms.est_activity_w
                        + cfg.rapl.temperature_term_w(die_c)
                        + state.est_noise_w[core_idx];
                    let ccd = topo.ccd_of_core(core).index();
                    // Accumulates in ascending core-index order, fixed by the topology.
                    ccd_demand_gbs[ccd] += terms.dram_demand_gbs;
                }
                CoreIdleClass::ClockGated => {
                    self.class[core_idx] = CoreClass::Gated;
                    core_true_w[core_idx] = cfg.power.core.c1_power_w();
                    core_est_w[core_idx] = cfg.rapl.idle_core_estimate_w(die_c);
                }
                CoreIdleClass::PowerGated => {
                    self.class[core_idx] = CoreClass::Gated;
                    core_true_w[core_idx] = cfg.power.core.c2_power_w();
                    core_est_w[core_idx] = cfg.rapl.idle_core_estimate_w(die_c);
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
        package_tail(cfg, state.die_temp_c, &self.cores_true_w, out);
    }

    /// Re-evaluates `out`, this evaluator's last breakdown, after only the
    /// die temperatures moved: each core keeps the class, true power and
    /// activity estimate of the last full [`evaluate`](Self::evaluate),
    /// each package its true-core sum, and the DRAM terms stay. Only the
    /// core estimates' temperature terms and the package tail are
    /// recomputed, with the full path's expressions, so the result is the
    /// full evaluation's bit for bit.
    pub(crate) fn reevaluate_thermal(
        &self,
        cfg: &SimConfig,
        die_temp_c: &[f64],
        est_noise_w: &[f64],
        out: &mut PowerBreakdown,
    ) {
        let per_pkg = cfg.topology.cores_per_socket();
        let packages = self
            .class
            .chunks(per_pkg)
            .zip(out.core_est_w.chunks_mut(per_pkg))
            .zip(est_noise_w.chunks(per_pkg))
            .zip(die_temp_c);
        for (((classes, core_est_w), noise_w), &die_c) in packages {
            let temperature_w = cfg.rapl.temperature_term_w(die_c);
            let idle_w = cfg.rapl.idle_core_estimate_w(die_c);
            for ((class, est_w), noise_w) in classes.iter().zip(core_est_w).zip(noise_w) {
                match *class {
                    CoreClass::Asleep => {}
                    CoreClass::Active { est_activity_w } => {
                        *est_w = est_activity_w + temperature_w + noise_w;
                    }
                    CoreClass::Gated => *est_w = idle_w,
                }
            }
        }
        package_tail(cfg, die_temp_c, &self.cores_true_w, out);
    }
}

/// Package sums, leakage, DC and AC power from each package's true-core
/// sum `cores_true_w` and the per-core estimates, wake states and DRAM
/// power already in `out`: the tail both evaluation paths share.
fn package_tail(
    cfg: &SimConfig,
    die_temp_c: &[f64],
    cores_true_w: &[f64],
    out: &mut PowerBreakdown,
) {
    let per_pkg = cfg.topology.cores_per_socket();
    for (pkg, &awake) in out.pkg_awake.iter().enumerate() {
        let cores = pkg * per_pkg..(pkg + 1) * per_pkg;
        // zen2-lint: allow(float-order) — one pass in ascending core-index order, fixed by the topology
        let cores_est: f64 = out.core_est_w[cores].iter().sum();
        if awake {
            let base = cfg.power.package.awake_base_w(cfg.iod_pstate, cfg.dram);
            let leak = cfg.power.leakage.multiplier(die_temp_c[pkg]);
            out.pkg_true_w[pkg] = (base + cores_true_w[pkg]) * leak;
        } else {
            out.pkg_true_w[pkg] = cfg.power.package.sleeping_w();
        }
        out.pkg_est_w[pkg] = cfg.rapl.package_estimate_w(cores_est, awake);
    }

    // zen2-lint: allow(float-order) — one pass in ascending package-index order, fixed by the topology
    let dc_w = out.pkg_true_w.iter().sum::<f64>() + out.dram_w + cfg.power.platform_dc_w;
    out.dc_w = dc_w;
    out.ac_w = cfg.power.psu.ac_from_dc(dc_w);
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
