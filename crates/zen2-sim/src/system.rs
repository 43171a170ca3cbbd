//! The simulated machine: a deterministic, event-driven EPYC 7502 system.

use crate::ccx;
use crate::config::SimConfig;
use crate::controller::PptController;
use crate::cstate::ThreadState;
use crate::os::IdleConfig;
use crate::perf::ThreadCounters;
use crate::power::{self, MachineState, PowerBreakdown};
use crate::smu::{PendingTransition, Smu};
use crate::time::{next_boundary, to_secs, Ns, MILLISECOND};
use crate::trace::{Event, Tracer};
use crate::wakeup;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use zen2_isa::{KernelClass, OperandWeight, SmtMode, WorkloadSet};
use zen2_mem::ClockPlan;
use zen2_msr::{address, MsrFile};
use zen2_power::MeterSample;
use zen2_rapl::RaplAccounting;
use zen2_topology::{CoreId, CpuNumbering, SocketId, ThreadId};

/// Maximum segment length, bounding thermal-integration error.
const MAX_SEGMENT_NS: Ns = 100 * MILLISECOND;

/// The simulated system.
#[derive(Clone)]
pub struct System {
    cfg: SimConfig,
    kernels: WorkloadSet,
    numbering: CpuNumbering,
    now: Ns,
    seed: u64,
    rng: ChaCha8Rng,
    msrs: MsrFile,

    // Per-thread state.
    thread_states: Vec<ThreadState>,
    workloads: Vec<Option<(KernelClass, OperandWeight)>>,
    pstate_req_mhz: Vec<u32>,
    idle_cfg: Vec<IdleConfig>,

    // Per-core state.
    smu: Smu,
    core_eff_ghz: Vec<f64>,
    core_voltage: Vec<f64>,
    est_noise_w: Vec<f64>,

    // Per-package state.
    controllers: Vec<PptController>,
    die_temp_c: Vec<f64>,

    // Accounting.
    counters: Vec<ThreadCounters>,
    rapl: RaplAccounting,
    breakdown: PowerBreakdown,
    ac_energy_j: f64,
    /// Piecewise-constant AC power trace: `(segment start, watts)`.
    trace: Vec<(Ns, f64)>,
    /// Event recorder (disabled by default).
    tracer: Tracer,
}

impl System {
    /// Boots the machine: all threads idle in C2, all requests at nominal
    /// frequency, dies at their idle steady-state temperature.
    pub fn new(cfg: SimConfig, seed: u64) -> Self {
        let topo = cfg.topology.clone();
        let num_threads = topo.num_threads();
        let num_cores = topo.num_cores();
        let num_pkgs = topo.num_sockets();
        let nominal = cfg.nominal_mhz();

        let vf_points: Vec<(u32, f64)> = cfg
            .pstates
            .frequencies_mhz()
            .iter()
            .rev()
            .map(|&mhz| (mhz, cfg.voltage_for_mhz(mhz)))
            .collect();
        let smu = Smu::new(cfg.smu.clone(), num_cores, nominal, vf_points);
        let controllers = (0..num_pkgs)
            .map(|_| PptController::new(&cfg.controller, nominal, cfg.min_mhz()))
            .collect();

        let mut sys = Self {
            numbering: CpuNumbering::linux_default(&topo),
            msrs: MsrFile::with_pstate_table(&topo, &cfg.pstates),
            kernels: WorkloadSet::paper(),
            now: 0,
            seed,
            rng: ChaCha8Rng::seed_from_u64(seed),
            thread_states: vec![ThreadState::C2; num_threads],
            workloads: vec![None; num_threads],
            pstate_req_mhz: vec![nominal; num_threads],
            idle_cfg: vec![IdleConfig::default(); num_threads],
            smu,
            core_eff_ghz: vec![nominal as f64 / 1000.0; num_cores],
            core_voltage: vec![cfg.voltage_for_mhz(nominal); num_cores],
            est_noise_w: vec![0.0; num_cores],
            controllers,
            die_temp_c: vec![cfg.power.thermal.ambient_c; num_pkgs],
            counters: vec![ThreadCounters::default(); num_threads],
            rapl: RaplAccounting::new(num_cores, num_pkgs),
            breakdown: PowerBreakdown {
                core_true_w: vec![0.0; num_cores],
                core_est_w: vec![0.0; num_cores],
                pkg_true_w: vec![0.0; num_pkgs],
                pkg_est_w: vec![0.0; num_pkgs],
                pkg_awake: vec![false; num_pkgs],
                dram_traffic_gbs: 0.0,
                dram_w: 0.0,
                dc_w: 0.0,
                ac_w: 0.0,
            },
            ac_energy_j: 0.0,
            trace: Vec::new(),
            tracer: Tracer::new(),
            cfg,
        };
        sys.reevaluate_power();
        // Idle steady-state temperature.
        for pkg in 0..num_pkgs {
            sys.die_temp_c[pkg] =
                sys.cfg.power.thermal.steady_state_c(sys.breakdown.pkg_true_w[pkg]);
        }
        sys.reevaluate_power();
        sys.trace.clear();
        sys.trace.push((0, sys.breakdown.ac_w));
        sys
    }

    /// Forks a pristine booted machine into an identical one reseeded
    /// with `seed`: the result is indistinguishable from
    /// `System::new(cfg, seed)` but skips the boot cost.
    /// [`Session`](crate::Session) does not fork: it boots every case.
    ///
    /// # Panics
    /// Panics if this machine is not in its boot state — time advanced,
    /// any workload scheduled (scheduling consumes the RNG, which a
    /// reseed would not reproduce), or any frequency request / C-state
    /// configuration changed from boot defaults.
    pub fn fork(&self, seed: u64) -> System {
        let nominal = self.cfg.nominal_mhz();
        assert!(
            self.now == 0
                && self.workloads.iter().all(Option::is_none)
                && self.thread_states.iter().all(|&s| s == ThreadState::C2)
                && self.pstate_req_mhz.iter().all(|&mhz| mhz == nominal)
                && self.idle_cfg.iter().all(|c| *c == IdleConfig::default())
                && !self.tracer.is_enabled()
                && self.tracer.records().is_empty(),
            "fork requires a pristine booted system"
        );
        let mut sys = self.clone();
        sys.seed = seed;
        sys.rng = ChaCha8Rng::seed_from_u64(seed);
        sys
    }

    // ---- accessors -------------------------------------------------------

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> Ns {
        self.now
    }

    /// The seed this machine was booted (or forked) with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configuration the machine was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The Linux-style CPU numbering of this machine.
    pub fn numbering(&self) -> &CpuNumbering {
        &self.numbering
    }

    /// The workload registry.
    pub fn kernels(&self) -> &WorkloadSet {
        &self.kernels
    }

    /// Instantaneous true AC (wall) power.
    pub fn ac_power_w(&self) -> f64 {
        self.breakdown.ac_w
    }

    /// The latest power evaluation.
    pub fn power_breakdown(&self) -> &PowerBreakdown {
        &self.breakdown
    }

    /// Whether a package is awake (out of PC6).
    pub fn package_awake(&self, socket: SocketId) -> bool {
        self.breakdown.pkg_awake[socket.index()]
    }

    /// Effective (post-coupling) frequency of a core in GHz.
    pub fn effective_core_ghz(&self, core: CoreId) -> f64 {
        self.core_eff_ghz[core.index()]
    }

    /// Current die temperature of a package.
    pub fn die_temp_c(&self, socket: SocketId) -> f64 {
        self.die_temp_c[socket.index()]
    }

    /// Performance-counter snapshot for a thread.
    pub fn counters(&self, thread: ThreadId) -> ThreadCounters {
        self.counters[thread.index()]
    }

    /// The scheduling state of a thread.
    pub fn thread_state(&self, thread: ThreadId) -> ThreadState {
        self.thread_states[thread.index()]
    }

    /// The live per-thread state in the scenario validator's terms, so
    /// scenarios validate against what this machine actually looks like
    /// rather than boot defaults.
    pub(crate) fn scheduling_snapshot(&self) -> Vec<crate::scenario::VThread> {
        self.thread_states
            .iter()
            .zip(&self.idle_cfg)
            .map(|(&state, idle)| crate::scenario::VThread {
                // Active covers both real workloads and the POLL loop;
                // either way there is no sleep state to wake from.
                has_work: state.is_active(),
                polling: false,
                offline: state == ThreadState::Offline,
                c1_enabled: idle.c1_enabled,
                c2_enabled: idle.c2_enabled,
            })
            .collect()
    }

    /// Mutable access to the machine's RNG (for experiment-side sampling).
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }

    /// Enables or disables event tracing (lo2s-style). Enabling records
    /// the current package sleep states as baseline events so later
    /// residency accounting starts from the right state.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracer.set_enabled(enabled);
        if enabled {
            for pkg in 0..self.breakdown.pkg_awake.len() {
                self.tracer.record(
                    self.now,
                    Event::PackageSleep {
                        socket: SocketId(pkg as u32),
                        asleep: !self.breakdown.pkg_awake[pkg],
                    },
                );
            }
        }
    }

    /// The recorded event trace.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    // ---- OS-level controls ------------------------------------------------

    /// Schedules a workload on a hardware thread (pins it to C0).
    pub fn set_workload(&mut self, thread: ThreadId, class: KernelClass, weight: OperandWeight) {
        assert!(
            self.thread_states[thread.index()] != ThreadState::Offline,
            "cannot schedule on an offline thread"
        );
        self.thread_states[thread.index()] = ThreadState::Active;
        self.workloads[thread.index()] = Some((class, weight));
        self.resample_noise(thread);
        self.trace_thread_state(thread);
        self.apply_state_change();
    }

    /// Removes the workload: the thread idles into its deepest enabled
    /// C-state.
    pub fn set_idle(&mut self, thread: ThreadId) {
        if self.thread_states[thread.index()] == ThreadState::Offline {
            return;
        }
        self.workloads[thread.index()] = None;
        self.thread_states[thread.index()] = self.idle_cfg[thread.index()].deepest_idle_state();
        // POLL fallback (all idle states disabled) is an active loop.
        if self.thread_states[thread.index()] == ThreadState::Active {
            self.workloads[thread.index()] = Some((KernelClass::Poll, OperandWeight::HALF));
        }
        self.resample_noise(thread);
        self.trace_thread_state(thread);
        self.apply_state_change();
    }

    /// Enables/disables an idle state for one thread (sysfs
    /// `cpuidle/stateN/disable`). Re-settles the thread if it is idle.
    pub fn set_cstate_enabled(&mut self, thread: ThreadId, level: u8, enabled: bool) {
        match level {
            1 => self.idle_cfg[thread.index()].c1_enabled = enabled,
            2 => self.idle_cfg[thread.index()].c2_enabled = enabled,
            other => panic!("the test system has C-states 1 and 2, not {other}"),
        }
        if !self.thread_states[thread.index()].is_active()
            && self.thread_states[thread.index()] != ThreadState::Offline
        {
            self.thread_states[thread.index()] = self.idle_cfg[thread.index()].deepest_idle_state();
            if self.thread_states[thread.index()] == ThreadState::Active {
                self.workloads[thread.index()] = Some((KernelClass::Poll, OperandWeight::HALF));
            }
        }
        self.apply_state_change();
    }

    /// Hotplugs a thread (sysfs `online`). Offlining parks the thread per
    /// the configured kernel behavior (Section VI-B anomaly); onlining
    /// returns it to the idle path.
    pub fn set_online(&mut self, thread: ThreadId, online: bool) {
        if online {
            if self.thread_states[thread.index()] == ThreadState::Offline {
                self.thread_states[thread.index()] =
                    self.idle_cfg[thread.index()].deepest_idle_state();
            }
        } else {
            self.workloads[thread.index()] = None;
            self.thread_states[thread.index()] = ThreadState::Offline;
        }
        self.trace_thread_state(thread);
        self.apply_state_change();
    }

    /// Sets the userspace-governor frequency request of one hardware
    /// thread. The core's DVFS request is the maximum over both siblings
    /// — including idle and offline ones (Section V-A). Returns the SMU
    /// transition this triggered, if any.
    pub fn set_thread_pstate_mhz(
        &mut self,
        thread: ThreadId,
        mhz: u32,
    ) -> Option<PendingTransition> {
        assert!(
            self.cfg.pstates.index_of_frequency(mhz).is_some(),
            "{mhz} MHz is not a defined P-state"
        );
        self.pstate_req_mhz[thread.index()] = mhz;
        self.msrs.poke(
            thread,
            address::PSTATE_CTL,
            self.cfg.pstates.index_of_frequency(mhz).expect("checked above") as u64,
        );
        self.tracer.record(
            self.now,
            Event::FreqRequested { core: self.cfg.topology.core_of(thread), target_mhz: mhz },
        );
        let pending = self.resolve_dvfs();
        self.update_clocks_and_power();
        let core = self.cfg.topology.core_of(thread);
        pending.into_iter().find(|(c, _)| *c == core.index()).map(|(_, p)| p)
    }

    // ---- time advancement --------------------------------------------------

    /// Runs the machine forward by `dt` nanoseconds.
    pub fn run_for_ns(&mut self, dt: Ns) {
        let end = self.now + dt;
        while self.now < end {
            let mut next = end.min(self.now + MAX_SEGMENT_NS);
            if let Some(e) = self.smu.next_event() {
                next = next.min(e);
            }
            let controller_active =
                self.cfg.controller.enabled && self.thread_states.iter().any(|t| t.is_active());
            if controller_active {
                next = next.min(next_boundary(self.now, self.cfg.smu.slot_period_ns));
            }
            self.integrate_segment(next - self.now);
            self.now = next;

            let completed = self.smu.advance(self.now);
            let freq_changed = !completed.is_empty();
            if self.tracer.is_enabled() {
                for c in &completed {
                    self.tracer.record(
                        c.at,
                        Event::FreqApplied {
                            core: CoreId::from_index(c.core),
                            mhz: c.mhz,
                            fast_path: c.fast_path,
                        },
                    );
                }
            }
            let mut caps_changed = false;
            if controller_active && self.now.is_multiple_of(self.cfg.smu.slot_period_ns) {
                for pkg in 0..self.controllers.len() {
                    let cores = pkg * self.cfg.topology.cores_per_socket()
                        ..(pkg + 1) * self.cfg.topology.cores_per_socket();
                    let applied = cores
                        .map(|c| self.smu.core(c).applied_mhz())
                        .min()
                        .expect("packages have cores");
                    let moved = self.controllers[pkg].step(
                        self.breakdown.pkg_est_w[pkg],
                        self.cfg.power.package.ppt_estimated_w,
                        applied,
                    );
                    if moved {
                        self.tracer.record(
                            self.now,
                            Event::CapChanged {
                                socket: SocketId(pkg as u32),
                                cap_mhz: self.controllers[pkg].cap_mhz(),
                            },
                        );
                    }
                    caps_changed |= moved;
                }
            }
            if caps_changed {
                self.resolve_dvfs();
            }
            if freq_changed || caps_changed {
                self.update_clocks_and_power();
            } else {
                // Thermal drift still moves leakage and estimates.
                self.reevaluate_power();
            }
        }
    }

    /// Runs the machine forward by (fractional) seconds.
    pub fn run_for_secs(&mut self, secs: f64) {
        self.run_for_ns(crate::time::from_secs(secs));
    }

    /// Fast-forwards the thermal state to steady conditions (the paper's
    /// pre-heat phase) without paying for simulated seconds.
    pub fn preheat(&mut self) {
        for _ in 0..4 {
            for pkg in 0..self.die_temp_c.len() {
                self.die_temp_c[pkg] =
                    self.cfg.power.thermal.steady_state_c(self.breakdown.pkg_true_w[pkg]);
            }
            self.reevaluate_power();
        }
    }

    // ---- measurement interfaces ---------------------------------------------
    //
    // All windowed measurements share one core: `trace_mean_w` (true
    // power from the piecewise-constant trace), `metered_mean_w` (LMG670
    // samples + inner-window averaging) and `probe::RaplWindow` (MSR
    // energy-counter polling). The declarative `Probe` layer reads power
    // through these.

    /// Externally-measured mean AC power over a past interval: LMG670
    /// samples averaged over the inner 80 % of the window.
    pub fn metered_mean_w(&mut self, from: Ns, to: Ns) -> f64 {
        let samples = self.meter_samples(from, to);
        zen2_power::PowerMeter::inner_window_mean(&samples, to_secs(from), to_secs(to))
    }

    /// Materializes LMG670 samples over a past interval from the power
    /// trace.
    pub fn meter_samples(&mut self, from: Ns, to: Ns) -> Vec<MeterSample> {
        assert!(to <= self.now, "cannot meter the future");
        let meter = zen2_power::PowerMeter::lmg670();
        let period = crate::time::from_secs(meter.period_s());
        let mut samples = Vec::new();
        let mut t = from;
        while t + period <= to {
            let window_mean = self.trace_mean_w(t, t + period);
            let reading = meter.read(&mut self.rng, window_mean);
            samples.push(MeterSample { t_s: to_secs(t + period), watts: reading });
            t += period;
        }
        samples
    }

    /// True mean AC power over a past interval (no instrument noise).
    pub fn trace_mean_w(&self, from: Ns, to: Ns) -> f64 {
        assert!(from < to && to <= self.now, "invalid trace window");
        let mut energy = 0.0;
        for (idx, &(seg_start, watts)) in self.trace.iter().enumerate() {
            let seg_end = self.trace.get(idx + 1).map(|&(t, _)| t).unwrap_or(self.now);
            let lo = seg_start.max(from);
            let hi = seg_end.min(to);
            if hi > lo {
                // zen2-lint: allow(float-order) — trace segments integrate in chronological order, which is fixed
                energy += watts * to_secs(hi - lo);
            }
        }
        energy / to_secs(to - from)
    }

    /// Copies the published RAPL counters into the MSR file (the moment
    /// software performs a read).
    pub fn sync_rapl_msrs(&mut self) {
        self.rapl.maybe_publish(self.now);
        let tpc = self.cfg.topology.threads_per_core();
        for core in 0..self.cfg.topology.num_cores() {
            let raw = self.rapl.core_counter(core) as u64;
            for sib in 0..tpc {
                self.msrs.poke(ThreadId((core * tpc + sib) as u32), address::CORE_ENERGY_STAT, raw);
            }
        }
        for pkg in 0..self.cfg.topology.num_sockets() {
            let raw = self.rapl.package_counter(pkg) as u64;
            for t in 0..self.cfg.topology.cores_per_socket() * tpc {
                let thread =
                    ThreadId((pkg * self.cfg.topology.cores_per_socket() * tpc + t) as u32);
                self.msrs.poke(thread, address::PKG_ENERGY_STAT, raw);
            }
        }
    }

    /// Read-only access to the MSR file (the `/dev/cpu/N/msr` interface).
    pub fn msrs(&self) -> &MsrFile {
        &self.msrs
    }

    /// Samples one cond-var wakeup of `callee` triggered by `caller`
    /// (Fig. 8 benchmark). The callee must be idle.
    pub fn sample_wakeup_ns(&mut self, caller: ThreadId, callee: ThreadId) -> f64 {
        let state = self.thread_states[callee.index()];
        let callee_core = self.cfg.topology.core_of(callee);
        let ghz = self.core_eff_ghz[callee_core.index()];
        let remote = self.cfg.topology.socket_of_thread(caller)
            != self.cfg.topology.socket_of_thread(callee);
        wakeup::sample_latency_ns(&mut self.rng, &self.cfg.cstate, state, ghz, remote)
    }

    /// Pointer-chase L3 hit latency for a reader core under the current
    /// CCX clocks (Fig. 4 benchmark; prefetchers off, huge pages).
    pub fn l3_latency_ns(&self, core: CoreId) -> f64 {
        let ccx = self.cfg.topology.ccx_of_core(core);
        let mesh_ghz = self
            .cfg
            .topology
            .cores_of_ccx(ccx)
            .map(|c| {
                let active = self.core_has_active_thread(c);
                if active {
                    self.core_eff_ghz[c.index()]
                } else {
                    0.0
                }
            })
            .fold(0.0f64, f64::max)
            .max(ccx::L3_MIN_MHZ as f64 / 1000.0);
        self.cfg.l3_latency.latency_ns(self.core_eff_ghz[core.index()], mesh_ghz)
    }

    /// Pointer-chase DRAM latency under the configured I/O-die P-state
    /// and DRAM clock (Fig. 5b benchmark).
    pub fn dram_latency_ns(&self) -> f64 {
        self.cfg.dram_latency.latency_ns(&ClockPlan::resolve(self.cfg.iod_pstate, self.cfg.dram))
    }

    /// STREAM-triad bandwidth for `cores` streaming cores on one CCD
    /// (Fig. 5a benchmark).
    pub fn stream_triad_gbs(&self, cores: u32) -> f64 {
        self.cfg
            .bandwidth
            .bandwidth_gbs(&ClockPlan::resolve(self.cfg.iod_pstate, self.cfg.dram), cores)
    }

    // ---- internals -----------------------------------------------------------

    fn core_has_active_thread(&self, core: CoreId) -> bool {
        let tpc = self.cfg.topology.threads_per_core();
        let base = core.index() * tpc;
        self.thread_states[base..base + tpc].iter().any(|t| t.is_active())
    }

    fn resample_noise(&mut self, thread: ThreadId) {
        let core = self.cfg.topology.core_of(thread).index();
        let sigma = self.cfg.rapl.noise_sigma_w;
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.est_noise_w[core] = sigma * z;
    }

    /// Re-resolves every core's DVFS target; returns triggered transitions.
    fn resolve_dvfs(&mut self) -> Vec<(usize, PendingTransition)> {
        let tpc = self.cfg.topology.threads_per_core();
        let mut out = Vec::new();
        for core in 0..self.cfg.topology.num_cores() {
            let base = core * tpc;
            // Section V-A: the request is the max over both hardware
            // threads, whether idle, offline or active.
            let req = self.pstate_req_mhz[base..base + tpc]
                .iter()
                .copied()
                .max()
                .expect("cores have threads");
            let pkg = self.cfg.topology.socket_of_core(CoreId::from_index(core)).index();
            let target = req.min(self.controllers[pkg].cap_mhz());
            if let Some(p) = self.smu.request(self.now, core, target) {
                out.push((core, p));
            }
        }
        out
    }

    fn update_clocks_and_power(&mut self) {
        let topo = self.cfg.topology.clone();
        let tpc = topo.threads_per_core();
        for ccx in topo.all_ccxs() {
            let cores: Vec<CoreId> = topo.cores_of_ccx(ccx).collect();
            let applied: Vec<u32> =
                cores.iter().map(|c| self.smu.core(c.index()).applied_mhz()).collect();
            let active: Vec<bool> = cores.iter().map(|&c| self.core_has_active_thread(c)).collect();
            let clocks = ccx::resolve(&applied, &active, self.cfg.ccx_coupling);
            for (i, &core) in cores.iter().enumerate() {
                self.core_eff_ghz[core.index()] = clocks.effective_mhz[i] / 1000.0;
                self.core_voltage[core.index()] = self.smu.voltage(applied[i]);
                // Hardware keeps PStateStat coherent with the applied
                // frequency (on-grid frequencies only; controller caps
                // between table entries report the next-slower P-state).
                let status = self
                    .cfg
                    .pstates
                    .frequencies_mhz()
                    .iter()
                    .position(|&mhz| mhz <= applied[i])
                    .unwrap_or(self.cfg.pstates.len() - 1);
                for sib in 0..tpc {
                    self.msrs.poke(
                        ThreadId((core.index() * tpc + sib) as u32),
                        address::PSTATE_STAT,
                        status as u64,
                    );
                }
            }
        }
        self.reevaluate_power();
    }

    fn reevaluate_power(&mut self) {
        let state = MachineState {
            thread_states: &self.thread_states,
            workloads: &self.workloads,
            core_eff_ghz: &self.core_eff_ghz,
            core_voltage: &self.core_voltage,
            die_temp_c: &self.die_temp_c,
            est_noise_w: &self.est_noise_w,
        };
        let breakdown = power::evaluate(&self.cfg, &state);
        if self.tracer.is_enabled() {
            for pkg in 0..breakdown.pkg_awake.len() {
                if breakdown.pkg_awake[pkg] != self.breakdown.pkg_awake[pkg] {
                    self.tracer.record(
                        self.now,
                        Event::PackageSleep {
                            socket: SocketId(pkg as u32),
                            asleep: !breakdown.pkg_awake[pkg],
                        },
                    );
                }
            }
        }
        let changed = (breakdown.ac_w - self.breakdown.ac_w).abs() > 1e-9;
        self.breakdown = breakdown;
        if changed || self.trace.is_empty() {
            self.trace.push((self.now, self.breakdown.ac_w));
        }
    }

    fn apply_state_change(&mut self) {
        self.resolve_dvfs();
        self.update_clocks_and_power();
    }

    /// Records a thread's current scheduling state into the event trace.
    fn trace_thread_state(&mut self, thread: ThreadId) {
        if !self.tracer.is_enabled() {
            return;
        }
        let label = match self.thread_states[thread.index()] {
            ThreadState::Active => "C0",
            ThreadState::C1 => "C1",
            ThreadState::C2 => "C2",
            ThreadState::Offline => "offline",
        };
        self.tracer.record(self.now, Event::ThreadState { thread, state: label });
    }

    /// Integrates counters, energy and temperature over a constant-state
    /// segment.
    fn integrate_segment(&mut self, dt: Ns) {
        if dt == 0 {
            return;
        }
        let dt_s = to_secs(dt);
        let tpc = self.cfg.topology.threads_per_core();
        let nominal_ghz = self.cfg.nominal_mhz() as f64 / 1000.0;

        for t in 0..self.thread_states.len() {
            let core = t / tpc;
            let state = self.thread_states[t];
            let ipc = match (state, self.workloads[t]) {
                (ThreadState::Active, Some((class, _))) => {
                    let base = core * tpc;
                    let active = self.thread_states[base..base + tpc]
                        .iter()
                        .filter(|s| s.is_active())
                        .count();
                    self.kernels.kernel(class).ipc_per_thread(SmtMode::from_active(active))
                }
                _ => 0.0,
            };
            self.counters[t].advance(
                dt_s,
                state,
                self.core_eff_ghz[core],
                nominal_ghz,
                ipc,
                self.cfg.os.idle_wake_cycles_per_s,
            );
        }

        self.rapl.accumulate(dt_s, &self.breakdown.core_est_w, &self.breakdown.pkg_est_w);
        self.ac_energy_j += self.breakdown.ac_w * dt_s;
        for pkg in 0..self.die_temp_c.len() {
            self.die_temp_c[pkg] = self.cfg.power.thermal.step(
                self.die_temp_c[pkg],
                self.breakdown.pkg_true_w[pkg],
                dt_s,
            );
        }
        // RAPL counters publish on their 1 ms cadence.
        self.rapl.maybe_publish(self.now + dt);
    }

    /// Total AC energy consumed since boot, joules.
    pub fn ac_energy_j(&self) -> f64 {
        self.ac_energy_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Probe, Window};
    use crate::scenario::Scenario;
    use crate::time::MICROSECOND;

    fn boot() -> System {
        System::new(SimConfig::epyc_7502_2s(), 42)
    }

    #[test]
    fn boots_idle_at_the_fig7_floor() {
        let sys = boot();
        assert!((sys.ac_power_w() - 99.1).abs() < 1.5, "floor {:.1} W", sys.ac_power_w());
        assert!(!sys.package_awake(SocketId(0)));
    }

    #[test]
    fn scheduling_work_wakes_both_packages() {
        let mut sys = boot();
        sys.set_workload(ThreadId(0), KernelClass::Pause, OperandWeight::HALF);
        assert!(sys.package_awake(SocketId(0)));
        assert!(sys.package_awake(SocketId(1)), "global PC6 criterion");
        assert!((sys.ac_power_w() - 180.6).abs() < 2.5, "{:.1} W", sys.ac_power_w());
    }

    #[test]
    fn transition_delay_is_in_the_fig3_window() {
        let mut sys = boot();
        sys.set_workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
        sys.run_for_ns(50 * MILLISECOND);
        // Request 1.5 GHz on both siblings of core 0.
        sys.set_thread_pstate_mhz(ThreadId(1), 1500);
        let start = sys.now_ns();
        let pending = sys.set_thread_pstate_mhz(ThreadId(0), 1500).expect("transition starts");
        let delay = pending.completes_at - start;
        assert!((390 * MICROSECOND..=1390 * MICROSECOND).contains(&delay), "{delay} ns");
        sys.run_for_ns(delay + MICROSECOND);
        assert!((sys.effective_core_ghz(CoreId(0)) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn idle_sibling_request_elevates_core_frequency() {
        // Section V-A: the active thread asks for 1.5 GHz but the idle
        // sibling's 2.5 GHz request wins.
        let mut sys = boot();
        sys.set_workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
        sys.set_thread_pstate_mhz(ThreadId(0), 1500);
        sys.run_for_ns(5 * MILLISECOND);
        assert!((sys.effective_core_ghz(CoreId(0)) - 2.5).abs() < 1e-9);
        // Lowering the idle sibling's request releases the core.
        sys.set_thread_pstate_mhz(ThreadId(1), 1500);
        sys.run_for_ns(5 * MILLISECOND);
        assert!((sys.effective_core_ghz(CoreId(0)) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn offline_sibling_request_also_elevates() {
        let mut sys = boot();
        sys.set_online(ThreadId(1), false);
        sys.set_workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
        sys.set_thread_pstate_mhz(ThreadId(0), 1500);
        sys.run_for_ns(5 * MILLISECOND);
        // "Still, the frequency of the core is defined by the offline
        // thread."
        assert!((sys.effective_core_ghz(CoreId(0)) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn ccx_coupling_reduces_slower_cores() {
        let mut sys = boot();
        // Core 0 at 2.2 GHz, cores 1-3 of the CCX at 2.5 GHz, all busy.
        for t in 0..8u32 {
            sys.set_workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
            let mhz = if t < 2 { 2200 } else { 2500 };
            sys.set_thread_pstate_mhz(ThreadId(t), mhz);
        }
        sys.run_for_ns(5 * MILLISECOND);
        let eff = sys.effective_core_ghz(CoreId(0));
        assert!((eff - 2.0).abs() < 0.001, "Table I cell: {eff:.4} GHz");
    }

    #[test]
    fn firestarter_throttles_toward_fig6_equilibrium() {
        let mut sys = boot();
        for t in 0..128u32 {
            sys.set_workload(ThreadId(t), KernelClass::Firestarter, OperandWeight::HALF);
        }
        sys.preheat();
        sys.run_for_secs(0.2);
        let f = sys.effective_core_ghz(CoreId(0));
        assert!((1.95..=2.15).contains(&f), "SMT equilibrium {f:.3} GHz");
        let est: f64 = sys.power_breakdown().pkg_est_w.iter().sum::<f64>() / 2.0;
        assert!((est - 170.0).abs() < 4.0, "RAPL-visible package power {est:.1} W");
    }

    #[test]
    fn counters_report_effective_frequency() {
        let mut sys = boot();
        sys.set_workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
        sys.run_for_ns(20 * MILLISECOND);
        let before = sys.counters(ThreadId(0));
        sys.run_for_secs(0.1);
        let after = sys.counters(ThreadId(0));
        let eff = ThreadCounters::effective_ghz(&before, &after, 2.5);
        assert!((eff - 2.5).abs() < 0.01, "perf-observed {eff:.3} GHz");
    }

    #[test]
    fn rapl_measurement_through_msrs() {
        let mut sc = Scenario::new();
        for t in 0..128u32 {
            sc.at(0).workload(ThreadId(t), KernelClass::AddPd, OperandWeight::HALF);
        }
        sc.probe("rapl", Probe::RaplW, Window::span_secs(0.05, 1.05));
        let (pkg_w, core_w) = boot().run_scenario(&sc).unwrap().watts_pair("rapl");
        assert!(pkg_w > 100.0 && pkg_w < 400.0, "package sum {pkg_w:.0} W");
        assert!(core_w > 50.0 && core_w < pkg_w, "core sum {core_w:.0} W");
    }

    #[test]
    fn meter_trace_reflects_power_steps() {
        let mut sys = boot();
        sys.run_for_secs(0.3);
        let idle_mean = sys.trace_mean_w(0, sys.now_ns());
        assert!((idle_mean - 99.1).abs() < 1.5);
        let t0 = sys.now_ns();
        for t in 0..128u32 {
            sys.set_workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
        }
        sys.run_for_secs(0.3);
        let busy_mean = sys.trace_mean_w(t0, sys.now_ns());
        assert!(busy_mean > idle_mean + 50.0, "busy {busy_mean:.0} vs idle {idle_mean:.0}");
    }

    #[test]
    fn measure_ac_matches_trace_within_instrument_noise() {
        let mut sc = Scenario::new();
        for t in 0..32u32 {
            sc.at(0).workload(ThreadId(t), KernelClass::Compute, OperandWeight::HALF);
        }
        let window = Window::span_secs(0.05, 1.05);
        sc.probe("metered", Probe::AcMeteredW, window);
        sc.probe("truth", Probe::AcTrueMeanW, window);
        let run = boot().run_scenario(&sc).unwrap();
        let (metered, truth) = (run.watts("metered"), run.watts("truth"));
        assert!((metered - truth).abs() < 0.5, "metered {metered:.2} vs truth {truth:.2}");
    }

    #[test]
    fn pstate_status_register_tracks_applied_frequency() {
        let mut sys = boot();
        sys.set_workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
        sys.set_thread_pstate_mhz(ThreadId(0), 1500);
        sys.set_thread_pstate_mhz(ThreadId(1), 1500);
        sys.run_for_ns(5 * MILLISECOND);
        // P-state 2 is 1.5 GHz on this table; both siblings see it.
        let stat = sys.msrs().read(ThreadId(0), zen2_msr::address::PSTATE_STAT).unwrap();
        assert_eq!(stat, 2);
        let stat = sys.msrs().read(ThreadId(1), zen2_msr::address::PSTATE_STAT).unwrap();
        assert_eq!(stat, 2);
    }

    #[test]
    fn poll_fallback_draws_more_than_pause() {
        // Paper Fig. 7: the unrolled pause loop "exhibits a more stable
        // and slightly lower power consumption than POLL".
        let mut pause_sys = boot();
        pause_sys.set_workload(ThreadId(0), KernelClass::Pause, OperandWeight::HALF);
        pause_sys.run_for_secs(0.05);
        let mut poll_sys = boot();
        // Disabling every idle state forces the POLL loop.
        poll_sys.set_cstate_enabled(ThreadId(0), 2, false);
        poll_sys.set_cstate_enabled(ThreadId(0), 1, false);
        poll_sys.run_for_secs(0.05);
        assert!(
            poll_sys.ac_power_w() > pause_sys.ac_power_w(),
            "POLL {:.2} W vs pause {:.2} W",
            poll_sys.ac_power_w(),
            pause_sys.ac_power_w()
        );
    }

    #[test]
    fn wakeup_sampling_uses_callee_state() {
        let mut sys = boot();
        sys.set_workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
        // Callee idles in C2 on the same CCX.
        let c2 = sys.sample_wakeup_ns(ThreadId(0), ThreadId(2));
        assert!(c2 > 15_000.0, "C2 wake {c2:.0} ns");
        sys.set_cstate_enabled(ThreadId(2), 2, false);
        let c1 = sys.sample_wakeup_ns(ThreadId(0), ThreadId(2));
        assert!(c1 < 3_000.0, "C1 wake {c1:.0} ns");
    }
}
