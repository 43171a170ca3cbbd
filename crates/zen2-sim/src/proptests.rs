//! Property-based tests of the simulator's control machinery and of the
//! exact snapshot round-trips behind checkpoint/resume.

use crate::ccx;
use crate::config::{SimConfig, SmuParams};
use crate::controller::PptController;
use crate::cstate::ThreadState;
use crate::perf::ThreadCounters;
use crate::power::PowerBreakdown;
use crate::scenario::{nth, At, Op, ScenarioError, Step};
use crate::smu::Smu;
use crate::snapshot::Snapshot;
use crate::stats::{FreqResidency, OnlineStats, P2Quantile, TransitionStats, Welford};
use crate::time::{Ns, MILLISECOND};
use crate::trace::{Event, Record};
use crate::{Probe, Scenario, System, Window};
use proptest::prelude::*;
use rand::RngCore;
use zen2_isa::{KernelClass, OperandWeight};
use zen2_msr::address;
use zen2_topology::{CoreId, SocketId, ThreadId};

/// Finite `f64`s spanning the whole bit space (exponent extremes,
/// subnormals, awkward fractions — the values a decimal round-trip is
/// most likely to get wrong).
pub(crate) fn arb_finite_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let v = f64::from_bits(bits);
        // Non-finite values cannot enter accumulators through `push`;
        // fold them back into the finite range deterministically.
        if v.is_finite() {
            v
        } else {
            (bits % 1_000_003) as f64 / 997.0
        }
    })
}

/// Asserts one accumulator's snapshot round-trip is exact: the restored
/// value compares equal, re-snapshots identically, and continues
/// bit-identically on further input.
fn assert_exact_round_trip<S>(original: &S, mut feed: impl FnMut(&mut S))
where
    S: Snapshot + PartialEq + std::fmt::Debug,
{
    let text = original.to_json_text();
    let restored = S::from_json_text(&text).expect("snapshot restores");
    assert_eq!(&restored, original);
    assert_eq!(restored.to_json_text(), text, "re-snapshot must be identical");
    let mut a = S::from_json_text(&text).unwrap();
    let mut b = S::from_json_text(&text).unwrap();
    feed(&mut a);
    feed(&mut b);
    assert_eq!(a, b);
    assert_eq!(a.to_json_text(), b.to_json_text(), "continuation must be bit-identical");
}

/// Whether two breakdowns agree field for field, bit for bit.
fn same_bits(a: &PowerBreakdown, b: &PowerBreakdown) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(&a.core_true_w) == bits(&b.core_true_w)
        && bits(&a.core_est_w) == bits(&b.core_est_w)
        && bits(&a.pkg_true_w) == bits(&b.pkg_true_w)
        && bits(&a.pkg_est_w) == bits(&b.pkg_est_w)
        && a.pkg_awake == b.pkg_awake
        && bits(&[a.dram_traffic_gbs, a.dram_w, a.dc_w, a.ac_w])
            == bits(&[b.dram_traffic_gbs, b.dram_w, b.dc_w, b.ac_w])
}

/// Both siblings of three socket-0 cores (two CCXs) and of one socket-1
/// core.
fn arb_thread() -> impl Strategy<Value = u32> {
    prop::sample::select(vec![0u32, 1, 2, 3, 8, 9, 64, 65])
}

/// One machine action of the memo property: `(kind, thread, choice,
/// flag, gap ns)`, decoded by [`apply_action`].
fn arb_action() -> impl Strategy<Value = (u8, u32, usize, bool, u64)> {
    (0u8..9, arb_thread(), 0usize..12, any::<bool>(), 0u64..5_000_000)
}

/// Applies one decoded action to `sys`.
fn apply_action(sys: &mut System, (kind, thread, choice, flag, gap): (u8, u32, usize, bool, u64)) {
    const KERNELS: [KernelClass; 4] =
        [KernelClass::VXorps, KernelClass::Shr, KernelClass::MemoryRead, KernelClass::Pause];
    const WEIGHTS: [OperandWeight; 3] =
        [OperandWeight::ZERO, OperandWeight::HALF, OperandWeight::FULL];
    let thread = ThreadId(thread);
    match kind {
        0 | 1 if sys.thread_state(thread) != ThreadState::Offline => {
            sys.set_workload(thread, KERNELS[choice % 4], WEIGHTS[choice % 3]);
        }
        2 => sys.set_idle(thread),
        // Disabling both levels of an idle thread falls back to POLL.
        3 => sys.set_cstate_enabled(thread, 1 + (choice % 2) as u8, flag),
        // Onlining five times as often as offlining brings threads back.
        4 => sys.set_online(thread, flag || choice < 8),
        // A P-state request, then enough time to run past its transition.
        5 => {
            sys.set_thread_pstate_mhz(thread, [1500, 2200, 2500][choice % 3]);
            if flag {
                sys.run_for_ns(2 * MILLISECOND + gap);
            }
        }
        // Thermal drift between actions.
        6 => sys.run_for_ns(gap),
        7 => sys.preheat(),
        // FIRESTARTER everywhere for 10–30 ms: the PPT cap steps down,
        // then holds, so thermal-only slots and held steps follow
        // throttled ones.
        8 => {
            for t in (0..128).map(ThreadId) {
                if sys.thread_state(t) != ThreadState::Offline {
                    sys.set_workload(t, KernelClass::Firestarter, OperandWeight::HALF);
                }
            }
            sys.run_for_ns(10 * MILLISECOND + 4 * gap);
        }
        _ => {}
    }
}

/// One action of a tick: `(kind, thread, choice, flag)`, decoded by
/// [`tick_op`] into any of the seven [`Op`] kinds.
fn arb_tick_op() -> impl Strategy<Value = (u8, u32, usize, bool)> {
    (0u8..7, arb_thread(), 0usize..12, any::<bool>())
}

/// Decodes one [`arb_tick_op`] action.
fn tick_op((kind, thread, choice, flag): (u8, u32, usize, bool)) -> Op {
    const KERNELS: [KernelClass; 4] = [
        KernelClass::VXorps,
        KernelClass::Firestarter,
        KernelClass::MemoryRead,
        KernelClass::Pause,
    ];
    const WEIGHTS: [OperandWeight; 3] =
        [OperandWeight::ZERO, OperandWeight::HALF, OperandWeight::FULL];
    let thread = ThreadId(thread);
    match kind {
        0 => Op::Workload { thread, class: KERNELS[choice % 4], weight: WEIGHTS[choice % 3] },
        1 => Op::Idle { thread },
        2 => Op::PstateMhz { thread, mhz: [1500, 2200, 2500][choice % 3] },
        3 => Op::CstateEnabled { thread, level: 1 + (choice % 2) as u8, enabled: flag },
        // Onlining five times as often as offlining keeps most schedules
        // valid.
        4 => Op::Online { thread, online: flag || choice < 8 },
        5 => Op::Preheat,
        _ => Op::Tracing(flag || choice < 8),
    }
}

/// Applies one action through the public per-action API.
fn apply_one(sys: &mut System, op: Op) {
    match op {
        Op::Workload { thread, class, weight } => sys.set_workload(thread, class, weight),
        Op::Idle { thread } => sys.set_idle(thread),
        Op::PstateMhz { thread, mhz } => {
            sys.set_thread_pstate_mhz(thread, mhz);
        }
        Op::CstateEnabled { thread, level, enabled } => {
            sys.set_cstate_enabled(thread, level, enabled)
        }
        Op::Online { thread, online } => sys.set_online(thread, online),
        Op::Preheat => sys.preheat(),
        Op::Tracing(enabled) => sys.set_tracing(enabled),
    }
}

/// Schedules `op` through the cursor's builder method.
fn schedule(step: At<'_>, op: Op) -> At<'_> {
    match op {
        Op::Workload { thread, class, weight } => step.workload(thread, class, weight),
        Op::Idle { thread } => step.idle(thread),
        Op::PstateMhz { thread, mhz } => step.pstate(thread, mhz),
        Op::CstateEnabled { thread, level, enabled } => step.cstate(thread, level, enabled),
        Op::Online { thread, online } => step.online(thread, online),
        Op::Preheat => step.preheat(),
        Op::Tracing(enabled) => step.tracing(enabled),
    }
}

/// `(shape, kind, first thread, threads, choice, bulk)`; see
/// [`arb_run_cursor`].
type RunSegment = (u8, u8, u32, u32, usize, bool);

/// One cursor of [`run_length_scenarios_match_their_step_list`]: its
/// tick, and its actions as segments `(shape, kind, first thread,
/// threads, choice, bulk)`, each one action repeated on consecutive
/// threads. Against the segment before it, across cursors too, a segment
/// of shape 0 is a fresh action at `first`, 1 the same action on the
/// threads after it (which extends its run at the same tick), 2 those
/// threads with the parameters of `choice` (which break the run unless
/// they match), and 3 the same action one thread further on (which breaks
/// it). Threads reach past the 128-thread machine's last. A workload
/// segment with `bulk` set is scheduled with one [`At::workloads`] call,
/// any other segment action by action.
fn arb_run_cursor() -> impl Strategy<Value = (u64, Vec<RunSegment>)> {
    let first = prop::sample::select(vec![0u32, 1, 2, 62, 64, 125, 126, 127, 128]);
    let segment = (0u8..4, 0u8..7, first, 1u32..5, 0usize..6, any::<bool>());
    (0u64..4, prop::collection::vec(segment, 1..6))
}

/// Decodes one segment's action on `thread`: weights `0.0` and `-0.0`,
/// and parameters the machine does not define.
fn run_op(kind: u8, thread: u32, choice: usize) -> Op {
    let thread = ThreadId(thread);
    match kind {
        0 => Op::Workload {
            thread,
            class: [KernelClass::VXorps, KernelClass::Pause][choice % 2],
            weight: OperandWeight([0.0, -0.0, 0.5][choice % 3]),
        },
        1 => Op::Idle { thread },
        2 => Op::PstateMhz { thread, mhz: [1500, 2200, 1234][choice % 3] },
        3 => Op::CstateEnabled { thread, level: [1, 2, 3][choice % 3], enabled: choice < 3 },
        4 => Op::Online { thread, online: choice > 1 },
        5 => Op::Preheat,
        _ => Op::Tracing(choice < 3),
    }
}

/// Whether `b` repeats `a`'s action at `a`'s tick, parameters equal bit
/// for bit, on the thread after `a`'s: a scenario stores the two in one
/// entry.
fn continues(a: Step, b: Step) -> bool {
    let next = |x: ThreadId, y: ThreadId| x.0 as u64 + 1 == y.0 as u64;
    a.at == b.at
        && match (a.op, b.op) {
            (
                Op::Workload { thread: x, class: c, weight: w },
                Op::Workload { thread: y, class: d, weight: v },
            ) => next(x, y) && c == d && w.0.to_bits() == v.0.to_bits(),
            (Op::Idle { thread: x }, Op::Idle { thread: y }) => next(x, y),
            (Op::PstateMhz { thread: x, mhz: m }, Op::PstateMhz { thread: y, mhz: n }) => {
                next(x, y) && m == n
            }
            (
                Op::CstateEnabled { thread: x, level: l, enabled: e },
                Op::CstateEnabled { thread: y, level: k, enabled: f },
            ) => next(x, y) && l == k && e == f,
            (Op::Online { thread: x, online: o }, Op::Online { thread: y, online: p }) => {
                next(x, y) && o == p
            }
            _ => false,
        }
}

/// The parent's step-by-step validation of the steps: the first range or
/// parameter error in step order, then the first action on an offline
/// thread.
fn validate_step_list(cfg: &SimConfig, steps: &[Step]) -> Result<(), ScenarioError> {
    let num_threads = cfg.topology.num_threads() as u32;
    let check_thread = |thread: ThreadId| match thread.0 < num_threads {
        true => Ok(()),
        false => Err(ScenarioError::ThreadOutOfRange { thread, num_threads }),
    };
    for step in steps {
        match step.op {
            Op::PstateMhz { thread, mhz } => {
                check_thread(thread)?;
                if cfg.pstates.index_of_frequency(mhz).is_none() {
                    return Err(ScenarioError::UndefinedPstate { mhz });
                }
            }
            Op::CstateEnabled { thread, level, .. } => {
                check_thread(thread)?;
                if !(1..=2).contains(&level) {
                    return Err(ScenarioError::UndefinedCstate { level });
                }
            }
            op => op.target().map_or(Ok(()), check_thread)?,
        }
    }
    let mut offline = vec![false; num_threads as usize];
    for step in steps {
        match step.op {
            Op::Workload { thread, .. } | Op::Idle { thread } if offline[thread.index()] => {
                return Err(ScenarioError::ActionOnOfflineThread { thread, at: step.at });
            }
            Op::Online { thread, online } => offline[thread.index()] = !online,
            _ => {}
        }
    }
    Ok(())
}

/// A scenario holding `ticks` as written: the first at t = 0, each later
/// one `gap` ns after the one before, all its actions at one instant.
fn tick_scenario(ticks: &[(Ns, Vec<Op>)]) -> (Scenario, Vec<Ns>) {
    let mut sc = Scenario::new();
    let mut times = Vec::new();
    let mut at = 0;
    for (i, (gap, ops)) in ticks.iter().enumerate() {
        if i > 0 {
            at += gap;
        }
        times.push(at);
        let mut step = sc.at(at);
        for &op in ops {
            step = schedule(step, op);
        }
    }
    sc.run_until(at + 3 * MILLISECOND);
    times.push(at + 3 * MILLISECOND);
    (sc, times)
}

/// Every field's bits of one thread's counters.
fn bits(c: ThreadCounters) -> [u64; 5] {
    [c.tsc, c.aperf, c.mperf, c.cycles, c.instructions].map(f64::to_bits)
}

/// Every counter field's bits, per thread.
fn counter_bits(sys: &System) -> Vec<[u64; 5]> {
    (0..sys.config().topology.num_threads() as u32)
        .map(|t| bits(sys.counters(ThreadId(t))))
        .collect()
}

/// Both RAPL energy MSRs of every thread, as software reads them.
fn rapl_msrs(sys: &mut System) -> Vec<Option<u64>> {
    sys.sync_rapl_msrs();
    (0..sys.config().topology.num_threads() as u32)
        .flat_map(|t| [address::CORE_ENERGY_STAT, address::PKG_ENERGY_STAT].map(|a| (t, a)))
        .map(|(t, a)| sys.msrs().read(ThreadId(t), a).ok())
        .collect()
}

/// Asserts that a machine without RAPL accounting, `lean`, has stepped
/// exactly like `full`, which keeps it: AC power, die temperatures, true
/// package power, effective clocks, both caps, every thread's counters
/// and the AC trace are bit-equal, `lean`'s bound on each package
/// estimate holds `full`'s exact estimate, and a PPT target inside the
/// bound makes `lean` read that estimate bit for bit.
fn assert_steps_alike(full: &System, lean: &System) -> Result<(), TestCaseError> {
    prop_assert_eq!(full.ac_power_w().to_bits(), lean.ac_power_w().to_bits());
    let (f, l) = (full.power_breakdown(), lean.power_breakdown());
    for socket in [SocketId(0), SocketId(1)] {
        let pkg = socket.index();
        prop_assert_eq!(full.die_temp_c(socket).to_bits(), lean.die_temp_c(socket).to_bits());
        prop_assert_eq!(f.pkg_true_w[pkg].to_bits(), l.pkg_true_w[pkg].to_bits());
        prop_assert_eq!(full.cap_mhz(socket), lean.cap_mhz(socket));
        let (lo, hi) = lean.estimate_bounds(socket);
        let exact = f.pkg_est_w[pkg];
        prop_assert!(lo <= exact && exact <= hi, "package {pkg}: {exact} W outside [{lo}, {hi}]");
        let read = lean.clone().ppt_estimate_w(socket, lo + (hi - lo) / 2.0);
        prop_assert_eq!(read.to_bits(), exact.to_bits(), "package {} exact path", pkg);
    }
    for core in (0..full.config().topology.num_cores()).map(CoreId::from_index) {
        prop_assert_eq!(
            full.effective_core_ghz(core).to_bits(),
            lean.effective_core_ghz(core).to_bits()
        );
    }
    prop_assert!(counter_bits(full) == counter_bits(lean));
    let trace_bits = |sys: &System| -> Vec<(Ns, u64)> {
        sys.ac_trace().iter().map(|&(t, w)| (t, w.to_bits())).collect()
    };
    prop_assert!(trace_bits(full) == trace_bits(lean));
    Ok(())
}

/// Runs `ticks` once as a scenario, each tick resolved after its last
/// action, and once through the public per-action API, then asserts that
/// both end in one machine: the power breakdown, AC energy, die
/// temperatures, every thread's counters, the RAPL MSRs and the RNG
/// stream are bit-identical. So are the tracer records other than
/// `PackageSleep`, and each socket's asleep time. AC-trace means only
/// agree to 1e-8 W: the trace starts a segment only when AC power moves by
/// more than 1e-9 W, so skipping a tick's zero-length intermediate states
/// can leave the last bits of a segment at the value before the tick.
fn assert_batched_matches_single(ticks: &[(Ns, Vec<Op>)]) -> Result<(), TestCaseError> {
    let (sc, times) = tick_scenario(ticks);
    let cfg = SimConfig::epyc_7502_2s();

    let mut batched = System::new(cfg.clone(), 5);
    batched.set_tracing(true);
    batched.run_scenario(&sc).expect("validated");

    let mut single = System::new(cfg, 5);
    single.set_tracing(true);
    for (&at, (_, ops)) in times.iter().zip(ticks) {
        single.run_for_ns(at - single.now_ns());
        for &op in ops {
            apply_one(&mut single, op);
        }
    }
    single.run_for_ns(batched.now_ns() - single.now_ns());

    prop_assert!(same_bits(batched.power_breakdown(), single.power_breakdown()));
    prop_assert_eq!(batched.ac_energy_j().to_bits(), single.ac_energy_j().to_bits());
    for socket in [SocketId(0), SocketId(1)] {
        prop_assert_eq!(batched.die_temp_c(socket).to_bits(), single.die_temp_c(socket).to_bits());
        prop_assert_eq!(
            batched.tracer().asleep_ns(socket, 0, batched.now_ns()),
            single.tracer().asleep_ns(socket, 0, single.now_ns())
        );
    }
    prop_assert!(counter_bits(&batched) == counter_bits(&single));
    prop_assert!(rapl_msrs(&mut batched) == rapl_msrs(&mut single));
    for pair in times.windows(2) {
        let (from, to) = (pair[0], pair[1]);
        let (a, b) = (batched.trace_mean_w(from, to), single.trace_mean_w(from, to));
        prop_assert!((a - b).abs() <= 1e-8, "[{from}, {to}): {a} vs {b} W");
    }
    let not_sleep = |sys: &System| -> Vec<Record> {
        sys.tracer()
            .records()
            .iter()
            .filter(|r| !matches!(r.event, Event::PackageSleep { .. }))
            .cloned()
            .collect()
    };
    prop_assert!(not_sleep(&batched) == not_sleep(&single));
    prop_assert_eq!(batched.rng().next_u64(), single.rng().next_u64());
    Ok(())
}

/// One AC-reading window of [`trimmed_and_whole_traces_read_alike`]:
/// `(shape, probe, offset ns, length ns)`, decoded against the window
/// before it by [`ac_windows`].
fn arb_ac_window() -> impl Strategy<Value = (u8, u8, u64, u64)> {
    (0u8..4, 0u8..3, 0u64..60_000_000, 1u64..200_000_000)
}

/// Adds one AC-reading probe per decoded window to `sc`. Each window is
/// free-standing, back to back with the one before it, nested inside it,
/// or overlapping its end; an `AcMeteredW` window too short for a meter
/// sample reads `AcTrueMeanW` instead.
fn ac_windows(sc: &mut Scenario, windows: &[(u8, u8, u64, u64)]) {
    let mut before = Window::span(0, 50 * MILLISECOND);
    for (i, &(shape, probe, offset, len)) in windows.iter().enumerate() {
        let window = match shape {
            0 => Window::span(offset, offset + len),
            1 => Window::span(before.to, before.to + len),
            2 => {
                let from = before.from + offset % (before.to - before.from);
                Window::span(from, from + 1 + len % (before.to - from))
            }
            _ => {
                let from = before.from + offset % (before.to - before.from);
                Window::span(from, before.to + len)
            }
        };
        let probe = match probe {
            0 => Probe::AcTrueMeanW,
            1 if window.to - window.from >= 120 * MILLISECOND => Probe::AcMeteredW,
            1 => Probe::AcTrueMeanW,
            _ => Probe::MeterSamples,
        };
        sc.probe(format!("w{i}"), probe, window);
        before = window;
    }
}

fn vf_points() -> Vec<(u32, f64)> {
    vec![(1500, 0.85), (2200, 0.95), (2500, 1.00)]
}

fn arb_freq() -> impl Strategy<Value = u32> {
    prop::sample::select(vec![1500u32, 2200, 2500])
}

proptest! {
    // Building and validating is cheap: no machine runs.
    #![proptest_config(ProptestConfig { cases: 512 })]

    /// A scenario that stores runs of like actions as single entries
    /// reads, prints, compares, ends and validates as the step list the
    /// parent's insertion rule builds: each action goes behind every step
    /// at or before its tick. The cursors come in any tick order, mix
    /// runs with actions and parameters that break them, and reach past
    /// the machine's last thread; a range of workloads scheduled with one
    /// `workloads` call builds what its actions one by one build, and an
    /// empty range adds nothing.
    #[test]
    fn run_length_scenarios_match_their_step_list(
        cursors in prop::collection::vec(arb_run_cursor(), 1..8),
        probe_at in 0u64..6,
        run_until in 0u64..6,
    ) {
        let cfg = SimConfig::epyc_7502_2s();
        let mut sc = Scenario::new();
        let mut expected: Vec<Step> = Vec::new();
        // The segment before: its kind, the thread after its last, and
        // its choice.
        let mut before = (0, 0, 0);
        for (tick, segments) in &cursors {
            let t = tick * MILLISECOND;
            let mut at = sc.at(t);
            for &(shape, kind, first, threads, choice, bulk) in segments {
                let (kind, first, choice) = match shape {
                    0 => (kind, first, choice),
                    1 => before,
                    2 => (before.0, before.1, choice),
                    _ => (before.0, before.1 + 1, before.2),
                };
                at = match run_op(kind, first, choice) {
                    Op::Workload { thread, class, weight } if bulk => {
                        at.workloads(thread, threads, class, weight)
                    }
                    _ => (first..first + threads)
                        .fold(at, |at, thread| schedule(at, run_op(kind, thread, choice))),
                };
                for thread in first..first + threads {
                    let i = expected.partition_point(|s| s.at <= t);
                    expected.insert(i, Step { at: t, op: run_op(kind, thread, choice) });
                }
                before = (kind, first + threads, choice);
            }
        }
        let last_tick = cursors.last().map_or(0, |(tick, _)| tick * MILLISECOND);
        let mut empty = sc.clone();
        let (class, weight) = (KernelClass::VXorps, OperandWeight::HALF);
        empty.at(last_tick).workloads(ThreadId(before.1), 0, class, weight);
        prop_assert_eq!(empty.entry_count(), sc.entry_count());
        prop_assert_eq!(&empty, &sc);
        sc.probe("ac", Probe::AcPowerW, Window::at(probe_at * MILLISECOND));
        sc.run_until(run_until * MILLISECOND);

        let steps: Vec<Step> = sc.steps().collect();
        prop_assert_eq!(sc.steps().len(), expected.len());
        prop_assert_eq!(format!("{steps:?}"), format!("{expected:?}"));
        prop_assert_eq!(
            format!("{sc:?}"),
            format!(
                "Scenario {{ steps: {expected:?}, probes: {:?}, run_until: {} }}",
                sc.probes(),
                run_until * MILLISECOND
            )
        );
        // Every step that continues the one before it shares its entry.
        let merged = expected.windows(2).filter(|pair| continues(pair[0], pair[1])).count();
        prop_assert_eq!(sc.entry_count(), expected.len() - merged);

        let twin = crate::torture::rebuild(&expected, sc.probes(), sc.run_until_ns());
        prop_assert_eq!(&sc, &twin);
        prop_assert_eq!(&twin, &sc);
        if let Some((_, shorter)) = expected.split_last() {
            let shorter = crate::torture::rebuild(shorter, sc.probes(), sc.run_until_ns());
            prop_assert_ne!(&sc, &shorter);
            prop_assert_ne!(&shorter, &sc);
        }
        let last = expected.last().map_or(0, |s| s.at);
        prop_assert_eq!(sc.end(), last.max(probe_at * MILLISECOND).max(run_until * MILLISECOND));
        prop_assert_eq!(sc.validate(&cfg), validate_step_list(&cfg, &expected));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Whatever request sequence arrives, the SMU eventually applies the
    /// *last* request and leaves nothing pending.
    #[test]
    fn smu_converges_to_last_request(
        requests in prop::collection::vec((arb_freq(), 0u64..3_000_000), 1..20)
    ) {
        let mut smu = Smu::new(SmuParams::default(), 1, 2500, vf_points());
        let mut now = 0u64;
        let mut last = 2500;
        for (freq, gap) in requests {
            now += gap;
            smu.advance(now);
            smu.request(now, 0, freq);
            last = freq;
        }
        // Two slot periods plus the longest ramp always suffice per queued
        // hop; give it generous time.
        now += 50 * MILLISECOND;
        smu.advance(now);
        prop_assert_eq!(smu.core(0).applied_mhz(), last);
        prop_assert!(smu.core(0).pending().is_none());
    }

    /// A request never moves an applied frequency, on its own core or any
    /// other: only `advance` applies transitions.
    #[test]
    fn smu_request_never_changes_an_applied_frequency(
        steps in prop::collection::vec(
            (0usize..4, arb_freq(), 0u64..2_000_000, any::<bool>()),
            1..40,
        ),
    ) {
        let mut smu = Smu::new(SmuParams::default(), 4, 2500, vf_points());
        let mut now = 0u64;
        let applied = |smu: &Smu| -> Vec<u32> {
            (0..smu.num_cores()).map(|c| smu.core(c).applied_mhz()).collect()
        };
        for (core, freq, gap, advance) in steps {
            now += gap;
            if advance {
                smu.advance(now);
            }
            let before = applied(&smu);
            smu.request(now, core, freq);
            prop_assert_eq!(applied(&smu), before);
        }
    }

    /// After any sequence of requests and advances on several cores, the
    /// SMU's kept next event is the earliest completion over every core's
    /// pending transition: queued follow-ups that `advance` issues
    /// included.
    #[test]
    fn smu_next_event_is_the_earliest_pending_completion(
        steps in prop::collection::vec(
            (0usize..4, arb_freq(), 0u64..2_000_000, any::<bool>()),
            1..40,
        ),
    ) {
        let mut smu = Smu::new(SmuParams::default(), 4, 2500, vf_points());
        let mut now = 0u64;
        for (core, freq, gap, advance) in steps {
            now += gap;
            if advance {
                smu.advance(now);
            } else {
                smu.request(now, core, freq);
            }
            let earliest = (0..smu.num_cores())
                .filter_map(|c| smu.core(c).pending().map(|p| p.completes_at))
                .min();
            prop_assert_eq!(smu.next_event(), earliest);
        }
    }

    /// Transition delays never exceed slot + ramp, and fast-path delays
    /// only occur within the settle window.
    #[test]
    fn smu_delay_bounds(offset in 0u64..1_000_000, freq in arb_freq()) {
        let mut smu = Smu::new(SmuParams::default(), 1, 2500, vf_points());
        // Settle fully first.
        smu.advance(20 * MILLISECOND);
        let t0 = 20 * MILLISECOND + offset;
        if freq == 2500 {
            return Ok(());
        }
        let p = smu.request(t0, 0, freq).expect("transition starts");
        let delay = p.completes_at - t0;
        prop_assert!(delay >= 390_000, "down delay {delay}");
        prop_assert!(delay <= 1_390_000, "down delay {delay}");
        prop_assert!(!p.fast_path, "no latched state after settling");
    }

    /// The CCX divider never raises a core above its request and never
    /// drops it below half the request.
    #[test]
    fn ccx_divider_bounds(requests in prop::collection::vec(800u32..3_000, 4),
                          active in prop::collection::vec(any::<bool>(), 4)) {
        let requests: [u32; ccx::CORES_PER_CCX] = requests.try_into().expect("four requests");
        let active: [bool; ccx::CORES_PER_CCX] = active.try_into().expect("four flags");
        let clocks = ccx::resolve(&requests, &active, true);
        for (i, &req) in requests.iter().enumerate() {
            let eff = clocks.effective_mhz[i];
            prop_assert!(eff <= req as f64 + 1e-9, "core {i}: {eff} > {req}");
            prop_assert!(eff >= req as f64 * 0.5, "core {i}: {eff} far below {req}");
        }
        // The mesh is at least as fast as every active core's effective
        // frequency.
        for (i, &a) in active.iter().enumerate() {
            if a {
                prop_assert!(clocks.mesh_mhz as f64 >= clocks.effective_mhz[i] - 1e-9);
            }
        }
    }

    /// The simulator's memoized power step equals the stateless
    /// `power::evaluate` of the same machine state after every action:
    /// mixed kernels and weights on both SMT siblings, idling, C-state
    /// disables down to POLL, offlining, P-state transitions, thermal
    /// drift, preheat, and throttled FIRESTARTER spans whose thermal-only
    /// slots and held PPT steps follow cap moves.
    #[test]
    fn memoized_power_matches_stateless_evaluation(
        actions in prop::collection::vec(arb_action(), 1..40),
    ) {
        let mut sys = System::new(SimConfig::epyc_7502_2s(), 11);
        prop_assert!(same_bits(sys.power_breakdown(), &sys.stateless_breakdown()));
        for (i, &action) in actions.iter().enumerate() {
            apply_action(&mut sys, action);
            prop_assert!(
                same_bits(sys.power_breakdown(), &sys.stateless_breakdown()),
                "breakdowns diverge after action {i} {action:?}"
            );
        }
    }

    /// A machine that keeps the counters of a few threads advances each
    /// of them to the bits a machine keeping every thread's has, after
    /// every action: both SMT siblings, idling, POLL, hotplug, P-state
    /// ramps, thermal drift, preheat and throttled FIRESTARTER. The kept
    /// threads are drawn from those the actions touch and from the rest.
    #[test]
    fn kept_counters_match_a_machine_keeping_every_thread(
        kept in prop::collection::vec(prop_oneof![arb_thread(), 0u32..128], 0..6),
        actions in prop::collection::vec(arb_action(), 1..40),
    ) {
        let kept: Vec<ThreadId> = kept.into_iter().map(ThreadId).collect();
        let mut every = System::new(SimConfig::epyc_7502_2s(), 13);
        let mut narrowed = System::new(SimConfig::epyc_7502_2s(), 13);
        narrowed.keep_counters(&kept);
        for (i, &action) in actions.iter().enumerate() {
            apply_action(&mut every, action);
            apply_action(&mut narrowed, action);
            for &t in &kept {
                prop_assert_eq!(
                    bits(narrowed.counters(t)),
                    bits(every.counters(t)),
                    "thread {} diverges after action {} {:?}",
                    t.0,
                    i,
                    action
                );
            }
        }
    }

    /// Resolving a tick once, after its last action, ends in the machine
    /// that applying the same actions one at a time reaches (see
    /// [`assert_batched_matches_single`]). Up to 23 actions on four cores
    /// make a tick touch a core many times, so the flush must settle each
    /// core from its last noise draw.
    #[test]
    fn tick_batches_match_one_at_a_time(
        ticks in prop::collection::vec(
            (1u64..5_000_000, prop::collection::vec(arb_tick_op(), 1..24)),
            1..8,
        ),
    ) {
        let ticks: Vec<(Ns, Vec<Op>)> = ticks
            .into_iter()
            .map(|(gap, ops)| (gap, ops.into_iter().map(tick_op).collect()))
            .collect();
        let (sc, _) = tick_scenario(&ticks);
        prop_assume!(sc.validate(&SimConfig::epyc_7502_2s()).is_ok());
        assert_batched_matches_single(&ticks)?;
    }

    /// Applying a tick's stored runs as entries leaves the machine where
    /// applying its expanded steps as runs of one does: every thread's
    /// state, every core's estimate noise, the tracer's records and the
    /// RNG's next draw are bit-equal. Each action repeats an
    /// [`arb_tick_op`] action on up to five consecutive threads, so most
    /// ticks store runs, of every action kind.
    #[test]
    fn stored_runs_apply_like_their_expanded_steps(
        ticks in prop::collection::vec(
            prop::collection::vec((arb_tick_op(), 1u32..6), 1..6),
            1..4,
        ),
    ) {
        let mut sc = Scenario::new();
        for (i, tick) in (0..).zip(&ticks) {
            let mut at = sc.at(i * MILLISECOND);
            for &(op, n) in tick {
                let op = tick_op(op);
                for k in 0..n {
                    at = schedule(at, nth(op, k));
                }
            }
        }
        let cfg = SimConfig::epyc_7502_2s();
        prop_assume!(sc.validate(&cfg).is_ok());
        let mut batched = System::new(cfg.clone(), 31);
        let mut stepped = System::new(cfg, 31);
        for sys in [&mut batched, &mut stepped] {
            sys.set_tracing(true);
        }
        let entries: Vec<(Step, u32)> = sc.entries().collect();
        let steps: Vec<Step> = sc.steps().collect();
        for t in (0..ticks.len() as Ns).map(|i| i * MILLISECOND) {
            let due = |at: Ns| at == t;
            batched.apply_ops(entries.iter().filter(|(s, _)| due(s.at)).map(|&(s, n)| (s.op, n)));
            stepped.apply_ops(steps.iter().filter(|s| due(s.at)).map(|s| (s.op, 1)));
            let threads = |sys: &System| -> Vec<ThreadState> {
                (0..128).map(|t| sys.thread_state(ThreadId(t))).collect()
            };
            prop_assert_eq!(threads(&batched), threads(&stepped));
            let noise_bits = |sys: &System| -> Vec<u64> {
                sys.est_noise_w().iter().map(|w| w.to_bits()).collect()
            };
            prop_assert!(noise_bits(&batched) == noise_bits(&stepped), "noise at {} ns", t);
            prop_assert!(batched.tracer().records() == stepped.tracer().records());
            prop_assert!(same_bits(batched.power_breakdown(), stepped.power_breakdown()));
            for sys in [&mut batched, &mut stepped] {
                sys.run_for_ns(MILLISECOND);
            }
        }
        prop_assert_eq!(batched.rng().next_u64(), stepped.rng().next_u64());
    }

    /// Scheduling actions move neither a frequency request nor a cap, so
    /// after any tick of them, with P-state ramps in flight and requests
    /// queued behind them, resolving every core starts no transition and
    /// retargets no core.
    #[test]
    fn scheduling_ticks_leave_dvfs_resolved(
        ticks in prop::collection::vec(
            (1u64..1_500_000, prop::collection::vec(arb_tick_op(), 1..6)),
            1..10,
        ),
    ) {
        let ticks: Vec<(Ns, Vec<Op>)> = ticks
            .into_iter()
            .map(|(gap, ops)| (gap, ops.into_iter().map(tick_op).collect()))
            .collect();
        let (sc, times) = tick_scenario(&ticks);
        let cfg = SimConfig::epyc_7502_2s();
        prop_assume!(sc.validate(&cfg).is_ok());
        let mut sys = System::new(cfg, 7);
        for (&at, (_, ops)) in times.iter().zip(&ticks) {
            sys.run_for_ns(at - sys.now_ns());
            sys.apply_ops(ops.iter().map(|&op| (op, 1)));
            let targets = sys.dvfs_targets();
            prop_assert_eq!(sys.resolve_dvfs(), 0, "a transition started at {} ns", at);
            prop_assert_eq!(sys.dvfs_targets(), targets);
        }
    }

    /// A machine without RAPL accounting steps bit for bit like one with
    /// it after every action, throttled FIRESTARTER spans included, and
    /// the bound its PPT loop decides from holds the exact estimate.
    #[test]
    fn machines_without_rapl_accounting_step_alike(
        actions in prop::collection::vec(arb_action(), 1..40),
    ) {
        let mut full = System::new(SimConfig::epyc_7502_2s(), 23);
        let mut lean = System::new(SimConfig::epyc_7502_2s(), 23);
        lean.drop_rapl_accounting();
        for &action in &actions {
            apply_action(&mut full, action);
            apply_action(&mut lean, action);
            assert_steps_alike(&full, &lean)?;
        }
    }

    /// A run that trims its AC trace behind its open windows, as a
    /// session case does, measures what a run keeping the whole trace
    /// does, bit for bit: random loaded tick schedules, with FIRESTARTER
    /// everywhere in some, read by nested, overlapping and back-to-back
    /// `AcTrueMeanW`, `AcMeteredW` and `MeterSamples` windows.
    #[test]
    fn trimmed_and_whole_traces_read_alike(
        ticks in prop::collection::vec(
            (1u64..40_000_000, prop::collection::vec(arb_tick_op(), 1..6)),
            1..6,
        ),
        firestarter in any::<bool>(),
        windows in prop::collection::vec(arb_ac_window(), 1..8),
    ) {
        let mut ticks: Vec<(Ns, Vec<Op>)> = ticks
            .into_iter()
            .map(|(gap, ops)| (gap, ops.into_iter().map(tick_op).collect()))
            .collect();
        if firestarter {
            ticks[0].1.extend((0..128).map(|t| Op::Workload {
                thread: ThreadId(t),
                class: KernelClass::Firestarter,
                weight: OperandWeight::HALF,
            }));
        }
        let (mut sc, _) = tick_scenario(&ticks);
        ac_windows(&mut sc, &windows);
        let cfg = SimConfig::epyc_7502_2s();
        prop_assume!(sc.validate(&cfg).is_ok());
        let whole = System::new(cfg.clone(), 17).run_scenario(&sc).expect("validated");
        let mut trimming = System::new(cfg, 17);
        let trimmed = trimming.run_scenario_prechecked(&sc, true);
        prop_assert_eq!(format!("{trimmed:?}"), format!("{whole:?}"));
    }

    /// A machine whose PPT loop decides held slots from hold proofs runs
    /// every scenario bit for bit like a same-seed twin that decides every
    /// slot on its own, with RAPL accounting and counters, without RAPL
    /// accounting, without either, and with RAPL accounting of both
    /// packages and one core but no counters, as a Fig. 10 case keeps;
    /// the last two run held slots in the held loop: random ticks with
    /// P-state ramps in flight and mid-run preheats, over no extra load, a
    /// light pause load, or FIRESTARTER everywhere, whose cap steps down
    /// and settles into the deadband, then a quiet tail in which the SMU
    /// settles. Every proven slot also asserts, in these builds, that the
    /// per-slot decision holds.
    #[test]
    fn hold_proofs_decide_like_every_slot_on_its_own(
        ticks in prop::collection::vec(
            (1u64..40_000_000, prop::collection::vec(arb_tick_op(), 1..6)),
            1..6,
        ),
        load in 0u8..3,
        mode in 0u8..4,
    ) {
        let mut ticks: Vec<(Ns, Vec<Op>)> = ticks
            .into_iter()
            .map(|(gap, ops)| (gap, ops.into_iter().map(tick_op).collect()))
            .collect();
        let (class, threads) = match load {
            0 => (KernelClass::Pause, 0),
            1 => (KernelClass::Pause, 8),
            _ => (KernelClass::Firestarter, 128),
        };
        let loaded = (0..threads).map(|t| Op::Workload {
            thread: ThreadId(t),
            class,
            weight: OperandWeight::HALF,
        });
        ticks[0].1.splice(0..0, loaded);
        let (mut sc, times) = tick_scenario(&ticks);
        let whole = Window::span(0, times[times.len() - 1]);
        sc.probe("ac", Probe::AcTrueMeanW, whole);
        // Mode 0 keeps RAPL accounting and counters, mode 1 only
        // counters, mode 2 neither, and mode 3 the RAPL energy of both
        // packages and core 5 but no counters.
        match mode {
            0 => {
                sc.probe("rapl", Probe::RaplW, whole);
            }
            3 => {
                sc.probe("pkg", Probe::RaplPkgW, whole);
                sc.probe("core5", Probe::RaplCoreW(CoreId(5)), whole);
            }
            _ => {}
        }
        let cfg = SimConfig::epyc_7502_2s();
        prop_assume!(sc.validate(&cfg).is_ok());
        let mut proven = System::new(cfg.clone(), 29);
        let mut per_slot = System::new(cfg, 29);
        per_slot.disable_hold_proofs();
        for sys in [&mut proven, &mut per_slot] {
            match mode {
                1 | 2 => sys.drop_rapl_accounting(),
                3 => sys.keep_rapl_cores(&[5]),
                _ => {}
            }
            if mode >= 2 {
                sys.keep_counters(&[]);
            }
        }
        let proven_run = proven.run_scenario_prechecked(&sc, false);
        let per_slot_run = per_slot.run_scenario_prechecked(&sc, false);
        prop_assert_eq!(format!("{proven_run:?}"), format!("{per_slot_run:?}"));
        // A request queues at most one more behind its ramp, so 10 quiet
        // ms settle the SMU and leave whole slots that proofs decide.
        proven.run_for_ns(10 * MILLISECOND);
        per_slot.run_for_ns(10 * MILLISECOND);
        prop_assert_eq!(proven.ac_energy_j().to_bits(), per_slot.ac_energy_j().to_bits());
        for socket in [SocketId(0), SocketId(1)] {
            prop_assert_eq!(proven.cap_mhz(socket), per_slot.cap_mhz(socket));
            prop_assert_eq!(
                proven.die_temp_c(socket).to_bits(),
                per_slot.die_temp_c(socket).to_bits()
            );
        }
        let trace_bits = |sys: &System| -> Vec<(Ns, u64)> {
            sys.ac_trace().iter().map(|&(t, w)| (t, w.to_bits())).collect()
        };
        prop_assert!(trace_bits(&proven) == trace_bits(&per_slot));
        if mode != 1 && mode != 2 {
            // Every kept domain reads alike: both packages, and every core
            // (mode 0) or core 5 alone (mode 3); so do the packages'
            // published joules before quantization.
            let kept = |sys: &mut System| -> Vec<u64> {
                sys.sync_rapl_msrs();
                let core_threads = match mode {
                    0 => (0..64).map(|core| ThreadId(2 * core)).collect(),
                    _ => vec![ThreadId(10)],
                };
                let cores = core_threads.into_iter().map(|t| (t, address::CORE_ENERGY_STAT));
                let packages = [ThreadId(0), ThreadId(64)].map(|t| (t, address::PKG_ENERGY_STAT));
                cores.chain(packages).map(|(t, a)| sys.msrs().peek(t, a)).collect()
            };
            prop_assert!(kept(&mut proven) == kept(&mut per_slot));
            let joules_bits = |sys: &System| -> Vec<u64> {
                sys.rapl_package_joules().iter().map(|j| j.to_bits()).collect()
            };
            prop_assert!(joules_bits(&proven) == joules_bits(&per_slot));
        }
        prop_assert_eq!(per_slot.slot_counts().proof_slots, 0);
        prop_assert_eq!(per_slot.slot_counts().held_loop_slots, 0);
        // Only a machine without counters runs the held loop, with RAPL
        // accounting or without, and a light load far below PPT always
        // enters it.
        let held = proven.slot_counts().held_loop_slots;
        if mode < 2 {
            prop_assert_eq!(held, 0);
        } else if load == 1 {
            prop_assert!(held > 0, "a light load advanced no slot in the held loop");
        }
    }

    /// The PPT controller never leaves its [min, max] range and always
    /// converges for any monotone power curve.
    #[test]
    fn controller_stays_in_range(w_per_mhz in 0.01f64..0.2, target in 100.0f64..250.0) {
        let cfg = SimConfig::epyc_7502_2s();
        let mut c = PptController::new(&cfg.controller, 2500, 1500);
        for _ in 0..500 {
            let est = c.cap_mhz() as f64 * w_per_mhz;
            c.step(est, target, c.cap_mhz());
            prop_assert!((1500..=2500).contains(&c.cap_mhz()));
        }
        // At the fixed point the estimate is within one step of the target
        // band, unless pinned at a range end.
        let est = c.cap_mhz() as f64 * w_per_mhz;
        let step_w = 25.0 * w_per_mhz;
        if c.cap_mhz() > 1500 && c.cap_mhz() < 2500 {
            prop_assert!(est <= target + step_w + 1e-9);
            prop_assert!(est >= target - cfg.controller.deadband_w - step_w - 1e-9);
        }
    }

    /// Every scalar-stream accumulator's snapshot restores the exact
    /// state: equal, re-snapshots identically, continues bit-identically.
    #[test]
    fn scalar_snapshots_round_trip(
        xs in prop::collection::vec(arb_finite_f64(), 0..60),
        extra in arb_finite_f64(),
    ) {
        let mut welford = Welford::new();
        let mut online = OnlineStats::new();
        let mut p2 = P2Quantile::new(0.37);
        for &x in &xs {
            welford.push(x);
            online.push(x);
            p2.push(x);
        }
        assert_exact_round_trip(&welford, |w| w.push(extra));
        assert_exact_round_trip(&online, |o| o.push(extra));
        assert_exact_round_trip(&p2, |q| q.push(extra));
    }

    /// Trace-reduction accumulators round-trip exactly for arbitrary
    /// request/apply record streams.
    #[test]
    fn trace_snapshots_round_trip(
        events in prop::collection::vec(
            (any::<bool>(), 0u64..5_000_000, prop::sample::select(vec![1500u32, 2200, 2500])),
            0..40,
        ),
    ) {
        let mut at = 0;
        let records: Vec<Record> = events
            .into_iter()
            .map(|(apply, gap, mhz)| {
                at += gap;
                let event = if apply {
                    Event::FreqApplied { core: CoreId(0), mhz, fast_path: false }
                } else {
                    Event::FreqRequested { core: CoreId(0), target_mhz: mhz }
                };
                Record { at_ns: at, event }
            })
            .collect();
        let window = (records.first().map_or(0, |r| r.at_ns), at + 1);

        let mut residency = FreqResidency::new();
        residency.observe(&records, window.0, window.1);
        let mut transitions = TransitionStats::new();
        transitions.observe(&records);

        assert_exact_round_trip(&residency, |r| r.observe(&records, window.0, window.1));
        assert_exact_round_trip(&transitions, |t| t.observe(&records));
    }
}

/// A fig10 block's tick: after all 128 threads load, one tick re-weights
/// every one of them, touching each core twice. Settling each core once,
/// from its second draw, matches the per-action machine bit for bit.
#[test]
fn reweighting_every_thread_in_one_tick_matches_one_at_a_time() {
    let all = |weight| -> Vec<Op> {
        (0..128)
            .map(|t| Op::Workload { thread: ThreadId(t), class: KernelClass::VXorps, weight })
            .collect()
    };
    let ticks = [
        (0, all(OperandWeight::HALF)),
        (5 * MILLISECOND, all(OperandWeight::FULL)),
        (3 * MILLISECOND + 250_000, all(OperandWeight::ZERO)),
    ];
    assert_batched_matches_single(&ticks).expect("batched and per-action machines agree");
}

/// Reading a thread's counters panics, by name and thread, on a machine
/// that keeps none and on one that keeps only other threads'.
#[test]
#[should_panic(
    expected = "performance-counter read on a machine that keeps no performance counters \
                for thread 0"
)]
fn counter_read_without_counters_is_a_bug() {
    let mut none = System::new(SimConfig::epyc_7502_2s(), 3);
    none.keep_counters(&[]);
    none.run_for_ns(2 * MILLISECOND);
    let read = std::panic::catch_unwind(|| none.counters(ThreadId(0)));
    assert!(read.is_err(), "a machine keeping no counters read thread 0's");
    let mut narrowed = System::new(SimConfig::epyc_7502_2s(), 3);
    narrowed.keep_counters(&[ThreadId(1)]);
    narrowed.run_for_ns(2 * MILLISECOND);
    assert!(narrowed.counters(ThreadId(1)).tsc > 0.0);
    narrowed.counters(ThreadId(0));
}

#[test]
#[should_panic(expected = "RAPL read on a machine that keeps no RAPL accounting")]
fn rapl_read_without_accounting_is_a_bug() {
    let mut sys = System::new(SimConfig::epyc_7502_2s(), 3);
    sys.drop_rapl_accounting();
    sys.run_for_ns(2 * MILLISECOND);
    sys.sync_rapl_msrs();
}
