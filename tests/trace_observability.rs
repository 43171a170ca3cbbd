//! Integration tests of the lo2s-style event tracer, driven through the
//! declarative [`Probe::TraceEvents`] observation (the engine enables the
//! tracer automatically when a scenario carries a trace probe).

use zen2_ee::prelude::*;
use zen2_ee::sim::trace::{Event, Record};

#[test]
fn throttle_descent_is_visible_in_the_trace() {
    let mut sc = Scenario::new();
    let mut at = sc.at(0);
    for t in 0..128u32 {
        at = at.workload(ThreadId(t), KernelClass::Firestarter, OperandWeight::HALF);
    }
    sc.probe(
        "caps",
        Probe::TraceEvents(EventFilter::CapChanged(SocketId(0))),
        Window::span_secs(0.0, 0.1),
    );
    sc.probe("freq", Probe::TraceEvents(EventFilter::Freq(CoreId(0))), Window::span_secs(0.0, 0.1));
    let run = System::new(SimConfig::epyc_7502_2s(), 3001).run_scenario(&sc).unwrap();

    // The controller must have stepped the cap down repeatedly...
    let cap_changes: Vec<u32> = run
        .events("caps")
        .iter()
        .filter_map(|r| match r.event {
            Event::CapChanged { cap_mhz, .. } => Some(cap_mhz),
            _ => None,
        })
        .collect();
    assert!(cap_changes.len() >= 15, "cap changes: {}", cap_changes.len());
    // ...in 25 MHz steps (mostly downward; brief upward corrections while
    // the lagging DVFS transitions catch up are part of the anti-windup).
    for w in cap_changes.windows(2) {
        assert_eq!(w[0].abs_diff(w[1]), 25, "steps must be 25 MHz");
    }
    let down_steps = cap_changes.windows(2).filter(|w| w[1] < w[0]).count();
    assert!(down_steps * 3 >= cap_changes.len() * 2, "descent dominates");
    assert!((2000..=2100).contains(cap_changes.last().unwrap()));
    // And the core's applied-frequency timeline follows the caps.
    let timeline: Vec<u32> = run
        .events("freq")
        .iter()
        .filter_map(|r| match r.event {
            Event::FreqApplied { mhz, .. } => Some(mhz),
            _ => None,
        })
        .collect();
    assert!(timeline.len() >= 15);
    assert_eq!(timeline.last().unwrap(), cap_changes.last().unwrap());
}

#[test]
fn fast_path_transitions_are_flagged() {
    let mut sc = Scenario::new();
    sc.at(0).workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
    // 2.5 -> 2.2 -> (quickly) 2.5: the return takes the fast path.
    sc.at_secs(0.02).pstate(ThreadId(1), 2200).pstate(ThreadId(0), 2200);
    sc.at_secs(0.022).pstate(ThreadId(1), 2500).pstate(ThreadId(0), 2500);
    sc.probe(
        "freq",
        Probe::TraceEvents(EventFilter::Freq(CoreId(0))),
        Window::span_secs(0.0, 0.024),
    );
    let run = System::new(SimConfig::epyc_7502_2s(), 3002).run_scenario(&sc).unwrap();
    let applied: Vec<(u32, bool)> = run
        .events("freq")
        .iter()
        .filter_map(|r| match r.event {
            Event::FreqApplied { mhz, fast_path, .. } => Some((mhz, fast_path)),
            _ => None,
        })
        .collect();
    assert_eq!(applied.len(), 2, "{applied:?}");
    assert_eq!(applied[0], (2200, false));
    assert_eq!(applied[1], (2500, true), "the return must be flagged fast-path");
}

/// Time a socket spends asleep within `[from, to)` according to a
/// [`EventFilter::PackageSleep`] record stream, assuming the stream's
/// first record establishes the baseline state.
fn asleep_ns(records: &[Record], from_ns: u64, to_ns: u64) -> u64 {
    let mut asleep_since: Option<u64> = None;
    let mut total = 0;
    for r in records {
        let Event::PackageSleep { asleep, .. } = r.event else { continue };
        match (asleep, asleep_since) {
            (true, None) => asleep_since = Some(r.at_ns.max(from_ns)),
            (false, Some(since)) => {
                total += r.at_ns.min(to_ns).saturating_sub(since);
                asleep_since = None;
            }
            _ => {}
        }
    }
    if let Some(since) = asleep_since {
        total += to_ns.saturating_sub(since);
    }
    total
}

#[test]
fn package_sleep_time_accounting_matches_the_scenario() {
    // 100 ms asleep, 100 ms awake, 100 ms asleep.
    let mut sc = Scenario::new();
    sc.at_secs(0.1).workload(ThreadId(0), KernelClass::Pause, OperandWeight::HALF);
    sc.at_secs(0.2).idle(ThreadId(0));
    sc.run_until_secs(0.3);
    sc.probe(
        "sleep",
        Probe::TraceEvents(EventFilter::PackageSleep(SocketId(0))),
        Window::span_secs(0.0, 0.3),
    );
    let run = System::new(SimConfig::epyc_7502_2s(), 3003).run_scenario(&sc).unwrap();
    // The auto-enabled tracer records the boot sleep state as a baseline
    // event at t = 0, so the accounting starts from the right state.
    let asleep = asleep_ns(run.events("sleep"), 0, run.end_ns);
    let frac = asleep as f64 / run.end_ns as f64;
    assert!((frac - 2.0 / 3.0).abs() < 0.02, "asleep fraction {frac:.3}");
}

#[test]
fn cstate_resettling_is_recorded() {
    // Disabling C2 settles an idle thread into C1, re-enabling it settles
    // the thread back into C2, and disabling both levels in one tick
    // drops it into the POLL loop (C0). A change that leaves the state
    // where it was records nothing, and a polling thread is active, so
    // re-enabling C2 does not re-settle it.
    let t = ThreadId(2);
    let mut sc = Scenario::new();
    sc.at_secs(0.01).cstate(t, 2, false);
    sc.at_secs(0.02).cstate(t, 2, true);
    sc.at_secs(0.03).cstate(t, 1, false).cstate(t, 2, false);
    sc.at_secs(0.04).cstate(t, 2, true);
    sc.run_until_secs(0.05);
    sc.probe("t2", Probe::TraceEvents(EventFilter::ThreadState(t)), Window::span_secs(0.0, 0.05));
    let run = System::new(SimConfig::epyc_7502_2s(), 3008).run_scenario(&sc).unwrap();
    let states: Vec<(u64, &str)> = run
        .events("t2")
        .iter()
        .filter_map(|r| match r.event {
            Event::ThreadState { state, .. } => Some((r.at_ns, state)),
            _ => None,
        })
        .collect();
    assert_eq!(states, [(10_000_000, "C1"), (20_000_000, "C2"), (30_000_000, "C0")]);
}

#[test]
fn tracing_off_by_default_and_cheap() {
    let mut sys = System::new(SimConfig::epyc_7502_2s(), 3004);
    sys.set_workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
    sys.run_for_secs(0.05);
    assert!(sys.tracer().records().is_empty(), "no records unless enabled");
}

#[test]
fn scenarios_without_trace_probes_leave_the_tracer_off() {
    let mut sc = Scenario::new();
    sc.probe("ac", Probe::AcTrueMeanW, Window::span_secs(0.0, 0.01));
    let mut sys = System::new(SimConfig::epyc_7502_2s(), 3005);
    sys.run_scenario(&sc).unwrap();
    assert!(!sys.tracer().is_enabled());
    assert!(sys.tracer().records().is_empty());
}

#[test]
fn auto_enabled_tracing_is_restored_after_the_run() {
    // The engine turns the tracer on for a TraceEvents probe; a reused
    // machine must not keep recording (and allocating) forever after.
    let mut sc = Scenario::new();
    sc.at(0).workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
    sc.probe(
        "freq",
        Probe::TraceEvents(EventFilter::Freq(CoreId(0))),
        Window::span_secs(0.0, 0.01),
    );
    let mut sys = System::new(SimConfig::epyc_7502_2s(), 3006);
    sys.run_scenario(&sc).unwrap();
    assert!(!sys.tracer().is_enabled(), "implicit enable must be undone");
    let recorded = sys.tracer().records().len();
    sys.run_for_secs(0.05);
    assert_eq!(sys.tracer().records().len(), recorded, "no recording after the run");

    // An explicit tracing(true) step is the author's choice and stays.
    let mut sc = Scenario::new();
    sc.at(0).tracing(true);
    sc.run_until_secs(0.001);
    let mut sys = System::new(SimConfig::epyc_7502_2s(), 3007);
    sys.run_scenario(&sc).unwrap();
    assert!(sys.tracer().is_enabled());
}
