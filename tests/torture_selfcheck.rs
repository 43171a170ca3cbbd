//! The invariant checker is tested, not just trusted: hand-built
//! violating `Run`s — a residency histogram missing 2 % of the window,
//! a non-monotone trace, power outside the envelope, energy reads that
//! change inside one RAPL publication period — must each trip
//! exactly their own invariant, a hand-built clean run must pass, and
//! structurally broken runs must be called malformed.

use zen2_ee::prelude::*;
use zen2_ee::sim::time::MILLISECOND;
use zen2_ee::sim::torture::{check_case, generate_case, inject_fault, Fault, Invariants};
use zen2_ee::sim::trace::{Event, Record};

const END: u64 = 100 * MILLISECOND;

/// A two-probe scenario (the all-events and per-core trace streams the
/// residency cross-check keys on) whose measurements this suite builds
/// by hand instead of running a machine.
fn scenario() -> Scenario {
    let mut sc = Scenario::new();
    sc.probe("ev-all", Probe::TraceEvents(EventFilter::All), Window::span(0, END));
    sc.probe("ev-core", Probe::TraceEvents(EventFilter::Freq(CoreId(0))), Window::span(0, END));
    sc
}

/// A hand-built run for [`scenario`]: `end_ns == END` (offset 0), a
/// mid-envelope closing power, and the two event streams as given.
fn run(all: Vec<Record>, core: Vec<Record>) -> Run {
    Run {
        seed: 7,
        end_ns: END,
        final_ac_w: 250.0,
        measurements: vec![
            ("ev-all".to_string(), Measurement::Events(all)),
            ("ev-core".to_string(), Measurement::Events(core)),
        ],
    }
}

fn checker() -> Invariants {
    Invariants::for_config(&SimConfig::epyc_7502_2s())
}

fn applied(at_ns: u64, mhz: u32) -> Record {
    Record { at_ns, event: Event::FreqApplied { core: CoreId(0), mhz, fast_path: false } }
}

fn sleep(at_ns: u64, asleep: bool) -> Record {
    Record { at_ns, event: Event::PackageSleep { socket: SocketId(0), asleep } }
}

#[test]
fn hand_built_clean_run_passes() {
    let violations = checker().check(&scenario(), &run(vec![], vec![]));
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn residency_missing_two_percent_trips_exactly_residency() {
    // The all-events stream says core 0 switched to 2500 MHz at 98 % of
    // the window; the per-core stream never saw it. The two histograms
    // disagree on the final 2 % — residency no longer sums to 1
    // consistently across filters.
    let switch = applied(END / 50 * 49, 2500);
    let violations = checker().check(&scenario(), &run(vec![switch], vec![]));
    assert!(!violations.is_empty(), "a 2 % residency hole must trip");
    assert!(
        violations.iter().all(|v| v.kind() == "residency"),
        "only residency may trip: {violations:?}"
    );
}

#[test]
fn non_monotone_trace_trips_exactly_trace() {
    // Package-sleep records running backwards in time. (Sleep events,
    // not frequency events, so the residency cross-filter stays blind
    // to them and only the timestamp discipline is at stake.)
    let violations = checker().check(
        &scenario(),
        &run(vec![sleep(50 * MILLISECOND, true), sleep(40 * MILLISECOND, false)], vec![]),
    );
    assert!(!violations.is_empty(), "a backwards trace must trip");
    assert!(violations.iter().all(|v| v.kind() == "trace"), "only trace may trip: {violations:?}");
}

#[test]
fn out_of_envelope_power_trips_exactly_power() {
    let mut bad = run(vec![], vec![]);
    bad.final_ac_w = 20.0; // far below the all-PC6 AC floor
    let violations = checker().check(&scenario(), &bad);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].kind(), "power");
}

#[test]
fn nan_power_trips_power_not_nothing() {
    let mut bad = run(vec![], vec![]);
    bad.final_ac_w = f64::NAN;
    let violations = checker().check(&scenario(), &bad);
    assert!(
        violations.iter().any(|v| v.kind() == "power"),
        "NaN must never satisfy an envelope: {violations:?}"
    );
}

#[test]
fn unmatched_early_apply_is_legal_pairing() {
    // On a monotone stream, matched request→apply pairs are ordered by
    // construction (a time-travelling pair cannot be expressed without
    // also breaking monotonicity, which the trace check owns). What the
    // pairing sweep must NOT flag: an apply with no pending request
    // (applies from throttling or idle-governor moves are unmatched but
    // legal) followed by a normally matched pair.
    let req = Record {
        at_ns: 20 * MILLISECOND,
        event: Event::FreqRequested { core: CoreId(0), target_mhz: 2200 },
    };
    let early_apply = applied(10 * MILLISECOND, 2500);
    let late_apply = applied(30 * MILLISECOND, 2200);
    let all = vec![early_apply.clone(), req, late_apply.clone()];
    let core = vec![early_apply, late_apply];
    let violations = checker().check(&scenario(), &run(all, core));
    assert!(violations.is_empty(), "legal pairing flagged: {violations:?}");
}

#[test]
fn undefined_request_target_trips_exactly_trace() {
    let req = Record {
        at_ns: 20 * MILLISECOND,
        event: Event::FreqRequested { core: CoreId(0), target_mhz: 1234 },
    };
    let violations = checker().check(&scenario(), &run(vec![req], vec![]));
    assert!(!violations.is_empty(), "an undefined P-state request must trip");
    assert!(violations.iter().all(|v| v.kind() == "trace"), "{violations:?}");
}

#[test]
fn super_nominal_apply_trips_exactly_trace() {
    // 2500 MHz nominal; an applied 2600 MHz is beyond the machine.
    let bad = applied(20 * MILLISECOND, 2600);
    let violations = checker().check(&scenario(), &run(vec![bad.clone()], vec![bad]));
    assert!(!violations.is_empty(), "a super-nominal apply must trip");
    assert!(violations.iter().all(|v| v.kind() == "trace"), "{violations:?}");
}

#[test]
fn event_outside_its_window_trips_exactly_trace() {
    let outside = sleep(END + MILLISECOND, true);
    let violations = checker().check(&scenario(), &run(vec![outside], vec![]));
    assert!(!violations.is_empty(), "an out-of-window event must trip");
    assert!(violations.iter().all(|v| v.kind() == "trace"), "{violations:?}");
}

#[test]
fn energy_reads_disagreeing_inside_one_publication_period_trip_exactly_counters() {
    // PKG_ENERGY_STAT publishes every 1 ms (§VII): two reads of one socket
    // inside one period must agree; reads of another period or another
    // socket need not.
    let mut sc = scenario();
    for (label, socket, at_ns) in [
        ("a", 0, 10 * MILLISECOND + 100),
        ("b", 0, 11 * MILLISECOND - 1),
        ("c", 0, 11 * MILLISECOND),
        ("d", 1, 10 * MILLISECOND + 200),
    ] {
        sc.probe(label, Probe::PkgEnergyMsr(SocketId(socket)), Window::at(at_ns));
    }
    let reads = |b: u64| {
        let mut r = run(vec![], vec![]);
        for (label, counts) in [("a", 5), ("b", b), ("c", 9), ("d", 7)] {
            r.measurements.push((label.to_string(), Measurement::Raw(counts)));
        }
        r
    };
    let violations = checker().check(&sc, &reads(5));
    assert!(violations.is_empty(), "{violations:?}");
    let violations = checker().check(&sc, &reads(6));
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].kind(), "counters");
}

#[test]
fn missing_measurement_is_malformed() {
    let mut bad = run(vec![], vec![]);
    bad.measurements.pop();
    let violations = checker().check(&scenario(), &bad);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].kind(), "malformed");
}

#[test]
fn run_shorter_than_its_scenario_is_malformed() {
    let mut bad = run(vec![], vec![]);
    bad.end_ns = END - 1;
    let violations = checker().check(&scenario(), &bad);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].kind(), "malformed");
}

#[test]
fn injected_faults_on_real_runs_trip_exactly_their_kind() {
    // End-to-end: real generated cases, real runs, one deliberate fault
    // each — the bin's reproducer drill stands on exactly this.
    for (i, fault) in [Fault::Residency, Fault::Trace, Fault::Power].into_iter().enumerate() {
        let case = generate_case(0xC0FFEE, i as u64);
        let mut sys = System::new(case.config.clone(), case.seed);
        let mut run = sys.run_scenario(&case.scenario).expect("generated cases validate");
        assert!(check_case(&case, &run).is_empty(), "clean run must pass");
        inject_fault(&case, &mut run, fault);
        let violations = check_case(&case, &run);
        assert!(!violations.is_empty(), "{fault:?} did not trip");
        assert!(
            violations.iter().all(|v| v.kind() == fault.kind()),
            "{fault:?} tripped foreign invariants: {violations:?}"
        );
    }
}
