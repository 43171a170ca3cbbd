//! Workspace-level guarantees of the telemetry layer (`zen2-sim::obs`
//! facade + `zen2-obs` sinks): attaching the full sink stack to a
//! session cannot change any result, the JSONL trace it writes is
//! well-formed, and the spans and counters it reports reflect real
//! engine behavior — one boot per case in particular.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use zen2_ee::prelude::*;
use zen2_obs::{Heartbeat, JsonlSink, MemorySink, Multi, SummarySink, Value};
use zen2_sim::obs::{
    CTR_CASES_DONE, CTR_POWER_FULL_EVALUATIONS, CTR_PPT_FALLBACK_SLOTS, CTR_PPT_HELD_LOOP_SLOTS,
    CTR_PPT_PROOFS, CTR_PPT_PROOF_SLOTS, SPAN_BOOT, SPAN_CASE, SPAN_CHECKPOINT, SPAN_SHARD,
    SPAN_SWEEP,
};
use zen2_sim::time::MICROSECOND;

/// A 10 × 8 grid: load levels × reps, one instantaneous power read per
/// case — the same shape the sweep-engine acceptance tests use.
fn grid() -> Sweep {
    Sweep::new("obs-grid", |ix| {
        let mut sc = Scenario::new();
        sc.probe("ac", Probe::AcPowerW, Window::at(20 * MICROSECOND));
        let mut at = sc.at(0);
        for t in 0..=ix[0] as u32 {
            at = at.workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
        }
        (SimConfig::epyc_7502_2s(), sc)
    })
    .seed(0x0B5)
    .axis(Axis::new("busy_threads", 1..=10))
    .axis(Axis::new("rep", 0..8))
}

/// Every watt reading of a streamed run of `session`, as exact bits.
fn watt_bits(session: &Session, sweep: &Sweep) -> Vec<u64> {
    let mut bits = Vec::new();
    session
        .run_streaming(sweep.cases(), |_, run| bits.push(run.watts("ac").to_bits()))
        .expect("sweep validates");
    bits
}

/// A scratch path unique to this process (no wall-clock naming: the
/// `no-wallclock` lint covers this file too).
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("zen2-obs-test-{}-{tag}.jsonl", std::process::id()))
}

#[test]
fn results_are_byte_identical_with_the_full_sink_stack_attached() {
    let sweep = grid();
    let reference = watt_bits(&Session::new().workers(1).shard_size(1), &sweep);
    assert_eq!(reference.len(), 80);

    for workers in [1usize, 2, 7] {
        for shard in [1usize, 5, 64] {
            let bare = Session::new().workers(workers).shard_size(shard);
            let plain = watt_bits(&bare, &sweep);

            let trace = scratch(&format!("{workers}-{shard}"));
            let jsonl = Arc::new(JsonlSink::create(&trace).expect("create trace file"));
            let stack = Multi::new(vec![
                jsonl.clone(),
                Arc::new(SummarySink::new()),
                Arc::new(Heartbeat::every_ns(u64::MAX)),
                Arc::new(MemorySink::new()),
            ]);
            let observed_session = bare.recorder(Arc::new(stack));
            let observed = watt_bits(&observed_session, &sweep);
            jsonl.finish().expect("flush trace");
            fs::remove_file(&trace).expect("remove scratch trace");

            assert_eq!(plain, reference, "workers {workers} shard {shard}: bare run drifted");
            assert_eq!(observed, reference, "workers {workers} shard {shard}: telemetry leaked");
        }
    }
}

#[test]
fn jsonl_trace_is_one_wellformed_object_per_line() {
    let sweep = grid();
    let trace = scratch("wellformed");
    let jsonl = Arc::new(JsonlSink::create(&trace).expect("create trace file"));
    let session = Session::new().workers(3).shard_size(4).recorder(jsonl.clone());
    session.run_streaming(sweep.cases(), |_, _| {}).expect("sweep validates");
    jsonl.finish().expect("flush trace");

    let text = fs::read_to_string(&trace).expect("read trace");
    fs::remove_file(&trace).expect("remove scratch trace");
    let mut opens = 0usize;
    let mut closes = 0usize;
    let mut lines = 0usize;
    for line in text.lines() {
        lines += 1;
        let v = Json::parse(line).unwrap_or_else(|e| panic!("line {lines} not JSON ({e}): {line}"));
        let kind = v.get("e").and_then(Json::as_str).expect("every line has a kind");
        v.get("t").and_then(|t| t.as_u64()).expect("every line has a timestamp");
        match kind {
            "span_open" => opens += 1,
            "span_close" => closes += 1,
            _ => {}
        }
    }
    assert!(lines > 80, "a full run leaves a real trace, got {lines} lines");
    assert_eq!(opens, closes, "a completed run closes every span it opens");
}

#[test]
fn every_case_boots_its_own_machine_under_the_documented_span_shape() {
    // Seven pair-shards over six configs (the first one returning at
    // the end), then a shard of two configs used once: whether a config
    // is shared, returning, or solo, every case boots a fresh machine.
    let mut scenario = Scenario::new();
    scenario.probe("ac", Probe::AcPowerW, Window::at(20 * MICROSECOND));
    let config_nr = |i: usize| {
        let mut c = SimConfig::epyc_7502_2s();
        c.controller.deadband_w += i as f64;
        c
    };
    let case = |i: usize, tag: &str| {
        Case::new(format!("mixed/{i}/{tag}"), config_nr(i), scenario.clone(), 1)
    };
    let mut cases = Vec::new();
    for i in [0usize, 1, 2, 3, 4, 5, 0] {
        cases.push(case(i, "a"));
        cases.push(case(i, "b"));
    }
    cases.push(case(6, "solo"));
    cases.push(case(7, "solo"));

    let sink = Arc::new(MemorySink::new());
    let session = Session::new().workers(1).shard_size(2).recorder(sink.clone());
    let n = session.run_streaming(cases, |_, _| {}).expect("cases validate");
    assert_eq!(n, 16);
    assert_eq!(sink.counter_total(CTR_CASES_DONE), 16);

    // The span stream has the documented shape: one sweep root, a
    // shard per pull, a case per case, and one boot under every case.
    assert_eq!(sink.span_count(SPAN_SWEEP), 1);
    assert_eq!(sink.span_count(SPAN_SHARD), 8);
    assert_eq!(sink.span_count(SPAN_CASE), 16);
    assert_eq!(sink.span_count(SPAN_BOOT), 16);
    assert_eq!(sink.span_count(SPAN_CHECKPOINT), 0, "a plain stream saves nothing");
    let records = sink.records();
    let case_ids: Vec<u64> = records
        .iter()
        .filter_map(|r| match r {
            zen2_obs::Record::SpanOpen { id, name, .. } if *name == SPAN_CASE => Some(*id),
            _ => None,
        })
        .collect();
    let boot_parents: Vec<u64> = records
        .iter()
        .filter_map(|r| match r {
            zen2_obs::Record::SpanOpen { parent, name, .. } if *name == SPAN_BOOT => *parent,
            _ => None,
        })
        .collect();
    assert_eq!(boot_parents, case_ids, "one boot under each case, in case order");
}

#[test]
fn case_spans_record_which_cases_keep_rapl_accounting() {
    // A Fig. 7-style case (active pause threads at a lowered P-state,
    // mean AC power) reads no RAPL counter; its twin adds a RAPL probe.
    let mut fig07 = Scenario::new();
    let mut at = fig07.at(0);
    for t in (0..8u32).map(ThreadId) {
        at = at.pstate(t, 1500).pstate(ThreadId(t.0 ^ 1), 1500).workload(
            t,
            KernelClass::Pause,
            OperandWeight::HALF,
        );
    }
    fig07.probe("ac", Probe::AcTrueMeanW, Window::span_secs(0.05, 0.25));
    let mut with_rapl = fig07.clone();
    with_rapl.probe("rapl", Probe::RaplW, Window::span_secs(0.05, 0.25));
    let cfg = SimConfig::epyc_7502_2s();
    let cases = vec![
        Case::new("fig07-style", cfg.clone(), fig07, 7),
        Case::new("with-rapl", cfg, with_rapl, 7),
    ];

    let sink = Arc::new(MemorySink::new());
    let runs =
        Session::new().workers(1).recorder(sink.clone()).run(&cases).expect("cases validate");
    let flags: Vec<(String, bool)> = sink
        .records()
        .iter()
        .filter_map(|r| match r {
            zen2_obs::Record::SpanOpen { name, attrs, .. } if *name == SPAN_CASE => {
                let attr = |key: &str| attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
                match (attr("label"), attr("rapl_accounting")) {
                    (Some(Value::Str(label)), Some(Value::Bool(keeps))) => {
                        Some((label.clone(), *keeps))
                    }
                    other => panic!("case span without label or rapl_accounting: {other:?}"),
                }
            }
            _ => None,
        })
        .collect();
    assert_eq!(flags, [("fig07-style".to_string(), false), ("with-rapl".to_string(), true)]);

    // Either way the session's run is the direct run, which keeps its
    // accounting, bit for bit.
    for (case, run) in cases.iter().zip(&runs) {
        let direct = System::new(case.config.clone(), case.seed)
            .run_scenario(&case.scenario)
            .expect("scenario validates");
        assert_eq!(&direct, run, "{}", case.label);
    }
    assert_eq!(runs[0].watts("ac").to_bits(), runs[1].watts("ac").to_bits());
}

#[test]
fn case_spans_record_which_cases_keep_performance_counters() {
    // A Fig. 7-style case (active pause threads at a lowered P-state,
    // mean AC power) reads no performance counter; its twin reads one
    // thread's counters over the same window.
    let mut fig07 = Scenario::new();
    let mut at = fig07.at(0);
    for t in (0..8u32).map(ThreadId) {
        at = at.pstate(t, 1500).pstate(ThreadId(t.0 ^ 1), 1500).workload(
            t,
            KernelClass::Pause,
            OperandWeight::HALF,
        );
    }
    let window = Window::span_secs(0.05, 0.25);
    fig07.probe("ac", Probe::AcTrueMeanW, window);
    let mut with_counters = fig07.clone();
    with_counters.probe("perf", Probe::CounterDelta(ThreadId(0)), window);
    let cfg = SimConfig::epyc_7502_2s();
    let cases = vec![
        Case::new("fig07-style", cfg.clone(), fig07, 7),
        Case::new("with-counters", cfg, with_counters, 7),
    ];

    let sink = Arc::new(MemorySink::new());
    let runs =
        Session::new().workers(1).recorder(sink.clone()).run(&cases).expect("cases validate");
    let records = sink.records();
    let flags: Vec<(String, bool)> = records
        .iter()
        .filter_map(|r| match r {
            zen2_obs::Record::SpanOpen { name, attrs, .. } if *name == SPAN_CASE => {
                let attr = |key: &str| attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
                match (attr("label"), attr("counters")) {
                    (Some(Value::Str(label)), Some(Value::Bool(keeps))) => {
                        Some((label.clone(), *keeps))
                    }
                    other => panic!("case span without label or counters: {other:?}"),
                }
            }
            _ => None,
        })
        .collect();
    assert_eq!(flags, [("fig07-style".to_string(), false), ("with-counters".to_string(), true)]);

    // Either way the session's run is the direct run, which keeps its
    // counters, bit for bit.
    for (case, run) in cases.iter().zip(&runs) {
        let direct = System::new(case.config.clone(), case.seed)
            .run_scenario(&case.scenario)
            .expect("scenario validates");
        assert_eq!(&direct, run, "{}", case.label);
    }
    assert_eq!(runs[0].watts("ac").to_bits(), runs[1].watts("ac").to_bits());

    // Far below PPT, each case's PPT loop proves its hold per package
    // after every full power evaluation (the load starting, its P-state
    // ramps landing) and decides every one of its 250 slots by proof.
    let total = |counter: &str| -> u64 {
        records
            .iter()
            .filter_map(|r| match r {
                zen2_obs::Record::Counter { name, delta } if *name == counter => Some(*delta),
                _ => None,
            })
            .sum()
    };
    assert!(total(CTR_PPT_PROOFS) >= 2 * 2);
    assert_eq!(total(CTR_PPT_PROOF_SLOTS), 2 * 2 * 250);
    assert_eq!(total(CTR_PPT_FALLBACK_SLOTS), 0);
    // Each case evaluates power in full twice at boot, once for its tick
    // (its P-state requests leave the tick's workloads staged) and once
    // when its ramps land.
    assert_eq!(total(CTR_POWER_FULL_EVALUATIONS), 2 * 4);
    // Only the case without counters runs held slots in the held loop:
    // all 250 but the two whose ends make its proofs.
    assert_eq!(total(CTR_PPT_HELD_LOOP_SLOTS), 248);
}
