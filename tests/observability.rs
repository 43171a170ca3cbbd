//! Workspace-level guarantees of the telemetry layer (`zen2-sim::obs`
//! facade + `zen2-obs` sinks): attaching the full sink stack to a
//! session cannot change any result, the JSONL trace it writes is
//! well-formed, and the spans and counters it reports reflect real
//! engine behavior — one boot per case in particular.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use zen2_ee::prelude::*;
use zen2_obs::{Heartbeat, JsonlSink, MemorySink, Multi, SummarySink};
use zen2_sim::obs::{CTR_CASES_DONE, SPAN_BOOT, SPAN_CASE, SPAN_SHARD, SPAN_SWEEP};
use zen2_sim::time::MICROSECOND;

/// A 10 × 8 grid: load levels × reps, one instantaneous power read per
/// case — the same shape the sweep-engine acceptance tests use.
fn grid() -> Sweep {
    let mut base = Scenario::new();
    base.probe("ac", Probe::AcPowerW, Window::at(20 * MICROSECOND));
    let mut load = Axis::new("busy_threads");
    for n in 1..=10u32 {
        load = load.with(format!("{n}"), move |draft| {
            let mut at = draft.scenario.at(0);
            for t in 0..n {
                at = at.workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
            }
        });
    }
    Sweep::new("obs-grid", SimConfig::epyc_7502_2s())
        .scenario(base)
        .seed(0x0B5)
        .axis(load)
        .axis(Axis::param("rep", (0..8).map(f64::from)))
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
