//! The sweep engine's acceptance guarantees: a 10^4-case grid streams
//! through `Sweep::stream` with peak resident cases bounded by
//! `workers × shard_size`, and its aggregated statistics are identical
//! to a materialized `Session::run` of the same grid.

use std::cell::Cell;
use zen2_ee::prelude::*;
use zen2_sim::checkpoint::run_resumable;
use zen2_sim::stats::TransitionStats;
use zen2_sim::time::{MICROSECOND, MILLISECOND};

/// One instantaneous power read shortly after `busy` threads start
/// spinning.
fn load_scenario(busy: u32) -> Scenario {
    let mut sc = Scenario::new();
    sc.probe("ac", Probe::AcPowerW, Window::at(20 * MICROSECOND));
    let mut at = sc.at(0);
    for t in 0..busy {
        at = at.workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
    }
    sc
}

/// A load-level × rep grid: `busy_threads` 1..=10, `reps` seeds each.
fn load_grid(label: &str, seed: u64, reps: u32) -> Sweep {
    Sweep::new(label, |ix| (SimConfig::epyc_7502_2s(), load_scenario(ix[0] as u32 + 1)))
        .seed(seed)
        .axis(Axis::new("busy_threads", 1..=10))
        .axis(Axis::new("rep", 0..reps))
}

/// A 10^4-point grid: 10 load levels × 1000 seeds, one instantaneous
/// power read per case shortly after the load lands.
fn grid() -> Sweep {
    load_grid("grid10k", 0xABCD, 1000)
}

#[test]
fn ten_thousand_case_sweep_has_bounded_residency_and_materialized_identical_stats() {
    let sweep = grid();
    assert_eq!(sweep.len(), 10_000);

    let (workers, shard) = (4, 8);
    let created = Cell::new(0usize);
    let delivered = Cell::new(0usize);
    let peak = Cell::new(0usize);
    let lazy_cases = sweep.cases().inspect(|_| {
        created.set(created.get() + 1);
        peak.set(peak.get().max(created.get() - delivered.get()));
    });

    let mut streamed = OnlineStats::new();
    let session = Session::new().workers(workers).shard_size(shard);
    let n = session
        .run_streaming(lazy_cases, |_, run| {
            delivered.set(delivered.get() + 1);
            streamed.push(run.watts("ac"));
        })
        .unwrap();
    assert_eq!(n, 10_000);
    assert!(
        peak.get() <= workers * shard,
        "peak resident cases {} exceeds workers × shard_size = {}",
        peak.get(),
        workers * shard
    );

    // The same grid, fully materialized through `Session::run`, reduces
    // to bit-identical statistics.
    let cases: Vec<Case> = sweep.cases().collect();
    let runs = Session::new().run(&cases).unwrap();
    let mut materialized = OnlineStats::new();
    for run in &runs {
        materialized.push(run.watts("ac"));
    }
    assert_eq!(streamed, materialized);
    assert_eq!(streamed.count(), 10_000);
    // Sanity on the numbers themselves: a loaded machine draws more
    // than the idle floor and the spread over placements is real.
    assert!(streamed.min() > 90.0);
    assert!(streamed.max() > streamed.min());
}

/// A 10 × 25 grid for grouped-aggregation tests: load levels × seeds,
/// with an instantaneous power read per case.
fn grouped_grid() -> Sweep {
    load_grid("grouped", 0x6789, 25)
}

#[test]
fn grouped_stats_are_invariant_across_worker_and_shard_splits() {
    // The per-axis-bucket reduction must be bit-identical for any
    // worker/shard split: same groups, same labels, same statistics.
    let sweep = grouped_grid();
    let reduce = |workers: usize, shard: usize| {
        let mut by_load: GroupedStats<OnlineStats> = GroupedStats::new(&sweep, &["busy_threads"]);
        let session = Session::new().workers(workers).shard_size(shard);
        sweep.stream(&session, |i, run| by_load.entry(i).push(run.watts("ac"))).unwrap();
        by_load
    };
    let reference = reduce(1, 1);
    assert_eq!(reference.len(), 10);
    for (labels, stats) in reference.rows() {
        assert_eq!(labels.len(), 1);
        assert_eq!(stats.count(), 25, "load {labels:?}");
    }
    // More load draws more power, group by group.
    let means: Vec<f64> = reference.rows().map(|(_, s)| s.mean()).collect();
    assert!(means.windows(2).all(|w| w[0] < w[1]), "means not monotone: {means:?}");
    for workers in [1, 2, 7] {
        for shard in [1, 5, 64] {
            assert_eq!(reduce(workers, shard), reference, "workers {workers} shard {shard}");
        }
    }
}

#[test]
fn zero_case_grid_streams_nothing_and_grouped_stats_stay_empty() {
    // An axis with no values empties the whole grid: the stream
    // delivers zero runs and the grouped reducer has no rows.
    let sweep = grouped_grid().axis(Axis::new("empty", Vec::<&str>::new()));
    assert!(sweep.is_empty());
    let mut grouped: GroupedStats<OnlineStats> = GroupedStats::new(&sweep, &["busy_threads"]);
    let delivered = sweep
        .stream(&Session::new().workers(3).shard_size(4), |i, _| {
            grouped.entry(i);
        })
        .unwrap();
    assert_eq!(delivered, 0);
    assert!(grouped.is_empty());
    assert_eq!(grouped.rows().count(), 0);
    assert_eq!(grouped.get(&["1"]), None);
}

#[test]
fn take_range_never_derives_cases_past_the_shard() {
    // The engine fetches a full workers × shard_size group from the
    // lazy case iterator before looking at what arrived; `take_range`
    // bounds the tail of the grid as well as its front, so a shard never
    // derives a case past its range's end. Counted with the same Cell
    // pattern as the residency test above.
    let sweep = grouped_grid(); // 250 cases
    let session = Session::new().workers(4).shard_size(8); // 32-case group pulls

    // take_range derives exactly the shard's ten cases — the group pull
    // stops at the slice's end.
    let created = Cell::new(0usize);
    let bounded = sweep.take_range(10, 10).inspect(|_| created.set(created.get() + 1));
    let delivered = session.run_streaming(bounded, |_, _| {}).unwrap();
    assert_eq!(created.get(), 10);
    assert_eq!(delivered, 10);

    // The resumable driver runs shard 1 of 25 — cases 10..20 — with
    // their global indices, and cuts its one checkpoint at 20.
    let path = std::env::temp_dir().join(format!("zen2-take-range-{}", std::process::id()));
    let spec = CheckpointSpec {
        shard: Some(ShardRange { index: 1, of: 25 }),
        ..CheckpointSpec::at(&path)
    };
    let mut indices = Vec::new();
    let cells = run_resumable(&sweep, &session, &spec, |index, _| {
        indices.push(index);
        index as f64
    })
    .unwrap();
    let checkpoint = Checkpoint::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(cells, None, "a shard never completes the whole run");
    assert_eq!(indices, (10..20).collect::<Vec<_>>());
    assert_eq!(checkpoint.covered(), (10, 20));
    let expected: Vec<f64> = (10..20).map(|i| i as f64).collect();
    assert_eq!(checkpoint.cells::<f64>().unwrap(), expected);

    // Both ends clamp to the grid.
    assert_eq!(sweep.take_range(245, 32).count(), 5);
    assert_eq!(sweep.take_range(260, 4).count(), 0);
}

/// A small sweep whose scenario switches frequencies, so the trace
/// reductions have transitions and residencies to chew on.
fn dvfs_sweep() -> Sweep {
    let mut base = Scenario::new();
    base.at(0)
        .workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF)
        .pstate(ThreadId(0), 2200)
        .pstate(ThreadId(1), 2200);
    base.at(20 * MILLISECOND).pstate(ThreadId(0), 1500).pstate(ThreadId(1), 1500);
    base.probe(
        "freq_events",
        Probe::TraceEvents(EventFilter::Freq(CoreId(0))),
        Window::span(0, 50 * MILLISECOND),
    );
    Sweep::new("dvfs", move |_| (SimConfig::epyc_7502_2s(), base.clone()))
        .seed(7)
        .axis(Axis::new("rep", 0..6))
}

#[test]
fn trace_reductions_accumulate_over_a_streamed_sweep() {
    let sweep = dvfs_sweep();
    let mut residency = FreqResidency::new();
    let mut transitions = TransitionStats::new();
    let session = Session::new().workers(2).shard_size(2);
    let n = sweep
        .stream(&session, |_, run| {
            let records = run.events("freq_events");
            residency.observe(records, 0, 50 * MILLISECOND);
            transitions.observe(records);
        })
        .unwrap();
    assert_eq!(n, 6);

    // Every run contributes its full window to the histogram.
    assert_eq!(residency.total_ns(), 6 * 50 * MILLISECOND);
    // The 2200 → 1500 switch lands at 20 ms + SMU grant/ramp, so the
    // core spends roughly 20/50 of the window at 2200 and the rest at
    // 1500 (the lead-in before the first application is unknown).
    assert!(residency.residency()[&2200] > residency.unknown_ns());
    assert!(residency.residency()[&1500] > residency.residency()[&2200]);
    assert!((residency.share(1500) - 0.6).abs() < 0.05, "share {}", residency.share(1500));

    // Two completed transitions per run (boot → 2200, 2200 → 1500),
    // each granted at a 1 ms SMU slot and ramped in well under 2 ms.
    assert_eq!(transitions.completed(), 12);
    assert_eq!(transitions.latency_ns().count(), 12);
    assert!(transitions.latency_ns().max() < 2.0 * MILLISECOND as f64);

    // The reductions are worker- and shard-invariant, bit for bit.
    let mut invariant = FreqResidency::new();
    let mut invariant_tr = TransitionStats::new();
    sweep
        .stream(&Session::new().workers(7).shard_size(1), |_, run| {
            let records = run.events("freq_events");
            invariant.observe(records, 0, 50 * MILLISECOND);
            invariant_tr.observe(records);
        })
        .unwrap();
    assert_eq!(residency, invariant);
    assert_eq!(transitions, invariant_tr);
}
