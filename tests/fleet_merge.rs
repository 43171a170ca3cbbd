//! The fleet acceptance guarantee: partitioning a wide-grid experiment
//! into contiguous `--shard-range i/N` slices, running every slice as
//! its own checkpointed run (under varying worker counts), and merging
//! the range checkpoints with `Checkpoint::merge` produces a checkpoint
//! file that is **byte-for-byte identical** to the one a single-process
//! run of the same experiment writes.
//!
//! The battery drives the real experiment modules behind the `fig07`,
//! `fig09`, and `tab1` bins — one grid cell per case — across every
//! partition in shards ∈ {1, 2, 3, 7} × workers ∈ {1, 2, 7}, and then
//! checks the rejection paths: overlapping ranges, gapped ranges, and
//! checkpoints from a different run all fail with their named errors.

use std::path::PathBuf;
use zen2_ee::experiments as exp;
use zen2_ee::prelude::*;

use exp::Scale;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("zen2-fleet-equiv-{tag}-{}", std::process::id()))
}

/// A run of one experiment under a given session and checkpoint spec;
/// returns whether the run completed (a shard slice that does not end
/// the grid reports `None` from the module, i.e. `false` here).
type RunFn<'a> = &'a dyn Fn(&Session, &CheckpointSpec) -> Result<bool, CheckpointError>;

/// The shrunk Fig. 9 grid: the real driver (kernel × placement ×
/// frequency grid, then the idle case) at a fraction of the quick
/// scale's runtime.
fn fig09_cfg() -> exp::fig09_rapl_quality::Config {
    let mut cfg = exp::fig09_rapl_quality::Config::new(Scale::Quick);
    cfg.duration_s = 0.1;
    cfg.placements = vec![(8, false), (64, true)];
    cfg.freqs_mhz = vec![1500, 2500];
    cfg
}

fn fig09_run(seed: u64) -> impl Fn(&Session, &CheckpointSpec) -> Result<bool, CheckpointError> {
    move |session, spec| {
        exp::fig09_rapl_quality::run_checkpointed(&fig09_cfg(), seed, session, spec)
            .map(|r| r.is_some())
    }
}

/// Runs the full partition battery for one experiment: a clean
/// single-process checkpointed run is the baseline; every shard
/// partition, merged in shard order, must reproduce its file exactly.
fn partition_battery(name: &str, run: RunFn) {
    let clean_path = tmp(&format!("{name}-clean"));
    let complete = run(&Session::new().workers(2), &CheckpointSpec::at(&clean_path))
        .expect("clean run checkpoints");
    assert!(complete, "{name}: clean run completes");
    let clean_bytes = std::fs::read_to_string(&clean_path).expect("clean checkpoint exists");
    let total = Checkpoint::load(&clean_path).expect("clean checkpoint loads").total();

    for shards in [1usize, 2, 3, 7] {
        for workers in [1usize, 2, 7] {
            let context = format!("{name}: {shards} shards, {workers} workers");
            let mut merged: Option<Checkpoint> = None;
            for index in 0..shards {
                let range = ShardRange { index, of: shards };
                let path = tmp(&format!("{name}-{shards}-{workers}-{index}"));
                let spec = CheckpointSpec { shard: Some(range), ..CheckpointSpec::at(&path) };
                let complete = run(&Session::new().workers(workers), &spec)
                    .unwrap_or_else(|e| panic!("{context}, shard {index}: {e}"));
                // Only the 1/1 "partition" is a whole run; a real slice
                // always reports unfinished so the bin never prints.
                assert_eq!(complete, shards == 1, "{context}, shard {index}");
                let (lo, hi) = range.bounds(total);
                if lo == hi {
                    assert!(!path.exists(), "{context}: empty shard {index} wrote a file");
                    continue;
                }
                let shard_ck = Checkpoint::load(&path)
                    .unwrap_or_else(|e| panic!("{context}, shard {index}: {e}"));
                std::fs::remove_file(&path).unwrap();
                assert_eq!(shard_ck.covered(), (lo, hi), "{context}, shard {index}");
                match &mut merged {
                    None => merged = Some(shard_ck),
                    Some(into) => into
                        .merge(&shard_ck)
                        .unwrap_or_else(|e| panic!("{context}, shard {index}: {e}")),
                }
            }
            let merged = merged.expect("at least one shard is non-empty");
            assert!(merged.is_complete(), "{context}: merged covers {:?}", merged.covered());
            let merged_path = tmp(&format!("{name}-{shards}-{workers}-merged"));
            merged.save(&merged_path).expect("merged checkpoint saves");
            let merged_bytes = std::fs::read_to_string(&merged_path).unwrap();
            std::fs::remove_file(&merged_path).unwrap();
            assert_eq!(merged_bytes, clean_bytes, "{context}: merged file differs");
        }
    }
    std::fs::remove_file(&clean_path).unwrap();
}

#[test]
fn fig07_partitions_merge_to_the_single_process_checkpoint() {
    let cfg = exp::fig07_idle_power::Config::new(Scale::Quick);
    partition_battery("fig07", &|session, spec| {
        exp::fig07_idle_power::run_checkpointed(&cfg, 6, session, spec).map(|r| r.is_some())
    });
}

#[test]
fn fig09_partitions_merge_to_the_single_process_checkpoint() {
    // Fig. 9 is the widest grid: three axes, so every partition cuts
    // through the workload × placement × frequency row order.
    partition_battery("fig09", &fig09_run(8));
}

#[test]
fn tab1_partitions_merge_to_the_single_process_checkpoint() {
    let cfg = exp::tab1_mixed_freq::Config::new(Scale::Quick);
    partition_battery("tab1", &|session, spec| {
        exp::tab1_mixed_freq::run_checkpointed(&cfg, 2, session, spec).map(|r| r.is_some())
    });
}

#[test]
fn merge_rejects_overlap_gap_and_foreign_shards() {
    // Real shard files from the fig09 driver, cut two different ways.
    let run = fig09_run(8);
    let shard_file = |tag: &str, range: ShardRange| -> PathBuf {
        let path = tmp(&format!("reject-{tag}"));
        let spec = CheckpointSpec { shard: Some(range), ..CheckpointSpec::at(&path) };
        run(&Session::new().workers(2), &spec).expect("shard run checkpoints");
        path
    };
    let thirds: Vec<PathBuf> = (0..3)
        .map(|index| shard_file(&format!("3-{index}"), ShardRange { index, of: 3 }))
        .collect();
    let half = shard_file("2-0", ShardRange { index: 0, of: 2 });
    // A checkpoint from a *different run*: same grid shape, other seed.
    let foreign = {
        let path = tmp("reject-foreign");
        let spec = CheckpointSpec {
            shard: Some(ShardRange { index: 1, of: 3 }),
            ..CheckpointSpec::at(&path)
        };
        fig09_run(9)(&Session::new().workers(2), &spec).expect("foreign shard checkpoints");
        path
    };
    let load = |path: &PathBuf| Checkpoint::load(path).expect("shard file loads");

    // Gap: shards 0/3 and 2/3 leave 1/3's cases unfolded.
    let err = load(&thirds[0]).merge(&load(&thirds[2])).unwrap_err();
    assert!(matches!(err, CheckpointError::RangeGap(_)), "{err}");
    assert!(err.to_string().contains("gap"), "{err}");

    // Overlap: shard 0/3 and shard 0/2 both folded the grid's front.
    let err = load(&thirds[0]).merge(&load(&half)).unwrap_err();
    assert!(matches!(err, CheckpointError::RangeOverlap(_)), "{err}");
    assert!(err.to_string().contains("overlap"), "{err}");

    // Foreign: an adjacent range from a different seed is caught by the
    // grid fingerprint before any state is touched.
    let mut target = load(&thirds[0]);
    let before = target.covered();
    let err = target.merge(&load(&foreign)).unwrap_err();
    assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    assert!(err.to_string().contains("different run"), "{err}");
    assert_eq!(target.covered(), before, "failed merge must not touch the target");

    // And the happy path on the very same files still closes the grid.
    let mut merged = load(&thirds[0]);
    merged.merge(&load(&thirds[1])).expect("adjacent thirds merge");
    merged.merge(&load(&thirds[2])).expect("final third merges");
    assert!(merged.is_complete());
    for path in thirds.iter().chain([&half, &foreign]) {
        std::fs::remove_file(path).unwrap();
    }
}
