//! The checkpoint/resume acceptance guarantee: a sweep interrupted at
//! *any* shard boundary and resumed — under a *different* worker/shard
//! split — produces bit-identical per-case cells to an uninterrupted
//! run.
//!
//! The interrupt points are exhaustive: for every split in
//! workers ∈ {1, 2, 7} × shard sizes ∈ {1, 5, 64}, the sweep is halted
//! after every shard boundary the split produces, the checkpoint file
//! on disk is reloaded, and the run is finished by a session with a
//! different parallelism. Bit-identity is asserted two ways — structural
//! equality of every cell and equality of their exact JSON snapshots.

use std::path::{Path, PathBuf};
use zen2_ee::prelude::*;
use zen2_ee::sim::checkpoint::run_resumable;

/// A 3 × 4 grid of instantaneous power reads — cheap enough to run a
/// few hundred times, rich enough that every cell differs.
fn grid() -> Sweep {
    const LOADS: [u32; 3] = [1, 4, 9];
    Sweep::new("resume-grid", |ix| {
        let mut sc = Scenario::new();
        sc.probe("ac", Probe::AcPowerW, Window::at(20_000));
        let mut at = sc.at(0);
        for t in 0..LOADS[ix[0]] {
            at = at.workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
        }
        (SimConfig::epyc_7502_2s(), sc)
    })
    .seed(0xC0FFEE)
    .axis(Axis::new("busy_threads", LOADS))
    .axis(Axis::new("rep", 0..4))
}

/// A sweep of empty scenarios under `grid`'s root seed, for identity
/// checks: only its label, axes and seeds meet a checkpoint.
fn shape(label: &str) -> Sweep {
    Sweep::new(label, |_| (SimConfig::epyc_7502_2s(), Scenario::new())).seed(0xC0FFEE)
}

/// Runs the grid through `run_resumable`, the resume path every
/// checkpointed experiment module uses, reducing each run to its case's
/// cell (its AC power) and persisting at each shard boundary per
/// `spec`. Returns `None` when the run halted early.
fn run_grid(sweep: &Sweep, session: &Session, spec: &CheckpointSpec) -> Option<Vec<f64>> {
    run_resumable(sweep, session, spec, |_, run: Run| run.watts("ac"))
        .expect("checkpoint loads and saves")
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("zen2-resume-equiv-{tag}-{}", std::process::id()))
}

fn assert_bit_identical(cells: &[f64], baseline: &[f64], context: &str) {
    assert_eq!(cells.len(), baseline.len(), "{context}");
    for (i, (cell, reference)) in cells.iter().zip(baseline).enumerate() {
        assert_eq!(cell, reference, "{context}, cell {i}");
        // Bit-identity, not just comparison equality: the exact
        // snapshots (every f64 rendered with full round-trip precision)
        // must match.
        assert_eq!(cell.to_json_text(), reference.to_json_text(), "{context}, cell {i}");
    }
}

#[test]
fn every_shard_boundary_resumes_bit_identically_across_splits() {
    let sweep = grid();
    let total = sweep.len();
    assert_eq!(total, 12);
    let baseline =
        run_grid(&sweep, &Session::new().workers(1).shard_size(1), &CheckpointSpec::none())
            .expect("uninterrupted run completes");

    for workers in [1usize, 2, 7] {
        for shard in [1usize, 5, 64] {
            let group = workers * shard;
            let boundaries = total.div_ceil(group);
            for halt_after in 1..=boundaries {
                let context = format!("workers {workers} shard {shard} halt {halt_after}");
                let path = tmp(&format!("{workers}-{shard}-{halt_after}"));
                let interrupt_spec =
                    CheckpointSpec { halt_after: Some(halt_after), ..CheckpointSpec::at(&path) };
                let first = run_grid(
                    &sweep,
                    &Session::new().workers(workers).shard_size(shard),
                    &interrupt_spec,
                );
                // Halting at the final boundary completes the grid; any
                // earlier boundary leaves it unfinished.
                assert_eq!(first.is_some(), halt_after * group >= total, "{context}");
                // Resume under a *different* split than the one that
                // wrote the checkpoint.
                let resumed = run_grid(
                    &sweep,
                    &Session::new().workers(3).shard_size(2),
                    &CheckpointSpec::resume_from(&path),
                )
                .expect("resumed run completes");
                std::fs::remove_file(&path).unwrap();
                assert_bit_identical(&resumed, &baseline, &context);
            }
        }
    }
}

#[test]
fn a_checkpoint_survives_two_interruptions() {
    // Interrupt, resume, interrupt the resumed run, resume again: the
    // double-resumed result is still bit-identical.
    let sweep = grid();
    let path = tmp("double");
    let spec =
        |halt| CheckpointSpec { halt_after: halt, resume: true, ..CheckpointSpec::at(&path) };
    let baseline =
        run_grid(&sweep, &Session::new().workers(2).shard_size(3), &CheckpointSpec::none())
            .expect("uninterrupted run completes");
    assert!(run_grid(&sweep, &Session::new().workers(1).shard_size(3), &spec(Some(1))).is_none());
    assert!(run_grid(&sweep, &Session::new().workers(2).shard_size(2), &spec(Some(1))).is_none());
    let resumed = run_grid(&sweep, &Session::new().workers(7).shard_size(64), &spec(None))
        .expect("final resume completes");
    std::fs::remove_file(&path).unwrap();
    assert_bit_identical(&resumed, &baseline, "double interruption");
}

#[test]
fn resume_from_a_mismatched_sweep_is_an_error_not_a_panic() {
    let sweep = grid();
    let path = tmp("mismatch");
    let interrupted = run_grid(
        &sweep,
        &Session::new().workers(1).shard_size(5),
        &CheckpointSpec { halt_after: Some(1), ..CheckpointSpec::at(&path) },
    );
    assert!(interrupted.is_none());
    // A sweep with a different grid shape must be rejected up front.
    let reshaped = shape("resume-grid").axis(Axis::new("rep", 0..5));
    let err = CheckpointSpec::resume_from(&path).load(&reshaped, reshaped.len()).unwrap_err();
    assert!(err.to_string().contains("grid shape"), "{err}");
    // And a rewritten label too.
    let relabeled = grid();
    let relabeled =
        shape("other-grid").axis(relabeled.axes()[0].clone()).axis(relabeled.axes()[1].clone());
    let err = CheckpointSpec::resume_from(&path).load(&relabeled, relabeled.len()).unwrap_err();
    assert!(err.to_string().contains("other-grid"), "{err}");
    std::fs::remove_file(Path::new(&path)).unwrap();
}
