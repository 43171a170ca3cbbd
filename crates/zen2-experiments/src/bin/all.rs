//! Runs every experiment and prints the full paper-vs-measured report.
//! Pass `--paper` for the paper's full sample counts (slow); `--json`
//! emits every experiment's summary tables as one machine-readable
//! JSON array (text mode still prints each report as it completes).
//!
//! `--checkpoint <prefix>` / `--resume` make the wide-grid experiments
//! interruptible: each keeps its own file (`<prefix>-fig06`,
//! `<prefix>-fig09`, …), so a killed `--paper` suite resumed with the
//! same flags re-runs only the unfinished grid and re-emits the
//! finished ones from their checkpoints (see `docs/SWEEPS.md`; the
//! single-binary testing aid `--halt-after` is not supported here).
//!
//! `--progress` prints a per-experiment banner plus heartbeat lines
//! (`done/total … cases/s … eta`) on stderr, so a long `--paper` run is
//! never silent; `--obs <path>` additionally writes one shared JSONL
//! telemetry trace covering every sweep and prints an aggregate summary
//! table at the end (see `docs/OBSERVABILITY.md`). Neither flag can
//! change results.
use zen2_experiments as e;
use zen2_experiments::report::{tables_to_json, Table};
use zen2_experiments::{checkpoint_spec_from_args, session_from_args, spec_for, ObsCli, Scale};
use zen2_isa::KernelClass;
use zen2_sim::CheckpointError;

/// Unwraps a wide grid's checkpointed outcome. A `--shard-range` run
/// only folds its slice of cases into the range checkpoint, so it yields
/// no result; a whole run always does, since `all` never passes
/// `--halt-after` through. A checkpoint failure ends the suite.
fn wide<R>(name: &str, shard: bool, outcome: Result<Option<R>, CheckpointError>) -> Option<R> {
    match outcome {
        Ok(_) if shard => None,
        Ok(None) => unreachable!("`all` does not propagate --halt-after"),
        Ok(result) => result,
        Err(error) => {
            eprintln!("all: {name}: {error}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let scale = Scale::from_args();
    let json = std::env::args().any(|a| a == "--json");
    let usage = |message: String| -> ! {
        eprintln!("all: {message}");
        std::process::exit(2);
    };
    let ckpt = checkpoint_spec_from_args().unwrap_or_else(|m| usage(m));
    let obs = ObsCli::from_args().unwrap_or_else(|m| usage(m));
    let mut session = session_from_args().unwrap_or_else(|m| usage(m));
    let stack = obs.stack().unwrap_or_else(|m| usage(m));
    if let Some(stack) = &stack {
        session = stack.attach(session);
    }
    // With --progress a long suite is never silent: each experiment
    // announces itself on stderr, and the wide grids stream heartbeat
    // lines through the shared sink stack while they run.
    let announce = |name: &str| {
        if obs.progress {
            eprintln!("all: running {name}");
        }
    };
    // Fleet mode: a `--shard-range` run folds only the wide grids' slice
    // of cases into their range checkpoints — no header, no narrow
    // experiments, no report. `zen2-fleet` merges the shards and re-runs
    // `all` (without a shard) to emit the full suite.
    let shard = ckpt.shard.is_some();
    // In text mode each experiment's report prints as soon as it
    // finishes (a --paper run takes a while); --json collects every
    // table and emits one array at the end.
    let mut tables: Vec<Table> = Vec::new();
    let mut emit = |text: String, mut experiment_tables: Vec<Table>| {
        if json {
            tables.append(&mut experiment_tables);
        } else {
            print!("{text}");
        }
    };

    if !shard {
        if !json {
            println!("=== zen2-ee: full experiment suite ({scale:?} scale) ===\n");
        }
        announce("fig01");
        let fig01 = e::fig01_green500::run();
        emit(e::fig01_green500::render(&fig01), e::fig01_green500::tables(&fig01));
        announce("fig03");
        let fig03 = e::fig03_transition::run(&e::fig03_transition::Config::fig3(scale), 1);
        emit(e::fig03_transition::render(&fig03), e::fig03_transition::tables(&fig03));
    }
    announce("tab1");
    let tab1 = e::tab1_mixed_freq::Config::new(scale);
    let tab1 = e::tab1_mixed_freq::run_checkpointed(&tab1, 2, &session, &spec_for(&ckpt, "tab1"));
    if let Some(tab1) = wide("tab1", shard, tab1) {
        emit(e::tab1_mixed_freq::render(&tab1), e::tab1_mixed_freq::tables(&tab1));
    }
    if !shard {
        announce("fig04");
        let fig04 = e::fig04_l3_latency::run(&e::fig04_l3_latency::Config::new(scale), 3);
        emit(e::fig04_l3_latency::render(&fig04), e::fig04_l3_latency::tables(&fig04));
        announce("fig05");
        let fig05 = e::fig05_membw::run(4);
        emit(e::fig05_membw::render(&fig05), e::fig05_membw::tables(&fig05));
    }
    announce("fig06");
    let fig06 = e::fig06_firestarter::Config::new(scale);
    let fig06 =
        e::fig06_firestarter::run_checkpointed(&fig06, 5, &session, &spec_for(&ckpt, "fig06"));
    if let Some(fig06) = wide("fig06", shard, fig06) {
        emit(e::fig06_firestarter::render(&fig06), e::fig06_firestarter::tables(&fig06));
    }
    announce("fig07");
    let fig07 = e::fig07_idle_power::Config::new(scale);
    let fig07 =
        e::fig07_idle_power::run_checkpointed(&fig07, 6, &session, &spec_for(&ckpt, "fig07"));
    if let Some(fig07) = wide("fig07", shard, fig07) {
        emit(e::fig07_idle_power::render(&fig07), e::fig07_idle_power::tables(&fig07));
    }
    if !shard {
        announce("fig08");
        let fig08 = e::fig08_wakeup::run(&e::fig08_wakeup::Config::new(scale), 7);
        emit(e::fig08_wakeup::render(&fig08), e::fig08_wakeup::tables(&fig08));
    }
    announce("fig09");
    let fig09 = e::fig09_rapl_quality::Config::new(scale);
    let fig09 =
        e::fig09_rapl_quality::run_checkpointed(&fig09, 8, &session, &spec_for(&ckpt, "fig09"));
    if let Some(fig09) = wide("fig09", shard, fig09) {
        emit(e::fig09_rapl_quality::render(&fig09), e::fig09_rapl_quality::tables(&fig09));
    }
    let f10 = e::fig10_hamming::Config::new(scale);
    for (name, seed, class) in
        [("fig10-vxorps", 9, KernelClass::VXorps), ("fig10-shr", 10, KernelClass::Shr)]
    {
        announce(name);
        let fig10 =
            e::fig10_hamming::run_checkpointed(&f10, seed, class, &session, &spec_for(&ckpt, name));
        if let Some(fig10) = wide(name, shard, fig10) {
            emit(e::fig10_hamming::render(&fig10), e::fig10_hamming::tables(&fig10));
        }
    }
    if !shard {
        announce("sec5a");
        let sec5a = e::sec5a_sibling::run(11);
        emit(e::sec5a_sibling::render(&sec5a), e::sec5a_sibling::tables(&sec5a));
        announce("sec6b");
        let sec6b = e::sec6b_offline::run(12);
        emit(e::sec6b_offline::render(&sec6b), e::sec6b_offline::tables(&sec6b));
        announce("sec7");
        let sec7 = e::sec7_update_rate::run(&e::sec7_update_rate::Config::default(), 13);
        emit(e::sec7_update_rate::render(&sec7), e::sec7_update_rate::tables(&sec7));
    }
    announce("ext_manycore");
    let manycore = e::ext_manycore::Config::new(scale);
    let manycore = e::ext_manycore::run_checkpointed(
        &manycore,
        14,
        &session,
        &spec_for(&ckpt, "ext_manycore"),
    );
    if let Some(manycore) = wide("ext_manycore", shard, manycore) {
        emit(e::ext_manycore::render(&manycore), e::ext_manycore::tables(&manycore));
    }
    if !shard {
        announce("ext_cstate_breakeven");
        let breakeven = e::ext_cstate_breakeven::run(15);
        let text = e::ext_cstate_breakeven::render(&breakeven);
        emit(text, e::ext_cstate_breakeven::tables(&breakeven));
    }

    if let Some(stack) = &stack {
        if let Err(message) = stack.finish() {
            eprintln!("all: {message}");
            std::process::exit(1);
        }
    }
    if let Some(shard) = ckpt.shard {
        eprintln!(
            "all: shard {shard} of the wide grids done; merge the range \
             checkpoints (zen2-fleet) to produce the report"
        );
    } else if json {
        println!("{}", tables_to_json(&tables));
    }
}
