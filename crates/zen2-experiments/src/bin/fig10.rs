//! Regenerates Fig. 10 (operand-Hamming-weight power ECDFs), for both the
//! 256-bit vxorps sweep and the 64-bit shr contrast, through the
//! streaming sweep engine. `--json` emits both summary tables as
//! machine-readable JSON; `--checkpoint <path>` keeps one checkpoint
//! file per kernel (`<path>-vxorps`, `<path>-shr`), so `--resume`
//! re-emits a finished kernel without re-simulating it (see
//! `docs/SWEEPS.md`); `--obs <path>` / `--progress` stream telemetry
//! and live progress without affecting results (see
//! `docs/OBSERVABILITY.md`).
use zen2_experiments::{
    checkpoint_spec_from_args, fig10_hamming as exp, report, session_from_args, spec_for, ObsCli,
    Scale,
};
use zen2_isa::KernelClass;

fn main() {
    let cfg = exp::Config::new(Scale::from_args());
    let usage = |message: String| -> ! {
        eprintln!("fig10: {message}");
        std::process::exit(2);
    };
    let spec = checkpoint_spec_from_args().unwrap_or_else(|m| usage(m));
    let obs = ObsCli::from_args().unwrap_or_else(|m| usage(m));
    let mut session = session_from_args().unwrap_or_else(|m| usage(m));
    let stack = obs.stack().unwrap_or_else(|m| usage(m));
    if let Some(stack) = &stack {
        session = stack.attach(session);
    }
    // Fig. 10 grids are a single case each (the blocks share one
    // machine), so a run can never halt mid-kernel; the result is
    // absent only for a `--shard-range` slice that holds no case.
    let run = |seed, class, name: &str| {
        exp::run_checkpointed(&cfg, seed, class, &session, &spec_for(&spec, name)).unwrap_or_else(
            |error| {
                eprintln!("fig10: {error}");
                std::process::exit(1);
            },
        )
    };
    let vxorps = run(0xF1610, KernelClass::VXorps, "vxorps");
    let shr = run(0xF1611, KernelClass::Shr, "shr");
    if let Some(stack) = &stack {
        if let Err(message) = stack.finish() {
            eprintln!("fig10: {message}");
            std::process::exit(1);
        }
    }
    match (vxorps, shr) {
        (Some(vxorps), Some(shr)) => report::emit(
            || format!("{}{}", exp::render(&vxorps), exp::render(&shr)),
            || exp::tables(&vxorps).into_iter().chain(exp::tables(&shr)).collect(),
        ),
        _ => {
            let shard = spec.shard.expect("single-case fig10 grids cannot halt mid-run");
            eprintln!(
                "fig10: shard {shard} done; merge the range checkpoints \
                 (zen2-fleet) to produce the report"
            );
        }
    }
}
