//! Regenerates Fig. 9 (RAPL quality vs the AC reference) through the
//! streaming sweep engine. `--json` emits the scatter table as
//! machine-readable JSON; `--checkpoint <path>` / `--resume` make the
//! grid interruptible (see `docs/SWEEPS.md`); `--obs <path>` /
//! `--progress` stream telemetry and live progress without affecting
//! results (see `docs/OBSERVABILITY.md`).
fn main() {
    zen2_experiments::main("fig09");
}
