//! Runs the many-core throttling prediction (paper SS VIII future work)
//! through the streaming sweep engine. `--json` emits the summary
//! tables as machine-readable JSON; `--checkpoint <path>` / `--resume`
//! make the grid interruptible (see `docs/SWEEPS.md`); `--obs <path>` /
//! `--progress` stream telemetry and live progress without affecting
//! results (see `docs/OBSERVABILITY.md`).
fn main() {
    zen2_experiments::main("ext_manycore");
}
