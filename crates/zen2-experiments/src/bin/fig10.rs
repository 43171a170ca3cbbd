//! Regenerates Fig. 10 (operand-Hamming-weight power ECDFs), for both the
//! 256-bit vxorps sweep and the 64-bit shr contrast, as one two-case grid
//! through the streaming sweep engine, so the two kernels share the
//! worker pool. `--json` emits both summary tables as machine-readable
//! JSON; `--checkpoint <path>` keeps one checkpoint file for both, so
//! `--resume` re-emits a finished kernel without re-simulating it and
//! `--halt-after` can stop between them (see `docs/SWEEPS.md`);
//! `--obs <path>` / `--progress` stream telemetry and live progress
//! without affecting results (see `docs/OBSERVABILITY.md`).
fn main() {
    zen2_experiments::main("fig10");
}
