//! Regenerates Fig. 10 (operand-Hamming-weight power ECDFs), for both the
//! 256-bit vxorps sweep and the 64-bit shr contrast, through the
//! streaming sweep engine. `--json` emits both summary tables as
//! machine-readable JSON; `--checkpoint <path>` keeps one checkpoint
//! file per kernel (`<path>-vxorps`, `<path>-shr`), so `--resume`
//! re-emits a finished kernel without re-simulating it (see
//! `docs/SWEEPS.md`); `--obs <path>` / `--progress` stream telemetry
//! and live progress without affecting results (see
//! `docs/OBSERVABILITY.md`).
fn main() {
    zen2_experiments::main("fig10");
}
