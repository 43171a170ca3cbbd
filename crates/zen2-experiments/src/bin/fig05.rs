//! Regenerates Fig. 5 (I/O-die P-state and DRAM frequency sweep).
//! `--json` emits the summary tables as machine-readable JSON.
fn main() {
    zen2_experiments::main("fig05");
}
