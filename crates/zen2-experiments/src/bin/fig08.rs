//! Regenerates Fig. 8 (C-state wakeup latencies).
//! `--json` emits the summary tables as machine-readable JSON.
fn main() {
    zen2_experiments::main("fig08");
}
