//! Regenerates Fig. 4 (L3 latency under mixed frequencies).
//! `--json` emits the summary tables as machine-readable JSON.
fn main() {
    zen2_experiments::main("fig04");
}
