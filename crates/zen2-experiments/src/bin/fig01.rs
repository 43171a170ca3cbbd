//! Regenerates Fig. 1 (Green500 efficiency by architecture).
//! `--json` emits the summary tables as machine-readable JSON.
fn main() {
    zen2_experiments::main("fig01");
}
