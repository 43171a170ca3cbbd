//! Regenerates the §VI-B observation (offline threads block package C6).
//! `--json` emits the summary tables as machine-readable JSON.
fn main() {
    zen2_experiments::main("sec6b");
}
