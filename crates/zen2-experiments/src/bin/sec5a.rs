//! Regenerates the §V-A observation (idle/offline sibling raises the core
//! frequency). `--json` emits the summary tables as machine-readable JSON.
fn main() {
    zen2_experiments::main("sec5a");
}
