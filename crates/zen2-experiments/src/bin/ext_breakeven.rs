//! Prints the informed C-state break-even analysis (extension).
//! `--json` emits the summary tables as machine-readable JSON.
fn main() {
    zen2_experiments::main("ext_breakeven");
}
