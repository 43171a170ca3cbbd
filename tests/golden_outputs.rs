//! The committed outputs under `tests/golden/` lock what the bins print.
//! Quick-scale `all --json` and `fig03 --anomaly --json`, rendered by the
//! bins' own library function, must match their files byte for byte;
//! CI compares `all --paper --json` with `all-paper.json`. On a mismatch
//! the test names the first table, row and column that differ.
//!
//! A change that moves a printed cell on purpose regenerates the files
//! with the bins themselves and says which cells moved and why:
//!
//! ```text
//! cargo run --release -p zen2-experiments --bin all -- --json > tests/golden/all-quick.json
//! cargo run --release -p zen2-experiments --bin fig03 -- --anomaly --json \
//!     > tests/golden/fig03-anomaly-quick.json
//! cargo run --release -p zen2-experiments --bin all -- --paper --json > tests/golden/all-paper.json
//! ```

use std::path::Path;
use zen2_sim::Json;

/// Renders `bin` under `args` and compares its stdout with `golden`.
fn assert_matches_golden(bin: &str, args: &[&str], golden: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(golden);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let rendered = zen2_experiments::render(bin, args.iter().map(|a| a.to_string()));
    assert_eq!((rendered.code, &rendered.stderr), (0, &None), "{bin} {args:?} failed");
    if rendered.stdout != want {
        panic!(
            "{bin} {args:?} differs from tests/golden/{golden}: {}",
            first_difference(&want, &rendered.stdout)
        );
    }
}

/// Where `got` first departs from `want`, two `--json` documents: the
/// table, row and column of the first differing cell, or else the first
/// differing byte.
fn first_difference(want: &str, got: &str) -> String {
    let parse = |text: &str| Json::parse(text.trim_end()).ok();
    if let (Some(Json::Arr(want_tables)), Some(Json::Arr(got_tables))) = (parse(want), parse(got)) {
        for (i, (w, g)) in want_tables.iter().zip(&got_tables).enumerate() {
            let title = w.get("title").and_then(Json::as_str).unwrap_or("untitled");
            if let Some(cell) = first_cell_difference(w, g) {
                return format!("table {i} ({title:?}), {cell}");
            }
        }
        if want_tables.len() != got_tables.len() {
            return format!("{} tables, golden has {}", got_tables.len(), want_tables.len());
        }
    }
    let at = want.bytes().zip(got.bytes()).take_while(|(w, g)| w == g).count();
    format!("byte {at} (golden {} bytes, rendered {})", want.len(), got.len())
}

/// The first differing title, header list, row count or cell of one table.
fn first_cell_difference(want: &Json, got: &Json) -> Option<String> {
    for key in ["title", "headers"] {
        let (w, g) = (want.get(key).ok()?, got.get(key).ok()?);
        if w != g {
            return Some(format!("{key}: golden {}, rendered {}", w.render(), g.render()));
        }
    }
    let (want_rows, got_rows) =
        (want.get("rows").ok()?.items().ok()?, got.get("rows").ok()?.items().ok()?);
    for (r, (w, g)) in want_rows.iter().zip(got_rows).enumerate() {
        let Json::Obj(cells) = w else { continue };
        for (column, cell) in cells {
            let rendered = g.get(column).map_or("nothing".to_string(), Json::render);
            if rendered != cell.render() {
                return Some(format!(
                    "row {r}, column {column:?}: golden {}, rendered {rendered}",
                    cell.render()
                ));
            }
        }
    }
    (want_rows.len() != got_rows.len())
        .then(|| format!("{} rows, golden has {}", got_rows.len(), want_rows.len()))
}

#[test]
fn quick_all_json_matches_its_golden_file() {
    assert_matches_golden("all", &["--json"], "all-quick.json");
}

#[test]
fn quick_fig03_anomaly_json_matches_its_golden_file() {
    assert_matches_golden("fig03", &["--anomaly", "--json"], "fig03-anomaly-quick.json");
}

#[test]
fn a_moved_cell_is_named_by_table_row_and_column() {
    let want =
        r#"[{"title":"T","headers":["a","b"],"rows":[{"a":"1","b":"2"},{"a":"3","b":"4"}]}]"#;
    let got = want.replace(r#""b":"4""#, r#""b":"5""#);
    assert_eq!(
        first_difference(want, &got),
        r#"table 0 ("T"), row 1, column "b": golden "4", rendered "5""#
    );
    assert_eq!(first_difference(want, "[]"), "0 tables, golden has 1");
    assert!(first_difference(want, "not json").starts_with("byte 0"));
}
