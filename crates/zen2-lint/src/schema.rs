//! snapshot-schema: a static lock on the checkpoint wire format.
//!
//! Every `impl Snapshot` emits its state as `Json::obj([("key", …), …])`
//! literals; the key *names and order* are the wire format that PR 5's
//! checkpoint files carry and that a future `Checkpoint::merge` must
//! agree on. This pass extracts those key groups statically — from the
//! token stream, per Snapshot-implementing type — and pins them in a
//! committed `SNAPSHOT_SCHEMA.lock` alongside the checkpoint format
//! version (`const MAGIC` in `checkpoint.rs`). Reordering, adding, or
//! removing a key without bumping the version is a silent wire-format
//! break: old checkpoint files would restore garbage or refuse to load
//! with no explanation. `check` turns that into a lint failure at the
//! PR that introduces it.
//!
//! Extraction covers `Json::obj` literals in *every* non-test impl
//! block of a type that has an `impl Snapshot` anywhere in the
//! workspace — an inherent helper that builds part of a snapshot
//! writes wire bytes too. Known limits: obj literals built outside impl
//! blocks of Snapshot types (e.g. `Checkpoint`'s own header, which has
//! no `Snapshot` impl) and keys assembled from non-literal expressions
//! are invisible to the extractor; see `docs/LINTS.md`.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{walk_items, ItemKind};
use crate::lexer::TokenKind;
use crate::rules::{seq, SNAPSHOT_SCHEMA};
use crate::workspace::SCHEMA_LOCK_FILE;
use crate::{Finding, SourceFile};

/// One extracted schema entry: the key groups (one per `Json::obj`
/// literal, in source order) and the line of the first one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedEntry {
    pub groups: Vec<Vec<String>>,
    pub line: usize,
}

/// Everything the extractor learns from the tree.
#[derive(Debug, Default)]
pub struct Extraction {
    /// The checkpoint format version (`const MAGIC` string), if found.
    pub format: Option<String>,
    /// `"<rel>::<Type>"` → extracted key groups.
    pub entries: BTreeMap<String, ExtractedEntry>,
}

/// Statically extracts the snapshot wire schema of the whole tree.
pub fn extract(files: &[SourceFile]) -> Extraction {
    let mut ex = Extraction::default();

    // Pass 1: which types implement Snapshot, workspace-wide.
    let mut snapshot_types: BTreeSet<String> = BTreeSet::new();
    for f in files {
        if f.is_test_file() {
            continue;
        }
        walk_items(&f.items, &mut |it| {
            if it.kind == ItemKind::Impl
                && it.impl_trait.as_deref() == Some("Snapshot")
                && !f.is_test_code(it.line)
            {
                if let Some(t) = &it.impl_type {
                    snapshot_types.insert(t.clone());
                }
            }
        });
    }

    // Pass 2: the checkpoint format version — the string initializer of
    // the first `const MAGIC` in the (sorted) tree.
    'version: for f in files {
        let toks = &f.tokens;
        for i in 0..toks.len() {
            if seq(toks, i, &["const", "MAGIC"]) {
                for t in &toks[i + 2..] {
                    if t.text == ";" {
                        break;
                    }
                    if t.kind == TokenKind::Str {
                        ex.format = Some(t.text.clone());
                        break 'version;
                    }
                }
            }
        }
    }

    // Pass 3: key groups from every obj literal inside impl blocks of
    // Snapshot types.
    for f in files {
        if f.is_test_file() {
            continue;
        }
        walk_items(&f.items, &mut |it| {
            if it.kind != ItemKind::Impl {
                return;
            }
            let Some(ty) = &it.impl_type else { return };
            if !snapshot_types.contains(ty) {
                return;
            }
            let toks = &f.tokens;
            for i in it.range.0..it.range.1.min(toks.len()) {
                if !seq(toks, i, &["obj", "(", "["]) || f.is_test_code(toks[i].line) {
                    continue;
                }
                let keys = obj_literal_keys(toks, i + 2);
                if keys.is_empty() {
                    continue;
                }
                let key = format!("{}::{ty}", f.rel);
                let entry = ex
                    .entries
                    .entry(key)
                    .or_insert(ExtractedEntry { groups: Vec::new(), line: toks[i].line });
                entry.groups.push(keys);
            }
        });
    }
    ex
}

/// The key names of one `obj([("k", …), …])` literal whose `[` sits at
/// `open`. Keys of *nested* obj literals are excluded (they are their
/// own group): a key string sits at bracket depth exactly 2 relative to
/// the opening `[`, right after a `(`.
fn obj_literal_keys(toks: &[crate::lexer::Token], open: usize) -> Vec<String> {
    let mut keys = Vec::new();
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "[" | "(" | "{" => depth += 1,
            "]" | ")" | "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {
                if t.kind == TokenKind::Str
                    && depth == 2
                    && i > 0
                    && toks[i - 1].text == "("
                    && toks.get(i + 1).is_some_and(|n| n.text == ",")
                {
                    keys.push(t.text.clone());
                }
            }
        }
        i += 1;
    }
    keys
}

/// One lock-file entry: pinned key groups plus a preserved trailing
/// comment.
#[derive(Debug, Clone, Default)]
pub struct LockEntry {
    pub groups: Vec<Vec<String>>,
    pub comment: String,
}

/// The parsed `SNAPSHOT_SCHEMA.lock`.
#[derive(Debug, Clone, Default)]
pub struct Lock {
    /// Leading `#` comment lines, preserved verbatim across regeneration.
    pub header: Vec<String>,
    /// The checkpoint format version the schema was locked under.
    pub format: String,
    pub entries: BTreeMap<String, LockEntry>,
}

/// Parses the lock file. Format: a leading `#` comment block, one
/// `format = <version>` line, then sorted `path::Type = {a,b}{c}` lines
/// with optional trailing `# comment`.
pub fn parse_lock(text: &str) -> Result<Lock, String> {
    let mut lock = Lock::default();
    let mut saw_format = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('#') {
            if !saw_format && lock.entries.is_empty() {
                lock.header.push(raw.to_string());
            }
            continue;
        }
        let (body, comment) = match line.split_once(" #") {
            Some((b, c)) => (b.trim(), c.trim().to_string()),
            None => (line, String::new()),
        };
        let (key, value) = body
            .split_once('=')
            .ok_or_else(|| format!("schema lock line {lineno}: expected `name = value`"))?;
        let (key, value) = (key.trim(), value.trim());
        if key == "format" {
            if saw_format {
                return Err(format!("schema lock line {lineno}: duplicate `format` line"));
            }
            lock.format = value.to_string();
            saw_format = true;
            continue;
        }
        if !saw_format {
            return Err(format!(
                "schema lock line {lineno}: entries must come after the `format = …` line"
            ));
        }
        let groups = parse_groups(value)
            .map_err(|e| format!("schema lock line {lineno}: {e} in `{value}`"))?;
        if lock.entries.insert(key.to_string(), LockEntry { groups, comment }).is_some() {
            return Err(format!("schema lock line {lineno}: duplicate entry for {key}"));
        }
    }
    if !saw_format {
        return Err("schema lock: missing `format = <version>` line".to_string());
    }
    Ok(lock)
}

fn parse_groups(value: &str) -> Result<Vec<Vec<String>>, String> {
    let mut groups = Vec::new();
    let mut rest = value.trim();
    while !rest.is_empty() {
        let inner = rest.strip_prefix('{').ok_or("expected `{`")?;
        let (body, tail) = inner.split_once('}').ok_or("unclosed `{`")?;
        groups.push(body.split(',').map(|s| s.trim().to_string()).collect());
        rest = tail.trim_start();
    }
    if groups.is_empty() {
        return Err("empty group list".to_string());
    }
    Ok(groups)
}

fn render_groups(groups: &[Vec<String>]) -> String {
    groups.iter().map(|g| format!("{{{}}}", g.join(","))).collect()
}

const DEFAULT_HEADER: &str = "\
# zen2-lint snapshot-schema lock: the exact key names and order every
# `impl Snapshot` writes to checkpoint files, pinned against the
# checkpoint format version below. Changing a key set/order is a wire
# format change: bump MAGIC in crates/zen2-sim/src/checkpoint.rs, then
# regenerate this file with `cargo run -p zen2-lint -- schema`.";

/// Renders a lock file from an extraction, carrying over the header
/// block and per-entry comments of `prior`.
pub fn render_lock(ex: &Extraction, prior: Option<&Lock>) -> String {
    let mut out = String::new();
    match prior.filter(|p| !p.header.is_empty()) {
        Some(p) => {
            for l in &p.header {
                out.push_str(l);
                out.push('\n');
            }
        }
        None => {
            out.push_str(DEFAULT_HEADER);
            out.push('\n');
        }
    }
    out.push_str(&format!("format = {}\n", ex.format.as_deref().unwrap_or("UNKNOWN")));
    for (key, entry) in &ex.entries {
        out.push_str(&format!("{key} = {}", render_groups(&entry.groups)));
        if let Some(c) = prior.and_then(|p| p.entries.get(key)).filter(|e| !e.comment.is_empty()) {
            out.push_str(&format!("  # {}", c.comment));
        }
        out.push('\n');
    }
    out
}

/// The snapshot-schema rule: compares the tree's extracted schema with
/// the committed lock. Not inline-suppressible — the lock file is the
/// only ledger, and the escape hatch is a deliberate format-version
/// bump.
pub fn check(files: &[SourceFile], lock: Option<&Lock>) -> Vec<Finding> {
    let ex = extract(files);
    let mut out = Vec::new();
    let lock_finding = |line: usize, message: String| Finding {
        rule: SNAPSHOT_SCHEMA,
        rel: SCHEMA_LOCK_FILE.to_string(),
        line,
        message,
    };
    let Some(format) = &ex.format else {
        out.push(lock_finding(
            1,
            "cannot locate the checkpoint format version (`const MAGIC: &str = …`) anywhere in the tree — the schema lock has nothing to pin against".to_string(),
        ));
        return out;
    };
    let Some(lock) = lock else {
        out.push(lock_finding(
            1,
            format!(
                "{SCHEMA_LOCK_FILE} is missing — generate it with `cargo run -p zen2-lint -- schema` and commit it"
            ),
        ));
        return out;
    };
    if lock.format != *format {
        out.push(lock_finding(
            1,
            format!(
                "checkpoint format version is `{format}` but the lock was generated under `{}` — regenerate with `cargo run -p zen2-lint -- schema` and review the schema diff",
                lock.format
            ),
        ));
        return out;
    }
    for (key, entry) in &ex.entries {
        let rel = key.rsplit_once("::").map(|(r, _)| r).unwrap_or(key);
        match lock.entries.get(key) {
            None => out.push(Finding {
                rule: SNAPSHOT_SCHEMA,
                rel: rel.to_string(),
                line: entry.line,
                message: format!(
                    "new snapshot wire schema `{key}` is not in {SCHEMA_LOCK_FILE} — record it with `cargo run -p zen2-lint -- schema`"
                ),
            }),
            Some(locked) if locked.groups != entry.groups => out.push(Finding {
                rule: SNAPSHOT_SCHEMA,
                rel: rel.to_string(),
                line: entry.line,
                message: format!(
                    "snapshot wire schema of `{key}` drifted from the lock ({} locked vs {} now) without a checkpoint format-version bump — bump MAGIC in crates/zen2-sim/src/checkpoint.rs, then regenerate the lock",
                    render_groups(&locked.groups),
                    render_groups(&entry.groups)
                ),
            }),
            Some(_) => {}
        }
    }
    for key in lock.entries.keys() {
        if !ex.entries.contains_key(key) {
            out.push(lock_finding(
                1,
                format!(
                    "stale lock entry `{key}`: no such snapshot schema exists anymore — bump MAGIC in crates/zen2-sim/src/checkpoint.rs (removal is a wire-format change), then regenerate the lock"
                ),
            ));
        }
    }
    out
}

/// Why `schema` (regeneration) refuses to run: an existing entry
/// changed or vanished while the format version stayed put.
pub fn regeneration_blockers(ex: &Extraction, prior: &Lock) -> Vec<String> {
    let mut blockers = Vec::new();
    if ex.format.as_deref() != Some(prior.format.as_str()) {
        return blockers; // Version moved: everything may change.
    }
    for (key, locked) in &prior.entries {
        match ex.entries.get(key) {
            Some(e) if e.groups == locked.groups => {}
            Some(_) => blockers.push(format!("`{key}` changed")),
            None => blockers.push(format!("`{key}` was removed")),
        }
    }
    blockers
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "\
const MAGIC: &str = \"test-format v1\";
pub struct W;
impl Snapshot for W {
    fn snapshot(&self) -> Json {
        Json::obj([(\"count\", Json::u64(self.n)), (\"mean\", Json::f64(self.m))])
    }
}
impl W {
    fn aux(&self) -> Json {
        Json::obj([(\"rows\", Json::obj([(\"inner\", Json::Null)]))])
    }
}
";

    fn extraction() -> Extraction {
        extract(&[SourceFile::parse("crates/zen2-sim/src/w.rs", SRC)])
    }

    #[test]
    fn extracts_format_groups_and_nested_objects() {
        let ex = extraction();
        assert_eq!(ex.format.as_deref(), Some("test-format v1"));
        let e = &ex.entries["crates/zen2-sim/src/w.rs::W"];
        // Trait impl group, inherent outer group, nested inner group —
        // in source order; nested keys never leak into the outer group.
        let got: Vec<Vec<&str>> =
            e.groups.iter().map(|g| g.iter().map(String::as_str).collect()).collect();
        assert_eq!(got, vec![vec!["count", "mean"], vec!["rows"], vec!["inner"]]);
    }

    #[test]
    fn lock_round_trips_and_preserves_comments() {
        let ex = extraction();
        let first = render_lock(&ex, None);
        let mut lock = parse_lock(&first).expect("valid lock");
        lock.entries.get_mut("crates/zen2-sim/src/w.rs::W").unwrap().comment =
            "audited 2026-08".to_string();
        let second = render_lock(&ex, Some(&lock));
        assert!(second.contains("# audited 2026-08"), "{second}");
        let reparsed = parse_lock(&second).expect("still valid");
        assert_eq!(reparsed.format, "test-format v1");
        assert_eq!(
            reparsed.entries["crates/zen2-sim/src/w.rs::W"].groups,
            ex.entries["crates/zen2-sim/src/w.rs::W"].groups
        );
    }

    #[test]
    fn parse_rejects_malformed_locks() {
        assert!(parse_lock("a::B = {x}\n").is_err(), "entry before format");
        assert!(parse_lock("format = v1\na::B = x\n").is_err(), "groups without braces");
        assert!(parse_lock("format = v1\nformat = v2\n").is_err(), "duplicate format");
        assert!(parse_lock("").is_err(), "empty");
    }

    #[test]
    fn regeneration_refuses_silent_drift_but_allows_bumped() {
        let ex = extraction();
        let lock = parse_lock(&render_lock(&ex, None)).unwrap();
        assert!(regeneration_blockers(&ex, &lock).is_empty());

        let mut drifted = lock.clone();
        drifted.entries.get_mut("crates/zen2-sim/src/w.rs::W").unwrap().groups =
            vec![vec!["mean".to_string(), "count".to_string()]];
        assert_eq!(regeneration_blockers(&ex, &drifted).len(), 1);

        let mut bumped = drifted.clone();
        bumped.format = "test-format v0".to_string();
        assert!(regeneration_blockers(&ex, &bumped).is_empty(), "version bump unlocks");
    }
}
