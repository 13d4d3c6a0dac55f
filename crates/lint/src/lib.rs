//! caf-lint: token-aware static analysis for the runtime crates.
//!
//! Replaces the old line-grep lints in `cargo xtask lint` with a
//! hand-rolled lexer (no `syn` — the workspace vendors no parser) that
//! strips comments/strings and tracks brace, function, and
//! `#[cfg(test)]` scope, then runs seven passes over the token stream:
//!
//! - **CAFL001 `blocking`** — blocking-point discipline: parking
//!   primitives in the modeled crates must route through the `sched.rs`
//!   announce-before-execute gate; emits the complete blocking-point
//!   inventory (`LINT_BLOCKING.json`) for the caf-sched task executor.
//! - **CAFL002 `lock-across-park`** — no lock guard live across a
//!   gate/park call.
//! - **CAFL003 `atomic-ordering`** — every `Ordering::` use justified in
//!   `crates/lint/orderings.tsv`; flags SeqCst-by-default drift and
//!   stale table rows.
//! - **CAFL004 `unsafe`** — every `unsafe` carries a `// SAFETY:`.
//! - **CAFL005 `layering`** — substrates never reference upper layers,
//!   runtime crates never name the `caf-check` oracle;
//!   upper layers never deep-path into substrate internals (source
//!   `use`-graph plus a Cargo.toml dependency check).
//! - **CAFL006 `segment-direct`** / **CAFL007 `nondeterminism`** — the
//!   two pre-existing grep lints, migrated onto the scanner and now
//!   scope-aware (string literals, trailing comments, and code after a
//!   closed `#[cfg(test)]` module are handled correctly).
//!
//! The workspace passes (CAFL008 `sync-protocol`, CAFL009 `wait-graph`,
//! CAFL010 `unreached`, the CAFL000 allow audit) run over the call graph.
//!
//! Per-site escape hatch for every class: `// lint:allow(<class>)` on
//! the flagged line or the line above.

pub mod callgraph;
pub mod cfg;
pub mod checks;
pub mod inventory;
pub mod lexer;
pub mod ordering;
pub mod proto;
pub mod scope;
pub mod unreached;
pub mod waitgraph;

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

pub use inventory::BlockSite;
pub use ordering::OrderingTable;

/// Path of the ordering table, relative to the workspace root.
pub const ORDERINGS_TSV: &str = "crates/lint/orderings.tsv";
/// Path of the committed blocking inventory, relative to the root.
pub const BLOCKING_JSON: &str = "LINT_BLOCKING.json";
/// Path of the committed wait-graph inventory, relative to the root.
pub const WAITGRAPH_JSON: &str = "LINT_WAITGRAPH.json";

/// Every `lint:allow(<class>)` class a pass consults. The CAFL000 audit
/// flags markers naming anything else — and markers naming these that no
/// pass ever consulted at a matched site.
pub const KNOWN_CLASSES: &[&str] = &[
    "blocking",
    "lock-across-park",
    "atomic-ordering",
    "unsafe",
    "layering",
    "segment-direct",
    "nondeterminism",
    "sync-protocol",
    "wait-graph",
    "unreached",
];

/// One lexed + scope-analyzed source file, with the set of allow
/// markers the passes actually *consumed* (consulted at a site whose
/// pattern matched) — the input of the CAFL000 stale-allow audit.
#[derive(Debug)]
pub struct FileUnit {
    pub rel: String,
    pub lx: lexer::Lexed,
    pub sc: scope::Scopes,
    /// (marker line, class) pairs that suppressed (or would have
    /// suppressed) a finding.
    pub consumed: RefCell<BTreeSet<(u32, String)>>,
}

impl FileUnit {
    pub fn new(rel: String, src: &str) -> FileUnit {
        let lx = lexer::lex(src);
        let sc = scope::analyze(&lx.tokens);
        FileUnit { rel, lx, sc, consumed: RefCell::new(BTreeSet::new()) }
    }

    /// Crate name for `crates/<name>/...` paths, else "".
    pub fn krate(&self) -> &str {
        self.rel.strip_prefix("crates/").and_then(|r| r.split('/').next()).unwrap_or("")
    }

    /// `lint:allow(<class>)` on `line` or the line above, recording
    /// consumption for the stale-allow audit.
    pub fn allow(&self, line: u32, class: &str) -> bool {
        let needle = format!("lint:allow({class})");
        if self.lx.comment_on(line).contains(&needle) {
            self.consumed.borrow_mut().insert((line, class.to_string()));
            return true;
        }
        if line > 1 && self.lx.comment_on(line - 1).contains(&needle) {
            self.consumed.borrow_mut().insert((line - 1, class.to_string()));
            return true;
        }
        false
    }
}

/// The whole workspace as analyzed units: the per-file passes run over
/// each file, then the interprocedural passes (call graph, CAFL008
/// sync-protocol, CAFL009 wait-graph, CAFL010 unreached) and the CAFL000
/// stale-allow audit run over the set.
#[derive(Debug)]
pub struct Workspace {
    pub files: Vec<FileUnit>,
    /// Identifiers the `benchmark/` sources mention: roots of CAFL010,
    /// never linted themselves.
    pub bench_idents: BTreeSet<String>,
}

impl Workspace {
    /// Sources under `benchmark/` only contribute their identifiers.
    pub fn from_sources(sources: Vec<(String, String)>) -> Workspace {
        let (bench, sources): (Vec<_>, Vec<_>) =
            sources.into_iter().partition(|(rel, _)| rel.starts_with("benchmark/"));
        let bench_idents = bench
            .iter()
            .flat_map(|(_, src)| lexer::lex(src).tokens)
            .filter(|t| t.kind == lexer::Kind::Ident)
            .map(|t| t.text)
            .collect();
        let mut files: Vec<FileUnit> =
            sources.into_iter().map(|(rel, src)| FileUnit::new(rel, &src)).collect();
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Workspace { files, bench_idents }
    }

    /// Run every pass: per-file (CAFL001..CAFL007), interprocedural
    /// (CAFL008..CAFL010), then the allow audit (CAFL000).
    pub fn analyze(&self, table: &OrderingTable, report: &mut Report) {
        for fu in &self.files {
            let ctx = checks::FileCtx::new(&fu.rel, &fu.lx, &fu.sc, &fu.consumed);
            checks::scan(&ctx, table, report);
            report.files_scanned += 1;
        }
        let graph = callgraph::CallGraph::build(&self.files);
        proto::sync_protocol_pass(self, &graph, report);
        let wg = waitgraph::build(self, &graph, report);
        report.waitgraph = Some(wg);
        unreached::unreached_pass(self, &graph, report);
        allow_audit(self, report);
    }
}

/// CAFL000: every `lint:allow(<class>)` marker must still be load-
/// bearing. A marker no pass consulted at a matched site suppresses
/// nothing — burned-down suppressions must be deleted, not left to rot.
/// Backtick-quoted mentions (prose in doc comments) are ignored, as are
/// placeholder classes like `<class>`.
fn allow_audit(ws: &Workspace, report: &mut Report) {
    for fu in &ws.files {
        let consumed = fu.consumed.borrow();
        for (&line, text) in fu.lx.comments.iter() {
            let mut from = 0usize;
            while let Some(p) = text[from..].find("lint:allow(") {
                let abs = from + p;
                from = abs + "lint:allow(".len();
                // Prose guard: skip when the nearest non-`/ `-char to the
                // left is a backtick (covers "`lint:allow(x)`" and
                // "`// lint:allow(x)`").
                let prose = text[..abs]
                    .chars()
                    .rev()
                    .find(|c| !matches!(c, '/' | ' '))
                    .is_some_and(|c| c == '`');
                if prose {
                    continue;
                }
                let tail = &text[from..];
                let Some(close) = tail.find(')') else { continue };
                let class = &tail[..close];
                if class.is_empty()
                    || !class.chars().all(|c| c.is_ascii_lowercase() || c == '-')
                {
                    continue; // placeholder like `<class>`, not a marker
                }
                if !KNOWN_CLASSES.contains(&class) {
                    report.diags.push(Diag {
                        code: "CAFL000",
                        class: "allow-audit",
                        file: fu.rel.clone(),
                        line,
                        msg: format!(
                            "`lint:allow({class})` names no known lint class (valid: {})",
                            KNOWN_CLASSES.join(", ")
                        ),
                    });
                    continue;
                }
                if !consumed.contains(&(line, class.to_string())) {
                    report.diags.push(Diag {
                        code: "CAFL000",
                        class: "allow-audit",
                        file: fu.rel.clone(),
                        line,
                        msg: format!(
                            "stale `lint:allow({class})`: no {class} finding is suppressed \
                             here any more — delete the marker"
                        ),
                    });
                }
            }
        }
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diag {
    /// Stable diagnostic code (`CAFL000`..`CAFL010`).
    pub code: &'static str,
    /// The `lint:allow(<class>)` class name.
    pub class: &'static str,
    /// Workspace-relative file.
    pub file: String,
    pub line: u32,
    pub msg: String,
}

impl Diag {
    /// `file:line: [code] msg` — the text format.
    pub fn text(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.code, self.msg)
    }

    /// GitHub Actions annotation line.
    pub fn github(&self) -> String {
        format!(
            "::error file={},line={},title={}::{}",
            self.file,
            self.line,
            self.code,
            self.msg.replace('\n', " ")
        )
    }

    fn json(&self) -> String {
        format!(
            "{{\"code\": \"{}\", \"class\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            self.code,
            self.class,
            self.file,
            self.line,
            json_escape(&self.msg)
        )
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            '\t' => "\\t".chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Accumulated result of a scan.
#[derive(Debug, Default)]
pub struct Report {
    pub diags: Vec<Diag>,
    /// Blocking-point inventory entries (modeled crates, non-test code).
    pub sites: Vec<BlockSite>,
    pub files_scanned: usize,
    /// Ordering-table keys that matched a site (for staleness checks).
    pub ordering_keys_seen: BTreeSet<String>,
    /// The CAFL009 lock/park wait graph (workspace analyses only).
    pub waitgraph: Option<waitgraph::Graph>,
}

impl Report {
    /// Render all findings as a JSON array.
    pub fn diags_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, d) in self.diags.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&d.json());
            if i + 1 < self.diags.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }

    /// Render the blocking inventory.
    pub fn inventory_json(&self) -> String {
        inventory::render(&self.sites)
    }

    /// Render the wait-graph inventory (`LINT_WAITGRAPH.json`); empty
    /// graph when only per-file scans ran.
    pub fn waitgraph_json(&self) -> String {
        match &self.waitgraph {
            Some(g) => g.render(),
            None => waitgraph::Graph::default().render(),
        }
    }

    /// Keys of `Ordering::` sites that have no table row — the lines to
    /// append (with TODO justifications) under `--update-orderings`.
    pub fn missing_ordering_rows(&self, table: &OrderingTable) -> Vec<String> {
        self.ordering_keys_seen
            .iter()
            .filter(|k| table.justification(k).is_none())
            .map(|k| format!("{k}\tTODO"))
            .collect()
    }
}

/// Scan one file's source under its workspace-relative path — the
/// per-file passes only (CAFL001..CAFL007); interprocedural analyses
/// need a [`Workspace`].
pub fn scan_file(rel: &str, src: &str, table: &OrderingTable, report: &mut Report) {
    let lx = lexer::lex(src);
    let sc = scope::analyze(&lx.tokens);
    let consumed = RefCell::new(BTreeSet::new());
    let ctx = checks::FileCtx::new(rel, &lx, &sc, &consumed);
    checks::scan(&ctx, table, report);
    report.files_scanned += 1;
}

/// Post-scan checks that need the whole workspace: stale ordering rows.
pub fn finish(table: &OrderingTable, report: &mut Report) {
    for key in table.keys() {
        if !report.ordering_keys_seen.contains(key) {
            let pretty = key.replace('\t', " ");
            report.diags.push(Diag {
                code: "CAFL003",
                class: "atomic-ordering",
                file: ORDERINGS_TSV.to_string(),
                line: 1,
                msg: format!(
                    "stale table row `{pretty}` matches no Ordering:: site; remove it"
                ),
            });
        }
    }
}

/// Load the ordering table from the workspace root.
pub fn load_table(root: &Path) -> Result<OrderingTable, String> {
    let path = root.join(ORDERINGS_TSV);
    match fs::read_to_string(&path) {
        Ok(text) => OrderingTable::parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(OrderingTable::default()),
        Err(e) => Err(format!("reading {}: {e}", path.display())),
    }
}

/// Walk `crates/`, `tests/`, `examples/` under `root` and scan every
/// `.rs` file (reading `benchmark/src` for CAFL010's roots); then run the
/// manifest-level layering check and the staleness pass.
pub fn run_workspace(root: &Path) -> Result<Report, String> {
    let table = load_table(root)?;
    let mut report = Report::default();
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "benchmark/src"] {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let src = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, src));
    }
    let ws = Workspace::from_sources(sources);
    ws.analyze(&table, &mut report);
    manifest_layering(root, &mut report);
    finish(&table, &mut report);
    Ok(report)
}

/// Run [`scan_manifest`] over every runtime crate's manifest.
fn manifest_layering(root: &Path, report: &mut Report) {
    for krate in checks::MODELED_CRATES {
        let rel = format!("crates/{krate}/Cargo.toml");
        if let Ok(text) = fs::read_to_string(root.join(&rel)) {
            scan_manifest(&rel, &text, report);
        }
    }
}

/// Manifest-level layering of one `crates/<name>/Cargo.toml` (the
/// source-level check cannot see a `path` dependency that is merely
/// declared but not yet imported): substrate crates declare no runtime
/// dependency on the layers above them, and no runtime crate names
/// `caf-check` in any dependency table or feature. Other crates' manifests
/// are not checked.
pub fn scan_manifest(rel: &str, text: &str, report: &mut Report) {
    const FORBIDDEN: &[&str] = &["caf", "caf-agg", "caf-hpcc", "caf-model"];
    let krate = rel.trim_start_matches("crates/").split('/').next().unwrap_or("");
    if !checks::MODELED_CRATES.contains(&krate) {
        return;
    }
    let substrate = checks::SUBSTRATE_CRATES.contains(&krate);
    let mut section = "";
    for (idx, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.starts_with('[') {
            section = t;
            continue;
        }
        let name = t.split(['=', ' ', '.']).next().unwrap_or("");
        let msg = if (section.contains("dependencies") && name == "caf-check")
            || (section == "[features]" && t.contains("caf-check"))
        {
            format!(
                "runtime crate `{krate}` names the `caf-check` oracle in its manifest: \
                 the checker replays the trace from above the runtime"
            )
        } else if substrate && section == "[dependencies]" && FORBIDDEN.contains(&name) {
            format!(
                "substrate crate `{krate}` declares a dependency on upper layer \
                 `{name}`: substrates must not depend on core/agg/hpcc/model"
            )
        } else {
            continue;
        };
        report.diags.push(Diag {
            code: "CAFL005",
            class: "layering",
            file: rel.to_string(),
            line: (idx + 1) as u32,
            msg,
        });
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
