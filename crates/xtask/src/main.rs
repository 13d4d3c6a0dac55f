//! Repository automation (`cargo xtask <command>`).
//!
//! ## `cargo xtask lint [--format text|json|github] [--changed] [--update-inventory] [--update-orderings]`
//!
//! Runs the `caf-lint` static analysis engine over the workspace: the
//! token-aware per-file passes (blocking-point discipline with the
//! `LINT_BLOCKING.json` inventory, lock-across-park, the atomic-ordering
//! justification table, the unsafe/`SAFETY:` audit, layering, and the
//! migrated segment-direct / nondeterminism lints) plus the CFG +
//! call-graph dataflow passes: CAFL008 `sync-protocol` (abstract-state
//! walk of the CAF API over every kernel/example/test body), CAFL009
//! `wait-graph` (interprocedural lock/park order graph, committed as
//! `LINT_WAITGRAPH.json`), CAFL010 `unreached` (every runtime `pub fn`
//! reached from a root), and the CAFL000 stale-`lint:allow` audit.
//! See `crates/lint` and DESIGN.md §14/§16 for the classes, diagnostic
//! codes (CAFL000..CAFL010), and the `// lint:allow(<class>)`
//! escape-hatch policy.
//!
//! The run fails on any finding, and also when the regenerated
//! blocking-point inventory or wait graph differs from the committed
//! `LINT_BLOCKING.json` / `LINT_WAITGRAPH.json` (refresh both with
//! `--update-inventory`). `--changed` keeps the full workspace analysis
//! (the interprocedural passes need every file) but reports only
//! findings in files that differ from the git merge-base and skips the
//! committed-artifact byte-compares — the fast pre-push loop; CI always
//! runs the full mode. `--update-orderings` appends TODO-stubbed rows
//! to `crates/lint/orderings.tsv` for any unjustified `Ordering::`
//! site; the lint keeps failing until the TODOs become real
//! justifications.
//!
//! ## `cargo xtask bench [--smoke] [--update-baseline]`
//!
//! Runs `caf-bench`'s `bench` binary, which builds the deterministic perf
//! rows, asserts their shapes and gates them against the committed
//! `BENCH_ra.json`, `BENCH_micro.json` and `BENCH_agg.json` baselines at
//! the repository root (its header documents the gate). Its reports land
//! in `target/bench-out`; `--smoke` runs the reduced sweep, and
//! `--update-baseline` reseeds the committed files instead of comparing.
//! Exits 0 on a pass, 1 on a failed gate or harness, 2 when cargo or the
//! harness could not do its I/O.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some(other) => {
            eprintln!("unknown xtask command `{other}`; available: lint, bench");
            ExitCode::from(2)
        }
        None => {
            eprintln!("usage: cargo xtask <lint|bench>");
            ExitCode::from(2)
        }
    }
}

/// Spawns the `bench` binary with the given flags and passes on its
/// verdict.
fn bench(args: &[String]) -> ExitCode {
    let status = Command::new(env!("CARGO"))
        .current_dir(workspace_root())
        .args(["run", "--release", "-q", "-p", "caf-bench", "--bin", "bench", "--"])
        .args(args)
        .status();
    match status {
        Ok(st) if st.success() => ExitCode::SUCCESS,
        Ok(st) => {
            eprintln!("xtask bench: harness failed with {st}");
            ExitCode::from(if st.code() == Some(2) { 2 } else { 1 })
        }
        Err(e) => {
            eprintln!("xtask bench: spawning cargo: {e}");
            ExitCode::from(2)
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let format = args
        .iter()
        .position(|a| a == "--format")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("text");
    let update_inventory = args.iter().any(|a| a == "--update-inventory");
    let update_orderings = args.iter().any(|a| a == "--update-orderings");
    let changed_only = args.iter().any(|a| a == "--changed");
    let root = workspace_root();

    let table = match caf_lint::load_table(&root) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match caf_lint::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };

    if update_orderings {
        let missing = report.missing_ordering_rows(&table);
        if missing.is_empty() {
            println!("xtask lint: ordering table already covers every site");
        } else {
            let path = root.join(caf_lint::ORDERINGS_TSV);
            let mut text = fs::read_to_string(&path).unwrap_or_default();
            if !text.is_empty() && !text.ends_with('\n') {
                text.push('\n');
            }
            for row in &missing {
                text.push_str(row);
                text.push('\n');
            }
            if let Err(e) = fs::write(&path, text) {
                eprintln!("xtask lint: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!(
                "xtask lint: stubbed {} ordering row(s) in {} — replace every TODO with a \
                 real justification",
                missing.len(),
                caf_lint::ORDERINGS_TSV
            );
        }
        return ExitCode::SUCCESS;
    }

    // Committed artifacts: regenerate and compare (or refresh). Both
    // the blocking-point inventory and the wait graph are byte-compared
    // on every full run so neither can silently drift from the code.
    let inv_path = root.join(caf_lint::BLOCKING_JSON);
    let generated = report.inventory_json();
    let wg_path = root.join(caf_lint::WAITGRAPH_JSON);
    let wg_generated = report.waitgraph_json();
    if update_inventory {
        if let Err(e) = fs::write(&inv_path, &generated) {
            eprintln!("xtask lint: writing {}: {e}", inv_path.display());
            return ExitCode::from(2);
        }
        if let Err(e) = fs::write(&wg_path, &wg_generated) {
            eprintln!("xtask lint: writing {}: {e}", wg_path.display());
            return ExitCode::from(2);
        }
        let (wn, we) = report
            .waitgraph
            .as_ref()
            .map(|g| (g.nodes.len(), g.edges.len()))
            .unwrap_or((0, 0));
        println!("xtask lint: {} refreshed ({} sites)", caf_lint::BLOCKING_JSON, report.sites.len());
        println!(
            "xtask lint: {} refreshed ({wn} nodes, {we} edges)",
            caf_lint::WAITGRAPH_JSON
        );
    } else if !changed_only {
        let committed = fs::read_to_string(&inv_path).unwrap_or_default();
        if committed != generated {
            report.diags.push(caf_lint::Diag {
                code: "CAFL001",
                class: "blocking",
                file: caf_lint::BLOCKING_JSON.to_string(),
                line: 1,
                msg: "committed blocking-point inventory is out of date with the sources; \
                      run `cargo xtask lint --update-inventory` and commit the result"
                    .to_string(),
            });
        }
        let wg_committed = fs::read_to_string(&wg_path).unwrap_or_default();
        if wg_committed != wg_generated {
            report.diags.push(caf_lint::Diag {
                code: "CAFL009",
                class: "wait-graph",
                file: caf_lint::WAITGRAPH_JSON.to_string(),
                line: 1,
                msg: "committed wait graph is out of date with the sources; run \
                      `cargo xtask lint --update-inventory` and commit the result"
                    .to_string(),
            });
        }
    }

    if changed_only {
        match changed_files(&root) {
            Ok(changed) => {
                let before = report.diags.len();
                report.diags.retain(|d| changed.contains(&d.file));
                let hidden = before - report.diags.len();
                if hidden > 0 {
                    eprintln!(
                        "xtask lint: --changed hid {hidden} finding(s) in unchanged files \
                         (full run is the CI gate)"
                    );
                }
            }
            Err(e) => {
                eprintln!("xtask lint: --changed unavailable ({e}); reporting everything");
            }
        }
    }

    match format {
        "json" => print!("{}", report.diags_json()),
        "github" => {
            for d in &report.diags {
                println!("{}", d.github());
            }
        }
        _ => {
            for d in &report.diags {
                eprintln!("{}", d.text());
            }
        }
    }

    if report.diags.is_empty() {
        if format == "text" {
            let (wn, we) = report
                .waitgraph
                .as_ref()
                .map(|g| (g.nodes.len(), g.edges.len()))
                .unwrap_or((0, 0));
            println!(
                "xtask lint: {} file(s) scanned, 0 findings across CAFL000..CAFL010; \
                 blocking inventory: {} site(s) in sync; wait graph: {wn} node(s), \
                 {we} edge(s) in sync",
                report.files_scanned,
                report.sites.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {} finding(s)", report.diags.len());
        ExitCode::FAILURE
    }
}

/// Workspace-relative paths that differ from the merge-base with the
/// default branch (falling back to HEAD for a detached/first commit).
fn changed_files(root: &Path) -> Result<std::collections::BTreeSet<String>, String> {
    let base = ["main", "master"]
        .iter()
        .find_map(|b| {
            let out = Command::new("git")
                .current_dir(root)
                .args(["merge-base", "HEAD", b])
                .output()
                .ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        })
        .unwrap_or_else(|| "HEAD".to_string());
    let out = Command::new("git")
        .current_dir(root)
        .args(["diff", "--name-only", &base])
        .output()
        .map_err(|e| format!("running git diff: {e}"))?;
    if !out.status.success() {
        return Err(format!("git diff exited with {}", out.status));
    }
    let mut set: std::collections::BTreeSet<String> =
        String::from_utf8_lossy(&out.stdout).lines().map(str::to_string).collect();
    // Untracked files are changes too.
    let out = Command::new("git")
        .current_dir(root)
        .args(["ls-files", "--others", "--exclude-standard"])
        .output()
        .map_err(|e| format!("running git ls-files: {e}"))?;
    if out.status.success() {
        set.extend(String::from_utf8_lossy(&out.stdout).lines().map(str::to_string));
    }
    Ok(set)
}

/// `cargo xtask` runs with the workspace root as cwd (via the alias);
/// fall back to CARGO_MANIFEST_DIR/../.. when invoked directly.
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("cwd");
    if cwd.join("Cargo.toml").is_file() && cwd.join("crates").is_dir() {
        return cwd;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives at <root>/crates/xtask")
        .to_path_buf()
}
