//! CAFL010 `unreached`: every free or inherent `pub fn`, and every
//! module-level `pub const` and `pub static`, of a runtime crate is
//! reached from a root, or carries a reasoned
//! `// lint:allow(unreached): <reason>`.
//!
//! A breadth-first search over the [`CallGraph`]'s nodes. The roots are
//! every `fn main` (binaries, examples), every `#[test]` fn of an
//! integration-test file (`tests/*.rs`, `crates/*/tests/*.rs`) and every
//! identifier the frozen `benchmark/src` tree mentions. Unit tests under
//! `#[cfg(test)]` are no roots and are never reached: an item that only
//! its own unit tests call fires.
//!
//! Unlike CAFL008/009, resolution over-approximates: an identifier a
//! reached body mentions (a call, a path, a fn passed by value — not a
//! field access) reaches every fn of that name, `DENY`-listed and
//! oversized candidate sets included, and a trait-impl method is reached
//! when its name is. A module-level const or static is reached when a
//! reached fn body, the initializer of a reached const, or
//! `benchmark/src` names it; associated consts of an `impl` are not
//! checked. A finding is therefore an item no root can name.

use std::collections::{BTreeSet, VecDeque};

use crate::callgraph::CallGraph;
use crate::lexer::{Kind, Token};
use crate::{Diag, FileUnit, Report, Workspace};

/// Crates whose `pub fn`s must be reached.
pub const REACHED_CRATES: &[&str] = &[
    "fabric",
    "mpisim",
    "gasnetsim",
    "core",
    "agg",
    "sched",
    "trace",
    "check",
    "model",
    "hpcc",
    "netmodel",
    "bench",
];

const MARKER: &str = "lint:allow(unreached)";

/// Run CAFL010 over `ws`.
pub fn unreached_pass(ws: &Workspace, graph: &CallGraph, report: &mut Report) {
    let live = |n: usize| {
        let node = &graph.nodes[n];
        !ws.files[node.file].sc.in_test[node.body.0]
    };
    let mut reached = vec![false; graph.nodes.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (n, node) in graph.nodes.iter().enumerate() {
        if live(n) && is_root(&ws.files[node.file], node.scope_fn) {
            reached[n] = true;
            queue.push_back(n);
        }
    }
    let items = module_items(ws);
    let mut item_reached = vec![false; items.len()];
    // Two worklists: names mentioned and not yet resolved, and reached
    // fns whose bodies are not yet read. A const's initializer is read
    // the moment its name resolves.
    let mut names: Vec<&str> = ws.bench_idents.iter().map(String::as_str).collect();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    loop {
        while let Some(name) = names.pop() {
            if !seen.insert(name) {
                continue;
            }
            for &c in graph.by_name.get(name).into_iter().flatten() {
                if !reached[c] && live(c) {
                    reached[c] = true;
                    queue.push_back(c);
                }
            }
            for (k, item) in items.iter().enumerate() {
                if item.name == name && !item_reached[k] {
                    item_reached[k] = true;
                    let toks = &ws.files[item.file].lx.tokens;
                    let init = item.name_tok + 1..item.end;
                    names.extend(init.filter(|&i| mentions(toks, i)).map(|i| toks[i].text.as_str()));
                }
            }
        }
        let Some(n) = queue.pop_front() else { break };
        let node = &graph.nodes[n];
        let fu = &ws.files[node.file];
        let toks = &fu.lx.tokens;
        for i in node.body.0..=node.body.1 {
            if fu.sc.fn_of[i] == Some(node.scope_fn) && mentions(toks, i) {
                names.push(&toks[i].text);
            }
        }
    }

    for (n, node) in graph.nodes.iter().enumerate() {
        let fu = &ws.files[node.file];
        let fn_tok = fu.sc.fns[node.scope_fn].fn_tok;
        let in_src = fu.rel.starts_with(&format!("crates/{}/src/", fu.krate()));
        if reached[n]
            || !live(n)
            || !in_src
            || !REACHED_CRATES.contains(&fu.krate())
            || fu.sc.fn_of[fn_tok].is_some()
            || !is_pub(&fu.lx.tokens, fn_tok)
        {
            continue;
        }
        finding(fu, fu.lx.tokens[fn_tok].line, "fn", &node.name, report);
    }
    for (item, _) in items.iter().zip(&item_reached).filter(|(_, &r)| !r) {
        let fu = &ws.files[item.file];
        let toks = &fu.lx.tokens;
        finding(fu, toks[item.kw].line, &toks[item.kw].text, item.name, report);
    }
}

/// Report the unreached `pub <kind> <name>` at `line`, unless a reasoned
/// marker keeps it.
fn finding(fu: &FileUnit, line: u32, kind: &str, name: &str, report: &mut Report) {
    let msg = if !fu.allow(line, "unreached") {
        format!(
            "`pub {kind} {name}` is reached from no root (a `fn main`, an integration \
             `#[test]` or a name in benchmark/src): delete it, or mark it \
             `// lint:allow(unreached): <reason>`"
        )
    } else if allow_reason(fu, line).is_empty() {
        format!("`{MARKER}` on `pub {kind} {name}` gives no reason after a `:`")
    } else {
        return;
    };
    report.diags.push(Diag {
        code: "CAFL010",
        class: "unreached",
        file: fu.rel.clone(),
        line,
        msg,
    });
}

/// A module-level `pub const` or `pub static` of a runtime crate's
/// sources.
struct Item<'a> {
    file: usize,
    name: &'a str,
    /// Token index of the `const` / `static` keyword.
    kw: usize,
    /// Token index of the name.
    name_tok: usize,
    /// Token index of the item's closing `;`.
    end: usize,
}

/// Every live module-level `pub const NAME` / `pub static [mut] NAME` of
/// the [`REACHED_CRATES`]' `src` trees: not in a fn, not in an `impl` or
/// `trait` (every enclosing brace opens a `mod`), not `pub const fn`.
fn module_items(ws: &Workspace) -> Vec<Item<'_>> {
    let mut items = Vec::new();
    for (file, fu) in ws.files.iter().enumerate() {
        if !REACHED_CRATES.contains(&fu.krate())
            || !fu.rel.starts_with(&format!("crates/{}/src/", fu.krate()))
        {
            continue;
        }
        let toks = &fu.lx.tokens;
        for kw in 1..toks.len() {
            if !matches!(toks[kw].text.as_str(), "const" | "static")
                || toks[kw - 1].text != "pub"
                || fu.sc.in_test[kw]
                || fu.sc.fn_of[kw].is_some()
                || !in_modules_only(toks, &fu.sc.depth, kw)
            {
                continue;
            }
            let name_tok = kw + 1 + usize::from(toks.get(kw + 1).is_some_and(|t| t.text == "mut"));
            let (Some(name), Some(colon)) = (toks.get(name_tok), toks.get(name_tok + 1)) else {
                continue;
            };
            if name.kind != Kind::Ident || colon.text != ":" {
                continue;
            }
            // The `;` that ends the item, not one in an array type.
            let mut nest = 0i32;
            let end = (name_tok..toks.len())
                .find(|&i| {
                    match toks[i].text.as_str() {
                        "(" | "[" | "{" => nest += 1,
                        ")" | "]" | "}" => nest -= 1,
                        _ => {}
                    }
                    nest == 0 && toks[i].text == ";"
                })
                .unwrap_or(toks.len());
            items.push(Item { file, name: &name.text, kw, name_tok, end });
        }
    }
    items
}

/// Whether every brace enclosing token `i` opens a `mod NAME { .. }`.
fn in_modules_only(toks: &[Token], depth: &[u32], i: usize) -> bool {
    let mut d = depth[i];
    let mut j = i;
    while d > 0 {
        // The innermost enclosing `{` is the last one before `j` opened
        // at depth `d - 1`.
        let Some(open) = (0..j).rev().find(|&k| toks[k].text == "{" && depth[k] == d - 1) else {
            return false;
        };
        if open < 2 || toks[open - 2].text != "mod" {
            return false;
        }
        d -= 1;
        j = open;
    }
    true
}

/// `fn main` anywhere, or a `#[test]` fn of an integration-test file.
fn is_root(fu: &FileUnit, scope_fn: usize) -> bool {
    let f = &fu.sc.fns[scope_fn];
    if f.name == "main" {
        return true;
    }
    let mut parts = fu.rel.split('/');
    let integration = match parts.next() {
        Some("tests") => true,
        Some("crates") => parts.nth(1) == Some("tests"),
        _ => false,
    };
    integration && has_test_attr(&fu.lx.tokens, f.fn_tok)
}

/// Whether the token at `i` is an identifier that may name a fn: any but
/// a field access (`.name` followed by neither `(` nor `::`).
fn mentions(toks: &[Token], i: usize) -> bool {
    let after_dot = i > 0 && toks[i - 1].text == ".";
    toks[i].kind == Kind::Ident
        && (!after_dot
            || toks
                .get(i + 1)
                .is_some_and(|u| u.text == "(" || u.text == ":"))
}

/// Qualifiers that may sit between the visibility or attributes and `fn`.
fn qualifier(t: &Token) -> bool {
    t.kind == Kind::Ident && matches!(t.text.as_str(), "const" | "async" | "unsafe" | "extern")
        || t.kind == Kind::Str
}

/// `pub fn` exactly: `pub(crate)` and private fns are rustc's to flag.
fn is_pub(toks: &[Token], fn_tok: usize) -> bool {
    let mut i = fn_tok;
    while i > 0 && qualifier(&toks[i - 1]) {
        i -= 1;
    }
    i > 0 && toks[i - 1].text == "pub"
}

/// Whether one of the attributes right before the fn is `#[test]`.
fn has_test_attr(toks: &[Token], fn_tok: usize) -> bool {
    let mut i = fn_tok;
    while i > 0 && (qualifier(&toks[i - 1]) || toks[i - 1].text == "pub") {
        i -= 1;
    }
    // `i - 1` closes an attribute: walk back to its `#[`.
    while i > 1 && toks[i - 1].text == "]" {
        let close = i - 1;
        let mut depth = 0;
        let mut open = close;
        loop {
            match toks[open].text.as_str() {
                "]" => depth += 1,
                "[" => depth -= 1,
                _ => {}
            }
            if depth == 0 || open == 0 {
                break;
            }
            open -= 1;
        }
        if open + 2 == close && toks[open + 1].text == "test" {
            return true;
        }
        if open == 0 || toks[open - 1].text != "#" {
            return false;
        }
        i = open - 1;
    }
    false
}

/// The text after `lint:allow(unreached):` on `line` or the line above.
fn allow_reason(fu: &FileUnit, line: u32) -> &str {
    [line, line.saturating_sub(1)]
        .into_iter()
        .filter_map(|l| fu.lx.comment_on(l).split_once(MARKER))
        .find_map(|(_, tail)| tail.trim_start().strip_prefix(':'))
        .map_or("", str::trim)
}
