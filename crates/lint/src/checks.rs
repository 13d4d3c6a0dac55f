//! The lint passes. Each pass walks the token stream of one file with
//! its scope context and emits [`Diag`]s (stable code per class) and,
//! for the blocking pass, [`BlockSite`] inventory entries.
//!
//! | code    | class            | rule |
//! |---------|------------------|------|
//! | CAFL001 | `blocking`       | parking/blocking primitives in the modeled crates must carry gate evidence (the enclosing fn routes through `sched.rs`) |
//! | CAFL002 | `lock-across-park` | no `Mutex`/`RwLock` guard live across a gate/park call |
//! | CAFL003 | `atomic-ordering`  | every `Ordering::` use matches a checked-in justification table; SeqCst needs an explicit SeqCst rationale; stale entries flagged |
//! | CAFL004 | `unsafe`         | every `unsafe` token carries a `// SAFETY:` comment (same line or up to 3 lines above) |
//! | CAFL005 | `layering`       | substrates never reference core/agg/hpcc/model; no runtime crate names the `caf_check` oracle; other crates never deep-path into `caf_mpisim::x::` / `caf_gasnetsim::x::` internals |
//! | CAFL006 | `segment-direct` | raw `Segment` resolution only inside the instrumented substrate crates |
//! | CAFL007 | `nondeterminism` | no wall-clock / raw-spin primitives in the modeled crates outside `delay.rs` / `stall.rs` |
//!
//! Every class accepts a per-site `// lint:allow(<class>)` escape hatch
//! on the flagged line or the line above.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use crate::inventory::BlockSite;
use crate::lexer::{Kind, Lexed, Token};
use crate::ordering::OrderingTable;
use crate::scope::Scopes;
use crate::{Diag, Report};

/// Crates whose execution the `caf-model` scheduler gate controls — the
/// runtime; the blocking / lock-across-park / atomic-ordering /
/// nondeterminism audits apply to these, and none of them may name the
/// `caf-check` oracle that replays their trace from above.
pub const MODELED_CRATES: &[&str] = &["fabric", "mpisim", "gasnetsim", "core", "agg", "sched"];

/// The substrate crates: own the instrumented segment entry points
/// (exempt from `segment-direct`) and must never depend on the layers
/// above them.
pub const SUBSTRATE_CRATES: &[&str] = &["fabric", "mpisim", "gasnetsim"];

/// Upper-layer crate idents substrates must never reference.
const FORBIDDEN_IN_SUBSTRATES: &[&str] = &["caf", "caf_agg", "caf_hpcc", "caf_model"];

/// Idents that count as evidence the enclosing function routes its
/// blocking through the scheduler gate.
const GATE_EVIDENCE: &[&str] =
    &["sched", "model_blocking", "yield_op", "yield_tick", "register_thread"];

/// Idents that count as evidence the enclosing function routes its
/// blocking through the caf-sched cooperative park API (the task
/// executor): a raw primitive next to a `caf_sched::park()` retry loop
/// is the Threads-mode arm of a dual-mode wait, not an unguarded block.
const PARK_EVIDENCE: &[&str] = &["caf_sched"];

/// Gate API entry points whose call sites belong in the inventory.
const GATE_CALLS: &[(&str, &str)] = &[
    ("yield_op", "gate_announce"),
    ("model_blocking", "gate_blocking"),
    ("yield_tick", "gate_tick"),
    ("register_thread", "gate_register"),
    ("wait_hint", "gate_wait_hint"),
];

/// caf-sched cooperative park API entry points (always path-qualified
/// `caf_sched::<fn>` at call sites — the bare idents are too generic to
/// match): the suspension/resume points of `ExecMode::Tasks`.
const PARK_CALLS: &[(&str, &str)] = &[
    ("park", "task_park"),
    ("unpark", "task_unpark"),
    ("unpark_all", "task_unpark_all"),
    ("yield_now", "task_yield"),
];

/// Raw segment resolution entry points (the `segment-direct` class).
const SEGMENT_PATTERNS: &[&str] = &["win_segment", "local_segment"];

pub(crate) struct FileCtx<'a> {
    pub rel: &'a str,
    pub lx: &'a Lexed,
    pub toks: &'a [Token],
    pub sc: &'a Scopes,
    pub modeled: bool,
    pub substrate: bool,
    pub is_sched: bool,
    pub is_delay: bool,
    pub nd_allowed_file: bool,
    /// (marker line, class) pairs consumed by `allow()` — feeds the
    /// CAFL000 stale-allow audit.
    consumed: &'a RefCell<BTreeSet<(u32, String)>>,
}

impl<'a> FileCtx<'a> {
    pub fn new(
        rel: &'a str,
        lx: &'a Lexed,
        sc: &'a Scopes,
        consumed: &'a RefCell<BTreeSet<(u32, String)>>,
    ) -> Self {
        // A crate's `tests/` directory is test code, like a
        // `#[cfg(test)]` module: only `src/` is the crate.
        let krate = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split_once('/'))
            .filter(|(_, path)| path.starts_with("src/"))
            .map_or("", |(krate, _)| krate);
        let file_name = rel.rsplit('/').next().unwrap_or(rel);
        FileCtx {
            rel,
            lx,
            toks: &lx.tokens,
            sc,
            modeled: MODELED_CRATES.contains(&krate),
            substrate: SUBSTRATE_CRATES.contains(&krate),
            is_sched: rel == "crates/fabric/src/sched.rs" || rel.starts_with("crates/sched/"),
            is_delay: rel == "crates/fabric/src/delay.rs",
            nd_allowed_file: matches!(file_name, "delay.rs" | "stall.rs"),
            consumed,
        }
    }

    fn ident(&self, i: usize) -> Option<&str> {
        self.toks
            .get(i)
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text.as_str())
    }

    fn punct(&self, i: usize, c: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == Kind::Punct && t.text == c)
    }

    /// `.name(` at token `i` (the dot); returns true for a method call.
    fn method_call(&self, i: usize, name: &str) -> bool {
        self.punct(i, ".") && self.ident(i + 1) == Some(name) && self.punct(i + 2, "(")
    }

    /// `.name()` — method call with no arguments.
    fn empty_method_call(&self, i: usize, name: &str) -> bool {
        self.method_call(i, name) && self.punct(i + 3, ")")
    }

    /// `a::b` starting at token `i`.
    fn path2(&self, i: usize, a: &str, b: &str) -> bool {
        self.ident(i) == Some(a)
            && self.punct(i + 1, ":")
            && self.punct(i + 2, ":")
            && self.ident(i + 3) == Some(b)
    }

    fn allow(&self, line: u32, class: &str) -> bool {
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

    /// Does the innermost named fn enclosing token `i` contain any of
    /// `idents` in its body?
    fn fn_has_ident(&self, i: usize, idents: &[&str]) -> bool {
        let Some(fi) = self.sc.fn_of[i] else { return false };
        let f = &self.sc.fns[fi];
        self.toks[f.body_start..=f.body_end]
            .iter()
            .any(|t| t.kind == Kind::Ident && idents.contains(&t.text.as_str()))
    }

    fn fn_name(&self, i: usize) -> String {
        self.sc.fn_of[i]
            .map(|fi| self.sc.fns[fi].name.clone())
            .unwrap_or_else(|| "-".into())
    }

    /// Index of the `}` matching the `{` at token `b`.
    fn matching_brace(&self, b: usize) -> usize {
        let open_depth = self.sc.depth[b];
        for j in b + 1..self.toks.len() {
            if self.toks[j].kind == Kind::Punct
                && self.toks[j].text == "}"
                && self.sc.depth[j] == open_depth + 1
            {
                return j;
            }
        }
        self.toks.len() - 1
    }
}

/// Run every pass over one lexed file.
pub(crate) fn scan(ctx: &FileCtx, table: &OrderingTable, report: &mut Report) {
    blocking_pass(ctx, report);
    lock_across_park_pass(ctx, report);
    ordering_pass(ctx, table, report);
    unsafe_pass(ctx, report);
    layering_pass(ctx, report);
    segment_direct_pass(ctx, report);
    nondeterminism_pass(ctx, report);
}

fn push(report: &mut Report, code: &'static str, class: &'static str, ctx: &FileCtx, line: u32, msg: String) {
    report.diags.push(Diag { code, class, file: ctx.rel.to_string(), line, msg });
}

// ---------------------------------------------------------------- CAFL001

/// Blocking-point discipline + the `LINT_BLOCKING.json` inventory.
///
/// Raw parking primitives (`Condvar`, channel `recv`/`recv_timeout`,
/// `thread::park`, `JoinHandle::join`, busy-retry loops) in the modeled
/// crates must live in a function that routes through the `sched.rs`
/// gate (announce-before-execute), be the gate itself, or carry
/// `// lint:allow(blocking)`. Software waits (`.wait(...)` on requests,
/// `recv_blocking` call sites) block *via* gated primitives underneath;
/// they are recorded in the inventory as `via-callee` but are not
/// violations — they are exactly the resume points the caf-sched task
/// executor must know about.
fn blocking_pass(ctx: &FileCtx, report: &mut Report) {
    if !ctx.modeled {
        return;
    }
    let mut sites: Vec<(u32, &'static str, String, &'static str)> = Vec::new(); // line, kind, fn, gated
    let mut flagged: Vec<(u32, &'static str, String)> = Vec::new();

    let gate_status = |ctx: &FileCtx, i: usize, line: u32| -> &'static str {
        if ctx.is_sched || ctx.is_delay {
            "gate-internal"
        } else if ctx.fn_has_ident(i, PARK_EVIDENCE) {
            "park-api"
        } else if ctx.fn_has_ident(i, GATE_EVIDENCE) {
            "direct"
        } else if ctx.allow(line, "blocking") {
            "allowed"
        } else {
            "unguarded"
        }
    };

    let n = ctx.toks.len();
    for i in 0..n {
        if ctx.sc.in_test[i] {
            continue;
        }
        let line = ctx.toks[i].line;
        // Raw primitives that must be gated.
        let raw: Option<(&'static str, &'static str)> = if ctx.ident(i) == Some("Condvar")
            && ctx.punct(i + 1, ":")
        {
            Some(("condvar", "Condvar construction/wait loop"))
        } else if ctx.empty_method_call(i, "recv") {
            Some(("channel_recv", "blocking channel receive"))
        } else if ctx.method_call(i, "recv_timeout") {
            Some(("channel_recv_timeout", "blocking timed receive"))
        } else if ctx.path2(i, "thread", "park") || ctx.ident(i) == Some("park_timeout") {
            Some(("thread_park", "thread park"))
        } else if ctx.empty_method_call(i, "join") {
            Some(("thread_join", "thread join"))
        } else {
            None
        };
        if let Some((kind, what)) = raw {
            let status = gate_status(ctx, i, line);
            sites.push((line, kind, ctx.fn_name(i), status));
            if status == "unguarded" {
                flagged.push((line, kind, what.to_string()));
            }
            continue;
        }
        // Software waits: block via gated primitives underneath.
        if ctx.method_call(i, "wait")
            || ctx.method_call(i, "wait_timeout")
            || ctx.method_call(i, "wait_while")
        {
            let status = if ctx.is_sched { "gate-internal" } else { "via-callee" };
            sites.push((line, "request_wait", ctx.fn_name(i), status));
            continue;
        }
        if ctx.method_call(i, "recv_blocking") {
            sites.push((line, "recv_blocking", ctx.fn_name(i), "via-callee"));
            continue;
        }
        // Busy-retry loop: `loop { ... try_recv/poll ... }`.
        if ctx.ident(i) == Some("loop") && ctx.punct(i + 1, "{") {
            let end = ctx.matching_brace(i + 1);
            let polls = ctx.toks[i + 1..=end].iter().any(|t| {
                t.kind == Kind::Ident && (t.text == "try_recv" || t.text == "poll")
            });
            if polls {
                let status = if ctx.is_sched || ctx.is_delay {
                    "gate-internal"
                } else {
                    // try_recv/poll announce at every iteration, so the
                    // loop yields through the gate on each retry.
                    "via-callee"
                };
                sites.push((line, "spin_retry", ctx.fn_name(i), status));
            }
            continue;
        }
        // caf-sched park-API call sites: `caf_sched::park()` and friends
        // (matched path-qualified only — the bare idents are generic).
        if ctx.ident(i) == Some("caf_sched") && ctx.punct(i + 1, ":") && ctx.punct(i + 2, ":") {
            if let Some(name) = ctx.ident(i + 3) {
                if let Some((_, kind)) = PARK_CALLS.iter().find(|(n, _)| *n == name) {
                    if ctx.punct(i + 4, "(") {
                        let status =
                            if ctx.is_sched || ctx.is_delay { "gate-internal" } else { "park-api" };
                        sites.push((line, kind, ctx.fn_name(i), status));
                        continue;
                    }
                }
            }
        }
        // Gate API call sites (not their definitions in sched.rs).
        if let Some(name) = ctx.ident(i) {
            if let Some((_, kind)) = GATE_CALLS.iter().find(|(n, _)| *n == name) {
                let prev_is_fn = i > 0 && ctx.ident(i - 1) == Some("fn");
                if ctx.punct(i + 1, "(") && !prev_is_fn {
                    sites.push((line, kind, ctx.fn_name(i), "gate-api"));
                }
            }
        }
    }

    sites.sort();
    sites.dedup();
    // Key each site by its place among the same kind in the same fn, in
    // line order: code that only moves keeps its inventory row.
    let mut ordinals: BTreeMap<(String, &str), u32> = BTreeMap::new();
    for (_, kind, function, gated) in sites {
        let next = ordinals.entry((function.clone(), kind)).or_default();
        report.sites.push(BlockSite {
            file: ctx.rel.to_string(),
            function,
            kind: kind.to_string(),
            ordinal: *next,
            gated: gated.to_string(),
        });
        *next += 1;
    }
    for (line, kind, what) in flagged {
        push(
            report,
            "CAFL001",
            "blocking",
            ctx,
            line,
            format!(
                "{what} ({kind}) in a modeled crate without scheduler-gate evidence in the \
                 enclosing fn: route it through sched.rs (announce-before-execute) or mark \
                 `// lint:allow(blocking)` with a reason"
            ),
        );
    }
}

// ---------------------------------------------------------------- CAFL002

/// A `Mutex`/`RwLock` guard bound by `let` and still live when the same
/// scope announces/parks on the scheduler gate or enters a blocking
/// primitive. Under the model every other image is frozen while this
/// thread holds the lock and parks — the classic recipe for the gate's
/// wait-for graph to gain an edge no schedule can break.
fn lock_across_park_pass(ctx: &FileCtx, report: &mut Report) {
    if !ctx.modeled || ctx.is_sched {
        // sched.rs transfers its own gate-mutex guard into Condvar::wait
        // by design; it is the park implementation, not a client.
        return;
    }
    for f in &ctx.sc.fns {
        if ctx.sc.in_test[f.body_start] {
            continue;
        }
        let mut guards: Vec<(String, u32)> = Vec::new(); // (name, depth at let)
        let mut i = f.body_start;
        while i <= f.body_end {
            let depth = ctx.sc.depth[i];
            guards.retain(|&(_, d)| depth >= d);
            let line = ctx.toks[i].line;
            // `let [mut] name = <expr with .lock()/.read()/.write()>;`
            if ctx.ident(i) == Some("let") {
                let mut j = i + 1;
                if ctx.ident(j) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = ctx.ident(j) {
                    let name = name.to_string();
                    if ctx.punct(j + 1, "=") {
                        let mut k = j + 2;
                        let mut locks = false;
                        while k <= f.body_end && !ctx.punct(k, ";") {
                            if ctx.empty_method_call(k, "lock")
                                || ctx.empty_method_call(k, "read")
                                || ctx.empty_method_call(k, "write")
                            {
                                locks = true;
                            }
                            k += 1;
                        }
                        if locks && !ctx.allow(line, "lock-across-park") {
                            guards.push((name, depth));
                        }
                        i = k + 1;
                        continue;
                    }
                }
            }
            // Explicit release.
            if ctx.ident(i) == Some("drop") && ctx.punct(i + 1, "(") {
                if let Some(name) = ctx.ident(i + 2) {
                    if ctx.punct(i + 3, ")") {
                        guards.retain(|(g, _)| g != name);
                    }
                }
            }
            // Park points while a guard is live. `caf_sched::park` /
            // `yield_now` suspend the whole task: a guard held across
            // them stays locked while other images run in its place.
            let parks = matches!(ctx.ident(i), Some("yield_op" | "model_blocking" | "yield_tick"))
                && ctx.punct(i + 1, "(")
                || ctx.path2(i, "caf_sched", "park")
                || ctx.path2(i, "caf_sched", "yield_now")
                || ctx.empty_method_call(i, "recv")
                || ctx.method_call(i, "recv_timeout")
                || ctx.method_call(i, "recv_blocking")
                || ctx.method_call(i, "wait")
                || ctx.empty_method_call(i, "join");
            if parks && !guards.is_empty() && !ctx.allow(line, "lock-across-park") {
                let held: Vec<&str> = guards.iter().map(|(g, _)| g.as_str()).collect();
                let at = ctx
                    .ident(i)
                    .or_else(|| ctx.ident(i + 1))
                    .unwrap_or("block");
                push(
                    report,
                    "CAFL002",
                    "lock-across-park",
                    ctx,
                    line,
                    format!(
                        "lock guard(s) `{}` held across blocking/gate call `{at}` in fn \
                         `{}`: drop the guard first, or mark `// lint:allow(lock-across-park)`",
                        held.join("`, `"),
                        f.name
                    ),
                );
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------- CAFL003

/// Every `Ordering::<X>` use in non-test code of the modeled crates must
/// match a row of `crates/lint/orderings.tsv` keyed by
/// `(file, fn, callee, ordering)` and carrying a one-line justification.
/// SeqCst rows must *say* "SeqCst" in their justification (no
/// SeqCst-by-default drift: strengthening an ordering means writing down
/// why the strongest one is needed). Table rows matching no site are
/// flagged as stale so the table never outlives the code.
fn ordering_pass(ctx: &FileCtx, table: &OrderingTable, report: &mut Report) {
    if !ctx.modeled {
        return;
    }
    const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    // Track the callee of the innermost open paren group.
    let mut paren_stack: Vec<String> = Vec::new();
    for i in 0..ctx.toks.len() {
        match (ctx.toks[i].kind, ctx.toks[i].text.as_str()) {
            (Kind::Punct, "(") => {
                let callee = if i > 0 && ctx.toks[i - 1].kind == Kind::Ident {
                    ctx.toks[i - 1].text.clone()
                } else {
                    String::from("-")
                };
                paren_stack.push(callee);
            }
            (Kind::Punct, ")") => {
                paren_stack.pop();
            }
            _ => {}
        }
        if ctx.sc.in_test[i] {
            continue;
        }
        if ctx.ident(i) != Some("Ordering") || !ctx.punct(i + 1, ":") || !ctx.punct(i + 2, ":") {
            continue;
        }
        let Some(ord) = ctx.ident(i + 3) else { continue };
        if !ORDERINGS.contains(&ord) {
            continue;
        }
        let line = ctx.toks[i].line;
        if ctx.allow(line, "atomic-ordering") {
            continue;
        }
        let callee = paren_stack.last().cloned().unwrap_or_else(|| "-".into());
        let key = OrderingTable::key(ctx.rel, &ctx.fn_name(i), &callee, ord);
        report.ordering_keys_seen.insert(key.clone());
        match table.justification(&key) {
            None => push(
                report,
                "CAFL003",
                "atomic-ordering",
                ctx,
                line,
                format!(
                    "Ordering::{ord} in `{callee}(..)` (fn `{}`) has no row in \
                     crates/lint/orderings.tsv; add `{key}<TAB><justification>` \
                     (or run `cargo xtask lint --update-orderings` to stub it)",
                    ctx.fn_name(i)
                ),
            ),
            Some(j) if ord == "SeqCst" && !j.contains("SeqCst") => push(
                report,
                "CAFL003",
                "atomic-ordering",
                ctx,
                line,
                format!(
                    "Ordering::SeqCst in `{callee}(..)` justified without mentioning SeqCst: \
                     say why the strongest ordering is required (SeqCst-by-default drift)"
                ),
            ),
            Some(_) => {}
        }
    }
}

// ---------------------------------------------------------------- CAFL004

/// Every `unsafe` token (block, fn, impl, trait) needs a `// SAFETY:`
/// comment on the same line or within the three lines above.
fn unsafe_pass(ctx: &FileCtx, report: &mut Report) {
    for i in 0..ctx.toks.len() {
        if ctx.ident(i) != Some("unsafe") {
            continue;
        }
        let line = ctx.toks[i].line;
        if ctx.allow(line, "unsafe") {
            continue;
        }
        let documented = (0..=3).any(|k| {
            line > k && ctx.lx.comment_on(line - k).contains("SAFETY:")
        });
        if !documented {
            push(
                report,
                "CAFL004",
                "unsafe",
                ctx,
                line,
                "`unsafe` without a `// SAFETY:` comment (same line or up to 3 lines above): \
                 state the invariant that makes this sound, or mark `// lint:allow(unsafe)`"
                    .into(),
            );
        }
    }
}

// ---------------------------------------------------------------- CAFL005

/// Use-graph layering. Substrates (`fabric`, `mpisim`, `gasnetsim`)
/// never name the layers above them (`caf`, `caf_agg`, `caf_hpcc`,
/// `caf_model`); no runtime crate names `caf_check`, the oracle that
/// replays their trace; everything else reaches `caf_mpisim` /
/// `caf_gasnetsim` only through their crate-root re-exports, never
/// `crate::module::` deep paths (a lowercase path segment right after the
/// crate name).
fn layering_pass(ctx: &FileCtx, report: &mut Report) {
    for i in 0..ctx.toks.len() {
        let Some(id) = ctx.ident(i) else { continue };
        let line = ctx.toks[i].line;
        if ctx.modeled && id == "caf_check" && !ctx.allow(line, "layering") {
            push(
                report,
                "CAFL005",
                "layering",
                ctx,
                line,
                "runtime crate names the `caf_check` oracle: the checker replays the trace \
                 from above the runtime — record what it needs instead"
                    .into(),
            );
        }
        if ctx.substrate {
            if FORBIDDEN_IN_SUBSTRATES.contains(&id)
                && ctx.punct(i + 1, ":")
                && ctx.punct(i + 2, ":")
                && !ctx.allow(line, "layering")
            {
                push(
                    report,
                    "CAFL005",
                    "layering",
                    ctx,
                    line,
                    format!(
                        "substrate crate references upper layer `{id}::`: substrates must \
                         not depend on core/agg/hpcc/model"
                    ),
                );
            }
        } else if matches!(id, "caf_mpisim" | "caf_gasnetsim")
            && ctx.punct(i + 1, ":")
            && ctx.punct(i + 2, ":")
        {
            if let Some(seg) = ctx.ident(i + 3) {
                let deep = seg.starts_with(|c: char| c.is_ascii_lowercase())
                    && ctx.punct(i + 4, ":")
                    && ctx.punct(i + 5, ":");
                if deep && !ctx.allow(line, "layering") {
                    push(
                        report,
                        "CAFL005",
                        "layering",
                        ctx,
                        line,
                        format!(
                            "deep path `{id}::{seg}::` reaches into substrate internals: \
                             use (or add) a crate-root re-export instead"
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- CAFL006

/// Raw segment resolution outside the instrumented substrate crates
/// bypasses the caf-trace events and caf-check sanitizer hooks.
fn segment_direct_pass(ctx: &FileCtx, report: &mut Report) {
    if ctx.substrate {
        return;
    }
    for i in 0..ctx.toks.len() {
        let line = ctx.toks[i].line;
        let pat: Option<String> = if let Some(id) = ctx.ident(i) {
            (SEGMENT_PATTERNS.contains(&id) && ctx.punct(i + 1, "("))
                .then(|| format!("{id}("))
        } else if ctx.method_call(i, "segment") {
            Some(".segment(".into())
        } else {
            None
        };
        if let Some(pat) = pat {
            if !ctx.allow(line, "segment-direct") {
                push(
                    report,
                    "CAFL006",
                    "segment-direct",
                    ctx,
                    line,
                    format!(
                        "direct segment access `{pat}` outside the instrumented substrate \
                         entry points (route through the mpisim/gasnetsim API, or mark \
                         `// lint:allow(segment-direct)`)"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------- CAFL007

/// Wall-clock / raw-spin primitives in the modeled crates make schedules
/// depend on real time, which breaks replay under the scheduler gate.
/// Timing is centralized in `fabric/src/delay.rs` and the watchdog in
/// `trace/src/stall.rs`.
fn nondeterminism_pass(ctx: &FileCtx, report: &mut Report) {
    if !ctx.modeled || ctx.nd_allowed_file {
        return;
    }
    for i in 0..ctx.toks.len() {
        if ctx.sc.in_test[i] {
            continue;
        }
        let pat: Option<&str> = if ctx.path2(i, "thread", "sleep") {
            Some("thread::sleep")
        } else if ctx.path2(i, "Instant", "now") {
            Some("Instant::now")
        } else if ctx.ident(i) == Some("spin_loop") && ctx.punct(i + 1, "(") {
            Some("spin_loop(")
        } else {
            None
        };
        if let Some(pat) = pat {
            let line = ctx.toks[i].line;
            if !ctx.allow(line, "nondeterminism") {
                push(
                    report,
                    "CAFL007",
                    "nondeterminism",
                    ctx,
                    line,
                    format!(
                        "nondeterministic `{pat}` in a modeled crate (use the gated \
                         primitives in fabric/src/delay.rs, or mark \
                         `// lint:allow(nondeterminism)`)"
                    ),
                );
            }
        }
    }
}
