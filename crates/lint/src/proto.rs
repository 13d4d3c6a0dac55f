//! CAFL008 `sync-protocol`: the static twin of caf-check's epoch
//! checker — an abstract-state walk of the CAF API over every kernel,
//! example, and integration-test body (`crates/hpcc`, `examples/`,
//! `tests/`).
//!
//! The abstraction mirrors what the runtime actually does (verified
//! against `crates/core`): deferred one-sided work — `copy_async_*`,
//! `team_*_async`, `agg_accumulate_*` — makes the image *dirty*; only
//! `cofence`/`cofence_with_event`, `event_notify[_with_flush]` (release
//! barrier through `release_all()`), and `finish`/`finish_fast` closure
//! exit (drain + `release_all()` + Yang termination) make it clean
//! again. Collectives (`barrier`, `sync_all`, reductions) do **not**
//! call `release_all()` and therefore do not clean — exactly the §4.1
//! unflushed-put hazard this pass exists to catch before a schedule
//! runs.
//!
//! Per function we compute a gen/kill effect summary over its CFG —
//! `may_gen`: some path can leave new dirty work at return; `must_kill`:
//! every path releases everything — composed interprocedurally over the
//! call graph to a fixpoint. Closures are handled by multiplicity:
//! `finish`-closures run exactly once (and their exit releases),
//! `ship`-closures run remotely under the paper's finish accounting
//! (drained by the target after execution — but must not contain team
//! collectives, and the `ship` itself must be under a `finish`),
//! let-bound closures apply their summary at each call site, and
//! anonymous closures join as may-execute.
//!
//! Findings (at *root* bodies — functions no in-scope fn calls):
//! - dirty-at-exit on some path (release missing on a branch, a
//!   loop-carried put, an early return);
//! - `event_wait` with no reachable `event_notify` anywhere in the same
//!   program (SPMD notify/wait pairing);
//! - `ship` never under a `finish` block;
//!
//! and, at any function: a team collective inside a `ship`ped closure
//! (shipped functions must not call collectives).
//!
//! **Failure edges** (DESIGN.md §17): a program that reaches any
//! failed-image API — a `_stat` blocking variant, `team_reform`,
//! `fail_image`, `image_status`, `failed_images` — is *fault-aware*: it
//! expects images to die. In such a program every blocking call that
//! has a `_stat` twin but doesn't thread the `Stat` out-param
//! (`barrier`, `sync_all`, `event_wait`, `allreduce`, `finish`,
//! `finish_fast`) is a failure edge: once an image fails it panics
//! instead of reporting, undoing the recovery the rest of the program
//! was written for. Each such site is flagged at fault-aware roots.
//! Programs that never touch the fault API are exempt — plain blocking
//! calls are the correct idiom on a failure-free team.
//!
//! Escape hatch: `// lint:allow(sync-protocol)` (or the code-spelled
//! `// lint:allow(CAFL008)`) on the flagged line or the line above.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::cfg::{self, Cfg};
use crate::lexer::Kind;
use crate::{Diag, Report, Workspace};

/// Ops that defer completion to the next release point.
const DIRTY_OPS: &[&str] = &[
    "copy_async_put",
    "copy_async_get",
    "copy_async_between",
    "team_broadcast_async",
    "agg_accumulate_xor",
    "agg_accumulate_add",
];

/// Ops that release *all* outstanding deferred work (route through
/// `release_all()` in `crates/core`).
const RELEASE_OPS: &[&str] =
    &["cofence", "cofence_with_event", "event_notify"];

const NOTIFY_OPS: &[&str] = &["event_notify"];
const WAIT_OP: &str = "event_wait";

/// Team collectives (do NOT release deferred work; forbidden inside
/// shipped closures).
const COLLECTIVE_OPS: &[&str] = &[
    "barrier",
    "sync_all",
    "sync_images",
    "broadcast",
    "reduce",
    "allreduce",
    "allgather",
    "allgatherv",
    "alltoall",
    "alltoall_into",
    "alltoall_lend",
    "team_split",
    "coarray_alloc",
    "coarray_free",
    "event_alloc",
];

/// Other API idents that mark a body as CAF code (for root selection).
const API_MARKERS: &[&str] = &["finish", "finish_fast", "ship", "event_wait", "event_trywait"];

/// Failed-image API (DESIGN.md §17): reaching any of these marks the
/// whole program as fault-aware.
const FAULT_API_OPS: &[&str] = &[
    "barrier_stat",
    "sync_all_stat",
    "allreduce_stat",
    "event_wait_stat",
    "finish_stat",
    "team_reform",
    "fail_image",
    "image_status",
    "failed_images",
];

/// Blocking calls with a `_stat` twin. In a fault-aware program each of
/// these is a failure edge — it panics on a failed image instead of
/// reporting. (`finish`/`finish_fast` are handled in their own branch;
/// they are failure edges too.)
const BLIND_BLOCKING_OPS: &[&str] = &["barrier", "sync_all", "event_wait", "allreduce"];

fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/hpcc/") || rel.starts_with("examples/") || rel.starts_with("tests/")
}

/// Gen/kill effect of running a region: `may_gen` — some path leaves
/// new unreleased work; `must_kill` — every path ends with a full
/// release after the last deferred op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Effect {
    may_gen: bool,
    must_kill: bool,
}

/// Interprocedural summary of one function (or closure body).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Summary {
    eff: Effect,
    /// Representative site of dirty work that may go unreleased.
    gen_site: Option<(usize, u32)>,
    uses_api: bool,
    wait_site: Option<(usize, u32)>,
    has_notify: bool,
    has_collective: bool,
    /// `ship` at finish-depth 0 in this body (caller may satisfy it).
    bare_ship: Option<(usize, u32)>,
    /// Reaches failed-image API (`_stat` variants, `team_reform`, ...).
    uses_fault_api: bool,
    /// Blocking calls with a `_stat` twin that don't thread `Stat` —
    /// failure edges if the program turns out to be fault-aware.
    blind_sites: BTreeSet<(usize, u32)>,
}

/// Per-path dataflow state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct S {
    gen: bool,
    kill: bool,
    site: Option<(usize, u32)>,
}

impl S {
    fn entry() -> S {
        S { gen: false, kill: false, site: None }
    }

    fn join(a: S, b: S) -> S {
        S {
            gen: a.gen || b.gen,
            kill: a.kill && b.kill,
            site: a.site.or(b.site),
        }
    }

    fn apply(&mut self, e: &Summary) {
        if e.eff.must_kill {
            self.kill = true;
            self.gen = false;
            self.site = None;
        }
        if e.eff.may_gen {
            self.gen = true;
            if self.site.is_none() {
                self.site = e.gen_site;
            }
        }
    }
}

struct Pass<'a> {
    ws: &'a Workspace,
    graph: &'a CallGraph,
    summaries: Vec<Summary>,
    /// In-scope (hpcc/examples/tests, non-test-cfg) call-graph nodes.
    scoped: Vec<bool>,
    /// Emit findings (final reporting round only).
    emit: bool,
    dedup: BTreeSet<(usize, u32, &'static str)>,
    findings: Vec<Diag>,
}

/// Run CAFL008 over the workspace.
pub fn sync_protocol_pass(ws: &Workspace, graph: &CallGraph, report: &mut Report) {
    let scoped: Vec<bool> = graph
        .nodes
        .iter()
        .map(|n| {
            let fu = &ws.files[n.file];
            in_scope(&fu.rel) && !fu.sc.in_test.get(n.body.0).copied().unwrap_or(false)
        })
        .collect();
    let mut pass = Pass {
        ws,
        graph,
        summaries: vec![Summary::default(); graph.nodes.len()],
        scoped,
        emit: false,
        dedup: BTreeSet::new(),
        findings: Vec::new(),
    };
    // Fixpoint over fn summaries (monotone in may_gen/flags; bounded).
    for _ in 0..12 {
        let mut changed = false;
        for n in 0..pass.graph.nodes.len() {
            if !pass.scoped[n] {
                continue;
            }
            let s = pass.summarize_fn(n);
            if s != pass.summaries[n] {
                pass.summaries[n] = s;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Reporting round: collective-in-ship fires anywhere; the protocol
    // obligations fire at roots (fns no in-scope fn calls into).
    pass.emit = true;
    let mut called: BTreeSet<usize> = BTreeSet::new();
    for n in 0..pass.graph.nodes.len() {
        if !pass.scoped[n] {
            continue;
        }
        for cs in &pass.graph.calls[n] {
            called.insert(cs.callee);
        }
    }
    for n in 0..pass.graph.nodes.len() {
        if !pass.scoped[n] {
            continue;
        }
        let s = pass.summarize_fn(n);
        if called.contains(&n) {
            continue;
        }
        let root = pass.graph.nodes[n].name.clone();
        if s.eff.may_gen {
            if let Some((fi, line)) = s.gen_site {
                pass.finding(
                    fi,
                    line,
                    "dirty-exit",
                    format!(
                        "deferred one-sided work issued here may never be released on some \
                         path through `{root}` (add cofence/event_notify, or end the program \
                         inside finish)"
                    ),
                );
            }
        }
        if let Some((fi, line)) = s.wait_site {
            if !s.has_notify {
                pass.finding(
                    fi,
                    line,
                    "wait-no-notify",
                    format!(
                        "event_wait reachable from `{root}` pairs with no event_notify \
                         anywhere in the same program (SPMD notify/wait pairing)"
                    ),
                );
            }
        }
        if let Some((fi, line)) = s.bare_ship {
            pass.finding(
                fi,
                line,
                "ship-no-finish",
                format!(
                    "ship() reachable from `{root}` without an enclosing finish block: \
                     its completion is never awaited (Yang termination accounting)"
                ),
            );
        }
        if s.uses_fault_api {
            for (fi, line) in s.blind_sites.clone() {
                pass.finding(
                    fi,
                    line,
                    "failure-blind",
                    format!(
                        "blocking call without a Stat out-param in the fault-aware \
                         program rooted at `{root}`: once an image fails this panics \
                         instead of reporting (use the _stat twin, or \
                         lint:allow(CAFL008) if the call provably runs on a \
                         failure-free team)"
                    ),
                );
            }
        }
    }
    report.diags.append(&mut pass.findings);
}

impl<'a> Pass<'a> {
    fn finding(&mut self, file_idx: usize, line: u32, kind: &'static str, msg: String) {
        if !self.emit || !self.dedup.insert((file_idx, line, kind)) {
            return;
        }
        let fu = &self.ws.files[file_idx];
        // Both spellings work: the class name and the diagnostic code
        // (the ISSUE-facing form for failure edges).
        if fu.allow(line, "sync-protocol") || fu.allow(line, "CAFL008") {
            return;
        }
        self.findings.push(Diag {
            code: "CAFL008",
            class: "sync-protocol",
            file: fu.rel.clone(),
            line,
            msg,
        });
    }

    fn summarize_fn(&mut self, n: usize) -> Summary {
        let (bs, be) = self.graph.nodes[n].body;
        self.summarize_range(n, bs + 1, be, 0, 0)
    }

    /// Summarize a token range as a CFG dataflow; `fdepth` is the
    /// current finish-closure nesting, `cdepth` bounds closure
    /// recursion.
    fn summarize_range(
        &mut self,
        node: usize,
        start: usize,
        end: usize,
        fdepth: u32,
        cdepth: u32,
    ) -> Summary {
        let file_idx = self.graph.nodes[node].file;
        let toks = &self.ws.files[file_idx].lx.tokens;
        if cdepth > 16 || start >= end {
            return Summary::default();
        }
        let g = cfg::build_range(toks, start, end);

        // Let-bound closure environment, in definition order.
        let mut env: BTreeMap<String, Summary> = BTreeMap::new();
        for ci in 0..g.closures.len() {
            if let Some(name) = g.closures[ci].name.clone() {
                let (cs, ce) = g.closures[ci].body;
                let s = self.summarize_range(node, cs, ce, fdepth, cdepth + 1);
                env.insert(name, s);
            }
        }

        let mut out = Summary::default();
        let nb = g.blocks.len();
        let mut inp: Vec<Option<S>> = vec![None; nb];
        inp[0] = Some(S::entry());
        let mut work = vec![0usize];
        let mut used_closures: BTreeSet<usize> = BTreeSet::new();
        while let Some(b) = work.pop() {
            let Some(s_in) = inp[b] else { continue };
            let s_out = self.transfer(node, &g, b, s_in, fdepth, cdepth, &env, &mut out, &mut used_closures);
            for &succ in &g.blocks[b].succs {
                let joined = match inp[succ] {
                    None => s_out,
                    Some(prev) => S::join(prev, s_out),
                };
                if inp[succ] != Some(joined) {
                    inp[succ] = Some(joined);
                    work.push(succ);
                }
            }
        }
        let exit = inp[g.exit].unwrap_or(S::entry());
        out.eff = Effect { may_gen: exit.gen, must_kill: exit.kill };
        out.gen_site = exit.site;
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn transfer(
        &mut self,
        node: usize,
        g: &Cfg,
        b: usize,
        mut s: S,
        fdepth: u32,
        cdepth: u32,
        env: &BTreeMap<String, Summary>,
        out: &mut Summary,
        used_closures: &mut BTreeSet<usize>,
    ) -> S {
        let file_idx = self.graph.nodes[node].file;

        // Merge token positions and closure literals into one ordered
        // event stream.
        enum Ev {
            Tok(usize),
            Clo(usize),
        }
        let mut evs: Vec<(usize, Ev)> = Vec::new();
        for &(rs, re) in &g.blocks[b].ranges {
            for i in rs..re {
                evs.push((i, Ev::Tok(i)));
            }
        }
        for (ci, c) in g.closures.iter().enumerate() {
            if c.block == b {
                evs.push((c.token, Ev::Clo(ci)));
            }
        }
        evs.sort_by_key(|&(p, _)| p);

        for (_, ev) in evs {
            match ev {
                Ev::Tok(i) => {
                    let toks = &self.ws.files[file_idx].lx.tokens;
                    let is_dot = toks[i].kind == Kind::Punct && toks[i].text == ".";
                    let name_at = |k: usize| {
                        toks.get(k).filter(|t| t.kind == Kind::Ident).map(|t| t.text.clone())
                    };
                    let open_after =
                        |k: usize| toks.get(k).is_some_and(|t| t.kind == Kind::Punct && t.text == "(");
                    if is_dot {
                        let Some(nm) = name_at(i + 1) else { continue };
                        if !open_after(i + 2) {
                            continue;
                        }
                        let line = toks[i + 1].line;
                        let nm = nm.as_str();
                        if DIRTY_OPS.contains(&nm) {
                            out.uses_api = true;
                            s.gen = true;
                            if s.site.is_none() {
                                s.site = Some((file_idx, line));
                            }
                        } else if RELEASE_OPS.contains(&nm) {
                            out.uses_api = true;
                            s.gen = false;
                            s.kill = true;
                            s.site = None;
                            if NOTIFY_OPS.contains(&nm) {
                                out.has_notify = true;
                            }
                        } else if nm == WAIT_OP {
                            out.uses_api = true;
                            if out.wait_site.is_none() {
                                out.wait_site = Some((file_idx, line));
                            }
                            out.blind_sites.insert((file_idx, line));
                        } else if COLLECTIVE_OPS.contains(&nm) {
                            out.uses_api = true;
                            out.has_collective = true;
                            if BLIND_BLOCKING_OPS.contains(&nm) {
                                out.blind_sites.insert((file_idx, line));
                            }
                        } else if nm == "finish" || nm == "finish_fast" || nm == "finish_stat" {
                            out.uses_api = true;
                            if nm == "finish_stat" {
                                out.uses_fault_api = true;
                            } else {
                                out.blind_sites.insert((file_idx, line));
                            }
                            // Run the finish closure exactly once; its
                            // exit releases everything (drain + Yang
                            // termination + release_all). finish_stat's
                            // failure path *discards* the counters — the
                            // deferred work is dropped, not deferred
                            // further, so it releases for this
                            // abstraction too (DESIGN.md §17).
                            if let Some(ci) = self.closure_after(
                                g,
                                i,
                                &["finish", "finish_fast", "finish_stat"],
                                used_closures,
                            ) {
                                let (cs, ce) = g.closures[ci].body;
                                let inner = self.summarize_range(node, cs, ce, fdepth + 1, cdepth + 1);
                                merge_flags(out, &inner);
                            }
                            s.gen = false;
                            s.kill = true;
                            s.site = None;
                        } else if FAULT_API_OPS.contains(&nm) {
                            out.uses_api = true;
                            out.uses_fault_api = true;
                            // The stat collectives are still collectives
                            // for the ship rule (remote execution
                            // context deadlocks either way).
                            if matches!(nm, "barrier_stat" | "sync_all_stat" | "allreduce_stat") {
                                out.has_collective = true;
                            }
                        } else if nm == "ship" {
                            out.uses_api = true;
                            let line = toks[i + 1].line;
                            if let Some(ci) = self.closure_after(g, i, &["ship"], used_closures) {
                                let (cs, ce) = g.closures[ci].body;
                                // The shipped body runs remotely under
                                // the target's finish accounting: its
                                // dirty work is drained after execution,
                                // but collectives inside it deadlock.
                                let inner = self.summarize_range(node, cs, ce, fdepth, cdepth + 1);
                                if inner.has_collective {
                                    self.finding(
                                        file_idx,
                                        line,
                                        "collective-in-ship",
                                        "team collective inside a ship()ped closure: shipped \
                                         functions must not call collectives (remote execution \
                                         context)"
                                            .to_string(),
                                    );
                                }
                                out.wait_site = out.wait_site.or(inner.wait_site);
                                out.has_notify |= inner.has_notify;
                            }
                            if fdepth == 0 && out.bare_ship.is_none() {
                                out.bare_ship = Some((file_idx, line));
                            }
                        } else if API_MARKERS.contains(&nm) {
                            out.uses_api = true;
                        } else {
                            // Resolved method call into scoped code.
                            self.apply_call(node, i + 1, fdepth, &mut s, out);
                        }
                    } else if toks[i].kind == Kind::Ident && open_after(i + 1) {
                        let skip = i > 0
                            && ((toks[i - 1].kind == Kind::Punct && toks[i - 1].text == ".")
                                || (toks[i - 1].kind == Kind::Ident && toks[i - 1].text == "fn"));
                        if skip {
                            continue;
                        }
                        if let Some(cs) = env.get(toks[i].text.as_str()) {
                            // Let-bound closure call: apply its summary.
                            let cs = cs.clone();
                            s.apply(&cs);
                            merge_flags(out, &cs);
                            if fdepth == 0 {
                                out.bare_ship = out.bare_ship.or(cs.bare_ship);
                            }
                        } else {
                            self.apply_call(node, i, fdepth, &mut s, out);
                        }
                    }
                }
                Ev::Clo(ci) => {
                    let c = &g.closures[ci];
                    if c.name.is_some()
                        || used_closures.contains(&ci)
                        || matches!(
                            c.arg_of.as_deref(),
                            Some("finish" | "finish_fast" | "finish_stat" | "ship")
                        )
                    {
                        continue;
                    }
                    // Anonymous closure: may execute, any number of
                    // times — join its generated work, never its kills.
                    let (cs, ce) = c.body;
                    let inner = self.summarize_range(node, cs, ce, fdepth, cdepth + 1);
                    if inner.eff.may_gen {
                        s.gen = true;
                        if s.site.is_none() {
                            s.site = inner.gen_site;
                        }
                    }
                    merge_flags(out, &inner);
                    if fdepth == 0 {
                        out.bare_ship = out.bare_ship.or(inner.bare_ship);
                    }
                }
            }
        }
        s
    }

    /// The first unconsumed closure after token `i` that is an argument
    /// of one of `callees`.
    fn closure_after(
        &self,
        g: &Cfg,
        i: usize,
        callees: &[&str],
        used: &mut BTreeSet<usize>,
    ) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (ci, c) in g.closures.iter().enumerate() {
            if c.token > i
                && !used.contains(&ci)
                && c.arg_of.as_deref().is_some_and(|a| callees.contains(&a))
                && best.is_none_or(|b| c.token < g.closures[b].token)
            {
                best = Some(ci);
            }
        }
        if let Some(ci) = best {
            used.insert(ci);
        }
        best
    }

    /// Apply the summaries of the call-graph-resolved callees at the
    /// name token `tok` (worst-case join over candidates).
    fn apply_call(&mut self, node: usize, tok: usize, fdepth: u32, s: &mut S, out: &mut Summary) {
        let mut cands: Vec<usize> = self.graph.calls[node]
            .iter()
            .filter(|cs| cs.token == tok && self.scoped[cs.callee])
            .map(|cs| cs.callee)
            .collect();
        cands.dedup();
        if cands.is_empty() {
            return;
        }
        let mut joined = self.summaries[cands[0]].clone();
        for &c in &cands[1..] {
            let sc = &self.summaries[c];
            joined.eff.may_gen |= sc.eff.may_gen;
            joined.eff.must_kill &= sc.eff.must_kill;
            joined.gen_site = joined.gen_site.or(sc.gen_site);
            joined.uses_api |= sc.uses_api;
            joined.wait_site = joined.wait_site.or(sc.wait_site);
            joined.has_notify |= sc.has_notify;
            joined.has_collective |= sc.has_collective;
            joined.bare_ship = joined.bare_ship.or(sc.bare_ship);
            joined.uses_fault_api |= sc.uses_fault_api;
            joined.blind_sites.extend(sc.blind_sites.iter().copied());
        }
        s.apply(&joined);
        merge_flags(out, &joined);
        if fdepth == 0 {
            out.bare_ship = out.bare_ship.or(joined.bare_ship);
        }
    }
}

fn merge_flags(out: &mut Summary, inner: &Summary) {
    out.uses_api |= inner.uses_api;
    out.wait_site = out.wait_site.or(inner.wait_site);
    out.has_notify |= inner.has_notify;
    out.has_collective |= inner.has_collective;
    out.uses_fault_api |= inner.uses_fault_api;
    out.blind_sites.extend(inner.blind_sites.iter().copied());
}
