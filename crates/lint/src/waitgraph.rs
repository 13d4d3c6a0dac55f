//! CAFL009 `wait-graph`: an interprocedural lock/park order graph over
//! the modeled crates, committed as `LINT_WAITGRAPH.json`.
//!
//! CAFL002 catches a guard held across a park **in the same function**.
//! The deadlocks that survive review are the other kind: `f` takes a
//! `Mutex` and calls `g`, `g` calls `h`, and `h` parks on the scheduler
//! gate or a channel — the wait-for graph gains an edge no schedule can
//! break, three frames away from the `lock()`. This pass builds the
//! whole graph statically:
//!
//! - **Nodes** are lock acquisition classes — `lock:<crate>/<receiver>`
//!   for every `.lock()`/`.read()`/`.write()` (empty-arg) in the modeled
//!   crates — and park classes — `park:<crate>/<kind>` for the same park
//!   set CAFL001's blocking inventory tracks (channel `recv*`, condvar
//!   `wait*`, `join`, `thread::park`, the `caf_sched` park API, and the
//!   gate calls `yield_op`/`model_blocking`/`yield_tick`).
//! - **Edges** are held-across facts. While a let-bound guard is live
//!   (CAFL002's tracking: depth-scoped, `drop()`-released), a direct
//!   park yields an `intra` lock→park edge (CAFL002's domain — recorded,
//!   not re-flagged) and a direct acquisition yields a lock→lock order
//!   edge. A *call* to a function whose transitive summary (fixpoint
//!   union over the call graph) contains parks or locks yields `inter`
//!   edges — and an `inter` lock→park edge is a CAFL009 finding unless
//!   the call site carries `// lint:allow(wait-graph)` (then the edge is
//!   committed with `"status": "allowed"` so reviewers see it).
//! - **Cycles** of length ≥ 2 in the lock→lock order graph are
//!   findings (AB/BA ordering inversions). Self-loops are recorded but
//!   not flagged: same-named sharded locks (`shards[i]`/`shards[j]`)
//!   share a node and a self-edge there is usually disjoint shards, not
//!   re-entry.
//!
//! The graph is rendered deterministically and byte-compared against
//! the committed `LINT_WAITGRAPH.json` on every `cargo xtask lint` run;
//! its `inter`/`intra` edges seed the `waitgraph_targeted` caf-model
//! scenario, which walks schedules that maximize contention on exactly
//! the statically-found held-across edges.
//!
//! `crates/fabric/src/sched.rs`, `crates/fabric/src/delay.rs`, and
//! `crates/sched/` are excluded: they *are* the park implementation
//! (the gate transfers its own mutex into `Condvar::wait` by design).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::checks::MODELED_CRATES;
use crate::lexer::Kind;
use crate::{Diag, Report, Workspace};

/// One node: a lock class or a park class.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Node {
    pub id: String,
    pub kind: String, // "lock" | "park"
    pub file: String,
    pub function: String,
}

/// One held-across (lock→park) or order (lock→lock) edge.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub from: String,
    pub to: String,
    /// "intra" (same fn) or "inter" (through at least one call).
    pub scope: String,
    pub file: String,
    /// Where the edge arises: diagnostics report it, the committed graph
    /// does not.
    pub line: u32,
    pub function: String,
    /// The park/lock name (intra) or the callee carrying it (inter).
    pub via: String,
    /// "ok" (order / intra record), "flagged", or "allowed".
    pub status: String,
}

/// The committed wait graph (`caf-lint-waitgraph-v2`).
#[derive(Debug, Default)]
pub struct Graph {
    pub nodes: Vec<Node>,
    pub edges: Vec<Edge>,
}

impl Graph {
    /// Render deterministically (sorted, one row per line — reviewable
    /// diffs, byte-compared in CI). No row holds a line number: an edge
    /// is one row per distinct (from, to, scope, file, function, via,
    /// status), so code that only moves leaves the graph unchanged.
    pub fn render(&self) -> String {
        let mut nodes: Vec<&Node> = self.nodes.iter().collect();
        nodes.sort();
        let edges: BTreeSet<String> = self
            .edges
            .iter()
            .map(|e| {
                format!(
                    "    {{\"from\": \"{}\", \"to\": \"{}\", \"scope\": \"{}\", \"file\": \"{}\", \"function\": \"{}\", \"via\": \"{}\", \"status\": \"{}\"}}",
                    e.from, e.to, e.scope, e.file, e.function, e.via, e.status
                )
            })
            .collect();
        let mut out = String::from("{\n  \"schema\": \"caf-lint-waitgraph-v2\",\n  \"nodes\": [\n");
        for (i, n) in nodes.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"kind\": \"{}\", \"file\": \"{}\", \"function\": \"{}\"}}{}\n",
                n.id,
                n.kind,
                n.file,
                n.function,
                if i + 1 < nodes.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"edges\": [\n");
        for (i, e) in edges.iter().enumerate() {
            let comma = if i + 1 < edges.len() { "," } else { "" };
            out.push_str(&format!("{e}{comma}\n"));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Transitive lock/park content of one call-graph node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct FnSummary {
    parks: BTreeSet<String>,
    locks: BTreeSet<String>,
}

fn excluded(rel: &str) -> bool {
    rel == "crates/fabric/src/sched.rs"
        || rel == "crates/fabric/src/delay.rs"
        || rel.starts_with("crates/sched/")
}

fn modeled(rel: &str) -> Option<&str> {
    let (krate, path) = rel.strip_prefix("crates/")?.split_once('/')?;
    (path.starts_with("src/") && MODELED_CRATES.contains(&krate)).then_some(krate)
}

/// Token-level helpers over one file.
struct F<'a> {
    toks: &'a [crate::lexer::Token],
}

impl<'a> F<'a> {
    fn ident(&self, i: usize) -> Option<&str> {
        self.toks.get(i).filter(|t| t.kind == Kind::Ident).map(|t| t.text.as_str())
    }
    fn punct(&self, i: usize, c: &str) -> bool {
        self.toks.get(i).is_some_and(|t| t.kind == Kind::Punct && t.text == c)
    }
    /// `.name(` with the dot at `i`.
    fn method_call(&self, i: usize, name: &str) -> bool {
        self.punct(i, ".") && self.ident(i + 1) == Some(name) && self.punct(i + 2, "(")
    }
    /// `.name()` with the dot at `i`.
    fn empty_method_call(&self, i: usize, name: &str) -> bool {
        self.method_call(i, name) && self.punct(i + 3, ")")
    }
    fn path2(&self, i: usize, a: &str, b: &str) -> bool {
        self.ident(i) == Some(a)
            && self.punct(i + 1, ":")
            && self.punct(i + 2, ":")
            && self.ident(i + 3) == Some(b)
    }

    /// Park class at the dot/ident token `i`, if any.
    fn park_kind(&self, i: usize) -> Option<&'static str> {
        if matches!(self.ident(i), Some("yield_op" | "model_blocking" | "yield_tick"))
            && self.punct(i + 1, "(")
        {
            return Some(match self.ident(i) {
                Some("yield_op") => "yield_op",
                Some("model_blocking") => "model_blocking",
                _ => "yield_tick",
            });
        }
        if self.path2(i, "caf_sched", "park") || self.path2(i, "thread", "park") {
            return Some("park");
        }
        if self.path2(i, "caf_sched", "yield_now") {
            return Some("yield_now");
        }
        if self.empty_method_call(i, "recv") {
            return Some("recv");
        }
        if self.method_call(i, "recv_timeout") {
            return Some("recv_timeout");
        }
        if self.method_call(i, "recv_blocking") {
            return Some("recv_blocking");
        }
        if self.method_call(i, "wait") {
            return Some("wait");
        }
        if self.method_call(i, "wait_timeout") {
            return Some("wait_timeout");
        }
        if self.method_call(i, "wait_while") {
            return Some("wait_while");
        }
        if self.empty_method_call(i, "join") {
            return Some("join");
        }
        None
    }

    /// Lock acquisition at the dot token `i` → receiver ident.
    fn lock_recv(&self, i: usize) -> Option<String> {
        let is_lock = self.empty_method_call(i, "lock")
            || self.empty_method_call(i, "read")
            || self.empty_method_call(i, "write");
        if !is_lock {
            return None;
        }
        // Backscan for the receiver: `self.inner.lock()` → `inner`,
        // `q[i].lock()` → `q`, `SHARDS[k].read()` → `SHARDS`.
        let mut j = i;
        loop {
            if j == 0 {
                return Some("<expr>".into());
            }
            j -= 1;
            let t = &self.toks[j];
            if t.kind == Kind::Ident {
                return Some(t.text.clone());
            }
            if t.kind == Kind::Punct && t.text == "]" {
                // Skip the index expression.
                let mut depth = 1u32;
                while depth > 0 && j > 0 {
                    j -= 1;
                    match self.toks[j].text.as_str() {
                        "]" => depth += 1,
                        "[" => depth -= 1,
                        _ => {}
                    }
                }
                continue;
            }
            if t.kind == Kind::Punct && (t.text == ")" || t.text == ".") {
                if t.text == ")" {
                    let mut depth = 1u32;
                    while depth > 0 && j > 0 {
                        j -= 1;
                        match self.toks[j].text.as_str() {
                            ")" => depth += 1,
                            "(" => depth -= 1,
                            _ => {}
                        }
                    }
                }
                continue;
            }
            return Some("<expr>".into());
        }
    }
}

/// Build the wait graph, emit CAFL009 findings into `report`.
pub fn build(ws: &Workspace, graph: &CallGraph, report: &mut Report) -> Graph {
    let mut g = Graph::default();
    let mut node_keys: BTreeSet<String> = BTreeSet::new();
    let mut edge_keys: BTreeSet<(String, String, String, String, u32)> = BTreeSet::new();
    let mut diags: Vec<Diag> = Vec::new();

    // Which call-graph nodes are in waitgraph scope (modeled, not the
    // park implementation, not test code)?
    let scoped: Vec<Option<&str>> = graph
        .nodes
        .iter()
        .map(|n| {
            let fu = &ws.files[n.file];
            if excluded(&fu.rel) || fu.sc.in_test.get(n.body.0).copied().unwrap_or(false) {
                return None;
            }
            modeled(&fu.rel)
        })
        .collect();

    // Direct (own-body, outside nested closures is fine — multiplicity
    // does not matter for set union) lock/park content per node.
    let mut own: Vec<FnSummary> = vec![FnSummary::default(); graph.nodes.len()];
    for (n, node) in graph.nodes.iter().enumerate() {
        let Some(krate) = scoped[n] else { continue };
        let fu = &ws.files[node.file];
        let f = F { toks: &fu.lx.tokens };
        for i in node.body.0 + 1..node.body.1 {
            if fu.sc.fn_of.get(i) != Some(&Some(node.scope_fn)) {
                continue;
            }
            if let Some(kind) = f.park_kind(i) {
                let id = format!("park:{krate}/{kind}");
                own[n].parks.insert(id.clone());
                if node_keys.insert(id.clone()) {
                    g.nodes.push(Node {
                        id,
                        kind: "park".into(),
                        file: fu.rel.clone(),
                        function: node.name.clone(),
                    });
                }
            }
            if let Some(recv) = f.lock_recv(i) {
                let id = format!("lock:{krate}/{recv}");
                own[n].locks.insert(id.clone());
                if node_keys.insert(id.clone()) {
                    g.nodes.push(Node {
                        id,
                        kind: "lock".into(),
                        file: fu.rel.clone(),
                        function: node.name.clone(),
                    });
                }
            }
        }
    }

    // Transitive summaries: fixpoint union over the call graph.
    let mut summ = own.clone();
    loop {
        let mut changed = false;
        for n in 0..graph.nodes.len() {
            if scoped[n].is_none() {
                continue;
            }
            let mut acc = summ[n].clone();
            for cs in &graph.calls[n] {
                if scoped[cs.callee].is_none() {
                    continue;
                }
                for p in &summ[cs.callee].parks {
                    acc.parks.insert(p.clone());
                }
                for l in &summ[cs.callee].locks {
                    acc.locks.insert(l.clone());
                }
            }
            if acc != summ[n] {
                summ[n] = acc;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Guard walk per function: CAFL002's tracking, plus lock identity
    // and call-site propagation.
    for (n, node) in graph.nodes.iter().enumerate() {
        let Some(krate) = scoped[n] else { continue };
        let fu = &ws.files[node.file];
        let f = F { toks: &fu.lx.tokens };
        let calls_at: BTreeMap<usize, Vec<usize>> = {
            let mut m: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for cs in &graph.calls[n] {
                m.entry(cs.token).or_default().push(cs.callee);
            }
            m
        };
        // (guard name, depth at let, lock node id)
        let mut guards: Vec<(String, u32, String)> = Vec::new();
        let mut i = node.body.0 + 1;
        while i < node.body.1 {
            if fu.sc.fn_of.get(i) != Some(&Some(node.scope_fn)) {
                i += 1;
                continue;
            }
            let depth = fu.sc.depth[i];
            guards.retain(|&(_, d, _)| depth >= d);
            let line = fu.lx.tokens[i].line;

            // `let [mut] name = <expr with .lock()/.read()/.write()>;`
            if f.ident(i) == Some("let") {
                let mut j = i + 1;
                if f.ident(j) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = f.ident(j) {
                    let name = name.to_string();
                    if f.punct(j + 1, "=") {
                        let mut k = j + 2;
                        let mut lock_id: Option<String> = None;
                        while k < node.body.1 && !f.punct(k, ";") {
                            if let Some(recv) = f.lock_recv(k) {
                                lock_id = Some(format!("lock:{krate}/{recv}"));
                            }
                            k += 1;
                        }
                        if let Some(id) = lock_id {
                            guards.push((name, depth, id));
                        }
                        i = k + 1;
                        continue;
                    }
                }
            }
            // Explicit release.
            if f.ident(i) == Some("drop") && f.punct(i + 1, "(") {
                if let Some(name) = f.ident(i + 2) {
                    if f.punct(i + 3, ")") {
                        guards.retain(|(gname, _, _)| gname != name);
                    }
                }
            }

            if !guards.is_empty() {
                // Direct park while holding: CAFL002's domain —
                // recorded as an `intra` edge, not re-flagged here.
                if let Some(kind) = f.park_kind(i) {
                    let to = format!("park:{krate}/{kind}");
                    for (_, _, from) in &guards {
                        push_edge(
                            &mut g,
                            &mut edge_keys,
                            Edge {
                                from: from.clone(),
                                to: to.clone(),
                                scope: "intra".into(),
                                file: fu.rel.clone(),
                                line,
                                function: node.name.clone(),
                                via: kind.into(),
                                status: "ok".into(),
                            },
                        );
                    }
                }
                // Direct nested acquisition: lock→lock order edge.
                if let Some(recv) = f.lock_recv(i) {
                    let to = format!("lock:{krate}/{recv}");
                    for (_, _, from) in &guards {
                        if *from != to {
                            push_edge(
                                &mut g,
                                &mut edge_keys,
                                Edge {
                                    from: from.clone(),
                                    to: to.clone(),
                                    scope: "intra".into(),
                                    file: fu.rel.clone(),
                                    line,
                                    function: node.name.clone(),
                                    via: recv.clone(),
                                    status: "ok".into(),
                                },
                            );
                        }
                    }
                }
                // Call into code that transitively parks or locks.
                if let Some(callees) = calls_at.get(&i) {
                    for &c in callees {
                        if scoped[c].is_none() {
                            continue;
                        }
                        let callee_name = graph.nodes[c].name.clone();
                        for p in summ[c].parks.clone() {
                            let allowed = fu.allow(line, "wait-graph");
                            for (gname, _, from) in guards.clone() {
                                push_edge(
                                    &mut g,
                                    &mut edge_keys,
                                    Edge {
                                        from: from.clone(),
                                        to: p.clone(),
                                        scope: "inter".into(),
                                        file: fu.rel.clone(),
                                        line,
                                        function: node.name.clone(),
                                        via: callee_name.clone(),
                                        status: if allowed { "allowed" } else { "flagged" }.into(),
                                    },
                                );
                                if !allowed {
                                    diags.push(Diag {
                                        code: "CAFL009",
                                        class: "wait-graph",
                                        file: fu.rel.clone(),
                                        line,
                                        msg: format!(
                                            "lock guard `{gname}` ({from}) held across call \
                                             `{callee_name}` which parks at {p} (call-graph \
                                             propagation): drop the guard before the call, or \
                                             mark `// lint:allow(wait-graph)` with justification"
                                        ),
                                    });
                                }
                            }
                        }
                        for l in summ[c].locks.clone() {
                            for (_, _, from) in guards.clone() {
                                if from != l {
                                    push_edge(
                                        &mut g,
                                        &mut edge_keys,
                                        Edge {
                                            from: from.clone(),
                                            to: l.clone(),
                                            scope: "inter".into(),
                                            file: fu.rel.clone(),
                                            line,
                                            function: node.name.clone(),
                                            via: callee_name.clone(),
                                            status: "ok".into(),
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
            }
            i += 1;
        }
    }

    // Lock-order cycles (length ≥ 2): AB/BA inversions are deadlocks
    // under the right schedule regardless of park sites.
    for cyc in lock_cycles(&g) {
        let anchor = g
            .edges
            .iter()
            .filter(|e| e.from == cyc[0] && e.to == cyc[1])
            .min_by_key(|e| (e.file.clone(), e.line))
            .cloned();
        if let Some(e) = anchor {
            let fi = ws.files.iter().position(|fu| fu.rel == e.file);
            let allowed = fi.is_some_and(|fi| ws.files[fi].allow(e.line, "wait-graph"));
            if !allowed {
                diags.push(Diag {
                    code: "CAFL009",
                    class: "wait-graph",
                    file: e.file.clone(),
                    line: e.line,
                    msg: format!(
                        "lock-order cycle {}: acquisition orders invert across functions — \
                         fix the order, or mark `// lint:allow(wait-graph)` with justification",
                        cyc.join(" -> ")
                    ),
                });
            }
        }
    }

    g.nodes.sort();
    g.edges.sort();
    report.diags.append(&mut diags);
    g
}

fn push_edge(g: &mut Graph, keys: &mut BTreeSet<(String, String, String, String, u32)>, e: Edge) {
    if keys.insert((e.from.clone(), e.to.clone(), e.scope.clone(), e.file.clone(), e.line)) {
        g.edges.push(e);
    }
}

/// Simple cycles (length ≥ 2) in the lock→lock order graph, each
/// canonicalized to start at its smallest node and reported once.
fn lock_cycles(g: &Graph) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &g.edges {
        if e.from.starts_with("lock:") && e.to.starts_with("lock:") && e.from != e.to {
            adj.entry(&e.from).or_default().insert(&e.to);
        }
    }
    let mut found: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        // DFS bounded to short cycles (order inversions are almost
        // always 2–3 locks long; bound keeps this linear in practice).
        let mut stack: Vec<(Vec<&str>, &str)> = vec![(vec![start], start)];
        while let Some((path, at)) = stack.pop() {
            if path.len() > 4 {
                continue;
            }
            if let Some(nexts) = adj.get(at) {
                for &nx in nexts {
                    if nx == start && path.len() >= 2 {
                        // Canonical: rotate so the smallest id leads.
                        let min_pos = path
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, s)| **s)
                            .map(|(p, _)| p)
                            .unwrap_or(0);
                        let mut canon: Vec<String> =
                            path[min_pos..].iter().map(|s| s.to_string()).collect();
                        canon.extend(path[..min_pos].iter().map(|s| s.to_string()));
                        found.insert(canon);
                    } else if !path.contains(&nx) {
                        let mut p2 = path.clone();
                        p2.push(nx);
                        stack.push((p2, nx));
                    }
                }
            }
        }
    }
    found.into_iter().collect()
}
