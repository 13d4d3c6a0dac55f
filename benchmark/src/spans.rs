//! The benchmark-owned span recorder of a traced run.
//!
//! Each image keeps an in-memory `Vec` of spans around every call the
//! harness makes into a layer (`launch`, `alloc`, `rep`, `free`, ...);
//! the vectors are merged and written as JSON when the run ends. The
//! kernels call `caf` core internally, so a `rep` span's children are
//! not individual spans but the per-rep deltas of core's public ledger
//! (`Image::stats()`): one [`LedgerChild`] per category with its total
//! time and call count. The kernel's own (`hpcc`) time is the rep's
//! self time: its duration minus what the children cover. Spans inside
//! the program are a later change.

use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Json;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Time attributed to one ledger category inside a span.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerChild {
    pub name: String,
    pub layer: &'static str,
    pub total_ns: u64,
    pub calls: u64,
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub image: usize,
    /// Repetition index within the launch; `None` outside repetitions.
    pub rep: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same image's vector (before
    /// merging) or in the merged vector (after).
    pub parent: Option<usize>,
    pub ledger: Vec<LedgerChild>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-image recorder. Disabled, every call is a no-op and records
/// nothing, so the untraced run pays one branch per harness call.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    image: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool, image: usize) -> Self {
        Recorder {
            enabled,
            image,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, layer: &'static str, rep: Option<usize>) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            layer,
            image: self.image,
            rep,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            ledger: Vec::new(),
        });
    }

    /// Close the innermost open span, attaching `ledger` children.
    pub fn exit(&mut self, ledger: Vec<LedgerChild>) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end_ns = now_ns();
        self.spans[idx].ledger = ledger;
    }

    /// Run `f` inside a span that belongs to no repetition.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter(name, layer, None);
        let r = f();
        self.exit(Vec::new());
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "span left open");
        self.spans
    }
}

/// Concatenate per-image span vectors, rebasing parent indices.
pub fn merge(per_image: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for spans in per_image {
        let base = out.len();
        out.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span of a merged vector: its duration minus the
/// part its child spans and ledger children cover, floored at zero
/// (ledger totals are summed clock reads and may overshoot a very short
/// span by rounding).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered: Vec<u64> = spans
        .iter()
        .map(|s| s.ledger.iter().map(|c| c.total_ns).sum())
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// The span file: every span with its self time, plus the note on what
/// a `rep` span's children are.
pub fn to_json(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let items = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .map(|(id, (s, &self_ns))| {
            Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.into())),
                ("layer", Json::Str(s.layer.into())),
                ("image", Json::Num(s.image as f64)),
                ("rep", s.rep.map_or(Json::Null, |r| Json::Num(r as f64))),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("self_ns", Json::Num(self_ns as f64)),
                (
                    "children",
                    Json::Arr(
                        s.ledger
                            .iter()
                            .map(|c| {
                                Json::obj([
                                    ("name", Json::Str(c.name.clone())),
                                    ("layer", Json::Str(c.layer.into())),
                                    ("total_ns", Json::Num(c.total_ns as f64)),
                                    ("calls", Json::Num(c.calls as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::obj([
        (
            "note",
            Json::Str(
                "spans are recorded by the benchmark around its own calls into each layer; \
                 a rep span's children are per-rep deltas of Image::stats() (category, total \
                 ns, calls), not individual spans, and its self_ns is the kernel's own (hpcc) \
                 time"
                    .into(),
            ),
        ),
        ("spans", Json::Arr(items)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>, ledger: &[u64]) -> Span {
        Span {
            name: "s",
            layer: "bench",
            image: 0,
            rep: None,
            start_ns: start,
            end_ns: end,
            parent,
            ledger: ledger
                .iter()
                .map(|&ns| LedgerChild {
                    name: "core.x".into(),
                    layer: "core",
                    total_ns: ns,
                    calls: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn self_time_subtracts_child_spans_and_ledger_children() {
        let spans = vec![
            span(0, 1000, None, &[]),             // launch
            span(100, 300, Some(0), &[]),         // alloc
            span(300, 900, Some(0), &[250, 150]), // rep with two ledger children
            span(950, 2000, Some(0), &[]),        // runs past its parent's end
            span(0, 10, None, &[25]),             // ledger overshoots a short span
        ];
        assert_eq!(self_times(&spans), vec![0, 200, 200, 1050, 0]);
    }

    #[test]
    fn recorder_nests_and_merge_rebases_parents() {
        let mut a = Recorder::new(true, 0);
        a.enter("launch", "bench", None);
        a.scope("alloc", "core", || ());
        a.enter("rep", "hpcc", Some(3));
        a.exit(vec![LedgerChild {
            name: "core.barrier".into(),
            layer: "core",
            total_ns: 1,
            calls: 2,
        }]);
        a.exit(Vec::new());
        let mut b = Recorder::new(true, 1);
        b.enter("launch", "bench", None);
        b.scope("free", "core", || ());
        b.exit(Vec::new());

        let merged = merge(vec![a.into_spans(), b.into_spans()]);
        let parents: Vec<_> = merged.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None, Some(3)]);
        assert_eq!(merged[2].rep, Some(3));
        assert_eq!(merged[2].ledger[0].calls, 2);
        assert_eq!(merged[4].image, 1);
        assert!(merged.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false, 0);
        r.enter("launch", "bench", None);
        assert_eq!(r.scope("free", "core", || 7), 7);
        r.exit(Vec::new());
        assert!(r.into_spans().is_empty());
    }

    #[test]
    fn span_file_carries_self_time_and_children() {
        let doc = to_json(&[span(0, 100, None, &[40])]);
        let s = &doc.get("spans").unwrap().as_arr().unwrap()[0];
        assert_eq!(s.get("self_ns").unwrap().as_f64(), Some(60.0));
        let c = &s.get("children").unwrap().as_arr().unwrap()[0];
        assert_eq!(c.get("total_ns").unwrap().as_f64(), Some(40.0));
        assert_eq!(c.get("layer").unwrap().as_str(), Some("core"));
    }
}
