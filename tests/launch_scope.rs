//! Sessions belong to the job that armed them. Three threads of one
//! process, no lock between them: one arms a trace session, runs
//! RandomAccess at P=4 on each substrate and replays the trace through
//! the checker, one runs the same kernel unarmed at the same time, one
//! explores a model scenario. The armed job must be observed exactly as
//! when it runs alone, the unarmed one not at all, and the exploration
//! must find what it finds alone.

use std::collections::BTreeMap;
use std::sync::Barrier;

use caf::{CafUniverse, SubstrateKind};
use caf_bench::fast;
use caf_check::{check_trace, CheckConfig, HbEdge};
use caf_hpcc::ra;
use caf_model::{explore, scenarios, ExploreConfig, ExploreMode, OracleConfig};
use caf_trace::{Session, TraceConfig};

const P: usize = 4;

fn kernel(kind: SubstrateKind) {
    CafUniverse::run_with_config(P, fast(kind), |img| {
        ra::run(img, &img.team_world(), 8, 400);
    });
}

/// What the session saw of one armed run: the checker's findings, each
/// image's happens-before edges in program order, and the trace's event
/// count per operation.
#[derive(Debug, PartialEq)]
struct Seen {
    findings: String,
    edges: BTreeMap<usize, Vec<HbEdge>>,
    events: BTreeMap<&'static str, usize>,
}

fn armed(kind: SubstrateKind) -> Seen {
    let trace = Session::start(TraceConfig { stall_threshold: None, ..TraceConfig::default() })
        .expect("no trace session on this thread");
    kernel(kind);
    let trace = trace.finish();
    let report = check_trace(&trace, CheckConfig::default());
    let mut edges = BTreeMap::<usize, Vec<HbEdge>>::new();
    for &(_, img, edge) in &report.edges {
        edges.entry(img).or_default().push(edge);
    }
    let mut events = BTreeMap::new();
    for e in &trace.events {
        *events.entry(e.op.name()).or_insert(0) += 1;
    }
    Seen { findings: report.render(), edges, events }
}

fn exploration() -> Vec<(String, String, Vec<String>)> {
    let cfg = ExploreConfig {
        max_schedules: 64,
        mode: ExploreMode::Random { seed: 0xCAF_2014, walks: 64 },
        oracle: Some(OracleConfig { epochs: true, races: false }),
        ..ExploreConfig::default()
    };
    let rep = explore(&scenarios::unflushed_put(), &cfg);
    assert!(rep.flagged >= 1, "{rep:?}");
    rep.counterexamples.into_iter().map(|c| (c.token, c.kind, c.schedule)).collect()
}

#[test]
fn a_session_sees_its_own_job_and_nothing_beside_it() {
    let kinds = [SubstrateKind::Mpi, SubstrateKind::Gasnet];
    let alone: Vec<Seen> = kinds.map(armed).into();
    let explored_alone = exploration();

    let start = Barrier::new(3);
    let (beside, explored_beside) = std::thread::scope(|s| {
        let armed_job = s.spawn(|| {
            start.wait();
            kinds.map(armed)
        });
        let explorer = s.spawn(|| {
            start.wait();
            exploration()
        });
        start.wait();
        for kind in [kinds; 3].concat() {
            kernel(kind);
        }
        (armed_job.join().unwrap(), explorer.join().unwrap())
    });

    for ((kind, alone), beside) in kinds.iter().zip(&alone).zip(beside) {
        assert!(!alone.events.is_empty() && !alone.edges.is_empty(), "{kind:?}: nothing recorded");
        assert_eq!(alone, &beside, "{kind:?}: the unarmed job fed the armed sessions");
    }
    assert_eq!(explored_alone, explored_beside, "the exploration saw the other jobs");
}
