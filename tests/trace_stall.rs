//! The stall detector against the paper's Figure 2 hazard: with
//! AM-mediated puts (`put_via_am_threshold`), a coarray write blocks
//! until the *target* makes GASNet progress — which a process stuck in
//! an MPI call never does. Instead of a silent hang, a `caf-trace`
//! session must produce a stall report naming the blocked image and the
//! image it is blocked on.

use std::time::Duration;

use caf::{CafConfig, CafUniverse, Coarray, GasnetConfig, SubstrateKind};
use caf_trace::{Op, Session, TraceConfig};

/// How long the target withholds progress ("blocked in MPI").
const STALL: Duration = Duration::from_millis(200);

fn am_put_config() -> CafConfig {
    CafConfig {
        substrate: SubstrateKind::Gasnet,
        gasnet: GasnetConfig {
            put_via_am_threshold: Some(1),
            ..GasnetConfig::default()
        },
        ..CafConfig::default()
    }
}

#[test]
fn stall_detector_names_the_fig2_deadlock_edge() {
    let session = Session::start(TraceConfig {
        stall_threshold: Some(Duration::from_millis(30)),
        stall_poll_period: Duration::from_millis(5),
        announce_stalls: false,
        ..TraceConfig::default()
    })
    .expect("no other session on this thread");

    CafUniverse::run_with_config(2, am_put_config(), |img| {
        let world = img.team_world();
        let a: Coarray<u64> = img.coarray_alloc(&world, 4);
        img.sync_all();
        if img.this_image() == 0 {
            // Blocks until image 1 polls — the Figure 2 stall.
            a.write(img, 1, 0, &[7, 8, 9, 10]);
        } else {
            // "Blocked in MPI": no GASNet progress for STALL...
            std::thread::sleep(STALL);
            // ...then the first runtime call drives progress and
            // releases the writer.
            img.poll();
        }
        img.sync_all();
        if img.this_image() == 1 {
            assert_eq!(a.local_vec(img), vec![7, 8, 9, 10]);
        }
        img.coarray_free(&world, a);
    });

    let trace = session.finish();
    // The watchdog must have caught image 0 stuck waiting for image 1 to
    // acknowledge the AM-mediated put.
    let stall = trace
        .stalls
        .iter()
        .find(|s| s.op == Op::AmPutAckWait)
        .unwrap_or_else(|| panic!("no AmPutAckWait stall reported: {:?}", trace.stalls));
    assert_eq!(stall.image, Some(0), "blocked image: {stall}");
    assert_eq!(stall.target, Some(1), "blocked-on image: {stall}");
    assert!(stall.waited_ns >= 30_000_000, "{stall}");
    // The report renders the edge in prose.
    let text = stall.to_string();
    assert!(text.contains("image 0"), "{text}");
    assert!(text.contains("waiting on image 1"), "{text}");
}

#[test]
fn untraced_run_reports_no_stalls_and_rdma_puts_do_not_trip() {
    // Control: the same pattern over RDMA puts (the default GASNet
    // config) completes without target progress, so the watchdog stays
    // quiet even with a tight threshold.
    let session = Session::start(TraceConfig {
        stall_threshold: Some(Duration::from_millis(50)),
        stall_poll_period: Duration::from_millis(5),
        announce_stalls: false,
        ..TraceConfig::default()
    })
    .expect("no other session on this thread");

    CafUniverse::run_with_config(2, CafConfig::on(SubstrateKind::Gasnet), |img| {
        let world = img.team_world();
        let a: Coarray<u64> = img.coarray_alloc(&world, 4);
        img.sync_all();
        if img.this_image() == 0 {
            a.write(img, 1, 0, &[1, 2, 3, 4]);
        } else {
            std::thread::sleep(Duration::from_millis(120));
        }
        img.sync_all();
        img.coarray_free(&world, a);
    });

    let trace = session.finish();
    let am_stalls: Vec<_> = trace
        .stalls
        .iter()
        .filter(|s| s.op == Op::AmPutAckWait)
        .collect();
    assert!(am_stalls.is_empty(), "{am_stalls:?}");
}
