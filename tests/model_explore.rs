//! The bounded model-checking suite (`caf-model` over the scheduler gate).
//!
//! * the paper's Figure 2 deadlock is *found* (not hung on) within a small
//!   schedule budget, and its counterexample replays deterministically;
//! * the clean programs (ring, event ping-pong, a RandomAccess round) pass
//!   bounded exploration on both substrates with the `caf-check` oracle
//!   armed;
//! * a seeded schedule exposes the unflushed-put conflict that the default
//!   interleaving never exhibits;
//! * random walks at sixteen images stay clean;
//! * sleep-set pruning (DPOR-lite) explores at least 2x fewer schedules
//!   than naive enumeration on the ping-pong state space.

use caf::SubstrateKind;
use caf_fabric::sched::RunStatus;
use caf_model::{explore, replay, scenarios, ExploreConfig, ExploreMode, OracleConfig};

/// Test (a): exploration detects the Fig 2 deadlock within budget, twice
/// identically, and the recorded token replays to the same schedule.
#[test]
fn fig2_deadlock_is_found_and_replays_deterministically() {
    let sc = scenarios::fig2_deadlock();
    let cfg = ExploreConfig {
        max_schedules: 25,
        oracle: None,
        stop_at_first: true,
        ..ExploreConfig::default()
    };
    let rep = explore(&sc, &cfg);
    assert!(rep.flagged >= 1, "no deadlock found: {rep:?}");
    let cx = rep.counterexamples[0].clone();
    assert_eq!(cx.kind, "deadlock", "{}", cx.detail);
    // The wait-for cycle names the put's target: image 0 waits on image 1.
    assert!(
        cx.detail.contains("image 0 blocked") && cx.detail.contains("waiting on image 1"),
        "unexpected wait-for edges: {}",
        cx.detail
    );
    assert!(cx.token.starts_with("dfs:"), "{}", cx.token);

    // Deterministic search: a second exploration finds the identical
    // counterexample.
    let rep2 = explore(&sc, &cfg);
    assert_eq!(rep2.counterexamples[0].token, cx.token);
    assert_eq!(rep2.counterexamples[0].schedule, cx.schedule);

    // Deterministic replay: the token reproduces the schedule and the
    // deadlock, run after run.
    let r1 = replay(&sc, &cfg, &cx.token);
    let r2 = replay(&sc, &cfg, &cx.token);
    assert!(
        matches!(r1.outcome.status, RunStatus::Deadlock(_)),
        "{:?}",
        r1.outcome.status
    );
    assert_eq!(r1.schedule, cx.schedule);
    assert_eq!(r1.schedule, r2.schedule);
}

/// Test (a), random mode: seeded walks hit the deadlock too, and the
/// `rand:` token replays it.
#[test]
fn fig2_deadlock_is_found_by_seeded_walks() {
    let sc = scenarios::fig2_deadlock();
    let cfg = ExploreConfig {
        max_schedules: 8,
        mode: ExploreMode::Random { seed: 0xF162_0002, walks: 4 },
        oracle: None,
        stop_at_first: true,
        ..ExploreConfig::default()
    };
    let rep = explore(&sc, &cfg);
    assert!(rep.flagged >= 1, "{rep:?}");
    let cx = &rep.counterexamples[0];
    assert_eq!(cx.kind, "deadlock");
    assert!(cx.token.starts_with("rand:"), "{}", cx.token);
    let r = replay(&sc, &cfg, &cx.token);
    assert!(matches!(r.outcome.status, RunStatus::Deadlock(_)));
    assert_eq!(r.schedule, cx.schedule, "seeded replay must reproduce the walk");
}

/// Test (b): the correct programs stay clean under bounded exploration
/// with the full oracle (epochs + races) on both substrates.
#[test]
fn clean_programs_pass_bounded_exploration_on_both_substrates() {
    let cases = [
        scenarios::ring(SubstrateKind::Mpi),
        scenarios::ring(SubstrateKind::Gasnet),
        scenarios::event_ping_pong(SubstrateKind::Mpi),
        scenarios::event_ping_pong(SubstrateKind::Gasnet),
        scenarios::ra_round(SubstrateKind::Mpi),
        scenarios::ra_round(SubstrateKind::Gasnet),
    ];
    for sc in cases {
        let cfg = ExploreConfig {
            max_schedules: 120,
            oracle: Some(OracleConfig::default()),
            ..ExploreConfig::default()
        };
        let rep = explore(&sc, &cfg);
        assert!(rep.schedules >= 1, "{}: nothing explored", sc.name);
        assert_eq!(
            rep.flagged,
            0,
            "{}: {:?}",
            sc.name,
            rep.counterexamples.first().map(|c| (&c.kind, &c.detail))
        );
    }
}

/// Test (b)+acceptance: on the fabric ping-pong state space, both modes
/// exhaust the tree, and sleep sets cut the executed schedules by >= 2x.
#[test]
fn dpor_reduces_ping_pong_schedules_at_least_2x() {
    let sc = scenarios::ping_pong();
    let run = |sleep_sets| {
        explore(
            &sc,
            &ExploreConfig {
                max_schedules: 5_000,
                mode: ExploreMode::Dfs { sleep_sets },
                oracle: None,
                ..ExploreConfig::default()
            },
        )
    };
    let naive = run(false);
    let dpor = run(true);
    assert!(naive.complete && dpor.complete, "state space must be exhausted");
    assert_eq!(naive.flagged + dpor.flagged, 0);
    assert_eq!(naive.pruned, 0, "naive mode never prunes");
    assert!(
        dpor.schedules * 2 <= naive.schedules,
        "sleep sets explored {} of {} naive schedules (< 2x reduction)",
        dpor.schedules,
        naive.schedules
    );
}

/// Test (c): the default interleaving of the unflushed-put program is
/// clean, but a seeded walk finds the put-before-read schedule and the
/// oracle reports `read_before_flush`; the seed replays to the identical
/// schedule and diagnostic.
#[test]
fn seeded_walk_catches_unflushed_put_the_default_schedule_hides() {
    let sc = scenarios::unflushed_put();
    let cfg = ExploreConfig {
        max_schedules: 64,
        mode: ExploreMode::Random { seed: 0xCAF_2014, walks: 64 },
        oracle: Some(OracleConfig { epochs: true, races: false }),
        stop_at_first: true,
        ..ExploreConfig::default()
    };

    // The default (image-0-first) interleaving: no diagnostic.
    let base = replay(&sc, &cfg, "dfs:");
    assert!(matches!(base.outcome.status, RunStatus::Completed));
    assert!(
        base.report.as_ref().is_some_and(|r| r.is_clean()),
        "default schedule must be clean: {:?}",
        base.report
    );

    let rep = explore(&sc, &cfg);
    assert!(rep.flagged >= 1, "seeded walks found nothing: {rep:?}");
    let cx = &rep.counterexamples[0];
    assert_eq!(cx.kind, "read_before_flush", "{}", cx.detail);
    assert!(cx.token.starts_with("rand:"));

    // Same seed => same schedule => same diagnostic.
    let r1 = replay(&sc, &cfg, &cx.token);
    let r2 = replay(&sc, &cfg, &cx.token);
    assert_eq!(r1.schedule, r2.schedule);
    assert_eq!(r1.schedule, cx.schedule);
    let kinds = |r: &caf_model::Replay| -> Vec<String> {
        r.report
            .as_ref()
            .map(|rep| rep.violations.iter().map(|v| v.kind.name().to_string()).collect())
            .unwrap_or_default()
    };
    assert_eq!(kinds(&r1), kinds(&r2));
    assert!(kinds(&r1).contains(&"read_before_flush".to_string()), "{:?}", r1.report);
}

/// The explorer at sixteen images: 200 seeded random walks per
/// substrate through a RandomAccess round (about 1 500 steps each), the
/// full epoch/race oracle silent on every one. Every gated job runs as
/// caf-sched tasks on one run slot, so an OS-level block at any site a
/// walk reaches would sleep on the slot and surface as a deadlock.
#[test]
fn random_walks_at_p16_stay_clean() {
    for sc in [
        scenarios::ra_round_p16(SubstrateKind::Mpi),
        scenarios::ra_round_p16(SubstrateKind::Gasnet),
    ] {
        let cfg = ExploreConfig {
            max_schedules: 200,
            mode: ExploreMode::Random { seed: 0x16_CAF5, walks: 200 },
            oracle: Some(OracleConfig::default()),
            ..ExploreConfig::default()
        };
        let rep = explore(&sc, &cfg);
        assert_eq!(rep.schedules, 200, "{}: only {} walks ran", sc.name, rep.schedules);
        assert_eq!(
            rep.flagged,
            0,
            "{}: {:?}",
            sc.name,
            rep.counterexamples.first().map(|c| (&c.kind, &c.detail))
        );
    }
}

/// The aggregation subsystem under the explorer. DFS: at least 100
/// enqueue/drain/notify interleavings (or the exhausted space) on both
/// substrates with the full oracle silent — batch delivery must carry
/// the coalesced records' happens-before edges on every schedule.
/// Seeded random walks: the routed drain-vs-finish race stays clean and
/// every walk's post-finish assertions hold (Yang's counters may never
/// declare quiescence with a batch or forwarded hop still in flight).
#[test]
fn aggregation_drain_schedules_stay_clean() {
    for sc in [
        scenarios::agg_notify_release(SubstrateKind::Mpi),
        scenarios::agg_notify_release(SubstrateKind::Gasnet),
    ] {
        // The budget counts executed + sleep-set-pruned schedules; keep it
        // high enough that at least 100 interleavings actually run.
        let cfg = ExploreConfig {
            max_schedules: 400,
            oracle: Some(OracleConfig::default()),
            ..ExploreConfig::default()
        };
        let rep = explore(&sc, &cfg);
        assert!(
            rep.schedules >= 100 || rep.complete,
            "{}: only {} schedules explored without exhausting the space",
            sc.name,
            rep.schedules
        );
        assert_eq!(
            rep.flagged,
            0,
            "{}: {:?}",
            sc.name,
            rep.counterexamples.first().map(|c| (&c.kind, &c.detail))
        );
    }

    let sc = scenarios::agg_drain_races_finish();
    let cfg = ExploreConfig {
        max_schedules: 100,
        mode: ExploreMode::Random { seed: 0xA66_D7A1, walks: 100 },
        oracle: Some(OracleConfig::default()),
        ..ExploreConfig::default()
    };
    let rep = explore(&sc, &cfg);
    assert!(rep.schedules >= 100, "{}: only {} walks ran", sc.name, rep.schedules);
    assert_eq!(
        rep.flagged,
        0,
        "{}: {:?}",
        sc.name,
        rep.counterexamples.first().map(|c| (&c.kind, &c.detail))
    );
}

/// The targeted/rflush release paths explored with the epoch oracle
/// armed: if either mode ever under-flushed (left a put pending past the
/// notify release barrier), some interleaving in the DFS budget would
/// trip `read_before_flush` on the waiter's read. The oracle must stay
/// silent across the whole budget, and the in-scenario assertion (waiter
/// sees the put's value) must hold on every schedule.
#[test]
fn targeted_and_rflush_release_stay_clean_across_schedules() {
    for sc in [scenarios::targeted_flush_release(), scenarios::rflush_release()] {
        let cfg = ExploreConfig {
            max_schedules: 120,
            oracle: Some(OracleConfig { epochs: true, races: false }),
            ..ExploreConfig::default()
        };
        let rep = explore(&sc, &cfg);
        assert!(rep.schedules >= 1, "{}: nothing explored", sc.name);
        assert_eq!(
            rep.flagged,
            0,
            "{}: {:?}",
            sc.name,
            rep.counterexamples.first().map(|c| (&c.kind, &c.detail))
        );
    }
}

/// The wait-graph-seeded scenario: schedule exploration targeting the
/// lock/park node classes CAFL009 committed to `LINT_WAITGRAPH.json`.
/// The static pass proved no held-across edge connects them; this test
/// is the dynamic complement — at least 100 schedules (or the exhausted
/// space) contending on exactly those nodes with the full oracle silent
/// and no deadlock counterexample. The preamble asserts every targeted
/// node id exists in the committed graph and that the graph carries no
/// `flagged` edge, so the scenario can never drift from the artifact it
/// seeds from.
#[test]
fn waitgraph_seeded_schedules_stay_clean() {
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../LINT_WAITGRAPH.json"
    ))
    .expect("committed LINT_WAITGRAPH.json at the workspace root");
    for node in scenarios::WAITGRAPH_TARGETED_NODES {
        assert!(
            committed.contains(&format!("\"id\": \"{node}\"")),
            "{node} is not a node of the committed wait graph; re-aim the scenario"
        );
    }
    assert!(
        !committed.contains("\"status\": \"flagged\""),
        "committed wait graph carries an unresolved flagged edge"
    );

    let sc = scenarios::waitgraph_targeted();
    let cfg = ExploreConfig {
        max_schedules: 400,
        oracle: Some(OracleConfig::default()),
        ..ExploreConfig::default()
    };
    let rep = explore(&sc, &cfg);
    assert!(
        rep.schedules >= 100 || rep.complete,
        "{}: only {} schedules explored without exhausting the space",
        sc.name,
        rep.schedules
    );
    assert_eq!(
        rep.flagged,
        0,
        "{}: {:?}",
        sc.name,
        rep.counterexamples.first().map(|c| (&c.kind, &c.detail))
    );
}
