//! Fixture tests for the caf-lint passes (CAFL000..CAFL010).
//!
//! Each lint class gets a known-bad snippet that must trip exactly that
//! diagnostic code, and a known-good twin that must scan clean. The
//! regression fixtures at the bottom pin the two bugs the token-aware
//! scanner fixed over the old line-greps: a `#[cfg(test)]` attribute
//! disarming the rest of the file after its module closes, and false
//! positives on patterns inside string literals or trailing comments.

use caf_lint::{scan_file, scan_manifest, OrderingTable, Report};

/// Scan one virtual file and return the diagnostic codes it trips.
fn codes(rel: &str, src: &str) -> Vec<&'static str> {
    codes_with_table(rel, src, "")
}

fn codes_with_table(rel: &str, src: &str, table: &str) -> Vec<&'static str> {
    report_with_table(rel, src, table).diags.iter().map(|d| d.code).collect()
}

fn report_with_table(rel: &str, src: &str, table: &str) -> Report {
    let table = OrderingTable::parse(table).expect("fixture table parses");
    let mut report = Report::default();
    scan_file(rel, src, &table, &mut report);
    report
}

// ---------------------------------------------------------------- CAFL001

#[test]
fn blocking_unguarded_recv_trips_cafl001() {
    let bad = r#"
        fn pump(rx: &std::sync::mpsc::Receiver<u8>) -> u8 {
            rx.recv().unwrap()
        }
    "#;
    assert_eq!(codes("crates/fabric/src/foo.rs", bad), vec!["CAFL001"]);
}

#[test]
fn blocking_with_gate_evidence_is_clean_and_inventoried() {
    let good = r#"
        fn pump(rx: &std::sync::mpsc::Receiver<u8>) -> u8 {
            if crate::sched::active() {
                crate::sched::model_blocking(crate::sched::ModelOp::Recv, || rx.try_recv().ok());
            }
            rx.recv().unwrap()
        }
    "#;
    let report = report_with_table("crates/fabric/src/foo.rs", good, "");
    assert!(report.diags.is_empty(), "unexpected: {:?}", report.diags);
    let site = report
        .sites
        .iter()
        .find(|s| s.kind == "channel_recv")
        .expect("recv site inventoried");
    assert_eq!(site.gated, "direct");
    assert_eq!(site.function, "pump");
}

#[test]
fn blocking_allow_marker_suppresses_cafl001() {
    let allowed = r#"
        fn pump(rx: &std::sync::mpsc::Receiver<u8>) -> u8 {
            // lint:allow(blocking) bootstrap path, runs before any gate arms
            rx.recv().unwrap()
        }
    "#;
    let report = report_with_table("crates/fabric/src/foo.rs", allowed, "");
    assert!(report.diags.is_empty());
    assert_eq!(report.sites[0].gated, "allowed");
}

#[test]
fn blocking_with_park_api_evidence_is_clean_and_inventoried() {
    // The dual-mode wait idiom: a caf_sched::park() retry loop for the
    // task executor, falling through to the raw channel receive under
    // ExecMode::Threads. The park evidence gates the raw primitive, the
    // park call itself is inventoried as a task suspension point.
    let good = r#"
        fn pump(rx: &Receiver<u8>) -> u8 {
            if caf_sched::on_task() {
                loop {
                    match rx.try_recv() {
                        Ok(v) => return v,
                        Err(_) => caf_sched::park(),
                    }
                }
            }
            rx.recv().unwrap()
        }
    "#;
    let report = report_with_table("crates/fabric/src/foo.rs", good, "");
    assert!(report.diags.is_empty(), "unexpected: {:?}", report.diags);
    let recv = report
        .sites
        .iter()
        .find(|s| s.kind == "channel_recv")
        .expect("recv site inventoried");
    assert_eq!(recv.gated, "park-api");
    let park = report
        .sites
        .iter()
        .find(|s| s.kind == "task_park")
        .expect("park site inventoried");
    assert_eq!(park.gated, "park-api");
    assert_eq!(park.function, "pump");
}

#[test]
fn park_inside_sched_crate_is_gate_internal() {
    let src = r#"
        fn reenter() {
            caf_sched::yield_now();
        }
    "#;
    let report = report_with_table("crates/sched/src/lib.rs", src, "");
    assert!(report.diags.is_empty());
    let site = report.sites.iter().find(|s| s.kind == "task_yield").expect("yield site");
    assert_eq!(site.gated, "gate-internal");
}

#[test]
fn blocking_outside_modeled_crates_is_ignored() {
    let src = r#"
        fn pump(rx: &std::sync::mpsc::Receiver<u8>) -> u8 { rx.recv().unwrap() }
    "#;
    assert!(codes("crates/trace/src/foo.rs", src).is_empty());
}

// ---------------------------------------------------------------- CAFL002

#[test]
fn guard_across_park_trips_cafl002() {
    let bad = r#"
        fn broken(m: &std::sync::Mutex<u8>) {
            let g = m.lock().unwrap();
            crate::sched::yield_op(crate::sched::ModelOp::Registry);
            drop(g);
        }
    "#;
    assert_eq!(codes("crates/core/src/foo.rs", bad), vec!["CAFL002"]);
}

#[test]
fn guard_dropped_before_park_is_clean() {
    let good = r#"
        fn fine(m: &std::sync::Mutex<u8>) {
            let g = m.lock().unwrap();
            drop(g);
            crate::sched::yield_op(crate::sched::ModelOp::Registry);
        }
    "#;
    assert!(codes("crates/core/src/foo.rs", good).is_empty());
}

#[test]
fn guard_across_task_park_trips_cafl002() {
    // caf_sched::park() suspends the whole task: a guard still live at
    // the park stays locked while other images run in its place.
    let bad = r#"
        fn broken(m: &std::sync::Mutex<u8>) {
            let g = m.lock().unwrap();
            caf_sched::park();
            drop(g);
        }
    "#;
    assert_eq!(codes("crates/core/src/foo.rs", bad), vec!["CAFL002"]);
}

#[test]
fn guard_dropped_before_task_park_is_clean() {
    let good = r#"
        fn fine(m: &std::sync::Mutex<u8>) {
            let g = m.lock().unwrap();
            drop(g);
            caf_sched::park();
        }
    "#;
    assert!(codes("crates/core/src/foo.rs", good).is_empty());
}

#[test]
fn guard_scoped_out_before_park_is_clean() {
    let good = r#"
        fn fine(m: &std::sync::Mutex<u8>) {
            {
                let g = m.lock().unwrap();
                *g += 1;
            }
            crate::sched::yield_op(crate::sched::ModelOp::Registry);
        }
    "#;
    assert!(codes("crates/core/src/foo.rs", good).is_empty());
}

// ---------------------------------------------------------------- CAFL003

#[test]
fn ordering_without_table_row_trips_cafl003() {
    let bad = r#"
        fn bump(c: &std::sync::atomic::AtomicU64) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    "#;
    assert_eq!(codes("crates/core/src/foo.rs", bad), vec!["CAFL003"]);
}

#[test]
fn ordering_with_table_row_is_clean() {
    let src = r#"
        fn bump(c: &std::sync::atomic::AtomicU64) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    "#;
    let table = "crates/core/src/foo.rs\tbump\tfetch_add\tRelaxed\tcounter, no sync\n";
    assert!(codes_with_table("crates/core/src/foo.rs", src, table).is_empty());
}

#[test]
fn seqcst_justification_must_mention_seqcst() {
    let src = r#"
        fn publish(c: &std::sync::atomic::AtomicBool) {
            c.store(true, Ordering::SeqCst);
        }
    "#;
    let drifting = "crates/core/src/foo.rs\tpublish\tstore\tSeqCst\tlooks important\n";
    assert_eq!(
        codes_with_table("crates/core/src/foo.rs", src, drifting),
        vec!["CAFL003"]
    );
    let justified =
        "crates/core/src/foo.rs\tpublish\tstore\tSeqCst\tSeqCst: total order with the reader\n";
    assert!(codes_with_table("crates/core/src/foo.rs", src, justified).is_empty());
}

#[test]
fn stale_table_row_trips_cafl003() {
    let table = OrderingTable::parse(
        "crates/core/src/gone.rs\told_fn\tload\tRelaxed\tno longer exists\n",
    )
    .unwrap();
    let mut report = Report::default();
    scan_file("crates/core/src/foo.rs", "fn nothing() {}", &table, &mut report);
    caf_lint::finish(&table, &mut report);
    assert_eq!(report.diags.len(), 1);
    assert_eq!(report.diags[0].code, "CAFL003");
    assert!(report.diags[0].msg.contains("stale"));
}

#[test]
fn ordering_in_test_code_is_exempt() {
    let src = r#"
        #[cfg(test)]
        mod tests {
            fn bump(c: &std::sync::atomic::AtomicU64) {
                c.fetch_add(1, Ordering::SeqCst);
            }
        }
    "#;
    assert!(codes("crates/core/src/foo.rs", src).is_empty());
}

// ---------------------------------------------------------------- CAFL004

#[test]
fn undocumented_unsafe_trips_cafl004() {
    let bad = r#"
        fn peek(p: *const u8) -> u8 {
            unsafe { *p }
        }
    "#;
    assert_eq!(codes("crates/hpcc/src/foo.rs", bad), vec!["CAFL004"]);
}

#[test]
fn safety_comment_satisfies_cafl004() {
    let good = r#"
        fn peek(p: *const u8) -> u8 {
            // SAFETY: caller guarantees `p` points into a live allocation.
            unsafe { *p }
        }
    "#;
    assert!(codes("crates/hpcc/src/foo.rs", good).is_empty());
    let trailing = r#"
        fn peek(p: *const u8) -> u8 {
            unsafe { *p } // SAFETY: caller guarantees `p` is live.
        }
    "#;
    assert!(codes("crates/hpcc/src/foo.rs", trailing).is_empty());
}

#[test]
fn safety_comment_too_far_above_still_trips() {
    let bad = r#"
        fn peek(p: *const u8) -> u8 {
            // SAFETY: this comment is five lines above the unsafe block,
            // which is beyond the three-line window the lint accepts,
            // so the site below must still be flagged as undocumented.
            let _x = 0;
            let _y = 0;
            unsafe { *p }
        }
    "#;
    assert_eq!(codes("crates/hpcc/src/foo.rs", bad), vec!["CAFL004"]);
}

// ---------------------------------------------------------------- CAFL005

#[test]
fn substrate_referencing_upper_layer_trips_cafl005() {
    let bad = r#"
        fn leak() {
            let _ = caf_model::explore::Config::default();
        }
    "#;
    assert_eq!(codes("crates/mpisim/src/foo.rs", bad), vec!["CAFL005"]);
}

#[test]
fn deep_path_into_substrate_trips_cafl005() {
    let bad = "use caf_mpisim::ops::Scalar;\n";
    assert_eq!(codes("crates/core/src/foo.rs", bad), vec!["CAFL005"]);
    let good = "use caf_mpisim::Scalar;\n";
    assert!(codes("crates/core/src/foo.rs", good).is_empty());
}

#[test]
fn runtime_naming_the_check_oracle_trips_cafl005() {
    // caf-check replays the trace from above the runtime: no runtime
    // crate may name it, while the crates above (bench, model) use it.
    let src = "fn audit(t: &caf_trace::Trace) { let _ = caf_check::check_trace(t, Default::default()); }\n";
    for krate in ["fabric", "mpisim", "gasnetsim", "core", "agg", "sched"] {
        assert_eq!(codes(&format!("crates/{krate}/src/foo.rs"), src), vec!["CAFL005"], "{krate}");
    }
    assert!(codes("crates/model/src/foo.rs", src).is_empty());
    assert!(codes("crates/bench/src/foo.rs", src).is_empty());
}

#[test]
fn runtime_manifest_naming_the_check_oracle_trips_cafl005() {
    let manifest = |rel: &str, text: &str| {
        let mut report = Report::default();
        scan_manifest(rel, text, &mut report);
        report.diags.iter().map(|d| (d.code, d.line)).collect::<Vec<_>>()
    };
    let bad = "[dependencies]\ncaf-trace = { workspace = true }\ncaf-check = { workspace = true, optional = true }\n\n[features]\ncheck = [\"dep:caf-check\"]\n";
    assert_eq!(manifest("crates/core/Cargo.toml", bad), vec![("CAFL005", 3), ("CAFL005", 6)]);
    assert_eq!(manifest("crates/mpisim/Cargo.toml", bad), vec![("CAFL005", 3), ("CAFL005", 6)]);
    // The oracle's users above the runtime may depend on it.
    assert!(manifest("crates/model/Cargo.toml", bad).is_empty());
    let good = "[dependencies]\ncaf-trace = { workspace = true }\n\n[dev-dependencies]\nproptest = { workspace = true }\n";
    assert!(manifest("crates/core/Cargo.toml", good).is_empty());
}

#[test]
fn substrate_may_use_its_own_modules() {
    let src = "use caf_mpisim::ops::Scalar;\nfn f(_: caf_fabric::SegmentId) {}\n";
    // Inside a substrate crate the deep-path rule does not apply (it
    // governs outside consumers), and caf_fabric is below both.
    assert!(codes("crates/gasnetsim/src/foo.rs", src).is_empty());
}

// ---------------------------------------------------------------- CAFL006

#[test]
fn segment_access_outside_substrates_trips_cafl006() {
    let bad = r#"
        fn sneak(mpi: &Mpi, win: &Window) {
            let seg = mpi.win_segment(win, 0).unwrap();
        }
    "#;
    assert_eq!(codes("crates/core/src/foo.rs", bad), vec!["CAFL006"]);
}

#[test]
fn segment_access_inside_substrate_is_exempt() {
    let src = r#"
        fn resolve(&self, win: &Window, rank: usize) -> Result<Arc<Segment>> {
            self.win_segment(win, rank)
        }
    "#;
    assert!(codes("crates/mpisim/src/foo.rs", src).is_empty());
}

#[test]
fn segment_allow_marker_suppresses_cafl006() {
    let src = r#"
        fn shipping(mpi: &Mpi, win: &Window) {
            // lint:allow(segment-direct) function shipping needs the raw view
            let seg = mpi.win_segment(win, 0).unwrap();
        }
    "#;
    assert!(codes("crates/core/src/foo.rs", src).is_empty());
}

// ---------------------------------------------------------------- CAFL007

#[test]
fn wall_clock_in_modeled_crate_trips_cafl007() {
    let bad = r#"
        fn spin() {
            let t0 = std::time::Instant::now();
        }
    "#;
    assert_eq!(codes("crates/agg/src/foo.rs", bad), vec!["CAFL007"]);
}

#[test]
fn wall_clock_in_delay_rs_is_exempt() {
    let src = r#"
        fn clock() -> std::time::Instant {
            std::time::Instant::now()
        }
    "#;
    assert!(codes("crates/fabric/src/delay.rs", src).is_empty());
}

#[test]
fn sleep_in_test_module_is_exempt() {
    let src = r#"
        #[cfg(test)]
        mod tests {
            fn settle() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    "#;
    assert!(codes("crates/core/src/foo.rs", src).is_empty());
}

// ------------------------------------------------------- regression: scope

/// The old line-grep disarmed the *rest of the file* once it saw a
/// `#[cfg(test)]` line. The scanner must re-arm after the test module's
/// closing brace.
#[test]
fn code_after_closed_test_module_is_still_linted() {
    let src = r#"
        #[cfg(test)]
        mod tests {
            fn settle() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }

        fn production() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    "#;
    let report = report_with_table("crates/core/src/foo.rs", src, "");
    assert_eq!(
        report.diags.iter().map(|d| d.code).collect::<Vec<_>>(),
        vec!["CAFL007"],
        "exactly the post-module sleep must be flagged: {:?}",
        report.diags
    );
    assert!(report.diags[0].line > 7, "flagged site must be in `production`");
}

/// `#[cfg(not(test))]` is live code and must not be treated as a test
/// scope.
#[test]
fn cfg_not_test_is_live_code() {
    let src = r#"
        #[cfg(not(test))]
        fn production() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    "#;
    assert_eq!(codes("crates/core/src/foo.rs", src), vec!["CAFL007"]);
}

// ---------------------------------------- regression: strings and comments

/// Pattern text inside string literals (e.g. a diagnostic message that
/// *names* `Instant::now`) must not trip any lint.
#[test]
fn patterns_inside_string_literals_are_ignored() {
    let src = r#"
        fn describe() -> &'static str {
            "do not call Instant::now or thread::sleep or win_segment( here"
        }
    "#;
    assert!(codes("crates/core/src/foo.rs", src).is_empty());
}

/// Pattern text in trailing comments must not trip any lint either.
#[test]
fn patterns_inside_comments_are_ignored() {
    let src = r#"
        fn describe() {
            let x = 1; // unlike Instant::now(), this is deterministic
            // A doc note mentioning rx.recv() and Ordering::SeqCst is fine.
            let _ = x;
        }
    "#;
    assert!(codes("crates/core/src/foo.rs", src).is_empty());
}

/// And the inverse guard: real code on a line that *also* has a trailing
/// comment is still scanned.
#[test]
fn code_with_trailing_comment_is_still_scanned() {
    let src = r#"
        fn spin() {
            let t0 = std::time::Instant::now(); // timestamp
        }
    "#;
    assert_eq!(codes("crates/core/src/foo.rs", src), vec!["CAFL007"]);
}

// ------------------------------------------------- workspace-level passes
//
// The fixtures below exercise the CFG + call-graph dataflow engine
// (CAFL008 sync-protocol, CAFL009 wait-graph, CAFL000 stale-allow
// audit), which only runs at workspace granularity.

/// Analyze a multi-file virtual workspace through the full engine:
/// per-file passes, the call-graph dataflow passes, and the allow audit.
fn ws_report(files: &[(&str, &str)]) -> Report {
    let table = OrderingTable::parse("").expect("empty table parses");
    let ws = caf_lint::Workspace::from_sources(
        files.iter().map(|&(r, s)| (r.to_string(), s.to_string())).collect(),
    );
    let mut report = Report::default();
    ws.analyze(&table, &mut report);
    report
}

fn ws_codes(files: &[(&str, &str)]) -> Vec<&'static str> {
    let mut v: Vec<&'static str> = ws_report(files).diags.iter().map(|d| d.code).collect();
    v.sort_unstable();
    v
}

// ---------------------------------------------------------------- CAFL008

#[test]
fn notify_on_one_arm_only_trips_cafl008() {
    let bad = r#"
        fn branchy(img: &Image, flag: bool) {
            img.copy_async_put(&ca, 1, 0, &[7], AsyncOpts::none());
            if flag {
                img.event_notify(&world, &ev, 1);
            }
        }
    "#;
    assert_eq!(ws_codes(&[("tests/fix.rs", bad)]), vec!["CAFL008"]);
}

#[test]
fn notify_on_every_arm_is_clean() {
    let good = r#"
        fn branchy(img: &Image, flag: bool) {
            img.copy_async_put(&ca, 1, 0, &[7], AsyncOpts::none());
            if flag {
                img.event_notify(&world, &ev, 1);
            } else {
                img.cofence();
            }
        }
    "#;
    assert!(ws_codes(&[("tests/fix.rs", good)]).is_empty());
}

#[test]
fn loop_carried_dirty_state_trips_cafl008() {
    // The release happens *before* the loop: every iteration's put
    // survives to the function exit.
    let bad = r#"
        fn loopy(img: &Image) {
            img.cofence();
            for i in 0..4 {
                img.copy_async_put(&ca, i, 0, &[1], AsyncOpts::none());
            }
        }
    "#;
    assert_eq!(ws_codes(&[("tests/fix.rs", bad)]), vec!["CAFL008"]);
}

#[test]
fn release_inside_the_loop_body_is_clean() {
    // Put + notify within one iteration: the loop-head join sees a
    // clean state on the back edge, so nothing leaks out of the loop.
    let good = r#"
        fn loopy(img: &Image) {
            for i in 0..4 {
                img.copy_async_put(&ca, i, 0, &[1], AsyncOpts::none());
                img.event_notify(&world, &ev, i);
            }
        }
    "#;
    assert!(ws_codes(&[("tests/fix.rs", good)]).is_empty());
}

#[test]
fn dirty_exit_through_a_closure_body_trips_cafl008() {
    // The put happens inside a harness closure (may-execute): its
    // generated work joins into the caller and reaches the exit.
    let bad = r#"
        fn harness(img: &Image) {
            run_images(4, |img| {
                img.copy_async_put(&ca, 1, 0, &[7], AsyncOpts::none());
            });
        }
    "#;
    assert_eq!(ws_codes(&[("tests/fix.rs", bad)]), vec!["CAFL008"]);
}

#[test]
fn closure_that_releases_before_returning_is_clean() {
    let good = r#"
        fn harness(img: &Image) {
            run_images(4, |img| {
                img.copy_async_put(&ca, 1, 0, &[7], AsyncOpts::none());
                img.cofence();
            });
        }
    "#;
    assert!(ws_codes(&[("tests/fix.rs", good)]).is_empty());
}

#[test]
fn finish_block_exit_releases_everything() {
    // finish() drains + release_all()s at closure exit: a put inside
    // needs no explicit release.
    let good = r#"
        fn finished(img: &Image) {
            img.finish(|img| {
                img.copy_async_put(&ca, 1, 0, &[7], AsyncOpts::none());
            });
        }
    "#;
    assert!(ws_codes(&[("tests/fix.rs", good)]).is_empty());
}

#[test]
fn dirty_state_propagates_through_helper_calls() {
    // The put is two calls deep; the root never releases it.
    let bad = r#"
        fn root(img: &Image) {
            step_one(img);
        }
        fn step_one(img: &Image) {
            step_two(img);
        }
        fn step_two(img: &Image) {
            img.copy_async_put(&ca, 1, 0, &[7], AsyncOpts::none());
        }
    "#;
    assert_eq!(ws_codes(&[("tests/fix.rs", bad)]), vec!["CAFL008"]);

    // Same shape, but the root releases after the helper returns.
    let good = r#"
        fn root(img: &Image) {
            step_one(img);
            img.cofence();
        }
        fn step_one(img: &Image) {
            step_two(img);
        }
        fn step_two(img: &Image) {
            img.copy_async_put(&ca, 1, 0, &[7], AsyncOpts::none());
        }
    "#;
    assert!(ws_codes(&[("tests/fix.rs", good)]).is_empty());
}

#[test]
fn wait_without_reachable_notify_trips_cafl008() {
    let bad = r#"
        fn onesided(img: &Image) {
            img.event_wait(&ev);
        }
    "#;
    assert_eq!(ws_codes(&[("tests/fix.rs", bad)]), vec!["CAFL008"]);

    // SPMD pairing: every image runs the same program text, so a
    // notify reachable from the same root satisfies the wait.
    let good = r#"
        fn paired(img: &Image) {
            img.event_notify(&world, &ev, 1);
            img.event_wait(&ev);
        }
    "#;
    assert!(ws_codes(&[("tests/fix.rs", good)]).is_empty());
}

#[test]
fn ship_outside_finish_trips_cafl008() {
    let bad = r#"
        fn ships(img: &Image) {
            img.ship(7, |img| {
                let _ = img.this_image();
            });
        }
    "#;
    assert_eq!(ws_codes(&[("tests/fix.rs", bad)]), vec!["CAFL008"]);
}

#[test]
fn ship_under_finish_is_clean_even_through_a_helper() {
    let good = r#"
        fn root(img: &Image) {
            img.finish(|img| {
                spawn_work(img);
            });
        }
        fn spawn_work(img: &Image) {
            img.ship(7, |img| {
                let _ = img.this_image();
            });
        }
    "#;
    assert!(ws_codes(&[("tests/fix.rs", good)]).is_empty());
}

#[test]
fn collective_inside_shipped_closure_trips_cafl008() {
    // Shipped closures execute remotely under the target's finish
    // accounting; a team collective inside one deadlocks the team.
    let bad = r#"
        fn root(img: &Image) {
            img.finish(|img| {
                img.ship(7, |img| {
                    img.barrier(&world);
                });
            });
        }
    "#;
    assert_eq!(ws_codes(&[("tests/fix.rs", bad)]), vec!["CAFL008"]);
}

// -------------------------------------------- CAFL008: failure edges

#[test]
fn blind_blocking_call_in_fault_aware_program_trips_cafl008() {
    // The program threads Stat through one barrier and reforms the team
    // — it expects failures — but the final sync is failure-blind: once
    // an image dies it panics instead of reporting.
    let bad = r#"
        fn recovers(img: &Image) {
            let stat = img.sync_all_stat();
            if !stat.is_ok() {
                let (team, _stat) = img.team_reform(&img.team_world());
                img.barrier(&team);
            }
        }
    "#;
    let report = ws_report(&[("tests/fix.rs", bad)]);
    assert_eq!(
        report.diags.iter().map(|d| d.code).collect::<Vec<_>>(),
        vec!["CAFL008"],
        "failure edge must be flagged: {:?}",
        report.diags
    );
    assert!(report.diags[0].msg.contains("Stat out-param"), "{:?}", report.diags);
}

#[test]
fn stat_twin_everywhere_is_clean() {
    let good = r#"
        fn recovers(img: &Image) {
            let stat = img.sync_all_stat();
            if !stat.is_ok() {
                let (team, _stat) = img.team_reform(&img.team_world());
                let stat = img.barrier_stat(&team);
                assert!(stat.is_ok());
            }
        }
    "#;
    assert!(ws_codes(&[("tests/fix.rs", good)]).is_empty());
}

#[test]
fn plain_blocking_without_fault_api_is_not_a_failure_edge() {
    // A program that never touches the failed-image API is failure-free
    // by assumption: plain collectives are the correct idiom.
    let good = r#"
        fn oblivious(img: &Image) {
            img.sync_all();
            img.barrier(&world);
        }
    "#;
    assert!(ws_codes(&[("tests/fix.rs", good)]).is_empty());
}

#[test]
fn failure_edge_reaches_through_helper_calls() {
    // The fault API and the blind call live in different functions of
    // the same program: the root joins both.
    let bad = r#"
        fn root(img: &Image) {
            detect(img);
            settle(img);
        }
        fn detect(img: &Image) {
            let stat = img.sync_all_stat();
            let _ = stat.is_ok();
        }
        fn settle(img: &Image) {
            img.barrier(&world);
        }
    "#;
    assert_eq!(ws_codes(&[("tests/fix.rs", bad)]), vec!["CAFL008"]);
}

#[test]
fn blind_finish_in_fault_aware_program_trips_cafl008() {
    // finish has a _stat twin too; the plain form panics mid-teardown
    // when a member dies inside the block.
    let bad = r#"
        fn recovers(img: &Image) {
            let (team, _stat) = img.team_reform(&img.team_world());
            img.finish(&team, |img| {
                let _ = img.this_image();
            });
        }
    "#;
    assert_eq!(ws_codes(&[("tests/fix.rs", bad)]), vec!["CAFL008"]);
}

#[test]
fn finish_stat_closure_exit_still_releases() {
    // The finish_stat closure is run-once like finish: deferred work
    // inside needs no explicit release (on failure it is discarded, not
    // deferred further).
    let good = r#"
        fn recovers(img: &Image) {
            let ((), stat) = img.finish_stat(&world, |img| {
                img.copy_async_put(&ca, 1, 0, &[7], AsyncOpts::none());
            });
            let _ = stat.is_ok();
        }
    "#;
    assert!(ws_codes(&[("tests/fix.rs", good)]).is_empty());
}

#[test]
fn code_spelled_allow_suppresses_failure_edge() {
    // `lint:allow(CAFL008)` — the code-spelled escape hatch — works on
    // the line above the blind call, for sites that provably run on a
    // failure-free team.
    let allowed = r#"
        fn recovers(img: &Image) {
            let stat = img.sync_all_stat();
            if !stat.is_ok() {
                let (team, _stat) = img.team_reform(&img.team_world());
                // lint:allow(CAFL008) reform dropped every failed member
                img.barrier(&team);
            }
        }
    "#;
    assert!(ws_codes(&[("tests/fix.rs", allowed)]).is_empty());
}

#[test]
fn allow_marker_suppresses_cafl008_and_is_not_stale() {
    let allowed = r#"
        fn branchy(img: &Image, flag: bool) {
            // lint:allow(sync-protocol) released data-dependently below
            img.copy_async_put(&ca, 1, 0, &[7], AsyncOpts::none());
            if flag {
                img.event_notify(&world, &ev, 1);
            }
        }
    "#;
    assert!(ws_codes(&[("tests/fix.rs", allowed)]).is_empty());
}

// ---------------------------------------------------------------- CAFL009

/// The acceptance fixture: a guard held across a park two calls deep.
/// CAFL002's same-function pass cannot see it; the call-graph-propagated
/// wait-graph pass must.
#[test]
fn park_under_guard_two_calls_deep_trips_cafl009_not_cafl002() {
    let bad = r#"
        fn outer(q: &std::sync::Mutex<u32>) {
            let guard = q.lock();
            middle();
            drop(guard);
        }
        fn middle() {
            inner();
        }
        fn inner() {
            caf_sched::park();
        }
    "#;
    let report = ws_report(&[("crates/core/src/fix.rs", bad)]);
    let codes: Vec<&str> = report.diags.iter().map(|d| d.code).collect();
    assert!(
        codes.contains(&"CAFL009"),
        "interprocedural park-while-holding must be flagged: {:?}",
        report.diags
    );
    assert!(
        !codes.contains(&"CAFL002"),
        "CAFL002 is same-fn only and must stay silent here: {:?}",
        report.diags
    );
    let wg = report.waitgraph.as_ref().expect("wait graph built");
    assert!(
        wg.edges.iter().any(|e| e.from == "lock:core/q"
            && e.to == "park:core/park"
            && e.scope == "inter"
            && e.status == "flagged"),
        "edge must be committed as flagged: {}",
        wg.render()
    );
}

#[test]
fn dropping_the_guard_before_the_call_is_clean() {
    let good = r#"
        fn outer(q: &std::sync::Mutex<u32>) {
            let guard = q.lock();
            drop(guard);
            middle();
        }
        fn middle() {
            inner();
        }
        fn inner() {
            caf_sched::park();
        }
    "#;
    let report = ws_report(&[("crates/core/src/fix.rs", good)]);
    assert!(report.diags.is_empty(), "unexpected: {:?}", report.diags);
    let wg = report.waitgraph.as_ref().expect("wait graph built");
    assert!(
        wg.edges.is_empty(),
        "no guard is live at the call: {}",
        wg.render()
    );
}

#[test]
fn allowed_interprocedural_edge_is_committed_as_allowed() {
    let src = r#"
        fn outer(q: &std::sync::Mutex<u32>) {
            let guard = q.lock();
            // lint:allow(wait-graph) guard protects the park handshake itself
            middle();
            drop(guard);
        }
        fn middle() {
            caf_sched::park();
        }
    "#;
    let report = ws_report(&[("crates/core/src/fix.rs", src)]);
    assert!(report.diags.is_empty(), "unexpected: {:?}", report.diags);
    let wg = report.waitgraph.as_ref().expect("wait graph built");
    assert!(
        wg.edges.iter().any(|e| e.scope == "inter" && e.status == "allowed"),
        "allowed edges stay visible in the committed graph: {}",
        wg.render()
    );
}

#[test]
fn lock_order_cycle_across_functions_trips_cafl009() {
    // `ab` takes A then B (through a helper); `ba` takes B then A: an
    // AB/BA inversion no schedule ordering can make safe.
    let bad = r#"
        fn ab(alock: &std::sync::Mutex<u32>, block: &std::sync::Mutex<u32>) {
            let ga = alock.lock();
            take_b(block);
            drop(ga);
        }
        fn take_b(block: &std::sync::Mutex<u32>) {
            let gb = block.lock();
            drop(gb);
        }
        fn ba(alock: &std::sync::Mutex<u32>, block: &std::sync::Mutex<u32>) {
            let gb = block.lock();
            take_a(alock);
            drop(gb);
        }
        fn take_a(alock: &std::sync::Mutex<u32>) {
            let ga = alock.lock();
            drop(ga);
        }
    "#;
    let report = ws_report(&[("crates/core/src/fix.rs", bad)]);
    assert!(
        report.diags.iter().any(|d| d.code == "CAFL009" && d.msg.contains("cycle")),
        "lock-order cycle must be flagged: {:?}",
        report.diags
    );
}

#[test]
fn consistent_lock_order_is_clean() {
    let good = r#"
        fn ab(alock: &std::sync::Mutex<u32>, block: &std::sync::Mutex<u32>) {
            let ga = alock.lock();
            take_b(block);
            drop(ga);
        }
        fn take_b(block: &std::sync::Mutex<u32>) {
            let gb = block.lock();
            drop(gb);
        }
        fn also_ab(alock: &std::sync::Mutex<u32>, block: &std::sync::Mutex<u32>) {
            let ga = alock.lock();
            take_b(block);
            drop(ga);
        }
    "#;
    let report = ws_report(&[("crates/core/src/fix.rs", good)]);
    assert!(report.diags.is_empty(), "unexpected: {:?}", report.diags);
}

#[test]
fn same_fn_park_stays_cafl002_territory() {
    // A guard held across a park in the *same* function: CAFL002's
    // finding; the wait graph records the edge as intra, unflagged.
    let bad = r#"
        fn f(q: &std::sync::Mutex<u32>) {
            let guard = q.lock();
            caf_sched::park();
            drop(guard);
        }
    "#;
    let report = ws_report(&[("crates/core/src/fix.rs", bad)]);
    let codes: Vec<&str> = report.diags.iter().map(|d| d.code).collect();
    assert!(codes.contains(&"CAFL002"), "same-fn is CAFL002: {:?}", report.diags);
    assert!(!codes.contains(&"CAFL009"), "no CAFL009 double-report: {:?}", report.diags);
    let wg = report.waitgraph.as_ref().expect("wait graph built");
    assert!(
        wg.edges.iter().any(|e| e.scope == "intra" && e.status == "ok"),
        "intra edge recorded: {}",
        wg.render()
    );
}

// ---------------------------------------------------------------- CAFL010

/// Analyze `api` as a source file of core, beside the `roots` files.
fn reach_codes(api: &str, roots: &[(&str, &str)]) -> Vec<&'static str> {
    let mut files = vec![("crates/core/src/fix.rs", api)];
    files.extend_from_slice(roots);
    ws_codes(&files)
}

#[test]
fn unreached_pub_fn_trips_cafl010() {
    assert_eq!(reach_codes("pub fn orphan() {}", &[]), vec!["CAFL010"]);
    // Private fns, and crates outside the runtime, are not in scope.
    assert!(reach_codes("fn private() {}", &[]).is_empty());
    assert!(ws_codes(&[("crates/lint/src/fix.rs", "pub fn tool() {}")]).is_empty());
}

#[test]
fn fn_called_only_from_its_unit_tests_trips_cafl010() {
    let api = r#"
        pub fn helper() -> u32 { 7 }
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() { assert_eq!(super::helper(), 7); }
        }
    "#;
    assert_eq!(reach_codes(api, &[]), vec!["CAFL010"]);
}

#[test]
fn fn_called_from_an_integration_test_or_a_main_is_reached() {
    let api = "pub fn helper() -> u32 { inner() } pub fn inner() -> u32 { 7 }";
    let test = "#[test] fn t() { assert_eq!(caf::helper(), 7); }";
    assert!(reach_codes(api, &[("tests/it.rs", test)]).is_empty());
    assert!(reach_codes(api, &[("crates/core/tests/it.rs", test)]).is_empty());
    assert!(reach_codes(api, &[("examples/ex.rs", "fn main() { caf::helper(); }")]).is_empty());
    // A plain fn of an integration-test file is no root.
    let no_test = "fn not_a_test() { caf::helper(); }";
    assert_eq!(reach_codes(api, &[("tests/it.rs", no_test)]), vec!["CAFL010", "CAFL010"]);
}

#[test]
fn deny_listed_and_oversized_names_over_approximate() {
    // `send` is DENY-listed: CAFL008/009 resolve no edge through it, but
    // every fn of that name is reached.
    let api = "pub fn send(x: u32) -> u32 { x }";
    let main = "fn main() { let ep = 1; ep.send(1); }";
    assert!(reach_codes(api, &[("examples/ex.rs", main)]).is_empty());
    // Six same-named candidates exceed MAX_CANDIDATES: all are reached.
    let many: String =
        (0..6).map(|i| format!("pub mod m{i} {{ pub fn popular() {{}} }}\n")).collect();
    assert!(reach_codes(&many, &[("examples/ex.rs", "fn main() { popular(); }")]).is_empty());
}

#[test]
fn names_used_by_the_benchmark_tree_are_roots() {
    let bench = ("benchmark/src/layers.rs", "fn rung() { caf::bench_only(); }");
    assert!(reach_codes("pub fn bench_only() {}", &[bench]).is_empty());
    // The benchmark tree is read, never linted.
    let unlinted = ("benchmark/src/main.rs", "pub fn orphan() { unsafe { x() } }");
    assert!(reach_codes("pub fn bench_only() {}", &[bench, unlinted]).is_empty());
}

#[test]
fn unreached_pub_const_and_static_trip_cafl010() {
    assert_eq!(reach_codes("pub const ORPHAN: u32 = 7;", &[]), vec!["CAFL010"]);
    assert_eq!(reach_codes("pub static mut ORPHAN: u32 = 7;", &[]), vec!["CAFL010"]);
    // Named only by its own unit tests: still unreached.
    let api = "pub const ORPHAN: u32 = 7;\n#[cfg(test)] mod tests { fn t() { let _ = super::ORPHAN; } }";
    assert_eq!(reach_codes(api, &[]), vec!["CAFL010"]);
    // Not module-level items: a `pub const fn`, an associated const, a
    // const inside a fn body; private and `pub(crate)` consts are rustc's.
    let not_items = "pub struct S; impl S { pub const K: u32 = 1; }\n\
                     const PRIVATE: u32 = 1; pub(crate) const CRATE: u32 = 2;";
    assert!(reach_codes(not_items, &[]).is_empty());
    assert_eq!(reach_codes("pub const fn orphan() -> u32 { 7 }", &[]), vec!["CAFL010"]);
}

#[test]
fn pub_const_named_by_a_root_or_a_reached_const_is_reached() {
    let bench = ("benchmark/src/workloads.rs", "fn run() { let _ = caf::BENCH_ONLY; }");
    assert!(reach_codes("pub const BENCH_ONLY: u32 = 7;", &[bench]).is_empty());
    // A reached const reaches what its type and initializer name; a
    // reached fn body reaches what it names, in a nested `mod` too.
    let api = "pub mod inner { pub const N: usize = 2; }\n\
               pub const TABLE: [u8; inner::N] = [BASE; inner::N];\n\
               pub const BASE: u8 = 1;\n\
               pub fn read() -> u8 { TABLE[0] }";
    let main = ("examples/ex.rs", "fn main() { caf::read(); }");
    assert!(reach_codes(api, &[main]).is_empty());
    assert_eq!(reach_codes(api, &[]), vec!["CAFL010"; 4]);
}

#[test]
fn unreached_allow_needs_a_reason_and_goes_stale_when_reached() {
    let reasoned = "// lint:allow(unreached): backs a documented claim\npub fn kept() {}";
    assert!(reach_codes(reasoned, &[]).is_empty());
    let bare = "// lint:allow(unreached)\npub fn kept() {}";
    assert_eq!(reach_codes(bare, &[]), vec!["CAFL010"]);
    let main = ("examples/ex.rs", "fn main() { caf::kept(); }");
    assert_eq!(reach_codes(reasoned, &[main]), vec!["CAFL000"]);
}

// ---------------------------------------------------------------- CAFL000

#[test]
fn stale_allow_marker_trips_cafl000() {
    // The marker suppresses nothing on its line or the line below.
    let stale = r#"
        fn quiet() {
            // lint:allow(blocking) nothing blocks here anymore
            let x = 1;
            let _ = x;
        }
    "#;
    assert_eq!(ws_codes(&[("crates/fabric/src/fix.rs", stale)]), vec!["CAFL000"]);
}

#[test]
fn consumed_allow_marker_is_not_stale() {
    let consumed = r#"
        fn pump(rx: &std::sync::mpsc::Receiver<u8>) -> u8 {
            // lint:allow(blocking) bootstrap path, runs before any gate arms
            rx.recv().unwrap()
        }
    "#;
    assert!(ws_codes(&[("crates/fabric/src/fix.rs", consumed)]).is_empty());
}

#[test]
fn unknown_allow_class_trips_cafl000() {
    let bad = r#"
        fn quiet() {
            // lint:allow(frobnicate) not a lint class
            let x = 1;
            let _ = x;
        }
    "#;
    assert_eq!(ws_codes(&[("crates/core/src/fix.rs", bad)]), vec!["CAFL000"]);
}

#[test]
fn backtick_quoted_allow_mentions_are_prose_not_markers() {
    let prose = r#"
        /// Policy doc: suppress with `lint:allow(blocking)` on the line.
        /// Placeholder form `// lint:allow(<class>)` is also just prose.
        fn quiet() {
            let x = 1;
            let _ = x;
        }
    "#;
    assert!(ws_codes(&[("crates/core/src/fix.rs", prose)]).is_empty());
}

// ------------------------------------------------- committed inventories

/// Both committed inventories are keyed without line numbers: code that
/// only moves (here, shifted down by blank lines) renders byte-identical
/// rows, while a new blocking site does change the inventory. A site is
/// numbered among the sites of its kind in its function.
#[test]
fn inventories_survive_line_moves_and_number_sites_per_function() {
    let src = r#"
        fn outer(q: &std::sync::Mutex<u32>, ep: &Endpoint) {
            let guard = q.lock();
            // lint:allow(wait-graph) guard protects the park handshake itself
            middle();
            drop(guard);
            ep.recv_blocking(0);
            ep.recv_blocking(1);
        }
        fn middle() {
            caf_sched::park();
        }
    "#;
    let rel = "crates/core/src/fix.rs";
    let base = ws_report(&[(rel, src)]);
    assert!(base.diags.is_empty(), "unexpected: {:?}", base.diags);
    let ordinals: Vec<u32> =
        base.sites.iter().filter(|s| s.kind == "recv_blocking").map(|s| s.ordinal).collect();
    assert_eq!(ordinals, [0, 1]);
    assert_eq!(base.waitgraph.as_ref().map(|g| g.edges.len()), Some(1));

    let moved = ws_report(&[(rel, &format!("\n\n\n{src}"))]);
    assert_eq!(moved.inventory_json(), base.inventory_json());
    assert_eq!(moved.waitgraph_json(), base.waitgraph_json());

    let grown = src.replace("ep.recv_blocking(1);", "ep.recv_blocking(1);\n ep.recv_blocking(2);");
    let grown = ws_report(&[(rel, &grown)]);
    assert_ne!(grown.inventory_json(), base.inventory_json());
    assert!(grown.inventory_json().contains("\"kind\": \"recv_blocking\", \"ordinal\": 2"));
}
