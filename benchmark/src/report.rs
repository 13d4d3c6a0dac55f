//! Command line, printing, and the result files `compare` reads.

use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::host::{self, Pinning};
use crate::json::Json;
use crate::layers::{self, LadderOpts};
use crate::metrics::{self, unit_of, END_TO_END, SUBSTRATES, WORKLOADS};
use crate::run::{run_workload, Outcome, RunOpts, Values};
use crate::spans;
use crate::workloads::{
    Cgpop, EventSync, Fft, Get8, Hpl, Put8, Ra, Scale, SelftestHang, SelftestPanic, FFT_LOG2,
    JOB_CPUS,
};

/// Default `--seconds` of `run` and `all`: the `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// Where `--trace` sends the span file.
#[derive(Debug, Clone, PartialEq)]
enum Trace {
    Off,
    /// `--trace 1`: beside the executable.
    Default,
    File(String),
}

#[derive(Debug)]
struct Args {
    seed: u64,
    seconds: f64,
    trace: Trace,
    sets: usize,
    traced_sets: bool,
    out: Option<String>,
}

fn parse_flags(flags: &[String]) -> Result<(Args, Option<String>), String> {
    let mut args = Args {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: Trace::Off,
        sets: 1,
        traced_sets: false,
        out: None,
    };
    let mut workload = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::Default,
                    file => Trace::File(file.to_string()),
                }
            }
            "--sets" => {
                args.sets = value()?
                    .parse()
                    .map_err(|_| "--sets takes a whole number")?;
                if !(1..=100).contains(&args.sets) {
                    return Err("--sets must be in 1..=100".into());
                }
            }
            "--traced" => args.traced_sets = true,
            "--out" => args.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((args, workload))
}

pub fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => crate::compare::compare_files(a, b),
            _ => Err("compare takes two result files".into()),
        },
        Some("all") => {
            let (args, workload) = parse_flags(&argv[1..])?;
            if workload.is_some() {
                return Err("all runs every workload; drop --workload".into());
            }
            run_all(&args)
        }
        Some("run") => {
            let name = argv.get(1).ok_or("run needs a workload name")?;
            let (args, workload) = parse_flags(&argv[2..])?;
            if workload.is_some() {
                return Err("give the workload once".into());
            }
            run_one(name, &args)
        }
        Some(flag) if flag.starts_with("--") => {
            let (args, workload) = parse_flags(argv)?;
            run_one(&workload.ok_or("--workload is required")?, &args)
        }
        _ => Err("expected a command".into()),
    }
}

/// One workload run, shaped for printing.
struct RunReport {
    attempted: u64,
    failed: u64,
    end_to_end: Values,
    per_layer: Values,
}

fn metrics_json(names: impl Iterator<Item = (String, &'static str)>, values: &Values) -> Json {
    Json::obj(names.map(|(name, unit)| {
        let value = values.get(&name).copied().flatten();
        let entry = Json::obj([
            ("value", value.map_or(Json::Null, Json::Num)),
            ("unit", Json::Str(unit.into())),
        ]);
        (name, entry)
    }))
}

impl RunReport {
    /// The result object: the end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one.
    fn result_json(&self, traced: bool) -> Json {
        let metrics = if traced {
            metrics_json(with_units(metrics::per_layer_names()), &self.per_layer)
        } else {
            metrics_json(
                END_TO_END.iter().map(|e| (e.name.to_string(), e.unit)),
                &self.end_to_end,
            )
        };
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
    }
}

/// Pair per-layer metric names with their units.
fn with_units(names: Vec<String>) -> impl Iterator<Item = (String, &'static str)> {
    names.into_iter().map(|n| {
        let unit = unit_of(&n).0;
        (n, unit)
    })
}

fn print_values(values: &Values, names: impl Iterator<Item = (String, &'static str)>) {
    for (name, unit) in names {
        match values.get(&name).copied().flatten() {
            Some(v) => println!("  {name:<34} {:>16} {unit}", format_value(v)),
            None => println!("  {name:<34} {:>16} {unit}", "unavailable"),
        }
    }
}

/// Six significant digits, plain notation where that stays short.
fn format_value(v: f64) -> String {
    let a = v.abs();
    if a != 0.0 && !(1e-3..1e9).contains(&a) {
        format!("{v:.5e}")
    } else if a >= 1e5 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        let digits = (5 - a.max(1e-3).log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

fn print_host(pin: &Pinning) {
    let list = |cpus: &[usize]| {
        if cpus.is_empty() {
            "unavailable".to_string()
        } else {
            format!("{cpus:?}")
        }
    };
    println!("host:");
    println!(
        "  allowed CPUs                       {}",
        list(&pin.allowed)
    );
    println!(
        "  job CPU (every thread of a job)    {}",
        pin.cpu().map_or("unavailable".into(), |c| c.to_string())
    );
    println!("  workers under Tasks                {JOB_CPUS}");
    println!(
        "  available_parallelism              {}",
        std::thread::available_parallelism().map_or("unavailable".into(), |n| n.to_string())
    );
    match host::llc_bytes() {
        Some(b) => println!("  last-level cache                   {} KiB", b >> 10),
        None => println!("  last-level cache                   unavailable"),
    }
}

fn run_named(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    Ok(match name {
        "put8" => run_workload(Put8::new(opts.seed), opts),
        "get8" => run_workload(Get8::new(opts.seed), opts),
        "sync" => run_workload(EventSync, opts),
        "fft" => run_workload(Fft::default(), opts),
        "hpl" => run_workload(Hpl { seed: opts.seed }, opts),
        "cgpop" => run_workload(Cgpop::default(), opts),
        "ra" => run_workload(Ra::default(), opts),
        "scale" => run_workload(Scale::new(opts.seed), opts),
        "selftest-panic" => run_workload(SelftestPanic, opts),
        "selftest-hang" => run_workload(SelftestHang, opts),
        other => {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload {other}; one of {known:?} or layers"
            ));
        }
    })
}

/// Run the ladder on a helper thread under a deadline, like a universe.
fn guarded_ladder(opts: LadderOpts, deadline: Duration) -> Result<Values, String> {
    let (tx, rx) = std::sync::mpsc::channel();
    // Not joined when the deadline passes: a stuck loop cannot be torn
    // down, and the process exits right after reporting.
    std::thread::Builder::new()
        .name("wallbench-ladder".into())
        .spawn(move || {
            let _ = tx.send(layers::run_ladder(&opts));
        })
        .expect("spawn ladder thread");
    rx.recv_timeout(deadline).map_err(|e| match e {
        std::sync::mpsc::RecvTimeoutError::Timeout => {
            format!(
                "layer ladder: no result within {:.0} s deadline",
                deadline.as_secs_f64()
            )
        }
        std::sync::mpsc::RecvTimeoutError::Disconnected => "layer ladder: a loop panicked".into(),
    })
}

/// Span file of `--trace 1`: beside the executable, so it lands in the
/// build directory and not among sources.
fn default_span_path(workload: &str, seed: u64) -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("wallbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.join(format!("{workload}.seed{seed}.json")))
}

fn run_one(name: &str, args: &Args) -> Result<ExitCode, String> {
    let started = Instant::now();
    let pin = Arc::new(Pinning::detect());
    let traced = args.trace != Trace::Off;
    let ladder_only = name == "layers";
    // Which metrics the result line carries.
    let per_layer = traced || ladder_only;
    println!(
        "wallbench {name}: seed {}, {} s, {}",
        args.seed,
        args.seconds,
        if ladder_only {
            "layer ladder only"
        } else if traced {
            "traced run (per-layer metrics)"
        } else {
            "untraced run (end-to-end metrics)"
        }
    );
    print_host(&pin);

    let mut report = RunReport {
        attempted: 0,
        failed: 0,
        end_to_end: Values::new(),
        per_layer: Values::new(),
    };
    let mut failures = Vec::new();

    if !ladder_only {
        // A traced run spends half its time in the workload (launches
        // alternate traced and untraced) and half in the ladder.
        let opts = RunOpts {
            seed: args.seed,
            seconds: if traced {
                args.seconds / 2.0
            } else {
                args.seconds
            },
            traced,
            pin: Arc::clone(&pin),
        };
        let mut out = run_named(name, &opts)?;
        print_outcome(&out, &pin);
        report.attempted = out.attempted;
        report.failed = out.failed;
        report.end_to_end = out.end_to_end();
        println!(
            "end-to-end metrics{}:",
            if traced {
                " (not for comparison: traced run)"
            } else {
                ""
            }
        );
        print_values(
            &report.end_to_end,
            END_TO_END.iter().map(|e| (e.name.to_string(), e.unit)),
        );
        println!(
            "  {:<34} {:>16} ratio",
            "fail_ratio",
            format_value(out.fail_ratio())
        );
        if traced {
            report.per_layer = out.traced_run();
            println!("traced run (launches alternate traced and untraced):");
            print_values(&report.per_layer, with_units(metrics::traced_run_names()));
            for (si, s) in SUBSTRATES.iter().enumerate() {
                if let Some(t) = out.rep_tail(si) {
                    println!(
                        "  run.{s}.rep_tail_ms is p{:.1} of {} repetitions ({} beyond it)",
                        t.percentile, t.samples, t.beyond
                    );
                }
            }
            let merged = out.merged_spans();
            let path = match &args.trace {
                Trace::File(f) => std::path::PathBuf::from(f),
                _ => default_span_path(name, args.seed)?,
            };
            std::fs::write(&path, spans::to_json(&merged).to_line() + "\n")
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "  {} spans written to {} (a rep span's children are ledger deltas, not spans)",
                merged.len(),
                path.display()
            );
        }
        failures = out.failures;
        if out.aborted {
            // A stuck universe holds its threads; report and leave.
            return finish(&report, per_layer, &failures, started, true);
        }
    }

    if per_layer {
        // What the workload left of the run, but never a starved ladder.
        let ladder_seconds =
            (args.seconds - started.elapsed().as_secs_f64()).max(args.seconds / 4.0);
        let deadline = Duration::from_secs_f64((6.0 * ladder_seconds).clamp(30.0, 150.0));
        let opts = LadderOpts {
            seconds: ladder_seconds,
            seed: args.seed,
            pin: Arc::clone(&pin),
        };
        match guarded_ladder(opts, deadline) {
            Ok(values) => {
                println!("layer ladder (median of each loop's batches):");
                print_values(&values, with_units(metrics::ladder_names()));
                print!("{}", layers::ladder_text(&values));
                report.per_layer.extend(values);
            }
            Err(why) => {
                report.attempted += 1;
                report.failed += 1;
                failures.push(why);
                return finish(&report, per_layer, &failures, started, true);
            }
        }
        if ladder_only {
            report.attempted = 1;
        }
    }
    finish(&report, per_layer, &failures, started, false)
}

fn print_outcome(out: &Outcome, pin: &Pinning) {
    println!(
        "workload {}: P={}, closed loop, work unit = {}, {} launches in {:.2} s",
        out.workload, out.p, out.work_unit, out.launches, out.wall_s
    );
    if out.workload == "fft" {
        let array_kib = (16u64 << FFT_LOG2) >> 10;
        match host::llc_bytes() {
            Some(llc) => println!(
                "  fft array {array_kib} KiB against a last-level cache of {} KiB",
                llc >> 10
            ),
            None => println!("  fft array {array_kib} KiB; last-level cache size unavailable"),
        }
    }
    let pinned: Vec<String> = out
        .affinity
        .iter()
        .take(4)
        .enumerate()
        .map(|(r, a)| match a {
            Some(cpus) => format!("image {r} -> {cpus:?}"),
            None => format!("image {r} -> unavailable"),
        })
        .collect();
    println!(
        "  affinity read back: {}{}",
        pinned.join(", "),
        if out.affinity.len() > 4 { ", ..." } else { "" }
    );
    let want_pinned = pin.cpu().is_some();
    let all_pinned = out
        .affinity
        .iter()
        .all(|a| a.as_ref().is_some_and(|c| c.len() == 1));
    if want_pinned && !out.affinity.is_empty() {
        println!(
            "  every image pinned to one CPU: {}",
            if all_pinned { "yes" } else { "NO" }
        );
    }
    if let Some((user, sys)) = out.cpu_s {
        println!("  process CPU over the run: user {user:.2} s, sys {sys:.2} s");
    }
}

/// Print failures and the result line; pick the exit code. `hard_exit`
/// leaves without unwinding, past threads that will never return.
fn finish(
    report: &RunReport,
    traced: bool,
    failures: &[String],
    started: Instant,
    hard_exit: bool,
) -> Result<ExitCode, String> {
    for f in failures {
        println!("FAILED: {f}");
    }
    println!("total {:.2} s", started.elapsed().as_secs_f64());
    println!("{}", report.result_json(traced).to_line());
    let ok = report.failed == 0;
    if hard_exit {
        use std::io::Write;
        let _ = std::io::stdout().flush();
        std::process::exit(if ok { 0 } else { 1 });
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `wallbench all`: one process per workload so that `setup_s` and
/// `peak_rss_mb` belong to that workload alone; results merged into one
/// file for `compare`.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let out_path = args.out.as_ref().ok_or("all needs --out FILE")?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for set in 0..args.sets {
        let seed = args.seed + set as u64;
        for (workload, _) in WORKLOADS {
            for trace in [0, 1] {
                if trace == 1 && !args.traced_sets {
                    continue;
                }
                eprintln!("wallbench all: set {set} workload {workload} trace {trace}");
                let child = Command::new(&exe)
                    .args(["run", workload])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .output()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                all_ok &= child.status.success();
                let stdout = String::from_utf8_lossy(&child.stdout);
                let last = stdout.lines().last().unwrap_or("");
                let Ok(Json::Obj(mut result)) = Json::parse(last) else {
                    return Err(format!(
                        "{workload} (seed {seed}, trace {trace}) printed no result; status {}",
                        child.status
                    ));
                };
                result.insert("workload".into(), Json::Str(workload.into()));
                result.insert("seed".into(), Json::Num(seed as f64));
                result.insert("trace".into(), Json::Num(trace as f64));
                runs.push(Json::Obj(result));
            }
        }
    }
    let doc = Json::obj([
        ("schema", Json::Str("caf-wallbench-v1".into())),
        ("run_seconds", Json::Num(args.seconds)),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(out_path, doc.to_line() + "\n").map_err(|e| format!("{out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let (args, workload) = parse_flags(&strs(&[
            "--workload",
            "put8",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(workload.as_deref(), Some("put8"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (7, 10.0, Trace::Default)
        );
        let (args, _) = parse_flags(&strs(&["--trace", "out/spans.json"])).unwrap();
        assert_eq!(args.trace, Trace::File("out/spans.json".into()));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--sets", "0"],
            &["--frobnicate"],
        ] {
            assert!(parse_flags(&strs(bad)).is_err(), "{bad:?}");
        }
        assert!(dispatch(&strs(&["compare", "only-one.json"])).is_err());
        assert!(dispatch(&strs(&["run"])).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_metrics() {
        let mut report = RunReport {
            attempted: 400,
            failed: 0,
            end_to_end: Values::new(),
            per_layer: Values::new(),
        };
        report.end_to_end.insert("mpi.rate".into(), Some(5.5e6));
        report.end_to_end.insert("setup_s".into(), None);
        let line = report.result_json(false);
        let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = line.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<&str> = m.keys().map(String::as_str).collect();
        assert_eq!(names, ["gasnet.rate", "mpi.rate", "peak_rss_mb", "setup_s"]);
        assert_eq!(m["mpi.rate"].get("value").unwrap().as_f64(), Some(5.5e6));
        assert_eq!(m["mpi.rate"].get("unit").unwrap().as_str(), Some("work/s"));
        assert_eq!(m["setup_s"].get("value"), Some(&Json::Null));

        let traced = report.result_json(true);
        let m = traced.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), metrics::per_layer_names().len());
        assert!(m.contains_key("core.write8_ns.mpi") && m.contains_key("share.barrier.gasnet"));
    }

    #[test]
    fn values_print_with_six_significant_digits() {
        assert_eq!(format_value(5_812_345.678), "5812346");
        assert_eq!(format_value(37.123456), "37.1235");
        assert_eq!(format_value(0.0123456), "0.0123456");
        assert_eq!(format_value(12.0), "12");
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(3.2e-7), "3.20000e-7");
    }
}
