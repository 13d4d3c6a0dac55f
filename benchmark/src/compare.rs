//! `wallbench compare A.json B.json`: every (metric, workload) cell of
//! two result files side by side, with a verdict on the gated ones.
//!
//! A is the base. For an end-to-end cell the verdict is
//!
//! * `unresolved` — the run-to-run spread of either side (quartile
//!   distance over median, with two or more sets) is wider than the
//!   metric's bound, so the cell cannot be called unchanged (`setup_s`
//!   is exempt, as it is from the driver's spread test: it is small and
//!   is judged on its medians alone);
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `better` — B's median is better than A's by more than A's own
//!   spread (by more than the bound when A has a single set);
//! * `same` — otherwise.
//!
//! `count.*` ledgers are counts made by the program: they must repeat
//! exactly, and any difference is reported as `differs`. Other
//! per-layer cells have no bound and get no verdict.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::{self, unit_of, Better, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

/// Values of one result file by `(workload, metric)`.
#[derive(Debug, Default, PartialEq)]
pub struct Cells {
    values: BTreeMap<(String, String), Vec<f64>>,
    /// `(failed, attempted)` summed per workload.
    fails: BTreeMap<String, (f64, f64)>,
}

pub fn load(text: &str) -> Result<Cells, String> {
    let doc = Json::parse(text)?;
    if doc.get("schema").and_then(Json::as_str) != Some("caf-wallbench-v1") {
        return Err("not a caf-wallbench-v1 result file".into());
    }
    let runs = doc.get("runs").and_then(Json::as_arr).ok_or("no runs")?;
    let mut cells = Cells::default();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        let count = |key: &str| {
            run.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("run without {key}"))
        };
        let slot = cells.fails.entry(workload.to_string()).or_default();
        slot.0 += count("failed")?;
        slot.1 += count("attempted")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("run without metrics")?;
        for (name, entry) in metrics {
            // `null` is "unavailable": no sample.
            if let Some(v) = entry.get("value").and_then(Json::as_f64) {
                cells
                    .values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(cells)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
    Differs,
    /// No bound on this cell.
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "differs",
            Verdict::Info => "-",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

/// Judge one gated cell; `gate_spread` is whether a spread wider than
/// the bound makes it `unresolved`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64, gate_spread: bool) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    let widest = spread(a).into_iter().chain(spread(b)).fold(0.0, f64::max);
    if gate_spread && widest > bound {
        return Verdict::Unresolved;
    }
    // Positive = B worse, as a share of A.
    let worse_by = match better {
        Better::Higher => (ma - mb) / ma.abs(),
        Better::Lower => (mb - ma) / ma.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread(a).unwrap_or(bound) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn judge_counts(a: &[f64], b: &[f64]) -> Verdict {
    let first = a.first().or(b.first());
    if a.iter().chain(b).all(|v| Some(v) == first) && !a.is_empty() && !b.is_empty() {
        Verdict::Same
    } else {
        Verdict::Differs
    }
}

/// One printed row.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
    pub bound: Option<f64>,
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

pub fn compare(a: &Cells, b: &Cells) -> Vec<Row> {
    let mut rows = Vec::new();
    let empty = Vec::new();
    let names: Vec<String> = END_TO_END
        .iter()
        .map(|e| e.name.to_string())
        .chain(metrics::per_layer_names())
        .collect();
    for (workload, _) in WORKLOADS {
        for metric in &names {
            let key = (workload.to_string(), metric.clone());
            let (va, vb) = (
                a.values.get(&key).unwrap_or(&empty),
                b.values.get(&key).unwrap_or(&empty),
            );
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let gated = END_TO_END.iter().find(|e| e.name == metric);
            let bound = gated.map(|e| e.bound);
            let verdict = if let Some(e) = gated {
                judge(va, vb, e.better, e.bound, e.name != "setup_s")
            } else if metric.starts_with("count.") {
                judge_counts(va, vb)
            } else {
                Verdict::Info
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.clone(),
                a: median(va),
                b: median(vb),
                bound,
                spread: spread(va).into_iter().chain(spread(vb)).reduce(f64::max),
                verdict,
            });
        }
        // fail_ratio: absolute, any increase is worse.
        let ratio = |c: &Cells| c.fails.get(workload).map(|&(f, n)| f / n.max(1.0));
        if let (Some(fa), Some(fb)) = (ratio(a), ratio(b)) {
            rows.push(Row {
                workload: workload.to_string(),
                metric: "fail_ratio".into(),
                a: Some(fa),
                b: Some(fb),
                bound: Some(0.0),
                spread: None,
                verdict: match fb.total_cmp(&fa) {
                    std::cmp::Ordering::Greater => Verdict::Worse,
                    std::cmp::Ordering::Less => Verdict::Better,
                    std::cmp::Ordering::Equal => Verdict::Same,
                },
            });
        }
    }
    rows
}

pub fn compare_files(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| load(&t).map_err(|e| format!("{p}: {e}")))
    };
    let rows = compare(&read(path_a)?, &read(path_b)?);
    println!("A = {path_a} (base), B = {path_b}; ratio = B / A");
    println!(
        "{:<8} {:<30} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "ratio", "bound", "spread"
    );
    let pct = |x: Option<f64>| x.map_or("-".to_string(), |v| format!("{:.1}%", v * 100.0));
    let num = |x: Option<f64>| x.map_or("-".to_string(), |v| format!("{v:.6e}"));
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &rows {
        *tally.entry(r.verdict.as_str()).or_default() += 1;
        let unit = if r.metric == "fail_ratio" {
            "ratio"
        } else {
            END_TO_END
                .iter()
                .find(|e| e.name == r.metric)
                .map_or_else(|| unit_of(&r.metric).0, |e| e.unit)
        };
        let ratio = match (r.a, r.b) {
            (Some(a), Some(b)) if a != 0.0 => format!("{:.4}", b / a),
            _ => "-".into(),
        };
        println!(
            "{:<8} {:<30} {:>14} {:>14} {:>8} {:>7} {:>7}  {} [{unit}]",
            r.workload,
            r.metric,
            num(r.a),
            num(r.b),
            ratio,
            pct(r.bound),
            pct(r.spread),
            r.verdict.as_str()
        );
    }
    let summary: Vec<String> = tally.iter().map(|(k, n)| format!("{n} {k}")).collect();
    println!("cells: {}", summary.join(", "));
    let failed = rows.iter().any(|r| r.verdict.fails());
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        // Higher is better, 10 % bound.
        assert_eq!(
            judge(
                &steady,
                &[100.2, 99.9, 100.4, 100.0],
                Better::Higher,
                0.1,
                true
            ),
            Verdict::Same
        );
        assert_eq!(
            judge(
                &steady,
                &[85.0, 86.0, 84.0, 85.5],
                Better::Higher,
                0.1,
                true
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                &steady,
                &[120.0, 121.0, 119.0, 120.5],
                Better::Higher,
                0.1,
                true
            ),
            Verdict::Better
        );
        // Lower is better: the same numbers flip.
        assert_eq!(
            judge(
                &steady,
                &[120.0, 121.0, 119.0, 120.5],
                Better::Lower,
                0.1,
                true
            ),
            Verdict::Worse
        );
        // A spread wider than the bound cannot be called unchanged.
        assert_eq!(
            judge(
                &[100.0, 140.0, 70.0, 100.0],
                &steady,
                Better::Higher,
                0.1,
                true
            ),
            Verdict::Unresolved
        );
        // Single sets: no spread; better only past the bound.
        assert_eq!(
            judge(&[100.0], &[105.0], Better::Higher, 0.1, true),
            Verdict::Same
        );
        assert_eq!(
            judge(&[100.0], &[115.0], Better::Higher, 0.1, true),
            Verdict::Better
        );
        assert_eq!(
            judge(&[100.0], &[], Better::Higher, 0.1, true),
            Verdict::Unresolved
        );
        // Exempt from the spread test: judged on the medians alone.
        assert_eq!(
            judge(
                &[100.0, 140.0, 70.0, 100.0],
                &steady,
                Better::Higher,
                0.1,
                false
            ),
            Verdict::Same
        );
    }

    #[test]
    fn counts_must_repeat_exactly() {
        assert_eq!(judge_counts(&[10000.0, 10000.0], &[10000.0]), Verdict::Same);
        assert_eq!(
            judge_counts(&[10000.0, 10000.0], &[10001.0]),
            Verdict::Differs
        );
        assert_eq!(
            judge_counts(&[10000.0, 10002.0], &[10000.0]),
            Verdict::Differs
        );
        assert_eq!(judge_counts(&[], &[1.0]), Verdict::Differs);
    }

    fn file(rate: f64, puts: f64, failed: u64) -> String {
        format!(
            r#"{{"schema": "caf-wallbench-v1", "runs": [
              {{"workload": "put8", "seed": 1, "trace": 0, "correct": true, "attempted": 400, "failed": {failed},
                "metrics": {{"mpi.rate": {{"value": {rate}, "unit": "work/s"}}, "setup_s": {{"value": null, "unit": "s"}}}}}},
              {{"workload": "put8", "seed": 1, "trace": 1, "correct": true, "attempted": 100, "failed": 0,
                "metrics": {{"count.rma_put.mpi": {{"value": {puts}, "unit": "count"}},
                             "core.write8_ns.mpi": {{"value": 170.5, "unit": "ns"}}}}}}]}}"#
        )
    }

    #[test]
    fn files_compare_cell_by_cell() {
        let a = load(&file(5.0e6, 10000.0, 0)).unwrap();
        let rows = compare(&a, &load(&file(5.1e6, 10000.0, 0)).unwrap());
        let verdict = |rows: &[Row], m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(verdict(&rows, "mpi.rate"), Verdict::Same);
        assert_eq!(verdict(&rows, "count.rma_put.mpi"), Verdict::Same);
        assert_eq!(verdict(&rows, "core.write8_ns.mpi"), Verdict::Info);
        assert_eq!(verdict(&rows, "fail_ratio"), Verdict::Same);
        assert!(
            rows.iter().all(|r| r.metric != "setup_s"),
            "null is no sample"
        );
        assert!(!rows.iter().any(|r| r.verdict.fails()));

        let rows = compare(&a, &load(&file(3.0e6, 10001.0, 4)).unwrap());
        assert_eq!(verdict(&rows, "mpi.rate"), Verdict::Worse);
        assert_eq!(verdict(&rows, "count.rma_put.mpi"), Verdict::Differs);
        assert_eq!(verdict(&rows, "fail_ratio"), Verdict::Worse);
    }

    #[test]
    fn other_files_are_refused() {
        assert!(load("{}").is_err());
        assert!(load(r#"{"schema": "caf-wallbench-v1"}"#).is_err());
        assert!(load("not json").is_err());
    }
}
