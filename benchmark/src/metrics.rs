//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names; a unit test
//! holds the two together.

use caf::stats::ALL_CATS;
use caf_fabric::DelayOp;

use crate::harness::{cat_name, ISSUE_OPS};

/// Substrate suffixes, in `[SubstrateKind::Mpi, SubstrateKind::Gasnet]`
/// order.
pub const SUBSTRATES: [&str; 2] = ["mpi", "gasnet"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// An end-to-end metric and the share of the parent's median by which
/// it may get worse before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The gated metrics; every workload reports all of them.
///
/// One bound per metric has to cover its noisiest workload: the rates of
/// `fft` spread up to 8 % from run to run on the sizing host, `setup_s`
/// up to 14 %, and a bound should be three times the spread. So each is
/// the widest allowed; `wallbench compare` applies tighter bounds cell
/// by cell.
///
/// `fail_ratio` is not among them because a gated metric may never read
/// 0: failures travel as `failed`/`attempted` beside the metrics.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "mpi.rate",
        unit: "work/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "gasnet.rate",
        unit: "work/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Unit and direction of a per-layer metric, read off its name.
pub fn unit_of(name: &str) -> (&'static str, Better) {
    // Strip a substrate or `.pN` suffix: `core.write8_ns.mpi`.
    let stem = name
        .rsplit_once('.')
        .filter(|(_, last)| {
            SUBSTRATES.contains(last)
                || last
                    .strip_prefix('p')
                    .is_some_and(|n| n.parse::<u32>().is_ok())
        })
        .map_or(name, |(head, _)| head);
    if name.starts_with("share.") || name == "run.mpi_over_gasnet" {
        ("ratio", Better::Lower)
    } else if name.starts_with("count.") {
        ("count", Better::Lower)
    } else if stem.ends_with("_gbps") {
        ("GB/s", Better::Higher)
    } else if stem.ends_with("_gflops") {
        ("GFlop/s", Better::Higher)
    } else if stem.ends_with("_mups") {
        ("Mup/s", Better::Higher)
    } else if stem.ends_with("_pct") {
        ("%", Better::Lower)
    } else if stem.ends_with("_ns") {
        ("ns", Better::Lower)
    } else if stem.ends_with("_us") || stem.ends_with("_us_per_task") {
        ("us", Better::Lower)
    } else if stem.ends_with("_ms") {
        ("ms", Better::Lower)
    } else if stem.ends_with("_s") {
        ("s", Better::Lower)
    } else {
        panic!("metric {name} has no unit rule")
    }
}

/// Per-layer metrics measured by the layer ladder (`layers.rs`), the
/// same on every workload.
pub fn ladder_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "host.memcpy1m_gbps",
        "host.atomic_inc_ns",
        "host.condvar_rt_us",
        "host.condvar_xcpu_rt_us",
        "fabric.seg_put8_ns",
        "fabric.seg_get8_ns",
        "fabric.seg_fetch_add_ns",
        "fabric.seg_put1m_gbps",
        "fabric.seg_get1m_gbps",
        "fabric.seg_lookup_ns",
        "fabric.mailbox_ns",
        "fabric.wake_rt_us",
        "fabric.wake_rt_p99_us",
        "sched.handoff_rt_us",
        "sched.yield_ns",
        "sched.spawn_us_per_task",
        "sched.fabric_wake_rt_us",
        "mpisim.put8_flush_ns",
        "mpisim.get8_ns",
        "mpisim.fetch_op8_ns",
        "mpisim.put1m_gbps",
        "mpisim.flush_all_ns.p2",
        "mpisim.flush_all_ns.p32",
        "mpisim.sendrecv_rt_us",
        "mpisim.barrier_us",
        "mpisim.allreduce8_us",
        "mpisim.alltoall64k_us",
        "mpisim.win_alloc_free_us",
        "mpisim.init_ms",
        "gasnetsim.put8_ns",
        "gasnetsim.get8_ns",
        "gasnetsim.put1m_gbps",
        "gasnetsim.am_short_rt_us",
        "gasnetsim.am_medium4k_rt_us",
        "gasnetsim.poll_empty_ns",
        "gasnetsim.barrier_us",
        "gasnetsim.init_ms",
    ]
    .map(String::from)
    .to_vec();
    for stem in CORE_PER_SUBSTRATE {
        for s in SUBSTRATES {
            names.push(format!("core.{stem}.{s}"));
        }
    }
    names.extend(
        [
            // GASNet has no one-sided atomics: `Coarray::fetch_add` panics.
            "core.fetch_add8_ns.mpi",
            "core.write8_noacct_ns.mpi",
            "trace.armed_write8_ns.mpi",
            "fault.armed_write8_ns.mpi",
            "agg.enqueue_ns",
            "agg.encode_ns",
            "agg.decode_ns",
            "hpcc.fft_serial_gflops",
            "hpcc.lu_serial_gflops",
            "hpcc.ra_serial_mups",
            "hpcc.cg_serial_iter_us",
        ]
        .map(String::from),
    );
    names
}

/// `core.<stem>.S` metrics, measured on both substrates.
pub const CORE_PER_SUBSTRATE: [&str; 15] = [
    "write8_ns",
    "read8_ns",
    "write1m_gbps",
    "read1m_gbps",
    "async_put8_ns",
    "event_rt_us",
    "event_post_ns",
    "event_consume_ns",
    "barrier_us",
    "allreduce8_us",
    "alltoall64k_us",
    "finish_empty_us",
    "ship_rt_us",
    "alloc_free_us",
    "agg_update_ns",
];

/// Per-layer metrics of the traced workload run: the `run.*` group and
/// the ledgers.
pub fn traced_run_names() -> Vec<String> {
    let mut names = Vec::new();
    for s in SUBSTRATES {
        names.push(format!("run.{s}.rep_p50_ms"));
        names.push(format!("run.{s}.rep_tail_ms"));
    }
    names.extend(
        [
            "run.user_s",
            "run.sys_s",
            "run.mpi_over_gasnet",
            "run.trace_overhead_pct",
        ]
        .map(String::from),
    );
    for s in SUBSTRATES {
        for cat in ALL_CATS {
            names.push(format!("share.{}.{s}", cat_name(cat)));
        }
        for op in ISSUE_OPS {
            names.push(format!("count.{}.{s}", DelayOp::name(op)));
        }
        names.push(format!("count.agg_records.{s}"));
        names.push(format!("count.agg_batches.{s}"));
    }
    names
}

/// Every per-layer metric, in print order.
pub fn per_layer_names() -> Vec<String> {
    let mut names = ladder_names();
    names.extend(traced_run_names());
    names
}

/// The workloads of the benchmark with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 8] = [
    (
        "put8",
        "blocking 8-byte coarray writes with no wake-ups: the per-op software tax of the write path",
    ),
    (
        "get8",
        "blocking 8-byte coarray reads: the same layers the other way, so a put-side gain that costs gets shows",
    ),
    (
        "sync",
        "event notify/wait ping-pong: mailbox and blocking wake path, RMA layers bypassed",
    ),
    (
        "fft",
        "HPCC FFT 2^20 points: bulk alltoall and large segment copies, small-op tax negligible",
    ),
    (
        "hpl",
        "HPL n=768: compute-bound control on which every communication change predicts no move",
    ),
    (
        "cgpop",
        "hybrid MPI+CAF conjugate gradient: team barriers and MPI_Allreduce beside coarray halo writes and reads",
    ),
    (
        "ra",
        "aggregated RandomAccess: caf-agg enqueue, encode, batched AM and finish termination; RMA windows bypassed",
    ),
    (
        "scale",
        "paper RandomAccess at P=256 as caf-sched tasks: carrier hand-off, flush_all per notify, alloc/free at scale",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// The contract's rule for a name.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn direction(better: Better) -> &'static str {
        match better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn output_names_and_units_use_the_allowed_characters_once() {
        let mut seen = std::collections::BTreeSet::new();
        for e in END_TO_END {
            assert!(valid_name(e.name) && valid_unit(e.unit), "{}", e.name);
            assert!(e.bound > 0.0 && e.bound <= 0.25);
            assert!(seen.insert(e.name.to_string()));
        }
        let layer = per_layer_names();
        assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
        for name in layer {
            assert!(valid_name(&name), "{name}");
            assert!(valid_unit(unit_of(&name).0), "{name}");
            assert!(seen.insert(name.clone()), "{name} listed twice");
        }
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name.to_string()));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn units_follow_the_name() {
        assert_eq!(unit_of("core.write8_ns.mpi"), ("ns", Better::Lower));
        assert_eq!(unit_of("mpisim.flush_all_ns.p32"), ("ns", Better::Lower));
        assert_eq!(unit_of("fabric.seg_put1m_gbps"), ("GB/s", Better::Higher));
        assert_eq!(unit_of("sched.spawn_us_per_task"), ("us", Better::Lower));
        assert_eq!(unit_of("run.sys_s"), ("s", Better::Lower));
        assert_eq!(unit_of("share.barrier.gasnet"), ("ratio", Better::Lower));
        assert_eq!(unit_of("count.rma_put.mpi"), ("count", Better::Lower));
        assert_eq!(unit_of("run.trace_overhead_pct"), ("%", Better::Lower));
    }

    /// `BENCHMARK.json` at the repository root describes exactly what
    /// this binary prints.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let field = |item: &Json, key: &str| item.get(key).unwrap().as_str().unwrap().to_string();
        let list = |key: &str| doc.get(key).unwrap().as_arr().unwrap().to_vec();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|&(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, want);

        let e2e: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|e| {
                (
                    e.name.to_string(),
                    e.unit.to_string(),
                    direction(e.better).to_string(),
                    e.bound,
                )
            })
            .collect();
        assert_eq!(e2e, want);

        let layer: Vec<_> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<_> = per_layer_names()
            .into_iter()
            .map(|n| {
                let (unit, better) = unit_of(&n);
                (n, unit.to_string(), direction(better).to_string())
            })
            .collect();
        assert_eq!(layer, want);
    }
}
