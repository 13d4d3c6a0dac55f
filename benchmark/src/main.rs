//! `wallbench` — the wall-clock benchmark of the CAF runtime.
//!
//! ```text
//! wallbench --workload W --seed N --seconds S --trace 0|1    one run, result as last line
//! wallbench run W|layers [--seed N] [--seconds S] [--trace 0|1|FILE]
//! wallbench all [--seed N] [--seconds S] [--sets K] [--traced] --out FILE
//! wallbench compare A.json B.json
//! ```
//!
//! See `README.md` beside this package for what is measured and why.

mod compare;
mod harness;
mod host;
mod json;
mod layers;
mod metrics;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match report::dispatch(&args) {
        Ok(code) => code,
        Err(usage) => {
            eprintln!("wallbench: {usage}");
            eprintln!(
                "usage: wallbench --workload W --seed N --seconds S --trace 0|1\n       \
                 wallbench run W|layers [--seed N] [--seconds S] [--trace 0|1|FILE]\n       \
                 wallbench all [--seed N] [--seconds S] [--sets K] [--traced] --out FILE\n       \
                 wallbench compare A.json B.json"
            );
            ExitCode::from(2)
        }
    }
}
