//! The GPS benchmark: one workload per process, end-to-end metrics with
//! tracing off (`--trace 0`) or per-layer metrics from a traced run
//! (`--trace 1`). The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Usage: `gpsbench --workload pipeline|serve-hot|serve-cold --seed N
//! --seconds S --trace 0|1`, run from the repository root (it writes
//! `.bench_out/`). `python3 perfbench/run.py` builds and runs it.

mod pipeline;
mod report;
mod serving;
mod stats;
mod steal;
mod trace;

use gps_types::json::Json;

use report::{provenance, Outcome};
use serving::Shape;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_options() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag}: cannot parse {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !report::WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let options = match parse_options() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let shape = match options.workload.as_str() {
        "serve-hot" => Some(Shape::Hot),
        "serve-cold" => Some(Shape::Cold),
        _ => None,
    };
    let mut trace_json = None;
    let mut outcome: Outcome = if options.trace {
        let (mut outcome, trace) = match shape {
            None => serving::traced_pipeline(&options),
            Some(shape) => serving::traced(&options, shape),
        };
        outcome.set("trace.spans", trace.spans().len() as f64);
        trace_json = Some(trace.to_json());
        outcome
    } else {
        let mut outcome = match shape {
            None => pipeline::run(&options),
            Some(shape) => serving::run(&options, shape),
        };
        outcome.set(
            "success_pct",
            100.0 * (1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64),
        );
        outcome.set("peak_rss_mb", report::peak_rss_mb());
        outcome
    };
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.detail("error_rate", error_rate);

    let mismatched = outcome.mismatched_names(options.trace);
    if !mismatched.is_empty() {
        eprintln!("error: metric set differs from the tables: {mismatched:?}");
        std::process::exit(1);
    }

    println!(
        "{} (seed {}, {} s, trace {}):",
        options.workload, options.seed, options.seconds, options.trace as u8
    );
    for (name, value) in &outcome.metrics {
        println!("  {name:<28} {value:>16.4} {}", report::unit_of(name));
    }
    println!(
        "  {:<28} {:>16.6} ({} failed of {} attempted)",
        "error_rate", error_rate, outcome.failed, outcome.attempted
    );

    let provenance = provenance(
        &options.workload,
        options.seed,
        options.seconds,
        options.trace,
    );
    let mut record = Json::obj();
    record
        .set("provenance", provenance.clone())
        .set(
            "result",
            Json::parse(&outcome.result_line(options.trace)).expect("result line is JSON"),
        )
        .set("details", outcome.details.clone());
    if let Some(trace) = trace_json {
        record.set("trace", trace);
    }
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        options.workload, options.seed, options.trace as u8
    ));
    let mut text = String::new();
    record.write(&mut text);
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, text)) {
        Ok(()) => println!("  record written to {}", path.display()),
        Err(e) => eprintln!("warning: {}: {e}", path.display()),
    }
    let mut line = Json::obj();
    line.set("provenance", provenance);
    let mut text = String::new();
    line.write(&mut text);
    println!("{text}");
    println!("{}", outcome.result_line(options.trace));
}
