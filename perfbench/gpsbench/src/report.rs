//! Metric names, provenance and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same workloads and
//! metrics; the tests below fail when the two disagree.

use std::collections::BTreeMap;

use gps_types::json::Json;

/// `(name, why it was chosen)`, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "pipeline",
        "the paper's offline path: run_gps on the CLI's 32-block Censys universe; scanner, model, priors and predict layers do all the work",
    ),
    (
        "serve-hot",
        "2 pipelined GPSQ clients on a tiny model with answer caches hitting ~100%, so per-frame net/wire cost and the cache-hit path dominate",
    ),
    (
        "serve-cold",
        "x64 GPSQ batches through the router to 2 backends on a 32-block model with caches mostly missing and a hot reload every 250 ms",
    ),
];

/// `(name, unit)` of every end-to-end metric, reported with tracing off.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("coverage_pct", "%"),
    ("bandwidth_scans", "scans"),
    ("throughput_qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("success_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, reported by the traced run.
/// Each group names the end-to-end metric it should move, and where.
pub const PER_LAYER: [(&str, &str); 53] = [
    // Set-up on every workload: `setup_s`.
    ("synthnet.generate_s", "s"),
    ("dataset.build_s", "s"),
    // The offline pipeline: `pipeline_s` (and `bandwidth_scans` for the
    // probe counts) on `pipeline`; no serving effect.
    ("scanner.seed_s", "s"),
    ("scanner.seed_probes", "count"),
    ("scanner.priors_s", "s"),
    ("scanner.priors_probes", "count"),
    ("scanner.predict_s", "s"),
    ("scanner.predict_probes", "count"),
    ("scanner.hit_ratio", "ratio"),
    ("filter.s", "s"),
    ("host.group_s", "s"),
    ("model.build_s", "s"),
    ("model.keys", "count"),
    ("engine.rows", "count"),
    ("priors.build_s", "s"),
    ("priors.entries", "count"),
    ("predict.rules_s", "s"),
    ("compiled.build_s", "s"),
    ("predict.match_s", "s"),
    ("predict.predictions", "count"),
    // The compiled kernel: `latency_p50_us` and `throughput_qps` on
    // `serve-cold`, little on `serve-hot`.
    ("kernel.predict_ns_p50", "ns"),
    ("kernel.predict_ns_p99", "ns"),
    ("kernel.request_us", "us"),
    // Snapshots: `setup_s` on `serve-*`, `latency_p99_us` on `serve-cold`
    // through reloads.
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("artifact.load_ms", "ms"),
    // Server, shards and caches: `throughput_qps` on `serve-hot`,
    // `latency_p50_us` on `serve-cold`.
    ("server.predict_us_p50", "us"),
    ("server.predict_us_p99", "us"),
    ("server.engine_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.l1_hit_ratio", "ratio"),
    ("server.requests_per_batch", "count"),
    ("server.hist_p50_us", "us"),
    ("server.hist_p99_us", "us"),
    // Net, wire and proto: `throughput_qps` and `latency_p50_us` on
    // `serve-hot`; batching amortizes them on `serve-cold`.
    ("net.rtt_us_p50", "us"),
    ("net.rtt_us_p99", "us"),
    ("net.wire_us", "us"),
    ("net.conns_accepted", "count"),
    ("net.conns_rejected", "count"),
    ("net.conns_timed_out", "count"),
    // The router: `latency_p50_us`, `throughput_qps` and `success_pct` on
    // `serve-cold`; nothing on `serve-hot`.
    ("router.rtt_us_p50", "us"),
    ("router.rtt_us_p99", "us"),
    ("router.rtt_us_mean", "us"),
    ("router.hop_us", "us"),
    ("router.retries", "count"),
    ("router.shed", "count"),
    ("router.backend_share", "ratio"),
    // Hot reload: `latency_p99_us` on `serve-cold`.
    ("reload.ms_p50", "ms"),
    ("reload.ms_max", "ms"),
    ("reload.count", "count"),
    // The benchmark's own tracing.
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// What one run of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value; units come from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Everything else worth keeping: sample counts, tail percentiles,
    /// counters, the trace.
    pub details: Json,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            details: Json::obj(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn detail(&mut self, key: &str, value: impl Into<Json>) {
        self.details.set(key, value);
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Names that `traced` runs must report but this outcome lacks, and
    /// names it has that no table lists.
    pub fn mismatched_names(&self, traced: bool) -> Vec<String> {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut out: Vec<String> = table
            .iter()
            .filter(|(name, _)| !self.metrics.contains_key(name))
            .map(|(name, _)| format!("missing {name}"))
            .collect();
        out.extend(
            self.metrics
                .keys()
                .filter(|name| !table.iter().any(|(n, _)| n == *name))
                .map(|name| format!("unlisted {name}")),
        );
        out.extend(
            self.metrics
                .iter()
                .filter(|(_, v)| !v.is_finite())
                .map(|(name, v)| format!("non-finite {name} = {v}")),
        );
        out
    }

    /// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, traced: bool) -> String {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Json::obj();
        for (name, unit) in table {
            if let Some(&value) = self.metrics.get(name) {
                let mut m = Json::obj();
                m.set("value", Json::Num(value)).set("unit", *unit);
                metrics.set(name, m);
            }
        }
        let mut line = Json::obj();
        line.set("correct", self.failed == 0 && self.attempted > 0)
            .set("attempted", Json::Num(self.attempted as f64))
            .set("failed", Json::Num(self.failed as f64))
            .set("metrics", metrics);
        let mut text = String::new();
        line.write(&mut text);
        text
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or("")
}

/// Where and how a result was produced.
pub fn provenance(workload: &str, seed: u64, seconds: u64, traced: bool) -> Json {
    let why = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|(_, why)| *why)
        .unwrap_or("");
    let mut json = Json::obj();
    json.set("commit", commit().as_str())
        .set(
            "command",
            std::env::args().collect::<Vec<_>>().join(" ").as_str(),
        )
        .set("workload", workload)
        .set("why", why)
        .set("seed", Json::Num(seed as f64))
        .set("seconds", Json::Num(seconds as f64))
        .set("trace", traced)
        .set("nproc", Json::Num(nproc() as f64))
        .set("cpu_model", cpu_model().as_str())
        .set(
            "shards_per_server",
            Json::Num(crate::serving::SHARDS as f64),
        )
        .set(
            "event_loops_per_server",
            Json::Num(crate::serving::EVENT_LOOPS as f64),
        )
        .set(
            "note",
            "BENCH_5.json to BENCH_7.json were recorded on 1 CPU; they are not baselines for these numbers",
        );
    json
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// (the benchmark runs from the repository root). A checkout without
/// git metadata reports `unknown`.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_units(json: &Json, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(names_units(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_units(&json, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<(String, String)> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap().to_string(),
                    w.get("why").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(workloads, owned(&WORKLOADS));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "metric names repeat");
        for name in all {
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-'));
        }
    }

    #[test]
    fn result_line_carries_exactly_the_mode_metrics() {
        let mut outcome = Outcome::new();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            outcome.set(name, 1.0 + i as f64 / 3.0);
        }
        outcome.check(true);
        assert!(outcome.mismatched_names(false).is_empty());
        assert_eq!(
            outcome.mismatched_names(true).len(),
            PER_LAYER.len() + END_TO_END.len()
        );
        let line = Json::parse(&outcome.result_line(false)).expect("valid JSON");
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object");
        };
        let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let mut expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let mut emitted_sorted = emitted.clone();
        emitted_sorted.sort_unstable();
        expected.sort_unstable();
        assert_eq!(emitted_sorted, expected);
        let latency = line.get("metrics").unwrap().get("latency_p50_us").unwrap();
        assert_eq!(latency.get("unit").and_then(Json::as_str), Some("us"));
        assert_eq!(
            latency.get("value").and_then(Json::as_f64),
            Some(1.0 + 5.0 / 3.0)
        );
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(1));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
    }
}
