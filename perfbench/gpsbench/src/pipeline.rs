//! The offline path: universe, dataset and `run_gps`, plus a traced
//! replica of `run_gps` that times each layer it calls.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use gps_core::{
    build_predictions_compiled, build_priors_list, censys_dataset, filter_pseudo_services,
    group_by_host, run_gps, CompiledRules, CondModel, CoverageTracker, Dataset, FeatureRules,
    GpsConfig, GpsRun, MinProb,
};
use gps_engine::ExecLedger;
use gps_scan::{ScanConfig, ScanPhase, Scanner, ServiceObservation};
use gps_synthnet::{Internet, UniverseConfig};
use gps_types::json::Json;
use gps_types::{Ip, PortSet};

use crate::report::Outcome;
use crate::stats::{median, Latency};
use crate::steal;
use crate::trace::Trace;
use crate::Options;

/// `gps run`'s default universe: 32 allocated /16 blocks, seed 0xC0FFEE.
/// The universe stays fixed across benchmark seeds: pipeline cost varies
/// about twofold between universes, which would swamp any change being
/// measured. On `pipeline` the benchmark seed picks the dataset's
/// seed/test split; the serving workloads train on `gps run`'s own split
/// ([`CLI_SEED`]) and take their traffic from the benchmark seed.
pub const CLI_BLOCKS: u32 = 32;
pub const CLI_SEED: u64 = 0xC0FFEE;
const SEED_FRACTION: f64 = 0.05;
/// The CLI's Censys dataset: full visibility of the 2000 busiest ports.
const TOP_PORTS: usize = 2000;
const SPLIT_SALT: u64 = 0xDA7A;
/// Set-ups timed per run; `setup_s` is the median of the quiet ones.
const SETUP_REPEATS: usize = 5;
/// Timed `run_gps` calls made even when they outlast `--seconds`.
const MIN_CALLS: usize = 3;

pub struct Inputs {
    pub net: Internet,
    pub dataset: Dataset,
}

pub fn config() -> GpsConfig {
    GpsConfig {
        seed_fraction: SEED_FRACTION,
        ..GpsConfig::default()
    }
}

/// Generate the universe and the dataset split by `split_seed`, each in
/// its own span.
pub fn inputs(split_seed: u64, blocks: u32, trace: &mut Trace, parent: Option<usize>) -> Inputs {
    let universe = UniverseConfig {
        seed: CLI_SEED,
        num_slash16: blocks,
        ..UniverseConfig::default()
    };
    let (net, _) = trace.span("synthnet.generate", parent, |_, _| {
        Internet::generate(&universe)
    });
    let (dataset, _) = trace.span("dataset.build", parent, |_, _| {
        censys_dataset(&net, TOP_PORTS, SEED_FRACTION, 0, split_seed ^ SPLIT_SALT)
    });
    Inputs { net, dataset }
}

/// The counts a run must reproduce exactly: the replica guard compares
/// the first four, the repeated-call check all six.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCounts {
    pub seed_observations: usize,
    pub model_keys: usize,
    pub priors_entries: usize,
    pub predictions: usize,
    pub found: usize,
    pub probes: u64,
}

impl StageCounts {
    pub fn of(run: &GpsRun) -> StageCounts {
        StageCounts {
            seed_observations: run.seed_observations,
            model_keys: run.model_stats.distinct_keys,
            priors_entries: run.priors_list.len(),
            predictions: run.predictions_total,
            found: run.found.len(),
            probes: run.ledger.total_probes(),
        }
    }
}

/// Found services all belong to the test set and the discovery curve
/// never goes down in bandwidth or coverage.
pub fn science_holds(run: &GpsRun, dataset: &Dataset) -> bool {
    let subset = run.found.iter().all(|key| dataset.in_test(key));
    let points = &run.curve.points;
    let monotone = points
        .windows(2)
        .all(|w| w[0].scans <= w[1].scans && w[0].fraction_all <= w[1].fraction_all);
    subset && monotone
}

/// `pipeline` with tracing off: set up several times, warm up, then time
/// `run_gps` calls for `--seconds`.
pub fn run(options: &Options) -> Outcome {
    let mut outcome = Outcome::new();
    let mut off = Trace::new(Instant::now(), false);
    let mut setups = Vec::new();
    let mut inputs_kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs_kept.take());
        let (kept, seconds, stolen) =
            steal::timed(|| inputs(options.seed, CLI_BLOCKS, &mut off, None));
        inputs_kept = Some(kept);
        setups.push((seconds, stolen));
    }
    let Inputs { net, dataset } = inputs_kept.expect("at least one set-up");
    let config = config();

    // The first call runs about a quarter slower than the rest.
    let reference = run_gps(&net, &dataset, &config);
    let expected = StageCounts::of(&reference);
    outcome.check(science_holds(&reference, &dataset));

    let mut calls = Vec::new();
    let clock = Instant::now();
    while calls.len() < MIN_CALLS || clock.elapsed() < Duration::from_secs(options.seconds) {
        let (run, seconds, stolen) = steal::timed(|| run_gps(&net, &dataset, &config));
        calls.push((seconds, stolen));
        outcome.check(StageCounts::of(&run) == expected && science_holds(&run, &dataset));
    }

    // Calls and set-ups that suffered more steal than the median one are
    // left out of every figure.
    let quiet_calls = steal::quiet(&calls);
    let pipeline_s = median(&quiet_calls);
    let latency = Latency::of(&quiet_calls.iter().map(|s| s * 1e6).collect::<Vec<_>>());
    outcome.set("setup_s", steal::quiet_median(&setups));
    outcome.set("pipeline_s", pipeline_s);
    outcome.set("coverage_pct", 100.0 * reference.fraction_of_services());
    outcome.set("bandwidth_scans", reference.total_scans());
    // Each call decides, for every address of the universe, which ports
    // to probe; the address count does not vary with the split, so this
    // rate moves only with the pipeline's speed.
    outcome.set("throughput_qps", net.universe_size() as f64 / pipeline_s);
    outcome.set("latency_p50_us", latency.p50);
    outcome.set("latency_p99_us", latency.p99);
    outcome.detail("calls", Json::Num(calls.len() as f64));
    outcome.detail("quiet_calls", Json::Num(quiet_calls.len() as f64));
    outcome.detail(
        "call_s",
        Json::Arr(calls.iter().map(|c| Json::Num(c.0)).collect()),
    );
    outcome.detail(
        "steal_ticks_per_call",
        Json::Arr(calls.iter().map(|c| Json::Num(c.1 as f64)).collect()),
    );
    outcome.detail(
        "predictions_per_call",
        Json::Num(expected.predictions as f64),
    );
    outcome.detail("setup_repeats", Json::Num(SETUP_REPEATS as f64));
    outcome
}

/// Per-layer counts from the traced replica.
pub struct LayerCounts {
    pub stages: StageCounts,
    pub seed_probes: u64,
    pub priors_probes: u64,
    pub predict_probes: u64,
    /// Responsive services the scanner returned, over all phases.
    pub services: u64,
    pub engine_rows: u64,
}

/// `run_gps` rebuilt from the same public layer calls, in the same order,
/// with a span around each. The caller compares its counts with an
/// untraced `run_gps` on the same inputs, so the replica cannot drift
/// from the program unnoticed.
pub fn traced_replica(
    trace: &mut Trace,
    parent: Option<usize>,
    inputs: &Inputs,
    config: &GpsConfig,
) -> LayerCounts {
    assert!(
        config.budget_scans.is_none() && !config.residual_random,
        "the replica covers the unconstrained run only"
    );
    let (net, dataset) = (&inputs.net, &inputs.dataset);
    let mut scanner = Scanner::new(
        net,
        ScanConfig {
            day: dataset.day,
            ip_filter: dataset.visible_ips.clone(),
            port_filter: dataset.ports.clone(),
            ..Default::default()
        },
    );
    let asn_of = |ip: Ip| net.asn_of(ip).map(|a| a.0);
    let ports: PortSet = match &dataset.ports {
        Some(p) => (**p).clone(),
        None => net.all_ports(),
    };
    let mut seed_ips: Vec<u32> = dataset.seed_ips.iter().copied().collect();
    seed_ips.sort_unstable();
    let mut services = 0u64;

    let (raw_seed, _) = trace.span("scanner.seed", parent, |_, _| {
        scanner.scan_ip_set(ScanPhase::Seed, seed_ips.iter().map(|&ip| Ip(ip)), &ports)
    });
    services += raw_seed.len() as u64;
    let (filtered, _) = trace.span("filter", parent, |_, _| {
        let (filtered, _) = filter_pseudo_services(raw_seed);
        seed_port_threshold(filtered, dataset.min_ips_per_port)
    });
    let (seed_hosts, _) = trace.span("host.group", parent, |_, _| {
        group_by_host(&filtered, &config.net_features, &asn_of)
    });
    let min_prob = resolve_min_prob(config.min_prob, &filtered, dataset.seed_size());

    let engine_ledger = ExecLedger::new();
    let ((model, model_stats), _) = trace.span("model.build", parent, |_, _| {
        CondModel::build(
            &seed_hosts,
            config.interactions,
            config.backend,
            &engine_ledger,
        )
    });
    let (priors_list, _) = trace.span("priors.build", parent, |_, _| {
        build_priors_list(&model, &seed_hosts, config.step_prefix)
    });

    let mut tracker = CoverageTracker::new(&dataset.test);
    let mut known: HashSet<(u32, u16)> = filtered.iter().map(|o| (o.ip.0, o.port.0)).collect();
    let (prior_observations, _) = trace.span("scanner.priors", parent, |_, _| {
        let mut fresh: Vec<ServiceObservation> = Vec::new();
        for entry in &priors_list {
            for obs in scanner.scan_subnet_port(ScanPhase::Priors, entry.subnet, entry.port) {
                services += 1;
                tracker.record(obs.key());
                if known.insert((obs.ip.0, obs.port.0)) {
                    fresh.push(obs);
                }
            }
        }
        fresh
    });

    let (predictions, _) = trace.span("predict", parent, |trace, id| {
        let (rules, _) = trace.span("predict.rules", id, |_, _| {
            FeatureRules::build(&model, &seed_hosts, min_prob)
        });
        let (compiled, _) = trace.span("compiled.build", id, |_, _| {
            CompiledRules::from_rules(&rules)
        });
        let (prior_hosts, _) = trace.span("host.group", id, |_, _| {
            group_by_host(&prior_observations, &config.net_features, &asn_of)
        });
        trace
            .span("predict.match", id, |_, _| {
                build_predictions_compiled(&compiled, &prior_hosts, &known, config.max_predictions)
            })
            .0
    });
    trace.span("scanner.predict", parent, |_, _| {
        for obs in scanner.scan_targets(
            ScanPhase::Predict,
            predictions.iter().map(|p| (p.ip, p.port)),
        ) {
            services += 1;
            tracker.record(obs.key());
        }
    });

    let ledger = scanner.ledger();
    LayerCounts {
        stages: StageCounts {
            seed_observations: filtered.len(),
            model_keys: model_stats.distinct_keys,
            priors_entries: priors_list.len(),
            predictions: predictions.len(),
            found: tracker.found_count() as usize,
            probes: ledger.total_probes(),
        },
        seed_probes: ledger.probes(ScanPhase::Seed),
        priors_probes: ledger.probes(ScanPhase::Priors),
        predict_probes: ledger.probes(ScanPhase::Predict),
        services,
        engine_rows: engine_ledger.rows_processed(),
    }
}

/// Drop seed observations on ports with at most `min_ips` responsive
/// seed IPs (the pipeline's seed-side port filter).
fn seed_port_threshold(
    observations: Vec<ServiceObservation>,
    min_ips: u64,
) -> Vec<ServiceObservation> {
    if min_ips == 0 {
        return observations;
    }
    let mut per_port: HashMap<u16, u64> = HashMap::new();
    for o in &observations {
        *per_port.entry(o.port.0).or_default() += 1;
    }
    observations
        .into_iter()
        .filter(|o| per_port[&o.port.0] > min_ips)
        .collect()
}

/// The pipeline's §5.4 discard threshold: fixed, or the median per-port
/// responsive seed IPs over the seed size.
fn resolve_min_prob(min_prob: MinProb, seed: &[ServiceObservation], seed_size: u64) -> f64 {
    match min_prob {
        MinProb::Fixed(p) => p,
        MinProb::Auto => {
            let mut per_port: HashMap<u16, u64> = HashMap::new();
            for o in seed {
                *per_port.entry(o.port.0).or_default() += 1;
            }
            if per_port.is_empty() || seed_size == 0 {
                return 1e-5;
            }
            let mut counts: Vec<u64> = per_port.values().copied().collect();
            counts.sort_unstable();
            (counts[counts.len() / 2] as f64 / seed_size as f64).max(1e-9)
        }
    }
}

/// Train with `run_gps`, then with the replica untraced and traced,
/// compare their counts, and record the training layers' metrics.
/// Returns the `run_gps` result (for packaging into a snapshot) and the
/// replica's untraced and traced wall times.
pub fn traced_training(
    trace: &mut Trace,
    parent: Option<usize>,
    outcome: &mut Outcome,
    inputs: &Inputs,
) -> (GpsRun, f64, f64) {
    let config = config();
    let run = run_gps(&inputs.net, &inputs.dataset, &config);
    let mut off = Trace::new(Instant::now(), false);
    let (untraced, untraced_s) = off.span("pipeline", None, |off, _| {
        traced_replica(off, None, inputs, &config)
    });
    let (counts, traced) = trace.span("pipeline", parent, |trace, id| {
        traced_replica(trace, id, inputs, &config)
    });
    let expected = StageCounts::of(&run);
    let guard = counts.stages == expected && untraced.stages == expected;
    if !guard {
        eprintln!(
            "error: traced pipeline replica drifted from run_gps: {:?} vs {:?}",
            counts.stages, expected
        );
    }
    outcome.check(guard);
    outcome.check(science_holds(&run, &inputs.dataset));

    let s = |name: &str| trace.total_s(name);
    outcome.set("scanner.seed_s", s("scanner.seed"));
    outcome.set("scanner.priors_s", s("scanner.priors"));
    outcome.set("scanner.predict_s", s("scanner.predict"));
    outcome.set("scanner.seed_probes", counts.seed_probes as f64);
    outcome.set("scanner.priors_probes", counts.priors_probes as f64);
    outcome.set("scanner.predict_probes", counts.predict_probes as f64);
    outcome.set(
        "scanner.hit_ratio",
        counts.services as f64 / counts.stages.probes.max(1) as f64,
    );
    outcome.set("filter.s", s("filter"));
    outcome.set("host.group_s", s("host.group"));
    outcome.set("model.build_s", s("model.build"));
    outcome.set("model.keys", counts.stages.model_keys as f64);
    outcome.set("engine.rows", counts.engine_rows as f64);
    outcome.set("priors.build_s", s("priors.build"));
    outcome.set("priors.entries", counts.stages.priors_entries as f64);
    outcome.set("predict.rules_s", s("predict.rules"));
    outcome.set("compiled.build_s", s("compiled.build"));
    outcome.set("predict.match_s", s("predict.match"));
    outcome.set("predict.predictions", counts.stages.predictions as f64);
    outcome.detail("pipeline_guard", guard);
    (run, untraced_s.as_secs_f64(), traced.as_secs_f64())
}
