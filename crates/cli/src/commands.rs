//! One function per `gps` subcommand.

use std::sync::Arc;

use gps_baselines::{optimal_port_order_curve, oracle_curve};
use gps_core::{
    censys_dataset, lzr_dataset, run_gps, Dataset, GpsConfig, KnownHostExpander, ModelSnapshot,
};
use gps_scan::{ScanConfig, ScanPhase, Scanner};
use gps_serve::{PredictionServer, Query, ServableModel, ServeConfig};
use gps_synthnet::{stats, Internet, PortCensus, UniverseConfig};
use gps_types::Ip;

use crate::args::{Args, SnapshotFormat, Workload};

/// Build the universe described by the common flags.
pub fn universe(args: &Args) -> Internet {
    let config = UniverseConfig {
        seed: args.seed,
        num_slash16: if args.quick { 6 } else { args.blocks },
        ..UniverseConfig::default()
    };
    Internet::generate(&config)
}

fn dataset(args: &Args, net: &Internet) -> Dataset {
    match args.workload {
        Workload::Censys => censys_dataset(net, 2000, args.seed_fraction, 0, args.seed ^ 0xDA7A),
        Workload::Lzr => {
            // Visible sample sized so the requested seed fraction is 1/16 of
            // it (the calibrated seed:test proportion; DESIGN.md §1).
            let sample = (args.seed_fraction * 16.0).min(1.0);
            lzr_dataset(
                net,
                sample,
                args.seed_fraction / sample,
                2,
                0,
                args.seed ^ 0x12E,
            )
        }
    }
}

/// `gps universe` — generate and describe the synthetic Internet.
pub fn cmd_universe(args: &Args) -> Result<(), String> {
    let net = universe(args);
    let census = PortCensus::new(&net, 0);
    println!("universe (seed {:#x}):", args.seed);
    println!("  addresses:        {}", net.universe_size());
    println!("  port space:       {}", net.port_space());
    println!("  hosts:            {}", net.host_ips().len());
    println!("  services (day 0): {}", net.total_services());
    println!("  middleboxes:      {}", net.pseudo_hosts().len());
    println!("  populated ports:  {}", census.num_ports());
    println!(
        "  ports >2 IPs:     {}",
        census.ports_with_more_than(2).len()
    );
    println!(
        "  top-10 port share {:.1}%",
        100.0 * census.share_of_top(10)
    );
    let co = stats::slash16_cooccurrence(&net, 0);
    println!("  /16 co-occurrence {:.1}%", 100.0 * co.overall_fraction);
    println!("\n  busiest ports:");
    for (port, count) in census.by_count.iter().take(10) {
        let name = port.well_known_name().unwrap_or("-");
        println!("    {:>6} {:<12} {count}", port.to_string(), name);
    }
    Ok(())
}

/// `gps run` — the four-phase pipeline with a summary report.
pub fn cmd_run(args: &Args) -> Result<(), String> {
    let net = universe(args);
    let ds = dataset(args, &net);
    let config = GpsConfig {
        step_prefix: args.step,
        budget_scans: args.budget,
        ..GpsConfig::default()
    };
    let run = run_gps(&net, &ds, &config);

    println!("dataset {}:", ds.name);
    println!(
        "  test services: {} on {} ports",
        ds.test.total(),
        ds.test.num_ports()
    );
    println!("pipeline:");
    println!(
        "  seed:        {} raw -> {} filtered observations ({} hosts)",
        run.seed_observations_raw, run.seed_observations, run.seed_hosts
    );
    println!(
        "  model:       {} keys / {} co-occurrence entries ({} workers, {:?})",
        run.model_stats.distinct_keys,
        run.model_stats.cooccur_entries,
        run.model_stats.backend_workers,
        run.timings.model_build,
    );
    println!(
        "  priors:      {} tuples, {} scanned, {} services found",
        run.priors_list.len(),
        run.priors_scanned,
        run.priors_services
    );
    println!(
        "  predictions: {} rules -> {} predictions ({} scanned)",
        run.rules.len(),
        run.predictions_total,
        run.predictions_scanned
    );
    println!("result:");
    println!(
        "  found {:.2}% of services / {:.2}% normalized",
        100.0 * run.fraction_of_services(),
        100.0 * run.fraction_normalized()
    );
    println!(
        "  bandwidth {:.2} full-scan units (seed {:.2}, priors {:.2}, predict {:.2}){}",
        run.total_scans(),
        run.ledger
            .full_scans_phase(ScanPhase::Seed, net.universe_size()),
        run.ledger
            .full_scans_phase(ScanPhase::Priors, net.universe_size()),
        run.ledger
            .full_scans_phase(ScanPhase::Predict, net.universe_size()),
        if run.truncated_by_budget {
            " [budget hit]"
        } else {
            ""
        },
    );

    if let Some(path) = &args.csv {
        let file = std::fs::File::create(path).map_err(|e| format!("--csv {path}: {e}"))?;
        run.curve
            .write_csv(std::io::BufWriter::new(file))
            .map_err(|e| format!("--csv {path}: {e}"))?;
        println!("  curve written to {path}");
    }
    Ok(())
}

/// `gps compare` — GPS vs exhaustive vs oracle at matched coverage.
pub fn cmd_compare(args: &Args) -> Result<(), String> {
    let net = universe(args);
    let ds = dataset(args, &net);
    let run = run_gps(
        &net,
        &ds,
        &GpsConfig {
            step_prefix: args.step,
            budget_scans: args.budget,
            ..GpsConfig::default()
        },
    );
    let exhaustive = optimal_port_order_curve(&net, &ds, usize::MAX);
    let oracle = oracle_curve(&ds, net.universe_size(), 16);

    println!("coverage vs bandwidth ({}):", ds.name);
    println!(
        "{:>12} {:>12} {:>12} {:>12}",
        "coverage", "GPS", "exhaustive", "oracle"
    );
    for target in [0.25, 0.5, 0.75, 0.9, 0.95] {
        let fmt = |x: Option<f64>| match x {
            Some(v) => format!("{v:.1}"),
            None => "-".to_string(),
        };
        println!(
            "{:>11}% {:>12} {:>12} {:>12}",
            (target * 100.0) as u32,
            fmt(run.curve.scans_to_reach_all(target)),
            fmt(exhaustive.scans_to_reach_all(target)),
            fmt(oracle.scans_to_reach_all(target)),
        );
    }
    println!(
        "\nGPS ceiling: {:.1}% of services at {:.1} scans",
        100.0 * run.fraction_of_services(),
        run.total_scans()
    );
    Ok(())
}

/// `gps expand` — §7 known-host mode.
pub fn cmd_expand(args: &Args) -> Result<(), String> {
    let net = universe(args);
    let mut scanner = Scanner::new(&net, ScanConfig::default());
    let all_ports = net.all_ports();

    // Corpus: full scans of a third of hosts. Hitlist: one known service on
    // each of the next 5,000 hosts.
    let third = net.host_ips().len() / 3;
    let corpus_ips: Vec<Ip> = net.host_ips()[..third].iter().map(|&ip| Ip(ip)).collect();
    let corpus = scanner.scan_ip_set(ScanPhase::Seed, corpus_ips, &all_ports);
    let (corpus, _) = gps_core::filter_pseudo_services(corpus);

    let mut hitlist = Vec::new();
    for &ip in net.host_ips()[third..].iter().take(5000) {
        let host = net.host(Ip(ip)).expect("host");
        if let Some(s) = host.services.iter().find(|s| s.alive(0)) {
            if let Some(obs) = scanner.scan_service(ScanPhase::Baseline, Ip(ip), s.port) {
                hitlist.push(obs);
            }
        }
    }

    let asn_of = |ip: Ip| net.asn_of(ip).map(|a| a.0);
    let (expander, stats) = KnownHostExpander::train(&corpus, &GpsConfig::default(), 1e-4, &asn_of);
    let predictions = expander.expand(&hitlist, 1_000_000, &asn_of);
    let before = scanner.ledger().total_probes();
    let found = scanner
        .scan_targets(
            ScanPhase::Predict,
            predictions.iter().map(|p| (p.ip, p.port)),
        )
        .len();
    let probes = scanner.ledger().total_probes() - before;

    println!("known-host expansion (the §7 IPv6-applicable mode):");
    println!(
        "  corpus:      {} observations -> {} model keys",
        corpus.len(),
        stats.distinct_keys
    );
    println!(
        "  hitlist:     {} hosts with one known service each",
        hitlist.len()
    );
    println!(
        "  predictions: {} emitted, {found} confirmed ({:.1}% precision)",
        predictions.len(),
        100.0 * found as f64 / probes.max(1) as f64
    );
    println!(
        "  expansion:   {:.2} extra services per known service",
        found as f64 / hitlist.len().max(1) as f64
    );
    Ok(())
}

/// `gps export-model` — train on the configured workload and persist the
/// artifacts as a snapshot file.
pub fn cmd_export_model(args: &Args) -> Result<(), String> {
    let net = universe(args);
    let ds = dataset(args, &net);
    let config = GpsConfig {
        step_prefix: args.step,
        budget_scans: args.budget,
        ..GpsConfig::default()
    };
    let run = run_gps(&net, &ds, &config);
    let snapshot = ModelSnapshot::from_run(&run, &config, args.seed);
    match args.format {
        SnapshotFormat::Json => snapshot.save(&args.model),
        SnapshotFormat::Binary => snapshot.save_binary_with(&args.model, !args.no_compiled),
    }
    .map_err(|e| format!("--model {}: {e}", args.model))?;
    let m = &snapshot.manifest;
    println!("exported model to {}:", args.model);
    println!(
        "  format:       {}.{} ({})",
        m.format.0,
        m.format.1,
        match args.format {
            SnapshotFormat::Json => "json",
            SnapshotFormat::Binary => "GPSB binary",
        }
    );
    println!(
        "  dataset:      {} (universe seed {:#x})",
        m.dataset_name, m.universe_seed
    );
    println!(
        "  model keys:   {} ({} co-occurrence entries)",
        m.distinct_keys, m.cooccur_entries
    );
    println!("  rules:        {}", m.num_rules);
    println!(
        "  priors:       {} tuples at step /{}",
        m.num_priors, m.step_prefix
    );
    println!("  checksum:     {:016x}", m.checksum);
    Ok(())
}

/// Resolve the serve model list: every `--model` occurrence, each
/// `name=path` or a bare path (bare = the default model id). No `--model`
/// at all falls back to the single default snapshot path.
fn resolve_models(args: &Args) -> Vec<(String, String)> {
    let raw: Vec<&str> = if args.models.is_empty() {
        vec![args.model.as_str()]
    } else {
        args.models.iter().map(String::as_str).collect()
    };
    raw.into_iter()
        .map(|entry| match entry.split_once('=') {
            Some((name, path)) => (name.to_string(), path.to_string()),
            None => (gps_serve::DEFAULT_MODEL_ID.to_string(), entry.to_string()),
        })
        .collect()
}

/// Resolve the serve transport flags into a `TransportConfig`.
fn resolve_transport(args: &Args) -> Result<gps_serve::TransportConfig, String> {
    let mut config = gps_serve::TransportConfig::named(&args.transport)
        .map_err(|e| format!("--transport: {e}"))?;
    config.max_conns = args.max_conns;
    if args.idle_timeout > 0.0 {
        config.idle_timeout = Some(std::time::Duration::from_secs_f64(args.idle_timeout));
    }
    Ok(config)
}

/// `gps serve` — load one or more snapshots (`--model name=path`,
/// repeatable; the first is the default model) and answer prediction
/// queries over TCP until killed, on the chosen transport
/// (`--transport threads|events`).
pub fn cmd_serve(args: &Args) -> Result<(), String> {
    let entries = resolve_models(args);
    let transport = resolve_transport(args)?;
    // Fail fast across the whole registry: peek every manifest (header
    // read, cheap) before the expensive full loads, so a typo'd path or
    // foreign-version snapshot in slot N is reported without first
    // loading N-1 models.
    for (name, path) in &entries {
        gps_serve::validate_model_id(name).map_err(|e| format!("--model {name}={path}: {e}"))?;
        ModelSnapshot::load_manifest(path).map_err(|e| format!("--model {path}: {e}"))?;
    }
    let mut models = Vec::with_capacity(entries.len());
    for (name, path) in &entries {
        // load_serving: the co-occurrence model (the largest section) is
        // not used for query answering, only rules + priors are.
        let snapshot =
            ModelSnapshot::load_serving(path).map_err(|e| format!("--model {path}: {e}"))?;
        let m = &snapshot.manifest;
        println!(
            "loaded {name} from {path} ({} keys, {} rules, {} priors, checksum {:016x})",
            m.distinct_keys, m.num_rules, m.num_priors, m.checksum
        );
        models.push((name.clone(), ServableModel::from_snapshot(snapshot)));
    }
    let server = PredictionServer::start_named(models, ServeConfig::default())
        .map_err(|e| format!("--model: {e}"))?;
    // Record each source so `gps reload` (without --model) and --watch can
    // re-read them.
    for (name, path) in &entries {
        server
            .set_model_path_of(name, path)
            .expect("just-registered model");
    }
    let server = Arc::new(server);
    if let Some(path) = &args.query_log {
        let log = gps_serve::QueryLog::open(std::path::Path::new(path))
            .map_err(|e| format!("--query-log {path}: {e}"))?;
        server.set_query_log(Arc::new(log));
        println!("query log: {path}");
    }
    let _watcher = if args.watch {
        println!(
            "watching {} snapshot file(s) for changes (hot reload)",
            entries.len()
        );
        Some(gps_serve::watch_snapshot_file(
            server.clone(),
            std::time::Duration::from_millis(500),
        ))
    } else {
        None
    };
    let listener = std::net::TcpListener::bind(&args.addr)
        .map_err(|e| format!("--addr {}: {e}", args.addr))?;
    let http = match &args.http_addr {
        Some(addr) => {
            let http = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("--http-addr {addr}: {e}"))?;
            println!(
                "http gateway on {} (GET /metrics /stats /models /healthz, POST /predict /batch /reset-stats)",
                http.local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| addr.clone()),
            );
            Some(http)
        }
        None => None,
    };
    println!(
        "serving {} model(s) on {}, {} transport{}{} (JSON or GPSQ binary frames, negotiated per connection; try `gps query`)",
        entries.len(),
        listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| args.addr.clone()),
        transport.transport.name(),
        if transport.max_conns > 0 {
            format!(", max {} conns", transport.max_conns)
        } else {
            String::new()
        },
        match transport.idle_timeout {
            Some(t) => format!(", idle timeout {:.1}s", t.as_secs_f64()),
            None => String::new(),
        },
    );
    // Serve on background threads so this thread can watch for drain: the
    // `shutdown` admin command (wire or HTTP) flips the server into drain,
    // and once in-flight connections finish the process exits cleanly
    // instead of needing a kill.
    let accept_server = server.clone();
    std::thread::Builder::new()
        .name("gps-serve-accept".to_string())
        .spawn(move || {
            if let Err(e) = gps_serve::serve_with_http(accept_server, listener, http, transport) {
                eprintln!("error: serve: {e}");
                std::process::exit(1);
            }
        })
        .map_err(|e| format!("serve: {e}"))?;
    loop {
        if server.is_draining() {
            println!("drain requested; finishing in-flight connections");
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while std::time::Instant::now() < deadline && server.stats().conns_active > 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            let leftover = server.stats().conns_active;
            if leftover > 0 {
                println!("drained (closed {leftover} idle connection(s) forcibly)");
            } else {
                println!("drained; exiting");
            }
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
}

/// `gps route` — the fault-tolerant routing tier: speak the full frame
/// protocol on `--addr`, fan work out to the `--backend` servers
/// (consistent-hashed by the query /16), retry idempotent queries around
/// failed backends, shed with an explicit `overloaded` error when none
/// are healthy, and drain cleanly on `shutdown`.
pub fn cmd_route(args: &Args) -> Result<(), String> {
    if args.backends.is_empty() {
        return Err("route requires at least one --backend ADDR".to_string());
    }
    let config = gps_serve::RouterConfig {
        backends: args.backends.clone(),
        probe_interval: std::time::Duration::from_secs_f64(args.probe_interval),
        request_timeout: std::time::Duration::from_secs_f64(args.request_timeout),
        max_retries: args.max_retries,
    };
    let handle = gps_serve::Router::start(&args.addr, args.http_addr.as_deref(), config)
        .map_err(|e| format!("route: {e}"))?;
    if let Some(http) = handle.http_addr() {
        println!("http sideline on {http} (GET /healthz /metrics /stats, POST /shutdown)");
    }
    println!(
        "routing on {} over {} backend(s): {}",
        handle.addr(),
        args.backends.len(),
        args.backends.join(", ")
    );
    loop {
        if handle.is_draining() {
            println!("drain requested; finishing in-flight connections");
            if handle.wait_drained(std::time::Duration::from_secs(10)) {
                println!("drained; exiting");
            } else {
                println!(
                    "drained (abandoned {} stuck connection(s))",
                    handle.active_conns()
                );
            }
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
}

/// `gps shutdown` — ask a running `gps serve` or `gps route` at `--addr`
/// to drain: stop taking new connections, finish in-flight replies,
/// flush the query log, and exit.
pub fn cmd_shutdown(args: &Args) -> Result<(), String> {
    let mut client =
        gps_serve::Client::connect(&args.addr).map_err(|e| format!("--addr {}: {e}", args.addr))?;
    client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    println!("{} is draining", args.addr);
    Ok(())
}

/// `gps reload [name]` — ask a running server to hot-swap one model's
/// snapshot with zero downtime: the default model or the given id, from
/// the file it is already serving (picking up an atomic replace) or a
/// different one via `--model`.
pub fn cmd_reload(args: &Args) -> Result<(), String> {
    let mut client =
        gps_serve::Client::connect(&args.addr).map_err(|e| format!("--addr {}: {e}", args.addr))?;
    let outcome = client
        .reload_named(args.reload_name.as_deref(), args.reload_model.as_deref())
        .map_err(|e| format!("reload: {e}"))?;
    match &args.reload_name {
        Some(name) => println!("reloaded {name}: generation {}", outcome.generation),
        None => println!("reloaded: generation {}", outcome.generation),
    }
    println!(
        "  serving {} rules / {} priors (checksum {})",
        outcome.num_rules, outcome.num_priors, outcome.checksum
    );
    Ok(())
}

/// `gps models` — list every model a running server holds, with its
/// generation and per-model counters.
pub fn cmd_models(args: &Args) -> Result<(), String> {
    let mut client =
        gps_serve::Client::connect(&args.addr).map_err(|e| format!("--addr {}: {e}", args.addr))?;
    let models = client.list_models().map_err(|e| format!("models: {e}"))?;
    println!("{} model(s) on {}:", models.len(), args.addr);
    for model in &models {
        let str_of = |k: &str| {
            model
                .get(k)
                .and_then(|j| j.as_str())
                .unwrap_or("?")
                .to_string()
        };
        let num_of = |k: &str| model.get(k).and_then(|j| j.as_u64()).unwrap_or(0);
        println!(
            "  {}{} generation {} — {} rules / {} priors (dataset {}, checksum {})",
            str_of("name"),
            if model.get("default").and_then(|j| j.as_bool()) == Some(true) {
                " [default]"
            } else {
                ""
            },
            num_of("generation"),
            num_of("num_rules"),
            num_of("num_priors"),
            str_of("dataset"),
            str_of("checksum"),
        );
        println!(
            "      {} requests, {} reloads{}{}",
            num_of("requests"),
            num_of("reloads"),
            model
                .get("last_reload_unix")
                .and_then(|j| j.as_u64())
                .map(|t| format!(" (last at unix {t})"))
                .unwrap_or_default(),
            model
                .get("path")
                .and_then(|j| j.as_str())
                .map(|p| format!(", from {p}"))
                .unwrap_or_default(),
        );
    }
    Ok(())
}

/// `gps query` — one prediction request against a running `gps serve`,
/// over the JSON wire (default) or the GPSQ binary wire (`--wire
/// binary`); both speak to any server, the format is per connection.
pub fn cmd_query(args: &Args) -> Result<(), String> {
    let ip: Ip = args
        .ip
        .as_deref()
        .ok_or("query requires --ip A.B.C.D")?
        .parse()
        .map_err(|e| format!("--ip: {e}"))?;
    let mut query = Query::new(ip).with_open(args.open.iter().copied());
    query.asn = args.asn;
    query.top = args.top;
    let mut client = gps_serve::Client::connect_with(&args.addr, args.wire)
        .map_err(|e| format!("--addr {}: {e}", args.addr))?;
    let ranked = client
        .predict_on(args.query_model.as_deref(), &query)
        .map_err(|e| format!("query: {e}"))?;
    if ranked.is_empty() {
        println!("no predictions for {ip} (unseen subnet and no matching rules)");
        return Ok(());
    }
    println!(
        "predictions for {ip}{}{}:",
        match &args.query_model {
            Some(model) => format!(" (model {model})"),
            None => String::new(),
        },
        if args.open.is_empty() {
            String::new()
        } else {
            format!(" given open {:?}", args.open)
        }
    );
    for (port, prob) in &ranked {
        let name = port.well_known_name().unwrap_or("-");
        println!("  {:>6} {:<12} p={prob:.6}", port.to_string(), name);
    }
    Ok(())
}

/// `gps churn` — §3 ten-day churn measurement.
pub fn cmd_churn(args: &Args) -> Result<(), String> {
    let net = universe(args);
    let day0 = net.total_services_on(0);
    let day10 = net.total_services_on(10);
    println!("service churn (ground truth):");
    println!("  day 0:  {day0}");
    println!("  day 10: {day10}");
    println!(
        "  lost:   {:.1}%",
        100.0 * (1.0 - day10 as f64 / day0.max(1) as f64)
    );
    println!(
        "(scan-level measurement with LZR filtering: `cargo run -p gps-experiments --bin sec3`)"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_args(command: crate::args::Command) -> Args {
        Args {
            command,
            quick: true,
            seed_fraction: 0.05,
            ..Args::default()
        }
    }

    use gps_types::testutil::TestDir;

    /// CLI flag values are `String`s; bridge from the shared fixture's
    /// `PathBuf` paths.
    fn path_str(dir: &TestDir, name: &str) -> String {
        dir.path(name).to_string_lossy().into_owned()
    }

    #[test]
    fn all_commands_run_on_quick_universe() {
        use crate::args::Command;
        cmd_universe(&quick_args(Command::Universe)).unwrap();
        cmd_run(&quick_args(Command::Run)).unwrap();
        cmd_churn(&quick_args(Command::Churn)).unwrap();
    }

    #[test]
    fn run_writes_csv() {
        use crate::args::Command;
        let dir = TestDir::new("csv");
        let path = path_str(&dir, "curve.csv");
        let mut args = quick_args(Command::Run);
        args.csv = Some(path.clone());
        cmd_run(&args).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("scans,"));
        assert!(text.lines().count() > 2);
    }

    #[test]
    fn export_then_serve_then_query_round_trip() {
        use crate::args::Command;
        let dir = TestDir::new("round-trip");
        let mut args = quick_args(Command::ExportModel);
        args.model = path_str(&dir, "model.json");
        cmd_export_model(&args).unwrap();

        // Serve on an ephemeral port (cmd_serve blocks, so drive the
        // server + protocol layers directly on the exported artifact).
        let snapshot = ModelSnapshot::load(&args.model).unwrap();
        let step = snapshot.manifest.step_prefix;
        let server = PredictionServer::with_defaults(ServableModel::from_snapshot(snapshot));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || gps_serve::serve_tcp(Arc::new(server), listener));

        let mut client = gps_serve::Client::connect(addr).unwrap();
        client.ping().unwrap();
        let ranked = client
            .predict(&Query::new(Ip::from_octets(10, 0, 0, 1)))
            .unwrap();
        // Cold query on a trained model returns a non-trivial ranking for
        // some subnet; probe a few until one hits.
        let _ = ranked;
        let manifest = client.manifest().unwrap();
        assert_eq!(
            manifest.get("step_prefix").and_then(|j| j.as_u64()),
            Some(step as u64)
        );
        std::fs::remove_file(&args.model).ok();
    }

    #[test]
    fn binary_export_then_serve_then_wire_reload() {
        use crate::args::{Command, SnapshotFormat};
        let dir = TestDir::new("wire-reload");
        let path_a = std::path::PathBuf::from(path_str(&dir, "a.gpsb"));
        let path_b = std::path::PathBuf::from(path_str(&dir, "b.gpsb"));

        // Two binary snapshots from different universes (different seeds).
        let mut args = quick_args(Command::ExportModel);
        args.format = SnapshotFormat::Binary;
        args.model = path_a.to_string_lossy().into_owned();
        args.seed = 9;
        cmd_export_model(&args).unwrap();
        let mut args_b = args.clone();
        args_b.model = path_b.to_string_lossy().into_owned();
        args_b.seed = 10;
        cmd_export_model(&args_b).unwrap();

        // The exported files are GPSB and load like any snapshot.
        assert!(std::fs::read(&path_a).unwrap().starts_with(b"GPSB"));
        let snapshot_a = ModelSnapshot::load_serving(&path_a).unwrap();
        let snapshot_b = ModelSnapshot::load_serving(&path_b).unwrap();
        assert_ne!(snapshot_a.manifest.checksum, snapshot_b.manifest.checksum);

        // Serve A, then hot-swap to B over the wire.
        let server = PredictionServer::with_defaults(ServableModel::from_snapshot(snapshot_a));
        server.set_model_path(&path_a);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = Arc::new(server);
        {
            let server = server.clone();
            std::thread::spawn(move || gps_serve::serve_tcp(server, listener));
        }
        let mut client = gps_serve::Client::connect(addr).unwrap();
        let outcome = client
            .reload(Some(path_b.to_string_lossy().as_ref()))
            .unwrap();
        assert_eq!(outcome.generation, 1);
        assert_eq!(
            outcome.checksum,
            gps_types::json::u64_to_hex(snapshot_b.manifest.checksum),
            "reload reply reports model B"
        );
        let manifest = client.manifest().unwrap();
        assert_eq!(
            manifest.get("checksum").and_then(|j| j.as_str()),
            Some(outcome.checksum.as_str()),
            "served manifest now reports model B"
        );
        // Reload without --model re-reads the (updated) recorded path.
        assert_eq!(client.reload(None).unwrap().generation, 2);
    }

    #[test]
    fn multi_model_serve_queries_each_by_id() {
        use crate::args::{Command, SnapshotFormat};
        let dir = TestDir::new("multi-model");
        let path_a = path_str(&dir, "a.gpsb");
        let path_b = path_str(&dir, "b.gpsb");
        let mut args = quick_args(Command::ExportModel);
        args.format = SnapshotFormat::Binary;
        args.model = path_a.clone();
        args.seed = 9;
        cmd_export_model(&args).unwrap();
        let mut args_b = args.clone();
        args_b.model = path_b.clone();
        args_b.seed = 10;
        cmd_export_model(&args_b).unwrap();

        // The serve-side model list grammar.
        let serve_args = Args::parse([
            "serve".to_string(),
            "--model".to_string(),
            format!("nine={path_a}"),
            "--model".to_string(),
            format!("ten={path_b}"),
        ])
        .unwrap();
        assert_eq!(
            resolve_models(&serve_args),
            vec![
                ("nine".to_string(), path_a.clone()),
                ("ten".to_string(), path_b.clone())
            ]
        );
        // Bare path = the default id; no --model at all = the default path.
        let bare = Args::parse(["serve", "--model", "/tmp/x.gpsb"]).unwrap();
        assert_eq!(
            resolve_models(&bare),
            vec![(
                gps_serve::DEFAULT_MODEL_ID.to_string(),
                "/tmp/x.gpsb".to_string()
            )]
        );
        assert_eq!(
            resolve_models(&Args::parse(["serve"]).unwrap()),
            vec![(
                gps_serve::DEFAULT_MODEL_ID.to_string(),
                "gps-model.json".to_string()
            )]
        );

        // Stand the registry up the way cmd_serve does (cmd_serve blocks
        // on its accept loop, so drive the same layers directly) and
        // query both models over one TCP connection.
        let snapshot_a = ModelSnapshot::load_serving(&path_a).unwrap();
        let snapshot_b = ModelSnapshot::load_serving(&path_b).unwrap();
        assert_ne!(snapshot_a.manifest.checksum, snapshot_b.manifest.checksum);
        let checksum_a = snapshot_a.manifest.checksum;
        let checksum_b = snapshot_b.manifest.checksum;
        let server = PredictionServer::start_named(
            vec![
                ("nine".to_string(), ServableModel::from_snapshot(snapshot_a)),
                ("ten".to_string(), ServableModel::from_snapshot(snapshot_b)),
            ],
            ServeConfig::default(),
        )
        .unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || gps_serve::serve_tcp(Arc::new(server), listener));

        let mut client = gps_serve::Client::connect(addr).unwrap();
        let hex = gps_types::json::u64_to_hex;
        for (name, checksum) in [("nine", checksum_a), ("ten", checksum_b)] {
            let manifest = client.manifest_of(Some(name)).unwrap();
            assert_eq!(
                manifest.get("checksum").and_then(|j| j.as_str()),
                Some(hex(checksum).as_str()),
                "model {name} serves its own snapshot"
            );
        }
        // The id-less manifest is the default (first) model's.
        assert_eq!(
            client
                .manifest()
                .unwrap()
                .get("checksum")
                .and_then(|j| j.as_str()),
            Some(hex(checksum_a).as_str())
        );
        let models = client.list_models().unwrap();
        assert_eq!(models.len(), 2);
    }

    #[test]
    fn transport_flags_resolve_and_events_transport_serves() {
        use crate::args::Command;
        // Flag resolution.
        let args = Args::parse(["serve", "--transport", "events", "--max-conns", "9"]).unwrap();
        let config = resolve_transport(&args).unwrap();
        assert_eq!(config.transport, gps_serve::Transport::Events);
        assert_eq!(config.max_conns, 9);
        assert!(config.idle_timeout.is_none());
        let args = Args::parse(["serve", "--idle-timeout", "2.5"]).unwrap();
        let config = resolve_transport(&args).unwrap();
        assert_eq!(config.transport, gps_serve::Transport::Threads);
        assert_eq!(
            config.idle_timeout,
            Some(std::time::Duration::from_millis(2500))
        );

        // An exported model served over the events transport answers
        // `gps query`-style traffic (cmd_serve blocks, so drive the same
        // layers directly, exactly like the round-trip test above).
        let dir = TestDir::new("events-round-trip");
        let mut args = quick_args(Command::ExportModel);
        args.model = path_str(&dir, "model.gpsb");
        args.format = crate::args::SnapshotFormat::Binary;
        cmd_export_model(&args).unwrap();
        let snapshot = ModelSnapshot::load_serving(&args.model).unwrap();
        let server = PredictionServer::with_defaults(ServableModel::from_snapshot(snapshot));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            gps_serve::serve(
                Arc::new(server),
                listener,
                gps_serve::TransportConfig::events(),
            )
        });
        let mut client = gps_serve::Client::connect(addr).unwrap();
        client.ping().unwrap();
        let manifest = client.manifest().unwrap();
        assert!(manifest.get("checksum").is_some());
        client
            .predict(&Query::new(Ip::from_octets(10, 0, 0, 1)))
            .unwrap();
    }

    #[test]
    fn lzr_workload_dataset_shape() {
        let args = Args {
            quick: true,
            workload: Workload::Lzr,
            ..Args::default()
        };
        let net = universe(&args);
        let ds = dataset(&args, &net);
        assert!(ds.visible_ips.is_some());
        assert!(ds.test.total() > 0);
    }
}
