//! Hand-rolled argument parsing for the `gps` binary.
//!
//! Deliberately dependency-free (the offline crate budget is spent on
//! measurement, not flag parsing); the grammar is small enough that a flat
//! struct plus a loop is clearer than a derive macro anyway.

use std::fmt;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub command: Command,
    pub seed: u64,
    pub blocks: u32,
    pub quick: bool,
    pub workload: Workload,
    pub seed_fraction: f64,
    pub step: u8,
    pub budget: Option<f64>,
    pub csv: Option<String>,
    /// Snapshot path for export-model/serve.
    pub model: String,
    /// serve: every `--model` occurrence, each `name=path` or a bare
    /// path (bare = the default model id). Empty = single-model serve
    /// from [`Args::model`].
    pub models: Vec<String>,
    /// Snapshot encoding for export-model.
    pub format: SnapshotFormat,
    /// export-model: omit the derived CMPL section from binary snapshots
    /// (smaller file; loaders recompile at load time).
    pub no_compiled: bool,
    /// TCP address for serve/query/reload/models.
    pub addr: String,
    /// serve: connection-driving strategy (threads | events).
    pub transport: String,
    /// serve: live-connection cap (0 = unlimited).
    pub max_conns: usize,
    /// serve: close connections idle this many seconds (0 = never;
    /// fractional values accepted).
    pub idle_timeout: f64,
    /// serve: hot-reload when a registered snapshot file changes on disk.
    pub watch: bool,
    /// serve: TCP address for the HTTP/1.1 gateway (None = no gateway).
    pub http_addr: Option<String>,
    /// route: backend `gps serve` addresses (repeatable, at least one).
    pub backends: Vec<String>,
    /// route: health-probe cadence in seconds.
    pub probe_interval: f64,
    /// route: per-backend-attempt deadline in seconds.
    pub request_timeout: f64,
    /// route: alternate backends tried after the owner fails.
    pub max_retries: usize,
    /// serve: structured query-log path (one JSON line per request).
    pub query_log: Option<String>,
    /// reload: snapshot path to switch the server to (None = re-read).
    pub reload_model: Option<String>,
    /// reload: which model id to reload (positional; None = the default).
    pub reload_name: Option<String>,
    /// query: which model id to ask (None = the server's default).
    pub query_model: Option<String>,
    /// query: wire format to speak (json | binary).
    pub wire: gps_serve::WireFormat,
    /// Target IP for query.
    pub ip: Option<String>,
    /// Known-open ports for query (comma separated on the wire).
    pub open: Vec<u16>,
    /// Known ASN for query.
    pub asn: Option<u32>,
    /// Max predictions for query.
    pub top: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    Universe,
    Run,
    Compare,
    Expand,
    Churn,
    ExportModel,
    Serve,
    Route,
    Query,
    Reload,
    Models,
    Shutdown,
    Help,
}

/// On-disk snapshot encoding (`gps export-model --format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFormat {
    Json,
    Binary,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Censys,
    Lzr,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl Default for Args {
    fn default() -> Self {
        Args {
            command: Command::Help,
            seed: 0xC0FFEE,
            blocks: 32,
            quick: false,
            workload: Workload::Censys,
            seed_fraction: 0.02,
            step: 16,
            budget: None,
            csv: None,
            model: "gps-model.json".to_string(),
            models: Vec::new(),
            format: SnapshotFormat::Json,
            no_compiled: false,
            addr: "127.0.0.1:4615".to_string(),
            transport: "threads".to_string(),
            max_conns: 0,
            idle_timeout: 0.0,
            watch: false,
            http_addr: None,
            backends: Vec::new(),
            probe_interval: 0.5,
            request_timeout: 2.0,
            max_retries: 1,
            query_log: None,
            reload_model: None,
            reload_name: None,
            query_model: None,
            wire: gps_serve::WireFormat::Json,
            ip: None,
            open: Vec::new(),
            asn: None,
            top: 0,
        }
    }
}

impl Args {
    /// Parse an iterator of arguments (excluding `argv[0]`).
    pub fn parse<I, S>(argv: I) -> Result<Args, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = argv.into_iter().map(Into::into).peekable();

        let command = iter
            .next()
            .ok_or_else(|| ParseError("missing command (try `gps help`)".into()))?;
        args.command = match command.as_str() {
            "universe" => Command::Universe,
            "run" => Command::Run,
            "compare" => Command::Compare,
            "expand" => Command::Expand,
            "churn" => Command::Churn,
            "export-model" => Command::ExportModel,
            "serve" => Command::Serve,
            "route" => Command::Route,
            "query" => Command::Query,
            "reload" => Command::Reload,
            "models" => Command::Models,
            "shutdown" => Command::Shutdown,
            "help" | "--help" | "-h" => Command::Help,
            other => return Err(ParseError(format!("unknown command {other:?}"))),
        };

        while let Some(flag) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .ok_or_else(|| ParseError(format!("{name} requires a value")))
            };
            match flag.as_str() {
                "--seed" => {
                    args.seed = parse_num(&value("--seed")?, "--seed")?;
                }
                "--blocks" => {
                    args.blocks = parse_num(&value("--blocks")?, "--blocks")?;
                }
                "--quick" => args.quick = true,
                "--workload" => {
                    args.workload = match value("--workload")?.as_str() {
                        "censys" => Workload::Censys,
                        "lzr" => Workload::Lzr,
                        other => {
                            return Err(ParseError(format!(
                                "unknown workload {other:?} (censys|lzr)"
                            )))
                        }
                    };
                }
                "--seed-fraction" => {
                    let f: f64 = parse_num(&value("--seed-fraction")?, "--seed-fraction")?;
                    if !(0.0..=1.0).contains(&f) {
                        return Err(ParseError("--seed-fraction must be in [0,1]".into()));
                    }
                    args.seed_fraction = f;
                }
                "--step" => {
                    let s: u8 = parse_num(&value("--step")?, "--step")?;
                    if s > 32 {
                        return Err(ParseError("--step must be 0..=32".into()));
                    }
                    args.step = s;
                }
                "--budget" => {
                    args.budget = Some(parse_num(&value("--budget")?, "--budget")?);
                }
                "--csv" => args.csv = Some(value("--csv")?),
                "--model" => {
                    // One flag, per-command meaning: for `reload` it is
                    // "switch the server to this snapshot path" (absence =
                    // re-read the served file); for `query` it is a model
                    // *id* on the server; for `serve` it is repeatable
                    // (`name=path` or a bare default path); elsewhere it
                    // is the snapshot path to write/read.
                    let v = value("--model")?;
                    match args.command {
                        Command::Reload => args.reload_model = Some(v),
                        Command::Query => args.query_model = Some(v),
                        Command::Serve => {
                            args.model = v.clone();
                            args.models.push(v);
                        }
                        _ => args.model = v,
                    }
                }
                "--format" => {
                    args.format = match value("--format")?.as_str() {
                        "json" => SnapshotFormat::Json,
                        "binary" => SnapshotFormat::Binary,
                        other => {
                            return Err(ParseError(format!(
                                "unknown format {other:?} (json|binary)"
                            )))
                        }
                    };
                }
                "--no-compiled" => args.no_compiled = true,
                "--watch" => args.watch = true,
                "--addr" => args.addr = value("--addr")?,
                "--http-addr" => args.http_addr = Some(value("--http-addr")?),
                "--backend" => args.backends.push(value("--backend")?),
                "--probe-interval" => {
                    let secs: f64 = parse_num(&value("--probe-interval")?, "--probe-interval")?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(ParseError("--probe-interval must be > 0 seconds".into()));
                    }
                    args.probe_interval = secs;
                }
                "--request-timeout" => {
                    let secs: f64 = parse_num(&value("--request-timeout")?, "--request-timeout")?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(ParseError("--request-timeout must be > 0 seconds".into()));
                    }
                    args.request_timeout = secs;
                }
                "--max-retries" => {
                    args.max_retries = parse_num(&value("--max-retries")?, "--max-retries")?;
                }
                "--query-log" => args.query_log = Some(value("--query-log")?),
                "--transport" => {
                    let t = value("--transport")?;
                    // `events-poll` (the portable-poller variant) is
                    // accepted for tests/debugging but not advertised.
                    if !matches!(t.as_str(), "threads" | "events" | "events-poll") {
                        return Err(ParseError(format!(
                            "unknown transport {t:?} (threads|events)"
                        )));
                    }
                    args.transport = t;
                }
                "--max-conns" => {
                    args.max_conns = parse_num(&value("--max-conns")?, "--max-conns")?;
                }
                "--idle-timeout" => {
                    let secs: f64 = parse_num(&value("--idle-timeout")?, "--idle-timeout")?;
                    if !secs.is_finite() || secs < 0.0 {
                        return Err(ParseError("--idle-timeout must be >= 0 seconds".into()));
                    }
                    args.idle_timeout = secs;
                }
                "--wire" => {
                    // One source of truth for the accepted set: the
                    // protocol's own `WireFormat` parser.
                    args.wire = value("--wire")?
                        .parse::<gps_serve::WireFormat>()
                        .map_err(|e| ParseError(format!("--wire: {e}")))?;
                }
                "--ip" => args.ip = Some(value("--ip")?),
                "--open" => {
                    for part in value("--open")?.split(',').filter(|p| !p.is_empty()) {
                        args.open.push(parse_num(part, "--open")?);
                    }
                }
                "--asn" => args.asn = Some(parse_num(&value("--asn")?, "--asn")?),
                "--top" => args.top = parse_num(&value("--top")?, "--top")?,
                // `gps reload <name>` — the one positional argument in the
                // grammar: which registered model id to reload.
                other
                    if args.command == Command::Reload
                        && !other.starts_with('-')
                        && args.reload_name.is_none() =>
                {
                    args.reload_name = Some(other.to_string());
                }
                other => return Err(ParseError(format!("unknown flag {other:?}"))),
            }
        }
        Ok(args)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, ParseError> {
    s.parse()
        .map_err(|_| ParseError(format!("{flag}: cannot parse {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_run_command() {
        let args = Args::parse([
            "run",
            "--workload",
            "lzr",
            "--seed-fraction",
            "0.05",
            "--step",
            "20",
            "--budget",
            "150.5",
            "--csv",
            "out.csv",
            "--seed",
            "42",
            "--blocks",
            "64",
            "--quick",
        ])
        .unwrap();
        assert_eq!(args.command, Command::Run);
        assert_eq!(args.workload, Workload::Lzr);
        assert_eq!(args.seed_fraction, 0.05);
        assert_eq!(args.step, 20);
        assert_eq!(args.budget, Some(150.5));
        assert_eq!(args.csv.as_deref(), Some("out.csv"));
        assert_eq!(args.seed, 42);
        assert_eq!(args.blocks, 64);
        assert!(args.quick);
    }

    #[test]
    fn defaults_are_sensible() {
        let args = Args::parse(["universe"]).unwrap();
        assert_eq!(args.command, Command::Universe);
        assert_eq!(args.workload, Workload::Censys);
        assert_eq!(args.step, 16);
        assert!(!args.quick);
        assert!(args.budget.is_none());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Args::parse(["frobnicate"]).is_err());
        assert!(Args::parse(["run", "--step"]).is_err());
        assert!(Args::parse(["run", "--step", "40"]).is_err());
        assert!(Args::parse(["run", "--workload", "shodan"]).is_err());
        assert!(Args::parse(["run", "--seed-fraction", "1.5"]).is_err());
        assert!(Args::parse(["run", "--wat"]).is_err());
        assert!(Args::parse(Vec::<String>::new()).is_err());
    }

    #[test]
    fn parses_serving_commands() {
        let args = Args::parse([
            "export-model",
            "--model",
            "/tmp/m.json",
            "--quick",
            "--seed",
            "9",
        ])
        .unwrap();
        assert_eq!(args.command, Command::ExportModel);
        assert_eq!(args.model, "/tmp/m.json");

        let args = Args::parse(["serve", "--model", "m.json", "--addr", "127.0.0.1:9999"]).unwrap();
        assert_eq!(args.command, Command::Serve);
        assert_eq!(args.addr, "127.0.0.1:9999");
        assert!(
            Args::parse(["serve", "--shards", "8"]).is_err(),
            "answers are computed inline; there are no shards to size"
        );

        let args = Args::parse([
            "query",
            "--addr",
            "127.0.0.1:9999",
            "--ip",
            "10.1.2.3",
            "--open",
            "80,443",
            "--asn",
            "64500",
            "--top",
            "5",
        ])
        .unwrap();
        assert_eq!(args.command, Command::Query);
        assert_eq!(args.ip.as_deref(), Some("10.1.2.3"));
        assert_eq!(args.open, vec![80, 443]);
        assert_eq!(args.asn, Some(64500));
        assert_eq!(args.top, 5);
    }

    #[test]
    fn parses_format_watch_and_reload() {
        let args = Args::parse([
            "export-model",
            "--model",
            "/tmp/m.gpsb",
            "--format",
            "binary",
        ])
        .unwrap();
        assert_eq!(args.format, SnapshotFormat::Binary);
        assert_eq!(args.model, "/tmp/m.gpsb");
        assert_eq!(
            Args::parse(["export-model"]).unwrap().format,
            SnapshotFormat::Json,
            "json stays the default"
        );
        assert!(Args::parse(["export-model", "--format", "xml"]).is_err());

        // --no-compiled strips the derived CMPL section from binary
        // exports; default keeps it.
        let args = Args::parse([
            "export-model",
            "--model",
            "/tmp/m.gpsb",
            "--format",
            "binary",
            "--no-compiled",
        ])
        .unwrap();
        assert!(args.no_compiled);
        assert!(!Args::parse(["export-model"]).unwrap().no_compiled);

        let args = Args::parse(["serve", "--model", "m.gpsb", "--watch"]).unwrap();
        assert!(args.watch);
        assert_eq!(args.model, "m.gpsb");
        assert!(!Args::parse(["serve"]).unwrap().watch);

        // `reload --model` targets reload_model, leaving the serve/export
        // default untouched; without it the server re-reads its own file.
        let args = Args::parse([
            "reload",
            "--addr",
            "127.0.0.1:9999",
            "--model",
            "/tmp/new.gpsb",
        ])
        .unwrap();
        assert_eq!(args.command, Command::Reload);
        assert_eq!(args.reload_model.as_deref(), Some("/tmp/new.gpsb"));
        assert_eq!(args.model, "gps-model.json");
        assert!(Args::parse(["reload"]).unwrap().reload_model.is_none());
    }

    #[test]
    fn parses_multi_model_serve_query_and_named_reload() {
        // serve: --model is repeatable, mixing name=path and bare paths.
        let args = Args::parse([
            "serve",
            "--model",
            "quick=/tmp/a.gpsb",
            "--model",
            "full=/tmp/b.gpsb",
        ])
        .unwrap();
        assert_eq!(
            args.models,
            vec![
                "quick=/tmp/a.gpsb".to_string(),
                "full=/tmp/b.gpsb".to_string()
            ]
        );
        let args = Args::parse(["serve"]).unwrap();
        assert!(args.models.is_empty(), "no --model: single-model default");

        // query: --model is a model *id*, not a path.
        let args = Args::parse(["query", "--ip", "10.0.0.1", "--model", "full"]).unwrap();
        assert_eq!(args.query_model.as_deref(), Some("full"));
        assert_eq!(args.model, "gps-model.json", "snapshot path untouched");

        // reload: positional model id, optionally with a new path.
        let args = Args::parse(["reload", "full", "--model", "/tmp/b2.gpsb"]).unwrap();
        assert_eq!(args.reload_name.as_deref(), Some("full"));
        assert_eq!(args.reload_model.as_deref(), Some("/tmp/b2.gpsb"));
        assert!(Args::parse(["reload"]).unwrap().reload_name.is_none());
        // Only one positional is accepted.
        assert!(Args::parse(["reload", "a", "b"]).is_err());

        // models: the listing command.
        let args = Args::parse(["models", "--addr", "127.0.0.1:9999"]).unwrap();
        assert_eq!(args.command, Command::Models);
        assert_eq!(args.addr, "127.0.0.1:9999");
    }

    #[test]
    fn serving_defaults() {
        let args = Args::parse(["serve"]).unwrap();
        assert_eq!(args.model, "gps-model.json");
        assert_eq!(args.addr, "127.0.0.1:4615");
        assert_eq!(args.transport, "threads", "threads stays the default");
        assert_eq!(args.max_conns, 0, "0 = unlimited");
        assert_eq!(args.idle_timeout, 0.0, "0 = never");
        assert!(Args::parse(["query", "--open", "80,abc"]).is_err());
    }

    #[test]
    fn parses_wire_format() {
        use gps_serve::WireFormat;
        let args = Args::parse(["query", "--ip", "10.0.0.1"]).unwrap();
        assert_eq!(args.wire, WireFormat::Json, "json stays the default");
        let args = Args::parse(["query", "--ip", "10.0.0.1", "--wire", "binary"]).unwrap();
        assert_eq!(args.wire, WireFormat::Binary);
        assert!(Args::parse(["query", "--wire", "xml"]).is_err());
    }

    #[test]
    fn parses_observability_flags() {
        let args = Args::parse([
            "serve",
            "--http-addr",
            "127.0.0.1:8080",
            "--query-log",
            "/tmp/queries.log",
        ])
        .unwrap();
        assert_eq!(args.http_addr.as_deref(), Some("127.0.0.1:8080"));
        assert_eq!(args.query_log.as_deref(), Some("/tmp/queries.log"));

        let args = Args::parse(["serve"]).unwrap();
        assert!(args.http_addr.is_none(), "no gateway by default");
        assert!(args.query_log.is_none());

        assert!(Args::parse(["serve", "--http-addr"]).is_err());
        assert!(Args::parse(["serve", "--query-log"]).is_err());
    }

    #[test]
    fn parses_transport_flags() {
        let args = Args::parse([
            "serve",
            "--transport",
            "events",
            "--max-conns",
            "10000",
            "--idle-timeout",
            "30",
        ])
        .unwrap();
        assert_eq!(args.transport, "events");
        assert_eq!(args.max_conns, 10000);
        assert_eq!(args.idle_timeout, 30.0);
        // Fractional idle timeouts serve the tests' short deadlines.
        let args = Args::parse(["serve", "--idle-timeout", "0.25"]).unwrap();
        assert_eq!(args.idle_timeout, 0.25);
        // The hidden poll-fallback variant parses; junk does not.
        assert_eq!(
            Args::parse(["serve", "--transport", "events-poll"])
                .unwrap()
                .transport,
            "events-poll"
        );
        assert!(Args::parse(["serve", "--transport", "iouring"]).is_err());
        assert!(Args::parse(["serve", "--idle-timeout", "-1"]).is_err());
        assert!(Args::parse(["serve", "--max-conns"]).is_err());
    }

    #[test]
    fn parses_route_and_shutdown() {
        let args = Args::parse([
            "route",
            "--backend",
            "127.0.0.1:5001",
            "--backend",
            "127.0.0.1:5002",
            "--addr",
            "127.0.0.1:4615",
            "--http-addr",
            "127.0.0.1:8080",
            "--probe-interval",
            "0.25",
            "--request-timeout",
            "1.5",
            "--max-retries",
            "3",
        ])
        .unwrap();
        assert_eq!(args.command, Command::Route);
        assert_eq!(args.backends, vec!["127.0.0.1:5001", "127.0.0.1:5002"]);
        assert_eq!(args.http_addr.as_deref(), Some("127.0.0.1:8080"));
        assert_eq!(args.probe_interval, 0.25);
        assert_eq!(args.request_timeout, 1.5);
        assert_eq!(args.max_retries, 3);

        // Defaults.
        let args = Args::parse(["route"]).unwrap();
        assert!(args.backends.is_empty(), "cmd_route rejects this later");
        assert_eq!(args.probe_interval, 0.5);
        assert_eq!(args.request_timeout, 2.0);
        assert_eq!(args.max_retries, 1);

        // Bounds.
        assert!(Args::parse(["route", "--probe-interval", "0"]).is_err());
        assert!(Args::parse(["route", "--request-timeout", "-1"]).is_err());
        assert!(Args::parse(["route", "--backend"]).is_err());

        let args = Args::parse(["shutdown", "--addr", "127.0.0.1:4615"]).unwrap();
        assert_eq!(args.command, Command::Shutdown);
        assert_eq!(args.addr, "127.0.0.1:4615");
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(Args::parse([h]).unwrap().command, Command::Help);
        }
    }
}
