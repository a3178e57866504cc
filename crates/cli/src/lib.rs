//! # gps-cli
//!
//! Library backing the `gps` command-line tool: a hand-rolled argument
//! parser (no external dependencies) plus one function per subcommand. The
//! binary in `src/bin/gps.rs` is a thin dispatcher so everything here is
//! unit-testable.

pub mod args;
pub mod commands;

pub use args::{Args, ParseError};

/// Top-level usage text.
pub const USAGE: &str = "\
gps — predict IPv4 services across all ports (SIGCOMM 2022 reproduction)

USAGE:
    gps <COMMAND> [OPTIONS]

COMMANDS:
    universe      Generate the synthetic universe and print its census
    run           Run the four-phase GPS pipeline on a workload
    compare       GPS vs exhaustive/oracle baselines at matched coverage
    expand        Known-host mode (§7): expand a hitlist without a priors scan
    churn         Measure 10-day service churn (§3)
    export-model  Train on a workload and save the artifacts as a snapshot
    serve         Load snapshot(s) and answer prediction queries over TCP
    route         Fault-tolerant routing tier over N `gps serve` backends
    query         Ask a running server for predictions on one IP
    reload        Hot-swap a running server's snapshot (zero downtime)
    models        List the models a running server holds (per-model stats)
    shutdown      Drain a running server or router (graceful exit)
    help          Show this message

COMMON OPTIONS:
    --seed N            master seed (default 0xC0FFEE)
    --blocks N          number of /16 blocks (default 32 for the CLI)
    --quick             tiny universe for smoke runs

RUN/COMPARE/EXPORT OPTIONS:
    --workload W        censys | lzr          (default censys)
    --seed-fraction F   seed share of address space (default 0.02)
    --step P            scanning step prefix length (default 16)
    --budget B          bandwidth budget in 100%-scan units
    --csv PATH          write the discovery curve as CSV

SERVING OPTIONS:
    --model PATH        snapshot file (default gps-model.json); for
                        `serve`, repeatable as NAME=PATH to serve several
                        models keyed by id (first = default model); for
                        `query`, a model *id* on the server; for `reload`,
                        the snapshot to switch the server to (default:
                        re-read the file it is serving)
    --format F          export-model encoding: json | binary (GPSB)
    --no-compiled       export-model: omit the precompiled CMPL section
                        from binary snapshots (loaders recompile on load)
    --addr A            TCP address (default 127.0.0.1:4615)
    --transport T       serve: threads (default, one thread/conn) |
                        events (epoll event loops; holds 10k+ conns)
    --max-conns N       serve: live-connection cap (default unlimited)
    --idle-timeout S    serve: drop conns silent for S seconds (default never)
    --watch             serve: hot-reload when a snapshot file changes
    --http-addr A       serve: HTTP/1.1 gateway (GET /metrics /stats
                        /models /healthz, POST /predict /batch /reset-stats)
    --query-log PATH    serve: structured query log, one JSON line/request
    --ip A.B.C.D        query target

ROUTING OPTIONS (gps route):
    --backend A         a backend `gps serve` address (repeat per backend)
    --addr A            front address clients connect to
    --http-addr A       HTTP sideline (GET /healthz /metrics /stats,
                        POST /shutdown)
    --probe-interval S  health-probe cadence in seconds (default 0.5)
    --request-timeout S per-backend-attempt deadline (default 2)
    --max-retries N     alternate backends tried per query (default 1)
    --open P1,P2        query evidence: ports known open on the target
    --asn N             query evidence: the target's ASN
    --top N             max predictions returned
    --wire F            query: wire format, json (default) | binary (GPSQ)

EXAMPLES:
    gps universe --blocks 16
    gps run --workload censys --seed-fraction 0.02 --step 16 --csv curve.csv
    gps compare --workload lzr
    gps export-model --quick --model /tmp/gps-model.gpsb --format binary
    gps serve --model /tmp/gps-model.gpsb --addr 127.0.0.1:4615 --watch
    gps serve --model quick=/tmp/a.gpsb --model lzr=/tmp/b.gpsb
    gps serve --model /tmp/a.gpsb --transport events --max-conns 20000 --idle-timeout 60
    gps serve --model /tmp/a.gpsb --http-addr 127.0.0.1:8080 --query-log /tmp/q.log
    gps query --addr 127.0.0.1:4615 --ip 10.1.2.3 --open 80
    gps query --addr 127.0.0.1:4615 --ip 10.1.2.3 --model lzr
    gps query --addr 127.0.0.1:4615 --ip 10.1.2.3 --wire binary
    gps reload --addr 127.0.0.1:4615 --model /tmp/gps-model-v2.gpsb
    gps reload lzr --addr 127.0.0.1:4615
    gps models --addr 127.0.0.1:4615
    gps route --addr 127.0.0.1:4615 --backend 127.0.0.1:5001 --backend 127.0.0.1:5002
    gps shutdown --addr 127.0.0.1:4615
";
