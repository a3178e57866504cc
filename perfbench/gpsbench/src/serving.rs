//! The serving workloads: a trained model packaged as GPSB snapshot
//! bytes, served by in-process events-transport servers (behind a
//! `Router` for `serve-cold`) and driven by closed-loop GPSQ clients.
//!
//! Every answer is compared bit for bit (ports and `f64` bits) with
//! `ServableModel::predict` on a model decoded from the same snapshot
//! bytes. The expected answers are computed before the clock starts;
//! only the comparison runs inside the timed loop.

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use gps_core::{GpsRun, ModelSnapshot};
use gps_serve::{
    Client, ClientConfig, PredictScratch, PredictionServer, Query, Ranked, Router, RouterConfig,
    RouterHandle, ServableModel, ServeConfig, TransportConfig, WireFormat,
};
use gps_synthnet::PortCensus;
use gps_types::json::Json;
use gps_types::rng::Rng;
use gps_types::Ip;

use crate::pipeline::{self, Inputs, CLI_BLOCKS, CLI_SEED};
use crate::report::Outcome;
use crate::stats::{mean, median, Latency, Peel};
use crate::steal;
use crate::trace::Trace;
use crate::Options;

/// Shard workers per server (the `ServeConfig` default).
pub const SHARDS: usize = 4;
/// Event-loop threads per server: one per CPU of the 2-CPU box the
/// benchmark was sized on.
pub const EVENT_LOOPS: usize = 2;
const TRAFFIC_SALT: u64 = 0x10AD;
/// Untimed traffic before every timed loop, so connection buffers,
/// router pools and caches settle.
const WARMUP: Duration = Duration::from_millis(300);
const RELOAD_EVERY: Duration = Duration::from_millis(250);
/// Reloads timed on their own in the traced run.
const RELOAD_STAGE: usize = 4;

/// The two traffic shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Pipelined singles on a tiny model: answer caches hit.
    Hot,
    /// ×64 evidence batches through the router: caches mostly miss.
    Cold,
}

impl Shape {
    fn blocks(self) -> u32 {
        match self {
            Shape::Hot => 4,
            Shape::Cold => CLI_BLOCKS,
        }
    }

    fn backends(self) -> usize {
        match self {
            Shape::Hot => 1,
            Shape::Cold => 2,
        }
    }

    /// Client threads, each with one connection.
    fn clients(self) -> usize {
        match self {
            Shape::Hot => 2,
            Shape::Cold => 1,
        }
    }

    /// Requests each client keeps in flight.
    fn depth(self) -> usize {
        match self {
            Shape::Hot => 32,
            Shape::Cold => 1,
        }
    }

    /// Queries per request.
    fn batch(self) -> usize {
        match self {
            Shape::Hot => 1,
            Shape::Cold => 64,
        }
    }

    /// Set-ups timed per untraced run; `setup_s` and `pipeline_s` are
    /// medians over the quiet ones.
    fn setup_repeats(self) -> usize {
        match self {
            Shape::Hot => 11,
            Shape::Cold => 3,
        }
    }

    /// Requests per client stream; a stream is replayed from the start
    /// when a run outlasts it. Cold streams are long enough that replays
    /// find nothing left in the answer caches.
    fn stream_len(self) -> usize {
        match self {
            Shape::Hot => 1 << 16,
            Shape::Cold => 2048,
        }
    }

    /// Requests sent to each entry point by the traced peel.
    fn peel_len(self) -> usize {
        match self {
            Shape::Hot => 10_000,
            Shape::Cold => 600,
        }
    }
}

/// A request stream with the answer every query must get.
pub struct Stream {
    units: Vec<Vec<Query>>,
    expected: Vec<Vec<Ranked>>,
}

/// `serve-hot` traffic (the loadgen mix): 64 anchor /16s drawn from real
/// hosts, random low bits, 80% cold queries and 20% with one open port.
fn hot_queries(inputs: &Inputs, rng: &mut Rng, count: usize) -> Vec<Vec<Query>> {
    let hosts = inputs.net.host_ips();
    let anchors: Vec<u32> = (0..64).map(|_| *rng.choose(hosts)).collect();
    (0..count)
        .map(|_| {
            let anchor = *rng.choose(&anchors);
            let mut query = Query::new(Ip((anchor & 0xFFFF_0000) | (rng.next_u32() & 0xFFFF)));
            if rng.chance(0.2) {
                query = query.with_open([[80u16, 443, 22][rng.gen_range(3) as usize]]);
            }
            query.top = 8;
            vec![query]
        })
        .collect()
}

/// `serve-cold` traffic: any host, 1–4 evidence ports from the 200
/// busiest, and the host's ASN half the time.
fn cold_queries(inputs: &Inputs, rng: &mut Rng, count: usize) -> Vec<Vec<Query>> {
    let net = &inputs.net;
    let hosts = net.host_ips();
    let ports: Vec<u16> = PortCensus::new(net, 0)
        .top_ports(200)
        .into_iter()
        .map(|p| p.0)
        .collect();
    (0..count)
        .map(|_| {
            (0..Shape::Cold.batch())
                .map(|_| {
                    let ip = Ip(*rng.choose(hosts));
                    let mut open: Vec<u16> = Vec::new();
                    let want = 1 + rng.gen_range(4) as usize;
                    while open.len() < want.min(ports.len()) {
                        let port = *rng.choose(&ports);
                        if !open.contains(&port) {
                            open.push(port);
                        }
                    }
                    let mut query = Query::new(ip).with_open(open);
                    if rng.chance(0.5) {
                        query.asn = net.asn_of(ip).map(|a| a.0);
                    }
                    query.top = 10;
                    query
                })
                .collect()
        })
        .collect()
}

/// One stream per client, generated from the seed, with expected answers.
fn streams(shape: Shape, inputs: &Inputs, seed: u64, oracle: &ServableModel) -> Vec<Stream> {
    let mut rng = Rng::new(seed ^ TRAFFIC_SALT);
    (0..shape.clients())
        .map(|_| {
            let units = match shape {
                Shape::Hot => hot_queries(inputs, &mut rng, shape.stream_len()),
                Shape::Cold => cold_queries(inputs, &mut rng, shape.stream_len()),
            };
            let expected = units
                .iter()
                .map(|unit| unit.iter().map(|q| oracle.predict(q)).collect())
                .collect();
            Stream { units, expected }
        })
        .collect()
}

/// Equal port for port and bit for bit.
fn same_bits(got: &Ranked, want: &Ranked) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
}

/// Decode GPSB bytes and load them into query form, each in a span.
fn load(trace: &mut Trace, parent: Option<usize>, bytes: &[u8]) -> ServableModel {
    let (snapshot, _) = trace.span("snapshot.decode", parent, |_, _| {
        ModelSnapshot::from_binary_bytes(bytes).expect("snapshot bytes encoded by this run decode")
    });
    trace
        .span("artifact.load", parent, |_, _| {
            ServableModel::from_snapshot(snapshot)
        })
        .0
}

/// [`load`] outside any span: the oracle, and reloads that only reset
/// the answer caches.
fn decode(bytes: &[u8]) -> ServableModel {
    load(&mut Trace::new(Instant::now(), false), None, bytes)
}

pub struct Backend {
    server: Arc<PredictionServer>,
    addr: SocketAddr,
}

/// A running serving stack and the snapshot bytes it serves.
pub struct Stack {
    bytes: Vec<u8>,
    backends: Vec<Backend>,
    router: Option<RouterHandle>,
}

impl Stack {
    /// Where the workload's clients connect.
    fn front(&self) -> SocketAddr {
        match &self.router {
            Some(router) => router.addr(),
            None => self.backends[0].addr,
        }
    }
}

/// A GPSQ client whose calls fail instead of hanging when the stack
/// stops answering, so a wedged run still ends and reports its failures.
fn client(addr: SocketAddr) -> Client {
    let config = ClientConfig::timeouts(WireFormat::Binary, Duration::from_secs(10));
    let mut client =
        Client::connect_config(addr, &config).expect("connect to an in-process listener");
    client.ping().expect("fresh connection answers ping");
    client
}

/// Decode, load and serve one backend on the events transport.
fn start_backend(trace: &mut Trace, parent: Option<usize>, bytes: &[u8]) -> Backend {
    let model = load(trace, parent, bytes);
    let (backend, _) = trace.span("server.start", parent, |_, _| {
        let server = Arc::new(PredictionServer::start(
            model,
            ServeConfig {
                shards: SHARDS,
                ..ServeConfig::default()
            },
        ));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let config = TransportConfig {
            event_loops: EVENT_LOOPS,
            ..TransportConfig::events()
        };
        let serving = server.clone();
        // `serve` accepts until the process exits, so this thread is never
        // joined; it holds no state the result depends on.
        std::thread::Builder::new()
            .name("bench-backend".to_string())
            .spawn(move || gps_serve::serve(serving, listener, config))
            .expect("spawn backend thread");
        Backend { server, addr }
    });
    backend
}

fn start_router(trace: &mut Trace, parent: Option<usize>, backends: &[Backend]) -> RouterHandle {
    trace
        .span("router.start", parent, |_, _| {
            Router::start(
                "127.0.0.1:0",
                None,
                RouterConfig {
                    backends: backends.iter().map(|b| b.addr.to_string()).collect(),
                    ..RouterConfig::default()
                },
            )
            .expect("router binds loopback")
        })
        .0
}

/// Package a run as GPSB bytes and start `backends` servers on it, plus a
/// router when asked.
fn start_stack(
    trace: &mut Trace,
    parent: Option<usize>,
    run: &GpsRun,
    backends: usize,
    router: bool,
) -> Stack {
    let (bytes, _) = trace.span("snapshot.encode", parent, |_, _| {
        ModelSnapshot::from_run(run, &pipeline::config(), CLI_SEED).to_binary_bytes()
    });
    let backends: Vec<Backend> = (0..backends)
        .map(|_| start_backend(trace, parent, &bytes))
        .collect();
    let router = router.then(|| start_router(trace, parent, &backends));
    Stack {
        bytes,
        backends,
        router,
    }
}

/// What one timed loop produced.
struct LoopStats {
    /// Per answered request: seconds from the loop's start to the
    /// answer, latency in microseconds, and queries answered correctly.
    completed: Vec<(f64, f64, u32)>,
    attempted: u64,
    failed: u64,
    elapsed: Duration,
    /// Hot reloads made beside the clients.
    reloads: usize,
    /// Steal ticks during each whole window.
    window_steal: Vec<u64>,
}

/// One whole window of a timed loop.
#[derive(Debug, Clone)]
struct Window {
    qps: f64,
    latency: Latency,
    steal: u64,
}

/// Length of the windows a timed loop is cut into.
const WINDOW_S: f64 = 0.5;

impl LoopStats {
    fn new() -> LoopStats {
        LoopStats {
            completed: Vec::new(),
            attempted: 0,
            failed: 0,
            elapsed: Duration::ZERO,
            reloads: 0,
            window_steal: Vec::new(),
        }
    }

    /// Record an answered request and check it bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn answered(
        &mut self,
        trace: &mut Trace,
        origin: Instant,
        pos: usize,
        sent: Instant,
        done: Instant,
        got: &[Ranked],
        want: &[Ranked],
    ) {
        trace.record("client.request", None, Some(pos as u64), sent, done);
        let right = got.len() == want.len() && got.iter().zip(want).all(|(g, w)| same_bits(g, w));
        if !right {
            self.failed += want.len() as u64;
        }
        self.completed.push((
            (done - origin).as_secs_f64(),
            (done - sent).as_nanos() as f64 / 1e3,
            if right { want.len() as u32 } else { 0 },
        ));
    }

    fn throughput(&self) -> f64 {
        let answered: u64 = self.completed.iter().map(|c| c.2 as u64).sum();
        answered as f64 / self.elapsed.as_secs_f64()
    }

    /// Throughput, latency and steal of each whole window with answers.
    fn windows(&self, length: Duration) -> Vec<Window> {
        let count = window_count(length).max(1);
        let mut answered = vec![0u64; count];
        let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); count];
        for &(at, latency, ok) in &self.completed {
            let window = (at / WINDOW_S) as usize;
            if window < count {
                answered[window] += ok as u64;
                latencies[window].push(latency);
            }
        }
        answered
            .into_iter()
            .zip(latencies)
            .enumerate()
            .filter(|(_, (_, l))| !l.is_empty())
            .map(|(i, (n, l))| Window {
                qps: n as f64 / WINDOW_S,
                latency: Latency::of(&l),
                steal: self.window_steal.get(i).copied().unwrap_or(0),
            })
            .collect()
    }
}

/// Whole windows in a loop of `length`.
fn window_count(length: Duration) -> usize {
    (length.as_secs_f64() / WINDOW_S) as usize
}

/// What the main thread does while the clients run, in time order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tick {
    /// Read the steal counter at a window's end.
    Mark,
    /// Hot-reload a backend.
    Reload,
}

/// The main thread's schedule, as offsets from the loop's start: a mark
/// at every window's end and, on `Cold`, a reload every
/// [`RELOAD_EVERY`] before the loop's end. A mark comes before a reload
/// due at the same instant.
fn schedule(shape: Shape, length: Duration) -> Vec<(Duration, Tick)> {
    let window = Duration::from_secs_f64(WINDOW_S);
    let mut ticks: Vec<(Duration, Tick)> = (1..=window_count(length) as u32)
        .map(|k| (window * k, Tick::Mark))
        .collect();
    if shape == Shape::Cold {
        let mut at = RELOAD_EVERY;
        while at < length {
            ticks.push((at, Tick::Reload));
            at += RELOAD_EVERY;
        }
    }
    ticks.sort();
    ticks
}

/// One client's closed loop: keep `depth` requests in flight, send the
/// next only after the oldest is answered, stop sending at `deadline`.
fn client_loop(
    client: &mut Client,
    stream: &Stream,
    depth: usize,
    origin: Instant,
    deadline: Instant,
    trace: &mut Trace,
) -> LoopStats {
    let mut stats = LoopStats::new();
    let n = stream.units.len();
    let mut next = 0usize;
    let mut inflight: VecDeque<(u64, Instant, usize)> = VecDeque::with_capacity(depth);
    loop {
        let sent = Instant::now();
        if inflight.len() < depth && sent < deadline {
            let pos = next % n;
            next += 1;
            let unit = &stream.units[pos];
            stats.attempted += unit.len() as u64;
            let want = &stream.expected[pos];
            if depth > 1 {
                match client.predict_send(None, &unit[0]) {
                    Ok(id) => inflight.push_back((id, sent, pos)),
                    Err(_) => {
                        stats.failed += unit.len() as u64;
                        break;
                    }
                }
                continue;
            }
            let answers = if unit.len() == 1 {
                client.predict(&unit[0]).map(|r| vec![r])
            } else {
                client.predict_batch(unit)
            };
            match answers {
                Ok(got) => stats.answered(trace, origin, pos, sent, Instant::now(), &got, want),
                Err(_) => {
                    stats.failed += unit.len() as u64;
                    break;
                }
            }
            continue;
        }
        let Some((id, sent, pos)) = inflight.pop_front() else {
            break;
        };
        match client.predict_recv(id) {
            Ok(got) => {
                let done = Instant::now();
                let want = &stream.expected[pos];
                stats.answered(
                    trace,
                    origin,
                    pos,
                    sent,
                    done,
                    std::slice::from_ref(&got),
                    want,
                );
            }
            Err(_) => {
                stats.failed += 1 + inflight.len() as u64;
                break;
            }
        }
    }
    stats
}

/// Run every client for `length` (plus a reloader thread on `Cold`) and
/// merge what they measured; the clients' spans go into `trace`.
fn timed_loop(
    shape: Shape,
    stack: &Stack,
    clients: &mut [Client],
    streams: &[Stream],
    length: Duration,
    trace: &mut Trace,
) -> LoopStats {
    let start_line = Barrier::new(clients.len() + 1);
    let forks: Vec<Trace> = (0..clients.len() + 1).map(|_| trace.fork()).collect();
    let (per_thread, elapsed, reloads, window_steal, reload_trace) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .zip(forks)
            .map(|((client, stream), mut fork)| {
                let start_line = &start_line;
                scope.spawn(move || {
                    start_line.wait();
                    let origin = Instant::now();
                    let stats = client_loop(
                        client,
                        stream,
                        shape.depth(),
                        origin,
                        origin + length,
                        &mut fork,
                    );
                    (stats, fork)
                })
            })
            .collect();
        let mut reload_fork = trace.fork();
        start_line.wait();
        let started = Instant::now();
        let mut marks = vec![steal::ticks()];
        // The write path beside the reads (`Cold`): reload one backend
        // from the same bytes on a fixed cadence until the clients stop.
        let mut reloads = 0;
        for (at, tick) in schedule(shape, length) {
            std::thread::sleep((started + at).saturating_duration_since(Instant::now()));
            match tick {
                Tick::Mark => marks.push(steal::ticks()),
                Tick::Reload => {
                    reload(&mut reload_fork, &stack.backends[0], &stack.bytes);
                    reloads += 1;
                }
            }
        }
        let window_steal: Vec<u64> = marks
            .windows(2)
            .map(|m| m[1].saturating_sub(m[0]))
            .collect();
        let per_thread: Vec<(LoopStats, Trace)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (
            per_thread,
            started.elapsed(),
            reloads,
            window_steal,
            reload_fork,
        )
    });
    let mut merged = LoopStats {
        elapsed,
        reloads,
        window_steal,
        ..LoopStats::new()
    };
    for (stats, fork) in per_thread {
        merged.completed.extend(stats.completed);
        merged.attempted += stats.attempted;
        merged.failed += stats.failed;
        trace.absorb(fork);
    }
    trace.absorb(reload_trace);
    merged
}

/// Hot-reload a backend from snapshot bytes, in a span.
fn reload(trace: &mut Trace, backend: &Backend, bytes: &[u8]) {
    trace.span("reload", None, |trace, id| {
        backend.server.reload(load(trace, id, bytes));
    });
}

struct Prepared {
    stack: Stack,
    clients: Vec<Client>,
    streams: Vec<Stream>,
    coverage_pct: f64,
    bandwidth_scans: f64,
}

/// Set up a serving workload: inputs, training, snapshot, servers,
/// router and the clients' connections, each in a span; then traffic and
/// expected answers (outside any set-up timing). `train` runs the
/// pipeline and returns its result and wall time.
fn prepare(
    shape: Shape,
    seed: u64,
    trace: &mut Trace,
    setup_s: &mut Vec<(f64, u64)>,
    mut train: impl FnMut(&mut Trace, Option<usize>, &Inputs) -> (GpsRun, (f64, u64)),
) -> (Prepared, Vec<(f64, u64)>) {
    let mut pipeline_s = Vec::new();
    let mut kept = None;
    // `setup_s` is a median over several set-ups, each timed with the
    // steal it suffered; the traced run's per-layer figures come from one.
    let repeats = if trace.enabled() {
        1
    } else {
        shape.setup_repeats()
    };
    for _ in 0..repeats {
        drop(kept.take());
        let steal_before = steal::ticks();
        let started = Instant::now();
        let (parts, _) = trace.span("setup", None, |trace, id| {
            let inputs = pipeline::inputs(CLI_SEED, shape.blocks(), trace, id);
            let (run, train_s) = train(trace, id, &inputs);
            pipeline_s.push(train_s);
            let stack = start_stack(trace, id, &run, shape.backends(), shape == Shape::Cold);
            let clients: Vec<Client> = (0..shape.clients())
                .map(|_| client(stack.front()))
                .collect();
            (inputs, run, stack, clients)
        });
        setup_s.push((
            started.elapsed().as_secs_f64(),
            steal::ticks().saturating_sub(steal_before),
        ));
        kept = Some(parts);
    }
    let (inputs, run, stack, clients) = kept.expect("at least one set-up");
    let oracle = decode(&stack.bytes);
    let streams = streams(shape, &inputs, seed, &oracle);
    let prepared = Prepared {
        stack,
        clients,
        streams,
        coverage_pct: 100.0 * run.fraction_of_services(),
        bandwidth_scans: run.total_scans(),
    };
    (prepared, pipeline_s)
}

/// `serve-hot` / `serve-cold` with tracing off.
pub fn run(options: &Options, shape: Shape) -> Outcome {
    let mut outcome = Outcome::new();
    let mut off = Trace::new(Instant::now(), false);
    let mut setup_s = Vec::new();
    let (mut prepared, pipeline_s) = prepare(
        shape,
        options.seed,
        &mut off,
        &mut setup_s,
        |_, _, inputs| {
            let (run, seconds, stolen) = steal::timed(|| {
                gps_core::run_gps(&inputs.net, &inputs.dataset, &pipeline::config())
            });
            (run, (seconds, stolen))
        },
    );
    let Prepared {
        stack,
        clients,
        streams,
        ..
    } = &mut prepared;
    timed_loop(shape, stack, clients, streams, WARMUP, &mut off);
    let length = Duration::from_secs(options.seconds);
    let stats = timed_loop(shape, stack, clients, streams, length, &mut off);
    outcome.attempted += stats.attempted;
    outcome.failed += stats.failed;
    let windows = stats.windows(length);
    // Medians over the windows that suffered no more steal than the
    // median window, so that a burst of CPU steal on a shared host does
    // not move a run's figures.
    let quiet = steal::quiet(
        &windows
            .iter()
            .map(|w| (w.clone(), w.steal))
            .collect::<Vec<_>>(),
    );
    let of_quiet = |f: fn(&Window) -> f64| median(&quiet.iter().map(f).collect::<Vec<_>>());
    outcome.set("setup_s", steal::quiet_median(&setup_s));
    outcome.set("pipeline_s", steal::quiet_median(&pipeline_s));
    outcome.set("coverage_pct", prepared.coverage_pct);
    outcome.set("bandwidth_scans", prepared.bandwidth_scans);
    outcome.set("throughput_qps", of_quiet(|w| w.qps));
    outcome.set("latency_p50_us", of_quiet(|w| w.latency.p50));
    outcome.set("latency_p99_us", of_quiet(|w| w.latency.p99));
    let whole = Latency::of(&stats.completed.iter().map(|c| c.1).collect::<Vec<_>>());
    let mut run = Json::obj();
    run.set("windows", Json::Num(windows.len() as f64))
        .set("throughput_qps", stats.throughput())
        .set("samples", Json::Num(whole.samples as f64))
        .set("p50_us", whole.p50)
        .set("p99_us", whole.p99);
    if let Some((p, value)) = whole.tail {
        run.set("tail_percentile", p).set("tail_us", value);
    }
    outcome.detail("whole_run", run);
    let per_window = |f: fn(&Window) -> f64| -> Json {
        Json::Arr(windows.iter().map(|w| Json::Num(f(w))).collect())
    };
    outcome.detail("window_qps", per_window(|w| w.qps));
    outcome.detail("window_p50_us", per_window(|w| w.latency.p50));
    outcome.detail("window_p99_us", per_window(|w| w.latency.p99));
    outcome.detail("window_steal_ticks", per_window(|w| w.steal as f64));
    outcome.detail("quiet_windows", Json::Num(quiet.len() as f64));
    outcome.detail(
        "latency_unit",
        if shape == Shape::Hot {
            "request"
        } else {
            "batch of 64"
        },
    );
    outcome.detail("reloads", Json::Num(stats.reloads as f64));
    outcome.detail("setup_repeats", Json::Num(setup_s.len() as f64));
    outcome.detail("backends", Json::Num(shape.backends() as f64));
    outcome
}

/// `serve-hot` / `serve-cold` traced: set-up and training in spans, the
/// workload loop untraced and then traced (the difference is the tracing
/// overhead), then the serving layers one by one.
pub fn traced(options: &Options, shape: Shape) -> (Outcome, Trace) {
    let mut outcome = Outcome::new();
    let mut trace = Trace::new(Instant::now(), true);
    let mut setup_s = Vec::new();
    let (mut prepared, _) = prepare(
        shape,
        options.seed,
        &mut trace,
        &mut setup_s,
        |trace, id, inputs| {
            let (run, untraced_s, _) = pipeline::traced_training(trace, id, &mut outcome, inputs);
            (run, (untraced_s, 0))
        },
    );
    let Prepared {
        stack,
        clients,
        streams,
        ..
    } = &mut prepared;
    let off_trace = &mut Trace::new(Instant::now(), false);
    let half = Duration::from_secs(options.seconds.max(2)) / 2;
    timed_loop(shape, stack, clients, streams, WARMUP, off_trace);
    let untraced = timed_loop(shape, stack, clients, streams, half, off_trace);
    for backend in &stack.backends {
        backend.server.reset_stats();
    }
    let traced = timed_loop(shape, stack, clients, streams, half, &mut trace);
    backend_window(&mut outcome, stack);
    for stats in [&untraced, &traced] {
        outcome.attempted += stats.attempted;
        outcome.failed += stats.failed;
    }
    outcome.set(
        "trace.overhead_pct",
        100.0 * (untraced.throughput() / traced.throughput() - 1.0),
    );
    serving_layers(&mut trace, &mut outcome, shape, stack, &streams[0]);
    (outcome, trace)
}

/// `pipeline` traced: set-up and training in spans (the replica traced
/// against the replica untraced gives the tracing overhead), then the
/// serving layers on the model it trained, with `serve-cold`'s traffic
/// shape, one backend and the router.
pub fn traced_pipeline(options: &Options) -> (Outcome, Trace) {
    let mut outcome = Outcome::new();
    let mut trace = Trace::new(Instant::now(), true);
    let (inputs, _) = trace.span("setup", None, |trace, id| {
        pipeline::inputs(options.seed, CLI_BLOCKS, trace, id)
    });
    let (run, untraced_s, traced_s) =
        pipeline::traced_training(&mut trace, None, &mut outcome, &inputs);
    outcome.set("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0));
    let stack = start_stack(&mut trace, None, &run, 1, true);
    drop(run);
    let oracle = decode(&stack.bytes);
    let streams = streams(Shape::Cold, &inputs, options.seed, &oracle);
    for backend in &stack.backends {
        backend.server.reset_stats();
    }
    serving_layers(&mut trace, &mut outcome, Shape::Cold, &stack, &streams[0]);
    backend_window(&mut outcome, &stack);
    (outcome, trace)
}

/// Counters the backends report through their public stats, summed over
/// backends, since their last `reset_stats`.
fn backend_window(outcome: &mut Outcome, stack: &Stack) {
    let (mut hits, mut misses, mut l1, mut requests, mut batches) = (0, 0, 0, 0, 0);
    let (mut accepted, mut rejected, mut timed_out) = (0, 0, 0);
    let mut hist = gps_types::HistogramSnapshot::default();
    for backend in &stack.backends {
        let stats = backend.server.stats();
        hits += stats.cache_hits;
        misses += stats.cache_misses;
        l1 += stats.l1_hits;
        requests += stats.requests;
        batches += stats.batches;
        accepted += stats.conns_accepted;
        rejected += stats.conns_rejected;
        timed_out += stats.conns_timed_out;
        hist.merge(&stats.merged_hist(Some("gpsq"), None));
    }
    let lookups = (hits + misses).max(1) as f64;
    outcome.set("server.cache_hit_ratio", hits as f64 / lookups);
    outcome.set("server.l1_hit_ratio", l1 as f64 / lookups);
    outcome.set(
        "server.requests_per_batch",
        requests as f64 / batches.max(1) as f64,
    );
    outcome.set("server.hist_p50_us", hist.percentile(0.50) as f64 / 1e3);
    outcome.set("server.hist_p99_us", hist.percentile(0.99) as f64 / 1e3);
    outcome.set("net.conns_accepted", accepted as f64);
    outcome.set("net.conns_rejected", rejected as f64);
    outcome.set("net.conns_timed_out", timed_out as f64);
}

/// Send the first requests of `stream` to each serving entry point in
/// turn, from the inside out, and time them per request: the kernel
/// (`ServableModel::predict_with`), the in-process server, a direct GPSQ
/// client of one backend, and a GPSQ client of the router. Before each
/// entry point's timed pass, `Hot` streams make one untimed pass (so
/// caches hold the answers) and `Cold` streams reload every backend (so
/// caches hold nothing of the current generation). Then reloads on their
/// own, and every per-layer metric that the spans give.
fn serving_layers(
    trace: &mut Trace,
    outcome: &mut Outcome,
    shape: Shape,
    stack: &Stack,
    stream: &Stream,
) {
    let n = shape.peel_len().min(stream.units.len());
    let (units, expected) = (&stream.units[..n], &stream.expected[..n]);
    let oracle = decode(&stack.bytes);
    let backend = &stack.backends[0];
    // `serve-hot` and `pipeline` stacks have no router of their own.
    let extra_router = stack
        .router
        .is_none()
        .then(|| start_router(trace, None, &stack.backends));
    let router_handle = stack
        .router
        .as_ref()
        .or(extra_router.as_ref())
        .expect("a router either way");
    let mut direct = client(backend.addr);
    let mut routed = client(router_handle.addr());

    let mut scratch = PredictScratch::default();
    let mut kernel_ns = Vec::new();
    for query in units.iter().flatten() {
        let started = Instant::now();
        std::hint::black_box(oracle.predict_with(&mut scratch, query));
        kernel_ns.push(started.elapsed().as_nanos() as f64);
    }
    let kernel = peel_stage(
        trace,
        outcome,
        "kernel",
        shape,
        stack,
        units,
        expected,
        |unit| {
            Ok(unit
                .iter()
                .map(|q| oracle.predict_with(&mut scratch, q))
                .collect::<Vec<Ranked>>())
        },
    );
    let server = peel_stage(
        trace,
        outcome,
        "server.predict",
        shape,
        stack,
        units,
        expected,
        |unit| {
            Ok(if unit.len() == 1 {
                vec![backend
                    .server
                    .predict(unit.into_iter().next().expect("one query"))]
            } else {
                backend.server.predict_batch(unit)
            })
        },
    );
    let net = peel_stage(
        trace,
        outcome,
        "net.rtt",
        shape,
        stack,
        units,
        expected,
        |unit| {
            if unit.len() == 1 {
                direct.predict(&unit[0]).map(|r| vec![r])
            } else {
                direct.predict_batch(&unit)
            }
        },
    );
    let router = peel_stage(
        trace,
        outcome,
        "router.rtt",
        shape,
        stack,
        units,
        expected,
        |unit| {
            if unit.len() == 1 {
                routed.predict(&unit[0]).map(|r| vec![r])
            } else {
                routed.predict_batch(&unit)
            }
        },
    );
    for _ in 0..RELOAD_STAGE {
        reload(trace, backend, &stack.bytes);
    }

    let peel = Peel {
        kernel: mean(&kernel),
        server: mean(&server),
        net: mean(&net),
        router: mean(&router),
    };
    let sum: f64 = peel.parts().iter().sum();
    outcome.check((sum - peel.router).abs() <= 1e-9 * peel.router.abs().max(1.0));
    let kernel_ns = Latency::of(&kernel_ns);
    outcome.set("kernel.predict_ns_p50", kernel_ns.p50);
    outcome.set("kernel.predict_ns_p99", kernel_ns.p99);
    outcome.set("kernel.request_us", peel.kernel);
    let server = Latency::of(&server);
    outcome.set("server.predict_us_p50", server.p50);
    outcome.set("server.predict_us_p99", server.p99);
    outcome.set("server.engine_us", peel.engine());
    let net = Latency::of(&net);
    outcome.set("net.rtt_us_p50", net.p50);
    outcome.set("net.rtt_us_p99", net.p99);
    outcome.set("net.wire_us", peel.wire());
    let router = Latency::of(&router);
    outcome.set("router.rtt_us_p50", router.p50);
    outcome.set("router.rtt_us_p99", router.p99);
    outcome.set("router.rtt_us_mean", peel.router);
    outcome.set("router.hop_us", peel.hop());
    let mut peeled = Json::obj();
    peeled
        .set("requests", Json::Num(n as f64))
        .set("queries_per_request", Json::Num(shape.batch() as f64))
        .set("kernel_us", peel.kernel)
        .set("engine_us", peel.engine())
        .set("wire_us", peel.wire())
        .set("hop_us", peel.hop())
        .set("parts_sum_us", sum)
        .set("router_rtt_mean_us", peel.router);
    outcome.detail("peel", peeled);

    outcome.set("router.retries", router_handle.retries_total() as f64);
    outcome.set("router.shed", router_handle.shed_total() as f64);
    let forwarded: Vec<f64> = router_handle
        .stats_json()
        .get("router")
        .and_then(|r| r.get("backends"))
        .and_then(Json::as_arr)
        .map(|backends| {
            backends
                .iter()
                .map(|b| b.get("forwarded").and_then(Json::as_f64).unwrap_or(0.0))
                .collect()
        })
        .unwrap_or_default();
    let total: f64 = forwarded.iter().sum();
    let busiest = forwarded.iter().copied().fold(0.0, f64::max);
    outcome.set("router.backend_share", busiest / total.max(1.0));

    let ms =
        |name: &str| -> Vec<f64> { trace.durations_ns(name).iter().map(|ns| ns / 1e6).collect() };
    let reloads = ms("reload");
    outcome.set("reload.ms_p50", median(&reloads));
    outcome.set("reload.ms_max", reloads.iter().copied().fold(0.0, f64::max));
    outcome.set("reload.count", reloads.len() as f64);
    outcome.set("snapshot.encode_ms", median(&ms("snapshot.encode")));
    outcome.set("snapshot.decode_ms", median(&ms("snapshot.decode")));
    outcome.set("artifact.load_ms", median(&ms("artifact.load")));
    outcome.set("snapshot.bytes", stack.bytes.len() as f64);
    outcome.set("synthnet.generate_s", trace.total_s("synthnet.generate"));
    outcome.set("dataset.build_s", trace.total_s("dataset.build"));
}

/// Time each request of `units` at one entry point, in a span carrying
/// the request's index, and check every answer. Returns microseconds per
/// request.
#[allow(clippy::too_many_arguments)]
fn peel_stage<R: Borrow<Ranked>>(
    trace: &mut Trace,
    outcome: &mut Outcome,
    name: &'static str,
    shape: Shape,
    stack: &Stack,
    units: &[Vec<Query>],
    expected: &[Vec<Ranked>],
    mut answer: impl FnMut(Vec<Query>) -> std::io::Result<Vec<R>>,
) -> Vec<f64> {
    match shape {
        Shape::Hot => {
            for unit in units {
                let _ = answer(unit.clone());
            }
        }
        Shape::Cold => {
            for backend in &stack.backends {
                backend.server.reload(decode(&stack.bytes));
            }
        }
    }
    let mut us = Vec::with_capacity(units.len());
    for (i, (unit, want)) in units.iter().zip(expected).enumerate() {
        let request = unit.clone();
        let started = Instant::now();
        let got = answer(request);
        let done = Instant::now();
        trace.record(name, None, Some(i as u64), started, done);
        us.push((done - started).as_nanos() as f64 / 1e3);
        let wrong = match got {
            Ok(got) => {
                got.len() != want.len()
                    || !got.iter().zip(want).all(|(g, w)| same_bits(g.borrow(), w))
            }
            Err(_) => true,
        };
        outcome.attempted += unit.len() as u64;
        outcome.failed += if wrong { unit.len() as u64 } else { 0 };
    }
    us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cut_the_loop_into_half_seconds() {
        let mut stats = LoopStats::new();
        stats.completed = vec![
            (0.1, 100.0, 64),
            (0.2, 300.0, 64),
            (0.7, 200.0, 0),
            (1.2, 900.0, 64),
        ];
        stats.window_steal = vec![3, 7];
        let windows = stats.windows(Duration::from_secs(1));
        assert_eq!(
            windows.len(),
            2,
            "answers after the loop's end are left out"
        );
        assert_eq!(windows[0].qps, 128.0 / WINDOW_S);
        assert_eq!(windows[0].latency.p50, 100.0);
        assert_eq!(windows[0].latency.p99, 300.0);
        assert_eq!(windows[0].steal, 3);
        assert_eq!(windows[1].qps, 0.0, "a wrong answer is not throughput");
        assert_eq!(windows[1].latency.samples, 1);
        assert_eq!(windows[1].steal, 7);
    }

    #[test]
    fn schedule_marks_windows_before_reloads() {
        let ms = Duration::from_millis;
        let cold = schedule(Shape::Cold, Duration::from_secs(1));
        assert_eq!(
            cold,
            vec![
                (ms(250), Tick::Reload),
                (ms(500), Tick::Mark),
                (ms(500), Tick::Reload),
                (ms(750), Tick::Reload),
                (ms(1000), Tick::Mark),
            ]
        );
        assert_eq!(schedule(Shape::Hot, ms(300)), vec![]);
        assert_eq!(
            schedule(Shape::Hot, ms(1200)),
            vec![(ms(500), Tick::Mark), (ms(1000), Tick::Mark)]
        );
    }
}
