//! # gps-serve
//!
//! The prediction-serving subsystem: GPS's trained artifacts, persisted by
//! `gps-core`'s [`snapshot`](gps_core::snapshot) layer, loaded behind a
//! long-lived server that answers "which ports should I probe on
//! this IP?" queries at wire speed.
//!
//! The paper's pitch is that the conditional-probability model makes
//! all-port discovery cheap to *compute* (13 minutes on a parallel engine,
//! §6.5); an LZR-style deployment then needs those predictions *on
//! demand*, per target, for as long as the model stays fresh. This crate
//! is that missing half:
//!
//! - [`artifact`] — [`ServableModel`]: a loaded snapshot in query form
//!   (cold queries rank §5.3 priors by subnet; warm queries expand
//!   observed ports through the §5.4 rules);
//! - [`server`] — [`PredictionServer`]: a *registry* of named models
//!   (one per scan universe/day — compare quick vs full or LZR-filtered
//!   vs raw from one process), answered inline on the thread that decoded
//!   each request, [`ServerStats`] counters with a per-model breakdown,
//!   and zero-downtime snapshot hot-reload (epoch-published models + the
//!   [`watch_snapshot_file`] control path covering every registered
//!   snapshot file);
//! - [`proto`] — a length-prefixed JSON frame protocol over TCP plus the
//!   blocking [`Client`] used by `gps query` and the loadgen bench;
//! - [`transport`] / [`net`] — how connections are driven: one thread
//!   per connection (default) or the event-driven multiplexed transport
//!   (`--transport events`: epoll/poll readiness loops, incremental
//!   frame decoding) for C10K-scale fan-in,
//!   both behind the same request core and both honoring `--max-conns`
//!   and `--idle-timeout`.
//!
//! ## Quick start
//!
//! ```
//! use gps_serve::{PredictionServer, Query, ServableModel, ServeConfig};
//! use gps_core::{censys_dataset, run_gps, GpsConfig, ModelSnapshot};
//! use gps_synthnet::{Internet, UniverseConfig};
//!
//! // Train on a tiny universe and package the artifacts.
//! let net = Internet::generate(&UniverseConfig::tiny(7));
//! let dataset = censys_dataset(&net, 100, 0.05, 0, 1);
//! let config = GpsConfig { seed_fraction: 0.05, step_prefix: 20, ..GpsConfig::default() };
//! let run = run_gps(&net, &dataset, &config);
//! let snapshot = ModelSnapshot::from_run(&run, &config, 7);
//!
//! // Serve it.
//! let server = PredictionServer::start(
//!     ServableModel::from_snapshot(snapshot),
//!     ServeConfig { default_top: 8, ..ServeConfig::default() },
//! );
//! let ip = gps_types::Ip(net.host_ips()[0]);
//! let ranked = server.predict(Query::new(ip));
//! println!("predicted {} candidate ports for {ip}", ranked.len());
//! ```

pub mod artifact;
pub mod hist;
pub mod net;
pub mod proto;
pub mod query_log;
pub mod router;
pub mod server;
pub mod transport;
mod wire;

pub use artifact::{PredictScratch, Query, Ranked, ReferenceModel, ServableModel};
pub use hist::{EndpointLabel, HistogramSet, LatencyHistogram, WireLabel};
pub use net::{DecodeError, FrameDecoder, WireFormat};
pub use proto::{serve_tcp, Client, ClientConfig, ClientError, ReloadOutcome};
pub use query_log::QueryLog;
pub use router::{Router, RouterConfig, RouterHandle};
pub use server::{
    validate_model_id, watch_snapshot_file, ModelStatsSnapshot, PredictionServer, ReloadWatcher,
    ServeConfig, ServerStats, StatsSnapshot, DEFAULT_MODEL_ID, MAX_MODEL_ID_LEN,
};
pub use transport::{serve, serve_with_http, Transport, TransportConfig};
