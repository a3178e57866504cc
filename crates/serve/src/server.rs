//! The long-lived prediction server.
//!
//! [`PredictionServer::start_named`] loads a *registry* of
//! [`ServableModel`]s — one per scan universe/day, keyed by a caller-chosen
//! model id — and answers [`predict_for`](PredictionServer::predict_for) /
//! [`predict_batch_for`](PredictionServer::predict_batch_for) calls. The
//! first registered model is the *default*: the id-less API
//! ([`predict`](PredictionServer::predict),
//! [`reload`](PredictionServer::reload), ...) and id-less wire frames
//! route to it, so a single-model deployment behaves exactly as it did
//! before the registry existed. Counters accumulate globally in
//! [`ServerStats`] and per model in [`ModelStatsSnapshot`];
//! [`StatsSnapshot`] is the consistent read.
//!
//! ## Inline answering
//!
//! Every predict is computed on the thread that decoded it — an event
//! loop, a threads-transport connection thread, or an in-process caller —
//! through one function, `PredictionServer::answer`. The compiled kernel
//! answers a query in about 0.1–0.3 µs (§5.4's conditional probabilities
//! are precomputed; a query is a lookup), which is less than any answer
//! cache or cross-thread hop in front of it would cost, so there is none.
//! Each computing thread keeps one [`PredictScratch`] for its whole life.
//!
//! ## Hot reload
//!
//! Each registry entry publishes its model through an epoch slot
//! (`ModelSlot`): an `Arc<ServableModel>` plus a generation counter,
//! swapped together under one write lock.
//! [`PredictionServer::reload_model`] publishes a new model under an
//! existing id and bumps that id's generation; nothing else happens. A
//! request reads the `(generation, model)` pair once and computes all of
//! its queries on that epoch, so a reload never drops, fails or blocks a
//! query, and the old epoch is freed when the last request holding it
//! finishes. Two control paths trigger reloads in a deployment: the
//! `reload` wire command (`proto.rs`) and [`watch_snapshot_file`] — a
//! SIGHUP-style thread that polls every registered snapshot path and
//! reloads the one that changed (snapshot saves are write-then-rename, so
//! the watcher never reads a half-written file; the poll fingerprint
//! includes a content hash of the manifest header, so a same-size
//! overwrite inside the filesystem's mtime granularity is still seen).
//!
//! ## Registry membership
//!
//! [`load_model`](PredictionServer::load_model) /
//! [`unload_model`](PredictionServer::unload_model) add and remove ids at
//! runtime (the default model cannot be unloaded). An unloaded model's
//! memory is released when the last request answering on it finishes.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use crate::artifact::{PredictScratch, Query, Ranked, ServableModel};
use crate::hist::HistogramSet;
use crate::query_log::QueryLog;
use gps_core::snapshot::header_fingerprint;
use gps_core::ModelSnapshot;
use gps_types::json::Json;
use gps_types::{HistogramSnapshot, JsonCodec};

/// Queries [`PredictionServer::answer`] computes between two calls of its
/// `between` hook. A `MAX_BATCH_QUERIES` frame costs its event loop about
/// 14 ms of kernel time against about 9 ms to decode and encode it
/// (README, "Inline answering"), so the loop serves its other
/// connections every chunk, about 1 ms of kernel time.
pub(crate) const CHUNK_QUERIES: usize = 4096;

/// The model id the id-less API and id-less wire frames route to when the
/// server was started through the single-model constructors.
pub const DEFAULT_MODEL_ID: &str = "default";

/// Longest accepted model id (ids travel on the wire and key hash maps).
pub const MAX_MODEL_ID_LEN: usize = 64;

/// A usable registry key: nonempty, at most [`MAX_MODEL_ID_LEN`] bytes of
/// `[A-Za-z0-9._-]`. The charset keeps ids unambiguous in `name=path` CLI
/// arguments and shell-quotable in wire examples.
pub fn validate_model_id(id: &str) -> Result<(), String> {
    if id.is_empty() {
        return Err("model id must not be empty".to_string());
    }
    if id.len() > MAX_MODEL_ID_LEN {
        return Err(format!("model id exceeds {MAX_MODEL_ID_LEN} bytes"));
    }
    if !id
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
    {
        return Err(format!(
            "model id {id:?} has characters outside [A-Za-z0-9._-]"
        ));
    }
    Ok(())
}

/// Seconds since the Unix epoch (0 if the clock is before it).
pub(crate) fn unix_now_secs() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub(crate) fn unix_now_millis() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

thread_local! {
    /// The predict scratch of the current thread: every thread that
    /// computes answers (event loop, connection thread, in-process
    /// caller) allocates its dense accumulator on its first warm query
    /// and reuses it for the rest of its life.
    static SCRATCH: RefCell<PredictScratch> = RefCell::new(PredictScratch::default());
}

/// The epoch-published model: an `Arc` and the generation it was
/// published under, always read and written as a pair.
struct ModelSlot {
    current: RwLock<Arc<ServableModel>>,
    generation: AtomicU64,
}

impl ModelSlot {
    fn new(model: ServableModel) -> ModelSlot {
        ModelSlot {
            current: RwLock::new(Arc::new(model)),
            generation: AtomicU64::new(0),
        }
    }

    /// The published `(generation, model)` pair. Both are read under the
    /// read lock and [`publish`](Self::publish) changes both under the
    /// write lock, so the generation always names the model returned.
    fn load(&self) -> (u64, Arc<ServableModel>) {
        let current = self.current.read().expect("model slot lock");
        (self.generation.load(Ordering::Acquire), current.clone())
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Publish a new model and return the new generation. The generation
    /// bump happens while the write lock is still held, so concurrent
    /// publishers cannot interleave store and bump — the Nth store is
    /// the Nth generation.
    fn publish(&self, model: Arc<ServableModel>) -> u64 {
        let mut current = self.current.write().expect("model slot lock");
        *current = model;
        self.generation.fetch_add(1, Ordering::Release) + 1
    }
}

/// Per-model monotonic counters, bumped alongside the global
/// [`ServerStats`].
#[derive(Default)]
pub(crate) struct ModelCounters {
    pub requests: AtomicU64,
    pub reloads: AtomicU64,
    /// Unix seconds of the last completed reload (0 = never reloaded).
    pub last_reload_unix: AtomicU64,
    /// Per-(wire, endpoint) latency histograms, recorded by the
    /// transports at reply time.
    pub hists: HistogramSet,
}

/// One registered model: id, epoch slot, snapshot source path, and
/// counters.
pub(crate) struct ModelEntry {
    pub(crate) id: String,
    slot: ModelSlot,
    path: Mutex<Option<PathBuf>>,
    /// Serializes reloads of this model, so each reply's (generation,
    /// model) pair is the pair that reload actually published, and `path`
    /// always names the serving snapshot.
    reload_lock: Mutex<()>,
    pub(crate) counters: ModelCounters,
}

impl ModelEntry {
    fn new(id: &str, model: ServableModel, path: Option<PathBuf>) -> Arc<ModelEntry> {
        Arc::new(ModelEntry {
            id: id.to_string(),
            slot: ModelSlot::new(model),
            path: Mutex::new(path),
            reload_lock: Mutex::new(()),
            counters: ModelCounters::default(),
        })
    }

    pub(crate) fn generation(&self) -> u64 {
        self.slot.generation()
    }

    pub(crate) fn current(&self) -> Arc<ServableModel> {
        self.slot.load().1
    }

    fn path(&self) -> Option<PathBuf> {
        self.path.lock().expect("model path lock").clone()
    }

    fn set_path(&self, path: impl Into<PathBuf>) {
        *self.path.lock().expect("model path lock") = Some(path.into());
    }
}

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Accepted and ignored: answers are computed on the thread that
    /// decoded the request. Kept only so `perfbench/` compiles; the next
    /// benchmark change removes it.
    pub shards: usize,
    /// Predictions returned when a query doesn't say (`Query::top == 0`).
    pub default_top: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 0,
            default_top: 16,
        }
    }
}

/// Monotonic serving counters. Global across models; the per-model
/// breakdown lives in [`ModelStatsSnapshot`].
#[derive(Debug, Default)]
pub struct ServerStats {
    pub requests: AtomicU64,
    /// Time spent computing answers, summed over queries (a request's
    /// compute time counts once per query it carries).
    pub latency_ns_total: AtomicU64,
    pub latency_ns_max: AtomicU64,
    /// Server-level per-(wire, endpoint) latency histograms, recorded by
    /// the transports at reply time.
    pub hists: HistogramSet,
    /// Completed hot reloads since start, across every model.
    pub reloads: AtomicU64,
    /// Connections the serving transport accepted (either transport).
    pub conns_accepted: AtomicU64,
    /// Connections fully closed (clean EOF, error, or timeout alike).
    pub conns_closed: AtomicU64,
    /// Connections closed *because* they idled past the transport's idle
    /// timeout (also counted in `conns_closed`).
    pub conns_timed_out: AtomicU64,
    /// Connections dropped at accept because `max_conns` was reached
    /// (never counted in `conns_accepted`).
    pub conns_rejected: AtomicU64,
    /// Set by the `shutdown` admin command: the server stops admitting
    /// new connections, finishes in-flight replies, and closes. Both
    /// transports consult it through [`try_admit`](Self::try_admit).
    pub(crate) draining: AtomicBool,
}

impl ServerStats {
    /// The accept-loop gate both transports share: under `max_conns` the
    /// connection is counted accepted and admitted; at or over it, the
    /// rejection is counted and the caller drops the socket. Keeping the
    /// count-and-decide in one place keeps `--max-conns` semantics
    /// identical across transports.
    ///
    /// While the server drains, frame connections are rejected but HTTP
    /// (`is_http`) connections still get in — a health checker must be
    /// able to read the 503 `"draining"` answer, and curling `/metrics`
    /// mid-drain is how an operator watches the drain finish.
    pub(crate) fn try_admit(&self, max_conns: u64, is_http: bool) -> bool {
        let active = self
            .conns_accepted
            .load(Ordering::Relaxed)
            .saturating_sub(self.conns_closed.load(Ordering::Relaxed));
        let draining = self.draining.load(Ordering::Acquire) && !is_http;
        if draining || active >= max_conns {
            self.conns_rejected.fetch_add(1, Ordering::Relaxed);
            false
        } else {
            self.conns_accepted.fetch_add(1, Ordering::Relaxed);
            true
        }
    }

    /// Zero the traffic counters and histograms. Connection counters are
    /// deliberately spared: [`try_admit`](Self::try_admit) derives the
    /// active-connection count from `conns_accepted - conns_closed`, so
    /// zeroing those mid-serve would break `--max-conns`. `reloads`
    /// survives too — it describes configuration history, not traffic.
    fn reset_traffic(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.latency_ns_total.store(0, Ordering::Relaxed);
        self.latency_ns_max.store(0, Ordering::Relaxed);
        self.hists.reset();
    }
}

/// A point-in-time copy of one model's counters and identity.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStatsSnapshot {
    pub id: String,
    /// Whether the id-less API routes to this model.
    pub is_default: bool,
    /// 0 = the model this entry was registered with, +1 per reload.
    pub generation: u64,
    pub requests: u64,
    pub reloads: u64,
    /// Unix seconds of the last completed reload; `None` when this model
    /// has never been reloaded.
    pub last_reload_unix: Option<u64>,
    /// Where the served snapshot came from, when known.
    pub path: Option<String>,
    pub dataset: String,
    /// Manifest checksum of the serving snapshot.
    pub checksum: u64,
    pub num_rules: u64,
    pub num_priors: u64,
    /// Non-empty (wire, endpoint) latency histogram cells.
    pub hists: Vec<(&'static str, &'static str, HistogramSnapshot)>,
}

impl ModelStatsSnapshot {
    fn of(entry: &ModelEntry, is_default: bool) -> ModelStatsSnapshot {
        let (generation, model) = entry.slot.load();
        let manifest = model.manifest();
        let last_reload = entry.counters.last_reload_unix.load(Ordering::Relaxed);
        ModelStatsSnapshot {
            id: entry.id.clone(),
            is_default,
            generation,
            requests: entry.counters.requests.load(Ordering::Relaxed),
            reloads: entry.counters.reloads.load(Ordering::Relaxed),
            last_reload_unix: (last_reload != 0).then_some(last_reload),
            hists: nonempty_hists(&entry.counters.hists),
            path: entry.path().map(|p| p.display().to_string()),
            dataset: manifest.dataset_name.clone(),
            checksum: manifest.checksum,
            num_rules: manifest.num_rules as u64,
            num_priors: manifest.num_priors as u64,
        }
    }

    pub fn to_json(&self) -> Json {
        let mut json = Json::obj();
        json.set("default", self.is_default)
            .set("generation", Json::Num(self.generation as f64))
            .set("requests", Json::Num(self.requests as f64))
            .set("reloads", Json::Num(self.reloads as f64))
            .set("dataset", self.dataset.as_str())
            .set("checksum", gps_types::json::u64_to_hex(self.checksum))
            .set("num_rules", Json::Num(self.num_rules as f64))
            .set("num_priors", Json::Num(self.num_priors as f64));
        if let Some(last_reload) = self.last_reload_unix {
            json.set("last_reload_unix", Json::Num(last_reload as f64));
        }
        if let Some(path) = &self.path {
            json.set("path", path.as_str());
        }
        if !self.hists.is_empty() {
            json.set("hists", hists_to_json(&self.hists));
        }
        json
    }
}

/// Snapshot only the histogram cells that have recorded samples (a cell
/// for a wire the deployment never speaks stays out of `stats` replies).
fn nonempty_hists(set: &HistogramSet) -> Vec<(&'static str, &'static str, HistogramSnapshot)> {
    set.snapshot()
        .into_iter()
        .filter(|(_, _, snap)| snap.count > 0)
        .collect()
}

/// `{"<wire>/<endpoint>": {histogram}}` — the `stats` wire encoding of a
/// histogram cell list.
fn hists_to_json(hists: &[(&'static str, &'static str, HistogramSnapshot)]) -> Json {
    let mut json = Json::obj();
    for (wire, endpoint, snap) in hists {
        json.set(&format!("{wire}/{endpoint}"), snap.to_json());
    }
    json
}

/// A point-in-time copy of [`ServerStats`] plus derived rates and the
/// per-model breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// The serving crate's build version (`CARGO_PKG_VERSION`).
    pub version: String,
    pub requests: u64,
    /// Always 0: the server has no answer cache. Kept only so
    /// `perfbench/` compiles; the next benchmark change removes it.
    pub cache_hits: u64,
    /// Always 0: the server has no answer cache. Kept only so
    /// `perfbench/` compiles; the next benchmark change removes it.
    pub l1_hits: u64,
    /// Always 0: the server has no answer cache. Kept only so
    /// `perfbench/` compiles; the next benchmark change removes it.
    pub cache_misses: u64,
    /// Always 0: the server has no worker batches. Kept only so
    /// `perfbench/` compiles; the next benchmark change removes it.
    pub batches: u64,
    pub mean_latency_us: f64,
    pub max_latency_us: f64,
    pub uptime_secs: f64,
    /// Completed reloads across every model.
    pub reloads: u64,
    /// Transport connection counters (both transports feed them).
    pub conns_accepted: u64,
    pub conns_closed: u64,
    /// `conns_accepted - conns_closed` at snapshot time: connections the
    /// transport is holding right now.
    pub conns_active: u64,
    pub conns_timed_out: u64,
    pub conns_rejected: u64,
    /// Whether the server is draining (a `shutdown` command was
    /// accepted): no new connections are admitted.
    pub draining: bool,
    /// The *default* model's generation (0 = the model the server started
    /// with) — the pre-registry meaning, kept for wire compatibility.
    pub generation: u64,
    /// Non-empty server-level (wire, endpoint) latency histogram cells.
    pub hists: Vec<(&'static str, &'static str, HistogramSnapshot)>,
    /// Per-model counters, sorted by id.
    pub models: Vec<ModelStatsSnapshot>,
}

impl StatsSnapshot {
    pub fn to_json(&self) -> Json {
        let mut models = Json::obj();
        for model in &self.models {
            models.set(model.id.as_str(), model.to_json());
        }
        let mut json = Json::obj();
        json.set("version", self.version.as_str())
            .set("requests", Json::Num(self.requests as f64))
            .set("mean_latency_us", self.mean_latency_us)
            .set("max_latency_us", self.max_latency_us)
            .set("uptime_secs", self.uptime_secs)
            .set("reloads", Json::Num(self.reloads as f64))
            .set("conns_accepted", Json::Num(self.conns_accepted as f64))
            .set("conns_closed", Json::Num(self.conns_closed as f64))
            .set("conns_active", Json::Num(self.conns_active as f64))
            .set("conns_timed_out", Json::Num(self.conns_timed_out as f64))
            .set("conns_rejected", Json::Num(self.conns_rejected as f64))
            .set("draining", self.draining)
            .set("generation", Json::Num(self.generation as f64));
        if !self.hists.is_empty() {
            json.set("hists", hists_to_json(&self.hists));
        }
        json.set("models", models);
        json
    }

    /// The merged histogram over every cell matching `wire` and/or
    /// `endpoint` (`None` = all) — e.g. `(Some("gpsq"), None)` is the
    /// full GPSQ latency distribution. Empty when nothing matched.
    pub fn merged_hist(&self, wire: Option<&str>, endpoint: Option<&str>) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for (w, e, snap) in &self.hists {
            if wire.is_some_and(|want| want != *w) || endpoint.is_some_and(|want| want != *e) {
                continue;
            }
            merged.merge(snap);
        }
        merged
    }
}

/// A running, queryable prediction service over a registry of models.
pub struct PredictionServer {
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
    /// The entry id-less calls route to. Fixed at start; the entry itself
    /// is mutated by reloads (its slot), never replaced, so the hot path
    /// never takes the registry lock.
    default_entry: Arc<ModelEntry>,
    stats: Arc<ServerStats>,
    started: Instant,
    config: ServeConfig,
    /// The structured query log, when `--query-log` enabled it. Set once
    /// before serving starts; the hot path pays one pointer load when
    /// disabled.
    query_log: OnceLock<Arc<QueryLog>>,
}

impl PredictionServer {
    /// Return the ready server with a single model registered under
    /// [`DEFAULT_MODEL_ID`].
    pub fn start(model: ServableModel, config: ServeConfig) -> PredictionServer {
        Self::start_named(vec![(DEFAULT_MODEL_ID.to_string(), model)], config)
            .expect("default id is valid and unique")
    }

    /// Return the ready server with every given `(id, model)` registered.
    /// The first entry is the default model. Fails on an empty list, an
    /// invalid id, or a duplicate id.
    pub fn start_named(
        models: Vec<(String, ServableModel)>,
        config: ServeConfig,
    ) -> Result<PredictionServer, String> {
        let default_id = match models.first() {
            Some((id, _)) => id.clone(),
            None => return Err("at least one model is required".to_string()),
        };
        let mut map: HashMap<String, Arc<ModelEntry>> = HashMap::with_capacity(models.len());
        for (id, model) in models {
            validate_model_id(&id)?;
            if map
                .insert(id.clone(), ModelEntry::new(&id, model, None))
                .is_some()
            {
                return Err(format!("duplicate model id {id:?}"));
            }
        }
        Ok(PredictionServer {
            default_entry: map[&default_id].clone(),
            models: RwLock::new(map),
            stats: Arc::new(ServerStats::default()),
            started: Instant::now(),
            config,
            query_log: OnceLock::new(),
        })
    }

    /// Convenience: start with defaults.
    pub fn with_defaults(model: ServableModel) -> PredictionServer {
        Self::start(model, ServeConfig::default())
    }

    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The id the id-less API routes to (the first registered model).
    pub fn default_model_id(&self) -> &str {
        &self.default_entry.id
    }

    /// Every registered model id, sorted.
    pub fn model_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .models
            .read()
            .expect("registry lock")
            .keys()
            .cloned()
            .collect();
        ids.sort();
        ids
    }

    pub fn has_model(&self, id: &str) -> bool {
        self.entry(id).is_ok()
    }

    pub(crate) fn entry(&self, id: &str) -> Result<Arc<ModelEntry>, String> {
        self.models
            .read()
            .expect("registry lock")
            .get(id)
            .cloned()
            .ok_or_else(|| format!("unknown model {id:?}"))
    }

    /// Every registered entry, sorted by id.
    fn entries(&self) -> Vec<Arc<ModelEntry>> {
        let mut entries: Vec<Arc<ModelEntry>> = self
            .models
            .read()
            .expect("registry lock")
            .values()
            .cloned()
            .collect();
        entries.sort_by(|a, b| a.id.cmp(&b.id));
        entries
    }

    /// The entry the id-less API routes to (for the transports' shared
    /// request core).
    pub(crate) fn default_entry(&self) -> &Arc<ModelEntry> {
        &self.default_entry
    }

    /// The shared counters, for the transports (which account
    /// connections) — same allocation [`stats`](Self::stats) snapshots.
    pub(crate) fn server_stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// The currently published default model. Holders keep the epoch they
    /// grabbed alive; re-call to observe a reload.
    pub fn model(&self) -> Arc<ServableModel> {
        self.default_entry.current()
    }

    /// The currently published model registered under `id`.
    pub fn model_of(&self, id: &str) -> Result<Arc<ServableModel>, String> {
        Ok(self.entry(id)?.current())
    }

    /// The default model's generation: 0 at start, +1 per completed
    /// reload of that model.
    pub fn generation(&self) -> u64 {
        self.default_entry.generation()
    }

    pub fn generation_of(&self, id: &str) -> Result<u64, String> {
        Ok(self.entry(id)?.generation())
    }

    /// Record where the default model's snapshot lives on disk (the
    /// default source for [`reload_from_disk`](Self::reload_from_disk)
    /// and the file watcher).
    pub fn set_model_path(&self, path: impl Into<PathBuf>) {
        self.default_entry.set_path(path);
    }

    pub fn model_path(&self) -> Option<PathBuf> {
        self.default_entry.path()
    }

    pub fn set_model_path_of(&self, id: &str, path: impl Into<PathBuf>) -> Result<(), String> {
        self.entry(id)?.set_path(path);
        Ok(())
    }

    pub fn model_path_of(&self, id: &str) -> Result<Option<PathBuf>, String> {
        Ok(self.entry(id)?.path())
    }

    /// Register a new model under `id`, optionally recording the snapshot
    /// path it came from. Fails on an invalid or already-registered id —
    /// replacing an existing model is what
    /// [`reload_model`](Self::reload_model) is for.
    pub fn load_model(
        &self,
        id: &str,
        model: ServableModel,
        path: Option<PathBuf>,
    ) -> Result<(), String> {
        validate_model_id(id)?;
        let entry = ModelEntry::new(id, model, path);
        let mut models = self.models.write().expect("registry lock");
        if models.contains_key(id) {
            return Err(format!("model {id:?} is already loaded (use reload)"));
        }
        models.insert(id.to_string(), entry);
        Ok(())
    }

    /// Load a snapshot file and register it under `id`. The file is fully
    /// loaded and verified before the registry changes — a bad file
    /// leaves the registry untouched.
    pub fn load_model_from_disk(
        &self,
        id: &str,
        path: &Path,
    ) -> Result<Arc<ServableModel>, String> {
        validate_model_id(id)?;
        let snapshot =
            ModelSnapshot::load_serving(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let model = ServableModel::from_snapshot(snapshot);
        self.load_model(id, model, Some(path.to_path_buf()))?;
        self.model_of(id)
    }

    /// Remove `id` from the registry. Requests already answering on it
    /// finish normally; subsequent lookups fail with an unknown-model
    /// error. The default model cannot be unloaded — id-less callers must
    /// always have somewhere to land.
    pub fn unload_model(&self, id: &str) -> Result<(), String> {
        if id == self.default_entry.id {
            return Err(format!("cannot unload the default model {id:?}"));
        }
        match self.models.write().expect("registry lock").remove(id) {
            Some(_) => Ok(()),
            None => Err(format!("unknown model {id:?}")),
        }
    }

    /// Publish a new model under the default id with zero downtime and
    /// return the new generation. Requests already answering finish on
    /// the epoch they read; every later request reads the new one.
    pub fn reload(&self, model: ServableModel) -> u64 {
        self.reload_entry(&self.default_entry, model)
    }

    /// [`reload`](Self::reload) for an arbitrary registered id.
    pub fn reload_model(&self, id: &str, model: ServableModel) -> Result<u64, String> {
        Ok(self.reload_entry(&*self.entry(id)?, model))
    }

    fn reload_entry(&self, entry: &ModelEntry, model: ServableModel) -> u64 {
        let _guard = entry.reload_lock.lock().expect("reload lock");
        self.publish(entry, Arc::new(model))
    }

    /// The unlocked publish core; callers hold the entry's `reload_lock`.
    fn publish(&self, entry: &ModelEntry, model: Arc<ServableModel>) -> u64 {
        let generation = entry.slot.publish(model);
        self.stats.reloads.fetch_add(1, Ordering::Relaxed);
        entry.counters.reloads.fetch_add(1, Ordering::Relaxed);
        entry
            .counters
            .last_reload_unix
            .store(unix_now_secs(), Ordering::Relaxed);
        generation
    }

    /// Reload the default model from a snapshot file: `path` if given,
    /// else its recorded path. The snapshot is fully loaded and verified
    /// *before* anything is published — a bad file leaves the old model
    /// serving. On success the recorded path is updated to the source
    /// used, and the returned model is exactly the one this call
    /// published under the returned generation (concurrent reloads
    /// serialize per model).
    pub fn reload_from_disk(
        &self,
        path: Option<&Path>,
    ) -> Result<(u64, Arc<ServableModel>), String> {
        self.reload_entry_from_disk(&self.default_entry, path)
    }

    /// [`reload_from_disk`](Self::reload_from_disk) for an arbitrary
    /// registered id.
    pub fn reload_model_from_disk(
        &self,
        id: &str,
        path: Option<&Path>,
    ) -> Result<(u64, Arc<ServableModel>), String> {
        self.reload_entry_from_disk(&*self.entry(id)?, path)
    }

    fn reload_entry_from_disk(
        &self,
        entry: &ModelEntry,
        path: Option<&Path>,
    ) -> Result<(u64, Arc<ServableModel>), String> {
        let source = match path {
            Some(p) => p.to_path_buf(),
            None => entry
                .path()
                .ok_or_else(|| format!("no snapshot path recorded for model {:?}", entry.id))?,
        };
        // Load outside the lock (it is the expensive part); publish and
        // the path update inside it, so generation, served model, and
        // recorded path always agree.
        let snapshot = ModelSnapshot::load_serving(&source)
            .map_err(|e| format!("{}: {e}", source.display()))?;
        let model = Arc::new(ServableModel::from_snapshot(snapshot));
        let _guard = entry.reload_lock.lock().expect("reload lock");
        let generation = self.publish(entry, model.clone());
        entry.set_path(source);
        Ok((generation, model))
    }

    /// The one predict path, run on the calling thread with its
    /// thread-local scratch. Reads `entry`'s `(generation, model)` pair
    /// once and computes every query on that epoch, after filling in what
    /// a query leaves open — `top == 0` becomes
    /// [`ServeConfig::default_top`], and the evidence is sorted and
    /// deduplicated (the queries are updated in place, so a caller that
    /// logs them logs what was answered). `between` runs after every
    /// [`CHUNK_QUERIES`] queries of a bigger request: an event loop
    /// serves its other connections there. Returns the generation that
    /// computed the answers, and the answers in query order.
    pub(crate) fn answer(
        &self,
        entry: &ModelEntry,
        queries: &mut [Query],
        mut between: impl FnMut(),
    ) -> (u64, Vec<Ranked>) {
        let started = Instant::now();
        let mut paused = Duration::ZERO;
        let (generation, model) = entry.slot.load();
        let mut answers = Vec::with_capacity(queries.len());
        for (i, chunk) in queries.chunks_mut(CHUNK_QUERIES).enumerate() {
            if i > 0 {
                let yielded = Instant::now();
                between();
                paused += yielded.elapsed();
            }
            // Borrowed per chunk: `between` may answer another request
            // on this thread.
            SCRATCH.with(|scratch| {
                let scratch = &mut *scratch.borrow_mut();
                for query in chunk {
                    if query.top == 0 {
                        query.top = self.config.default_top;
                    }
                    query.open.sort_unstable();
                    query.open.dedup();
                    answers.push(model.predict_with(scratch, query));
                }
            });
        }
        let n = answers.len() as u64;
        if n > 0 {
            let latency_ns = started.elapsed().saturating_sub(paused).as_nanos() as u64;
            self.stats.requests.fetch_add(n, Ordering::Relaxed);
            self.stats
                .latency_ns_total
                .fetch_add(latency_ns.saturating_mul(n), Ordering::Relaxed);
            self.stats
                .latency_ns_max
                .fetch_max(latency_ns, Ordering::Relaxed);
            entry.counters.requests.fetch_add(n, Ordering::Relaxed);
        }
        (generation, answers)
    }

    /// Answer one query on the default model.
    pub fn predict(&self, query: Query) -> Ranked {
        self.predict_entry(&self.default_entry, query)
    }

    /// Answer one query on the model registered under `id`.
    pub fn predict_for(&self, id: &str, query: Query) -> Result<Ranked, String> {
        Ok(self.predict_entry(&*self.entry(id)?, query))
    }

    fn predict_entry(&self, entry: &ModelEntry, query: Query) -> Ranked {
        let (_, mut answers) = self.answer(entry, &mut [query], || {});
        answers.pop().expect("one answer per query")
    }

    /// Answer a batch on the default model, preserving input order.
    pub fn predict_batch(&self, mut queries: Vec<Query>) -> Vec<Ranked> {
        self.answer(&self.default_entry, &mut queries, || {}).1
    }

    /// Answer a batch on the model registered under `id`.
    pub fn predict_batch_for(
        &self,
        id: &str,
        mut queries: Vec<Query>,
    ) -> Result<Vec<Ranked>, String> {
        Ok(self.answer(&*self.entry(id)?, &mut queries, || {}).1)
    }

    /// One model's counters and identity.
    pub fn model_stats(&self, id: &str) -> Result<ModelStatsSnapshot, String> {
        let entry = self.entry(id)?;
        Ok(ModelStatsSnapshot::of(
            &entry,
            Arc::ptr_eq(&entry, &self.default_entry),
        ))
    }

    /// Consistent snapshot of the counters, including the per-model
    /// breakdown (sorted by id).
    pub fn stats(&self) -> StatsSnapshot {
        let requests = self.stats.requests.load(Ordering::Relaxed);
        let total_ns = self.stats.latency_ns_total.load(Ordering::Relaxed);
        let models: Vec<ModelStatsSnapshot> = self
            .entries()
            .iter()
            .map(|entry| ModelStatsSnapshot::of(entry, Arc::ptr_eq(entry, &self.default_entry)))
            .collect();
        // Server-level histograms: the transports record predict traffic
        // per model only (one hot-path update per request), so the
        // server totals are the models summed into the server-level set,
        // which itself holds just the admin samples.
        let mut cells = self.stats.hists.snapshot();
        for model in &models {
            for (wire, endpoint, snap) in &model.hists {
                if let Some(cell) = cells
                    .iter_mut()
                    .find(|(w, e, _)| w == wire && e == endpoint)
                {
                    cell.2.merge(snap);
                }
            }
        }
        let hists = cells.into_iter().filter(|(_, _, s)| s.count > 0).collect();
        StatsSnapshot {
            version: env!("CARGO_PKG_VERSION").to_string(),
            requests,
            cache_hits: 0,
            l1_hits: 0,
            cache_misses: 0,
            batches: 0,
            mean_latency_us: if requests == 0 {
                0.0
            } else {
                total_ns as f64 / requests as f64 / 1000.0
            },
            max_latency_us: self.stats.latency_ns_max.load(Ordering::Relaxed) as f64 / 1000.0,
            uptime_secs: self.started.elapsed().as_secs_f64(),
            reloads: self.stats.reloads.load(Ordering::Relaxed),
            conns_accepted: self.stats.conns_accepted.load(Ordering::Relaxed),
            conns_closed: self.stats.conns_closed.load(Ordering::Relaxed),
            conns_active: self
                .stats
                .conns_accepted
                .load(Ordering::Relaxed)
                .saturating_sub(self.stats.conns_closed.load(Ordering::Relaxed)),
            conns_timed_out: self.stats.conns_timed_out.load(Ordering::Relaxed),
            conns_rejected: self.stats.conns_rejected.load(Ordering::Relaxed),
            draining: self.is_draining(),
            generation: self.default_entry.generation(),
            hists,
            models,
        }
    }

    /// Zero every traffic counter and histogram — global and per model —
    /// leaving generations, registry membership, connection accounting,
    /// reload history, and uptime untouched (the `reset-stats` admin
    /// command). Counters mutate individually (no global stop-the-world),
    /// so a request racing the reset may land partially on either side —
    /// each counter is still individually consistent.
    pub fn reset_stats(&self) {
        self.stats.reset_traffic();
        for entry in self.entries() {
            entry.counters.requests.store(0, Ordering::Relaxed);
            entry.counters.hists.reset();
        }
    }

    /// Enter drain: stop admitting new connections (both transports'
    /// accept gates reject while draining), flush the query log so every
    /// already-served request is on disk, and let in-flight replies
    /// finish. Idempotent. The transports and the CLI watch
    /// [`is_draining`](Self::is_draining) to close connections and exit.
    pub fn begin_drain(&self) {
        self.stats.draining.store(true, Ordering::Release);
        if let Some(log) = self.query_log.get() {
            log.flush();
        }
    }

    /// Whether [`begin_drain`](Self::begin_drain) has been called.
    pub fn is_draining(&self) -> bool {
        self.stats.draining.load(Ordering::Acquire)
    }

    /// The configured query log, if any.
    pub(crate) fn query_log(&self) -> Option<&Arc<QueryLog>> {
        self.query_log.get()
    }

    /// Install the structured query log. May be called once; later calls
    /// return `false` and leave the original log in place.
    pub fn set_query_log(&self, log: Arc<QueryLog>) -> bool {
        self.query_log.set(log).is_ok()
    }

    /// Records dropped by the query log because its ring was full (0
    /// when no log is configured).
    pub fn query_log_dropped(&self) -> u64 {
        self.query_log.get().map_or(0, |log| log.dropped())
    }
}

/// Handle to a running [`watch_snapshot_file`] thread; dropping it stops
/// the watcher (joining the thread).
pub struct ReloadWatcher {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for ReloadWatcher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// What the watcher remembers about one snapshot file between polls.
#[derive(Clone, Copy, PartialEq)]
struct FileFingerprint {
    mtime: SystemTime,
    size: u64,
    /// FNV-1a over the manifest header bytes
    /// ([`gps_core::snapshot::header_fingerprint`]): a same-size overwrite
    /// landing inside the filesystem's mtime granularity still changes the
    /// manifest (its checksum field covers the body), so content changes
    /// are never silently missed.
    header: u64,
}

fn fingerprint_of(path: &Path) -> Option<FileFingerprint> {
    let meta = std::fs::metadata(path).ok()?;
    Some(FileFingerprint {
        mtime: meta.modified().ok()?,
        size: meta.len(),
        header: header_fingerprint(path).ok()?,
    })
}

/// Per-model poll state.
struct WatchState {
    path: PathBuf,
    fingerprint: Option<FileFingerprint>,
    generation: u64,
}

/// The SIGHUP-style control path: poll every registered model's recorded
/// snapshot file every `interval` and hot-reload the one that changes on
/// disk. Models loaded or unloaded while the watcher runs are picked up
/// at the next poll; a model first seen is baselined against its current
/// file state (the served model just came from it), not reloaded.
///
/// Snapshot saves are write-then-rename, so a change is observed as a new
/// (mtime, size, header hash) triple on a complete file — the watcher
/// never reads a half-written artifact. A file that fails to load
/// (checksum, version, io) is reported to stderr and *skipped*: the old
/// model keeps serving, and the bad state is remembered so the error is
/// not re-logged every poll until the file changes again.
///
/// Reloads through *other* control paths (the `reload` wire command) are
/// detected via each model's generation: when it moves, the watcher
/// re-baselines that model's fingerprint instead of re-loading a snapshot
/// the server already picked up — a wire reload followed by a poll must
/// not double-bump the generation.
pub fn watch_snapshot_file(server: Arc<PredictionServer>, interval: Duration) -> ReloadWatcher {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let thread = std::thread::Builder::new()
        .name("gps-serve-reload-watch".to_string())
        .spawn(move || {
            let mut states: HashMap<String, WatchState> = HashMap::new();
            // Baseline every model registered at start.
            for id in server.model_ids() {
                if let (Ok(Some(path)), Ok(generation)) =
                    (server.model_path_of(&id), server.generation_of(&id))
                {
                    let fingerprint = fingerprint_of(&path);
                    states.insert(
                        id,
                        WatchState {
                            path,
                            fingerprint,
                            generation,
                        },
                    );
                }
            }
            while !stop_flag.load(Ordering::Acquire) {
                // Sleep in short slices so drop/stop is prompt even with a
                // long poll interval.
                let mut slept = Duration::ZERO;
                while slept < interval && !stop_flag.load(Ordering::Acquire) {
                    let slice = (interval - slept).min(Duration::from_millis(50));
                    std::thread::sleep(slice);
                    slept += slice;
                }
                if stop_flag.load(Ordering::Acquire) {
                    return;
                }
                let ids = server.model_ids();
                states.retain(|id, _| ids.contains(id));
                for id in ids {
                    let Ok(Some(path)) = server.model_path_of(&id) else {
                        continue;
                    };
                    let Ok(generation) = server.generation_of(&id) else {
                        continue; // unloaded between the listing and here
                    };
                    let Some(state) = states.get_mut(&id) else {
                        // Newly registered model: its served epoch came
                        // from the file as it is now — baseline it.
                        states.insert(
                            id,
                            WatchState {
                                fingerprint: fingerprint_of(&path),
                                path,
                                generation,
                            },
                        );
                        continue;
                    };
                    if generation != state.generation || path != state.path {
                        // Someone else reloaded this model (wire command,
                        // possibly onto a new path). The on-disk state is
                        // what the server now serves: re-baseline, don't
                        // reload it again.
                        state.fingerprint = fingerprint_of(&path);
                        state.path = path;
                        state.generation = generation;
                        continue;
                    }
                    let seen = fingerprint_of(&path);
                    if seen.is_none() || seen == state.fingerprint {
                        continue;
                    }
                    match server.generation_of(&id) {
                        Ok(g) if g == state.generation => {}
                        // A reload raced in after the check above (or the
                        // model was unloaded); treat the observed file
                        // state as already handled.
                        Ok(g) => {
                            state.fingerprint = seen;
                            state.generation = g;
                            continue;
                        }
                        Err(_) => continue,
                    }
                    match server.reload_model_from_disk(&id, Some(&path)) {
                        Ok((generation, _)) => {
                            eprintln!(
                                "reloaded model {id:?} from {} -> generation {generation}",
                                path.display()
                            );
                            state.generation = generation;
                        }
                        Err(e) => eprintln!(
                            "reload of model {id:?} from {} failed (still serving old model): {e}",
                            path.display()
                        ),
                    }
                    state.fingerprint = seen;
                }
            }
        })
        .expect("spawn reload watcher");
    ReloadWatcher {
        stop,
        thread: Some(thread),
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use gps_core::snapshot::{ModelManifest, FORMAT_MAJOR, FORMAT_MINOR};
    use gps_core::{CondModel, FeatureRules, Interactions, NetFeature, PriorsEntry};
    use gps_types::{Ip, Port, Subnet};
    use std::collections::HashMap;

    fn model() -> ServableModel {
        let mut rules: HashMap<gps_core::CondKey, Vec<(Port, f64)>> = HashMap::new();
        rules.insert(gps_core::CondKey::Port(Port(80)), vec![(Port(443), 0.9)]);
        let snapshot = gps_core::ModelSnapshot {
            manifest: ModelManifest {
                format: (FORMAT_MAJOR, FORMAT_MINOR),
                universe_seed: 0,
                dataset_name: "unit".into(),
                step_prefix: 16,
                min_prob: 1e-5,
                interactions: Interactions::ALL,
                net_features: vec![NetFeature::Slash(16)],
                hosts_in: 0,
                distinct_keys: 0,
                cooccur_entries: 0,
                num_rules: 1,
                num_priors: 1,
                checksum: 0,
            },
            model: CondModel::from_parts(HashMap::new(), Interactions::ALL),
            rules: FeatureRules::from_parts(rules),
            priors: vec![PriorsEntry {
                port: Port(22),
                subnet: Subnet::of_ip(Ip::from_octets(10, 0, 0, 0), 16),
                coverage: 4,
            }],
            compiled: None,
        };
        ServableModel::from_snapshot(snapshot)
    }

    #[test]
    fn predict_and_stats() {
        let server = PredictionServer::with_defaults(model());
        let cold = server.predict(Query::new(Ip::from_octets(10, 0, 3, 4)));
        assert_eq!(cold[0], (Port(22), 1.0));
        let warm = server.predict(Query::new(Ip::from_octets(10, 0, 3, 4)).with_open([80]));
        assert_eq!(warm[0], (Port(443), 0.9));
        // Permuted, duplicated evidence and an unset `top` answer like the
        // canonical query with the server's default `top`.
        let mut canonical = Query::new(Ip::from_octets(10, 0, 9, 9)).with_open([22, 80]);
        canonical.top = ServeConfig::default().default_top;
        let again =
            server.predict(Query::new(Ip::from_octets(10, 0, 9, 9)).with_open([80, 22, 80]));
        assert_eq!(again, server.model().predict(&canonical));
        let stats = server.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.models[0].requests, 3);
        assert_eq!((stats.cache_hits, stats.l1_hits, stats.batches), (0, 0, 0));
    }

    #[test]
    fn batch_preserves_order() {
        let server = PredictionServer::with_defaults(model());
        let ips: Vec<Ip> = (0..64u32).map(|i| Ip((i << 16) | 5)).collect();
        let queries: Vec<Query> = ips
            .iter()
            .map(|&ip| Query::new(ip).with_open([80]))
            .collect();
        let answers = server.predict_batch(queries.clone());
        assert_eq!(answers.len(), 64);
        for (query, answer) in queries.into_iter().zip(&answers) {
            assert_eq!(*answer, server.predict(query), "order preserved");
        }
    }

    #[test]
    fn empty_batch() {
        let server = PredictionServer::with_defaults(model());
        assert!(server.predict_batch(Vec::new()).is_empty());
    }

    #[test]
    fn concurrent_clients_agree() {
        let server = Arc::new(PredictionServer::with_defaults(model()));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let server = server.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    let ip = Ip(((t * 37 + i) % 256) << 16 | i);
                    let ranked = server.predict(Query::new(ip).with_open([80]));
                    assert_eq!(ranked[0], (Port(443), 0.9));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.stats().requests, 1600);
    }

    /// Like [`model`], but rules say 80 predicts 8443 — distinguishable
    /// from the original model on the same warm query.
    fn model_v2() -> ServableModel {
        let mut rules: HashMap<gps_core::CondKey, Vec<(Port, f64)>> = HashMap::new();
        rules.insert(gps_core::CondKey::Port(Port(80)), vec![(Port(8443), 0.7)]);
        let snapshot = gps_core::ModelSnapshot {
            manifest: ModelManifest {
                format: (FORMAT_MAJOR, FORMAT_MINOR),
                universe_seed: 1,
                dataset_name: "unit-v2".into(),
                step_prefix: 16,
                min_prob: 1e-5,
                interactions: Interactions::ALL,
                net_features: vec![NetFeature::Slash(16)],
                hosts_in: 0,
                distinct_keys: 0,
                cooccur_entries: 0,
                num_rules: 1,
                num_priors: 1,
                checksum: 0,
            },
            model: CondModel::from_parts(HashMap::new(), Interactions::ALL),
            rules: FeatureRules::from_parts(rules),
            priors: vec![PriorsEntry {
                port: Port(2222),
                subnet: Subnet::of_ip(Ip::from_octets(10, 0, 0, 0), 16),
                coverage: 4,
            }],
            compiled: None,
        };
        ServableModel::from_snapshot(snapshot)
    }

    #[test]
    fn reload_swaps_model() {
        let server = PredictionServer::with_defaults(model());
        let query = || Query::new(Ip::from_octets(10, 0, 3, 4)).with_open([80]);
        assert_eq!(server.predict(query())[0], (Port(443), 0.9));
        assert_eq!(server.generation(), 0);

        let generation = server.reload(model_v2());
        assert_eq!(generation, 1);
        assert_eq!(server.generation(), 1);
        assert_eq!(server.predict(query())[0], (Port(8443), 0.7));
        // Cold path follows the new priors too.
        assert_eq!(
            server.predict(Query::new(Ip::from_octets(10, 0, 1, 1)))[0].0,
            Port(2222)
        );
        let stats = server.stats();
        assert_eq!(stats.reloads, 1);
        assert_eq!(stats.generation, 1);
        assert_eq!(server.model().manifest().dataset_name, "unit-v2");
    }

    #[test]
    fn reload_under_concurrent_traffic_never_fails_a_query() {
        let server = Arc::new(PredictionServer::with_defaults(model()));
        let mut clients = Vec::new();
        for t in 0..4u32 {
            let server = server.clone();
            clients.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    let ip = Ip(((t * 41 + i) % 128) << 16 | i);
                    let ranked = server.predict(Query::new(ip).with_open([80]));
                    // Either model's answer is acceptable; an empty or
                    // foreign answer is not.
                    assert!(
                        ranked[0] == (Port(443), 0.9) || ranked[0] == (Port(8443), 0.7),
                        "unexpected answer {ranked:?}"
                    );
                }
            }));
        }
        // Interleave several reloads with the traffic.
        for flip in 0..6 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            if flip % 2 == 0 {
                server.reload(model_v2());
            } else {
                server.reload(model());
            }
        }
        for c in clients {
            c.join().expect("no query may fail across reloads");
        }
        let stats = server.stats();
        assert_eq!(stats.requests, 4 * 500);
        assert_eq!(stats.reloads, 6);
        assert_eq!(stats.generation, 6);
    }

    #[test]
    fn concurrent_reloads_get_distinct_generations() {
        // Publish holds the slot's write lock through the generation
        // bump, so N racing reloads must produce exactly the generations
        // 1..=N — no duplicates, no gaps, no misattribution.
        let server = Arc::new(PredictionServer::with_defaults(model()));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let server = server.clone();
            handles.push(std::thread::spawn(move || server.reload(model_v2())));
        }
        let mut generations: Vec<u64> = handles
            .into_iter()
            .map(|h| h.join().expect("reload thread"))
            .collect();
        generations.sort_unstable();
        assert_eq!(generations, (1..=8).collect::<Vec<u64>>());
        assert_eq!(server.generation(), 8);
        assert_eq!(server.stats().reloads, 8);
    }

    #[test]
    fn watcher_reloads_when_file_changes() {
        use gps_core::snapshot::ModelSnapshot;
        // Build two tiny snapshots that differ in their rules.
        let dir = gps_types::testutil::TestDir::new("watch-unit");
        let path = dir.path("model.gpsb");
        let make = |target: u16| {
            let mut rules: HashMap<gps_core::CondKey, Vec<(Port, f64)>> = HashMap::new();
            rules.insert(gps_core::CondKey::Port(Port(80)), vec![(Port(target), 0.9)]);
            gps_core::ModelSnapshot {
                manifest: ModelManifest {
                    format: (FORMAT_MAJOR, FORMAT_MINOR),
                    universe_seed: 0,
                    // The name feeds the file size: on filesystems with
                    // coarse mtime granularity the watcher still sees the
                    // (mtime, size) fingerprint change.
                    dataset_name: format!("watch-{target}"),
                    step_prefix: 16,
                    min_prob: 1e-5,
                    interactions: Interactions::ALL,
                    net_features: vec![NetFeature::Slash(16)],
                    hosts_in: 0,
                    distinct_keys: 0,
                    cooccur_entries: 0,
                    num_rules: 1,
                    num_priors: 1,
                    checksum: 0,
                },
                model: CondModel::from_parts(HashMap::new(), Interactions::ALL),
                rules: FeatureRules::from_parts(rules),
                priors: vec![PriorsEntry {
                    port: Port(22),
                    subnet: Subnet::of_ip(Ip::from_octets(10, 0, 0, 0), 16),
                    coverage: 4,
                }],
                compiled: None,
            }
        };
        make(443).save_binary(&path).unwrap();
        let server = Arc::new(PredictionServer::start(
            ServableModel::from_snapshot(ModelSnapshot::load_serving(&path).unwrap()),
            ServeConfig::default(),
        ));
        server.set_model_path(&path);
        let watcher = watch_snapshot_file(server.clone(), Duration::from_millis(10));

        // Replace the file (atomically, as save_binary does) and wait for
        // the watcher to notice. Write a different mtime/size fingerprint.
        std::thread::sleep(Duration::from_millis(30));
        make(9999).save_binary(&path).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.generation() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.generation(), 1, "watcher picked up the new file");
        assert_eq!(
            server.predict(Query::new(Ip::from_octets(10, 0, 0, 1)).with_open([80]))[0].0,
            Port(9999)
        );

        // A reload through another control path (the wire command,
        // switching to a different snapshot file) must NOT be repeated by
        // the watcher: it re-baselines on the generation/path move
        // instead of re-loading what the server already serves.
        let path2 = dir.path("model-v2.gpsb");
        make(1234).save_binary(&path2).unwrap();
        assert_eq!(server.reload_from_disk(Some(&path2)).unwrap().0, 2);
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(
            server.generation(),
            2,
            "watcher must not double-reload a snapshot another path already served"
        );
        drop(watcher);
    }

    #[test]
    fn registry_serves_models_independently() {
        let server = PredictionServer::start_named(
            vec![("a".to_string(), model()), ("b".to_string(), model_v2())],
            ServeConfig::default(),
        )
        .unwrap();
        assert_eq!(server.default_model_id(), "a");
        assert_eq!(server.model_ids(), vec!["a".to_string(), "b".to_string()]);
        let query = || Query::new(Ip::from_octets(10, 0, 3, 4)).with_open([80]);
        // Same query, different answers per model; id-less routes to "a".
        assert_eq!(
            server.predict_for("a", query()).unwrap()[0],
            (Port(443), 0.9)
        );
        assert_eq!(
            server.predict_for("b", query()).unwrap()[0],
            (Port(8443), 0.7)
        );
        assert_eq!(server.predict(query())[0], (Port(443), 0.9));
        assert!(server
            .predict_for("nope", query())
            .unwrap_err()
            .contains("unknown model"));
        // Batches too.
        let batch = server
            .predict_batch_for("b", vec![query(), query()])
            .unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0][0], (Port(8443), 0.7));
        // Per-model counters attribute the traffic correctly: "a" saw 2
        // requests (1 explicit + 1 id-less), "b" saw 3 (1 + batch of 2).
        let stats = server.stats();
        assert_eq!(stats.models.len(), 2);
        let of = |id: &str| stats.models.iter().find(|m| m.id == id).unwrap().clone();
        assert_eq!(of("a").requests, 2);
        assert_eq!(of("b").requests, 3);
        assert!(of("a").is_default);
        assert!(!of("b").is_default);
        assert_eq!(stats.requests, 5, "global counters still see everything");
    }

    #[test]
    fn start_named_rejects_bad_registries() {
        assert!(PredictionServer::start_named(Vec::new(), ServeConfig::default()).is_err());
        assert!(PredictionServer::start_named(
            vec![("a".to_string(), model()), ("a".to_string(), model_v2())],
            ServeConfig::default(),
        )
        .is_err());
        assert!(PredictionServer::start_named(
            vec![("bad id!".to_string(), model())],
            ServeConfig::default(),
        )
        .is_err());
        assert!(validate_model_id("quick-2026.07.25_v2").is_ok());
        assert!(validate_model_id("").is_err());
        assert!(validate_model_id("a=b").is_err());
        assert!(validate_model_id(&"x".repeat(MAX_MODEL_ID_LEN + 1)).is_err());
    }

    #[test]
    fn reloading_one_model_leaves_the_other_untouched() {
        let server = PredictionServer::start_named(
            vec![("a".to_string(), model()), ("b".to_string(), model_v2())],
            ServeConfig::default(),
        )
        .unwrap();
        let query = || Query::new(Ip::from_octets(10, 0, 3, 4)).with_open([80]);
        let before_b = server.predict_for("b", query()).unwrap();

        // Reload A; B keeps its generation and its answers.
        server.reload_model("a", model_v2()).unwrap();
        assert_eq!(server.generation_of("a").unwrap(), 1);
        assert_eq!(server.generation_of("b").unwrap(), 0);
        assert_eq!(server.predict_for("b", query()).unwrap(), before_b);
        // And A now answers from its new epoch.
        assert_eq!(
            server.predict_for("a", query()).unwrap()[0],
            (Port(8443), 0.7)
        );
        assert_eq!(server.stats().reloads, 1);
        assert_eq!(server.model_stats("a").unwrap().reloads, 1);
        assert_eq!(server.model_stats("b").unwrap().reloads, 0);
    }

    #[test]
    fn load_and_unload_models_at_runtime() {
        let server = PredictionServer::with_defaults(model());
        let query = || Query::new(Ip::from_octets(10, 0, 3, 4)).with_open([80]);
        server.load_model("extra", model_v2(), None).unwrap();
        assert_eq!(
            server.model_ids(),
            vec![DEFAULT_MODEL_ID.to_string(), "extra".to_string()]
        );
        assert_eq!(
            server.predict_for("extra", query()).unwrap()[0],
            (Port(8443), 0.7)
        );
        // Double-load of a live id is an error (reload is the replace path).
        assert!(server
            .load_model("extra", model_v2(), None)
            .unwrap_err()
            .contains("already loaded"));
        // Unload: subsequent lookups fail, the default keeps serving.
        server.unload_model("extra").unwrap();
        assert!(server.predict_for("extra", query()).is_err());
        assert_eq!(server.predict(query())[0], (Port(443), 0.9));
        assert!(server.unload_model("extra").is_err(), "already gone");
        assert!(
            server.unload_model(DEFAULT_MODEL_ID).is_err(),
            "the default model must not be unloadable"
        );
        // Re-loading the freed id works and serves fresh state.
        server.load_model("extra", model(), None).unwrap();
        assert_eq!(
            server.predict_for("extra", query()).unwrap()[0],
            (Port(443), 0.9)
        );
    }

    #[test]
    fn watcher_tracks_every_registered_model() {
        use gps_core::snapshot::ModelSnapshot;
        let dir = gps_types::testutil::TestDir::new("watch-multi");
        let make = |target: u16| {
            let mut rules: HashMap<gps_core::CondKey, Vec<(Port, f64)>> = HashMap::new();
            rules.insert(gps_core::CondKey::Port(Port(80)), vec![(Port(target), 0.9)]);
            gps_core::ModelSnapshot {
                manifest: ModelManifest {
                    format: (FORMAT_MAJOR, FORMAT_MINOR),
                    universe_seed: 0,
                    dataset_name: format!("watch-{target}"),
                    step_prefix: 16,
                    min_prob: 1e-5,
                    interactions: Interactions::ALL,
                    net_features: vec![NetFeature::Slash(16)],
                    hosts_in: 0,
                    distinct_keys: 0,
                    cooccur_entries: 0,
                    num_rules: 1,
                    num_priors: 1,
                    checksum: 0,
                },
                model: CondModel::from_parts(HashMap::new(), Interactions::ALL),
                rules: FeatureRules::from_parts(rules),
                priors: vec![PriorsEntry {
                    port: Port(22),
                    subnet: Subnet::of_ip(Ip::from_octets(10, 0, 0, 0), 16),
                    coverage: 4,
                }],
                compiled: None,
            }
        };
        let path_a = dir.path("a.gpsb");
        let path_b = dir.path("b.gpsb");
        make(443).save_binary(&path_a).unwrap();
        make(9000).save_binary(&path_b).unwrap();
        let load = |p: &std::path::Path| {
            ServableModel::from_snapshot(ModelSnapshot::load_serving(p).unwrap())
        };
        let server = Arc::new(
            PredictionServer::start_named(
                vec![
                    ("a".to_string(), load(&path_a)),
                    ("b".to_string(), load(&path_b)),
                ],
                ServeConfig::default(),
            )
            .unwrap(),
        );
        server.set_model_path_of("a", &path_a).unwrap();
        server.set_model_path_of("b", &path_b).unwrap();
        let watcher = watch_snapshot_file(server.clone(), Duration::from_millis(10));

        // Replace only B's file; the watcher must reload B and leave A
        // alone.
        std::thread::sleep(Duration::from_millis(30));
        make(9999).save_binary(&path_b).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.generation_of("b").unwrap() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.generation_of("b").unwrap(), 1, "B reloaded");
        assert_eq!(server.generation_of("a").unwrap(), 0, "A untouched");
        let warm = Query::new(Ip::from_octets(10, 0, 0, 1)).with_open([80]);
        assert_eq!(
            server.predict_for("b", warm.clone()).unwrap()[0].0,
            Port(9999)
        );
        assert_eq!(server.predict_for("a", warm).unwrap()[0].0, Port(443));
        drop(watcher);
    }
}
