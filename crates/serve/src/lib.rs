//! Mapper-as-a-service: `mapperd`, a persistent decision daemon over a shared
//! [`DseCache`].
//!
//! Dynasparse-style input-adaptive execution only works if the mapper answers
//! in milliseconds; the factored DSE made a Citeseer full-space sweep take
//! ~9 ms, and this crate productionises it as a long-running service. Clients
//! speak newline-delimited JSON over TCP: each line is one request, each
//! answer one line. A worker-thread pool multiplexes connections; every
//! mapping request funnels through one process-wide [`DseCache`], so identical
//! concurrent requests single-flight onto one search, repeats answer from
//! memory, and the whole cache persists across restarts via
//! [`DseCache::save`]/[`DseCache::load_or_quarantine`].
//!
//! ## Protocol
//!
//! Request fields (all except the workload shape optional):
//!
//! ```json
//! {"id":1,"workload":{"name":"Citeseer","v":3327,"f":3703,"g":16,
//!  "degrees":[...],"attention_heads":0,"post_op":null},
//!  "objective":"runtime","mode":"exact","top_k":5,"deadline_ms":10}
//! ```
//!
//! `cmd` selects non-mapping actions: `"ping"`, `"stats"`, `"save"`, and
//! `"shutdown"` (graceful: drains workers, then flushes the cache to the
//! configured file — SIGTERM does the same via [`signal`]). `mode:"fast"`
//! answers from the cache or a nearest-neighbour warm start
//! ([`DseCache::warm_hint`]) without ever running a full search unless the
//! cache is cold. Responses carry the decision, the cache disposition
//! (`hit`/`coalesced`/`search`/`warm`/`preset`), and the measured per-request
//! latency.
//!
//! ## Deadlines and the degradation ladder
//!
//! A request carrying `deadline_ms` is answered within that budget or answered
//! *degraded*, never silently late: cache hit → bounded search → warm-start
//! re-evaluation → best-preset fallback → explicit shed. Every response is
//! labeled with its `decision_quality` (`exact`/`warm`/`preset`/`shed`), and a
//! search abandoned by its deadline keeps running in the background to
//! populate the cache (disable with
//! [`ServeOptions::background_complete`] — then a cooperative
//! [`CancelToken`] stops it at the next work-chunk boundary).
//!
//! ## Admission control
//!
//! The daemon bounds every per-client resource: connections past
//! [`ServeOptions::max_connections`] are answered with an explicit `shed`
//! response and closed; request lines past [`ServeOptions::max_line_bytes`]
//! are discarded in constant memory and answered with a typed error; writes
//! to slow clients time out after [`ServeOptions::write_timeout_ms`]. Workers
//! serve bounded turns and rotate connections through a shared queue, so one
//! slow or idle client never pins a worker. [`faults::FaultPlan`] injects
//! handler panics, search delays, and save-path crashes to prove the recovery
//! paths under test and in CI chaos smokes.

pub mod client;
pub mod faults;
pub mod signal;

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use faults::FaultPlan;
use omega_accel::engine::ElementwiseOp;
use omega_core::dse::{
    lock_recover, CacheOutcome, CancelToken, DseCache, DseOptions, ExploreOutcome,
    RankedDataflow,
};
use omega_core::mapper::{extended_candidates, rank, Objective};
use omega_core::{AccelConfig, AttentionSpec, GnnDataflow, GnnWorkload};
use serde::{Deserialize, Serialize};

/// The workload shape of a mapping request. Either the full `degrees` vector
/// (exact adjacency structure, as the cost model sees offline) or a
/// `mean_degree` summary (expanded to a uniform vector) must be present.
#[derive(Debug, Clone, Deserialize, Serialize)]
pub struct WorkloadSpec {
    /// Display name (defaults to `"request"`).
    pub name: Option<String>,
    /// Vertices `V` (> 0, at most `2^20`: the largest scale dataset served).
    pub v: usize,
    /// Input feature width `F` (> 0).
    pub f: usize,
    /// Output feature width `G` (> 0).
    pub g: usize,
    /// Stored non-zeros per adjacency row; length must equal `v`.
    pub degrees: Option<Vec<usize>>,
    /// Uniform-degree fallback when `degrees` is omitted.
    pub mean_degree: Option<f64>,
    /// Attention heads (> 0 makes this a GAT-style layer).
    pub attention_heads: Option<usize>,
    /// Elementwise post-phase: `"act"` or `"norm"`.
    pub post_op: Option<String>,
    /// Scale-family dataset name (`"rmat-N"` / `"chung-lu-N"`): the server
    /// generates the graph itself (deterministic seed), so million-vertex
    /// requests do not ship a million-entry `degrees` vector over the wire.
    /// When present, `v`/`f`/`degrees`/`mean_degree` are ignored; `g` still
    /// sets the hidden width. Names above `N = 20` are refused, and so are
    /// `f` or `g` above 2^16 on either path.
    pub dataset: Option<String>,
}

/// The fixed generation seed for [`WorkloadSpec::dataset`] requests: every
/// server resolves the same name to the same graph, so persisted cache
/// entries stay valid across daemons.
pub const SCALE_DATASET_SEED: u64 = 0x0E5A_2022;

/// Largest `N` a [`WorkloadSpec::dataset`] request may name (`rmat-20` is
/// ≈ 1M vertices and 17M stored non-zeros), and `log2` of the largest `v` a
/// request may give. Larger requests are refused before anything is
/// generated or allocated, so one request line cannot make the server build
/// a multi-gigabyte graph or degree vector.
const MAX_SERVE_SCALE: u32 = 20;

/// Largest feature width `f` or hidden width `g` a request may give. The
/// search sizes buffers by the widths, so a request naming `g = 2^32` on a
/// four-vertex graph would otherwise abort the whole daemon on a failed
/// multi-gigabyte allocation, which no `catch_unwind` can stop.
const MAX_SERVE_WIDTH: usize = 1 << 16;

impl WorkloadSpec {
    /// Builds the request shape from an existing workload (client side).
    pub fn of(workload: &GnnWorkload) -> Self {
        WorkloadSpec {
            name: Some(workload.name.clone()),
            v: workload.v,
            f: workload.f,
            g: workload.g,
            degrees: Some(workload.degrees.clone()),
            mean_degree: None,
            attention_heads: workload.attention.map(|a| a.heads),
            post_op: workload.post_op.map(|op| op.label().to_string()),
            dataset: None,
        }
    }

    /// Validates the spec into the workload the cost model consumes.
    pub fn to_workload(&self) -> Result<GnnWorkload, String> {
        if self.f > MAX_SERVE_WIDTH || self.g > MAX_SERVE_WIDTH {
            return Err(format!(
                "workload widths f = {} g = {} are too large to serve (the limit is \
                 f, g <= {MAX_SERVE_WIDTH})",
                self.f, self.g
            ));
        }
        if let Some(ds) = self.dataset.as_deref() {
            if self.g == 0 {
                return Err("workload g must be positive".into());
            }
            let (_, scale) = omega_graph::scale::parse_spec(ds).ok_or_else(|| {
                format!("unknown scale dataset `{ds}` (expected rmat-N or chung-lu-N)")
            })?;
            if scale > MAX_SERVE_SCALE {
                return Err(format!(
                    "scale dataset `{ds}` is too large to serve (N = {scale}; the limit is \
                     N <= {MAX_SERVE_SCALE})"
                ));
            }
            let graph = omega_graph::scale_graph(ds, SCALE_DATASET_SEED)
                .expect("parse_spec accepted the name");
            let mut wl = GnnWorkload::from_graph(&graph, self.g);
            if let Some(name) = &self.name {
                wl.name = name.clone();
            }
            wl.attention = match self.attention_heads {
                None | Some(0) => None,
                Some(heads) => Some(AttentionSpec::new(heads)),
            };
            wl.post_op = parse_post_op(self.post_op.as_deref())?;
            return Ok(wl);
        }
        if self.v == 0 || self.f == 0 || self.g == 0 {
            return Err(format!(
                "workload dims must be positive (v={} f={} g={})",
                self.v, self.f, self.g
            ));
        }
        if self.v > 1 << MAX_SERVE_SCALE {
            return Err(format!(
                "workload v = {} is too large to serve (the limit is v <= 2^{MAX_SERVE_SCALE})",
                self.v
            ));
        }
        // A CSR row stores at most `v` non-zeros (self loop included), which
        // also keeps the `nnz` sum and the engines' `u32` degree classes in
        // range.
        let degrees: Vec<usize> = match &self.degrees {
            Some(d) => {
                if d.len() != self.v {
                    return Err(format!("degrees length {} != v {}", d.len(), self.v));
                }
                if let Some((i, &deg)) = d.iter().enumerate().find(|&(_, &deg)| deg > self.v) {
                    return Err(format!(
                        "degrees[{i}] = {deg} is out of range (a row holds at most v = {} \
                         non-zeros)",
                        self.v
                    ));
                }
                d.clone()
            }
            None => {
                let mean = self.mean_degree.unwrap_or(1.0);
                if !mean.is_finite() || mean < 0.0 {
                    return Err(format!("mean_degree {mean} must be finite and >= 0"));
                }
                if mean > self.v as f64 {
                    return Err(format!(
                        "mean_degree {mean} is out of range (a row holds at most v = {} \
                         non-zeros)",
                        self.v
                    ));
                }
                vec![(mean.round() as usize).max(1); self.v]
            }
        };
        let nnz: u64 = degrees.iter().map(|&d| d as u64).sum();
        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let mean_degree = nnz as f64 / self.v as f64;
        let attention = match self.attention_heads {
            None | Some(0) => None,
            Some(heads) => Some(AttentionSpec::new(heads)),
        };
        let post_op = parse_post_op(self.post_op.as_deref())?;
        Ok(GnnWorkload {
            name: self.name.clone().unwrap_or_else(|| "request".into()),
            v: self.v,
            f: self.f,
            g: self.g,
            degrees,
            nnz,
            mean_degree,
            max_degree,
            attention,
            post_op,
        })
    }
}

/// Parses the `post_op` request field (`"act"` / `"norm"`, with the long
/// spellings accepted too).
fn parse_post_op(label: Option<&str>) -> Result<Option<ElementwiseOp>, String> {
    match label {
        None | Some("") => Ok(None),
        Some("act" | "activation") => Ok(Some(ElementwiseOp::Activation)),
        Some("norm" | "layernorm") => Ok(Some(ElementwiseOp::LayerNorm)),
        Some(other) => Err(format!("unknown post_op `{other}` (expected act|norm)")),
    }
}

/// One request line. `cmd` defaults to `"map"`; control commands (`ping`,
/// `stats`, `save`, `shutdown`) ignore the mapping fields.
#[derive(Debug, Clone, Default, Deserialize, Serialize)]
pub struct MapRequest {
    /// Client-chosen correlation id, echoed back verbatim.
    pub id: Option<u64>,
    /// `"map"` (default) | `"ping"` | `"stats"` | `"save"` | `"shutdown"`.
    pub cmd: Option<String>,
    /// The shape to map (required for `map`).
    pub workload: Option<WorkloadSpec>,
    /// `"runtime"` (default) | `"energy"` | `"edp"`.
    pub objective: Option<String>,
    /// `"exact"` (default: full search on miss) | `"fast"` (cache or
    /// warm-start re-evaluation; searches only when the cache is cold).
    pub mode: Option<String>,
    /// Ranked winners to return (capped by the server's configured top-K).
    pub top_k: Option<usize>,
    /// Accelerator PEs (defaults to the paper config).
    pub pes: Option<usize>,
    /// DRAM bandwidth in elements/cycle (defaults to the paper config).
    pub bandwidth: Option<usize>,
    /// Answer-by budget in milliseconds. A cold search that cannot finish in
    /// this budget is answered degraded (warm → preset → shed) and labeled
    /// via `decision_quality`; omitted means "wait for the exact answer".
    pub deadline_ms: Option<u64>,
}

impl MapRequest {
    /// A mapping request for `workload` with server-side defaults elsewhere.
    pub fn for_workload(workload: &GnnWorkload) -> Self {
        MapRequest { workload: Some(WorkloadSpec::of(workload)), ..Default::default() }
    }
}

/// One ranked decision in a response: the dataflow in its parseable display
/// form plus the cost axes the client needs to act on it.
#[derive(Debug, Clone, Deserialize, Serialize)]
pub struct Decision {
    /// Display form of the concrete dataflow (round-trips via `FromStr`).
    pub dataflow: String,
    /// Modelled runtime.
    pub cycles: u64,
    /// Modelled total energy.
    pub energy_pj: f64,
    /// Peak on-chip working set.
    pub buffer_peak_bytes: u64,
    /// Objective value (lower is better).
    pub score: f64,
}

impl Decision {
    fn of(ranked: &RankedDataflow) -> Self {
        Decision {
            dataflow: ranked.dataflow.to_string(),
            cycles: ranked.report.total_cycles,
            energy_pj: ranked.report.energy.total_pj(),
            buffer_peak_bytes: ranked.report.buffer_peak_bytes,
            score: ranked.score,
        }
    }
}

/// Server-side counters, returned by the `stats` command and by
/// [`MapperServer::run`] on exit.
#[derive(Debug, Clone, Default, Deserialize, Serialize)]
pub struct ServerStats {
    /// Request lines handled (including control commands and errors).
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Entries currently cached.
    pub cache_entries: u64,
    /// Full searches actually run (completed) by the shared cache.
    pub searches: u64,
    /// Requests answered from a cached entry.
    pub hits: u64,
    /// Requests that piggybacked on another request's in-flight search.
    pub coalesced: u64,
    /// `fast`-mode requests answered by warm-start re-evaluation.
    pub warm_starts: u64,
    /// Cache entries evicted by the LRU bound.
    pub evictions: u64,
    /// Work refused outright: connections past the admission limit plus
    /// deadline requests with no degraded answer available.
    pub shed: u64,
    /// Deadline misses answered by warm-start re-evaluation
    /// (`decision_quality: "warm"` on a deadlined request).
    pub degraded_warm: u64,
    /// Deadline misses answered by the best-preset fallback
    /// (`decision_quality: "preset"`).
    pub degraded_preset: u64,
    /// Searches stopped early by a cooperative [`CancelToken`].
    pub cancelled_searches: u64,
    /// Corrupt cache files quarantined at load instead of aborting startup.
    pub quarantined_loads: u64,
    /// Faults the configured [`FaultPlan`] actually injected.
    pub faults_injected: u64,
    /// Median per-request service latency (µs, over a recent window).
    pub p50_us: u64,
    /// 99th-percentile per-request service latency (µs, over a recent window).
    pub p99_us: u64,
}

/// One response line. `ok == false` carries `error`; mapping responses carry
/// `best`/`ranked`, the cache disposition, the decision quality, and the
/// measured service latency.
#[derive(Debug, Clone, Default, Deserialize, Serialize)]
pub struct MapResponse {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Whether the request was served.
    pub ok: bool,
    /// What went wrong, when `ok` is false.
    pub error: Option<String>,
    /// `"hit"` | `"coalesced"` | `"search"` | `"warm"` | `"preset"` for
    /// mapping requests.
    pub cache: Option<String>,
    /// `"exact"` | `"warm"` | `"preset"` | `"shed"`: how good this answer is
    /// relative to a full search. Every mapping response is labeled — a
    /// degraded answer is never silently presented as exact.
    pub decision_quality: Option<String>,
    /// Server-side service time for this request (µs).
    pub latency_us: Option<u64>,
    /// The winning decision.
    pub best: Option<Decision>,
    /// Ranked winners, best first.
    pub ranked: Option<Vec<Decision>>,
    /// Warm-start neighbour distance ([`DseCache::warm_hint`]), `"warm"` only.
    pub warm_distance: Option<f64>,
    /// Counters, for the `stats` and `shutdown` commands.
    pub stats: Option<ServerStats>,
}

impl MapResponse {
    fn err(error: String) -> Self {
        MapResponse { ok: false, error: Some(error), ..Default::default() }
    }

    fn shed(error: String) -> Self {
        MapResponse {
            ok: false,
            error: Some(error),
            decision_quality: Some("shed".into()),
            ..Default::default()
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Connection-serving worker threads.
    pub threads: usize,
    /// DSE threads each search uses.
    pub search_threads: usize,
    /// LRU bound of the shared cache.
    pub cache_capacity: usize,
    /// Persist/restore the cache here (loaded at bind, flushed at shutdown).
    pub cache_file: Option<PathBuf>,
    /// Default (and maximum) ranked winners per response.
    pub top_k: usize,
    /// Admission limit: connections past this are answered with an explicit
    /// `shed` response and closed instead of queueing unboundedly.
    pub max_connections: usize,
    /// Longest accepted request line; longer lines are discarded in constant
    /// memory and answered with a typed error (the connection survives).
    pub max_line_bytes: usize,
    /// Response writes to a slow client abort after this long, so a stalled
    /// reader cannot pin a worker.
    pub write_timeout_ms: u64,
    /// Keep running a search whose request already timed out, so the result
    /// still populates the cache (`false` cancels it cooperatively instead).
    pub background_complete: bool,
    /// Deterministic fault injection (defaults to no faults).
    pub faults: FaultPlan,
    /// Suppress stderr progress lines.
    pub quiet: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7453".into(),
            threads: 4,
            search_threads: 4,
            cache_capacity: omega_core::dse::DEFAULT_CACHE_CAPACITY,
            cache_file: None,
            top_k: 10,
            max_connections: 64,
            max_line_bytes: 1 << 20,
            write_timeout_ms: 5000,
            background_complete: true,
            faults: FaultPlan::default(),
            quiet: false,
        }
    }
}

/// Sliding window of per-request latencies backing the p50/p99 counters.
const LATENCY_WINDOW: usize = 8192;

/// Per-turn read timeout: the longest an idle connection may hold a worker
/// before it rotates back into the shared queue.
const READ_SLICE_MS: u64 = 20;

/// Requests one connection may have served per turn before the worker rotates
/// to the next queued connection — the per-connection in-flight bound that
/// keeps one firehose client from starving the rest.
const MAX_LINES_PER_TURN: usize = 16;

/// One live client connection, multiplexed across worker turns. The partial
/// line and discard flag persist between turns, so a line split across
/// read slices (or an oversized line mid-discard) resumes where it left off.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    pending: Vec<u8>,
    discarding: bool,
}

/// What a detached search thread sends back: the outcome and its cache
/// disposition, or `None` when the search was cancelled mid-flight.
type SearchResult = Option<(Arc<ExploreOutcome>, CacheOutcome)>;

/// What a worker turn decided about its connection.
enum Turn {
    /// Still alive: rotate it back into the queue.
    Continue,
    /// Closed by the client, dead, or shut down: drop it.
    Closed,
}

/// One step of the bounded NDJSON reader.
#[derive(Debug, PartialEq, Eq)]
enum LineRead {
    /// A complete line (newline stripped, may be empty).
    Line(String),
    /// A line exceeded the byte bound; it was discarded without buffering.
    TooLong,
    /// No complete line buffered yet — try again next turn.
    Pending,
    /// Clean end of stream.
    Eof,
    /// Unrecoverable read error.
    Dead,
}

/// Reads one newline-terminated line of at most `max_bytes` bytes, buffering
/// at most `max_bytes` regardless of what the peer sends. An oversized line
/// flips `discarding`: its bytes are consumed and dropped until the newline,
/// then reported once as [`LineRead::TooLong`] — a multi-MB garbage line
/// costs bounded memory and the connection stays usable.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    pending: &mut Vec<u8>,
    discarding: &mut bool,
    max_bytes: usize,
) -> LineRead {
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                return LineRead::Pending
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return LineRead::Dead,
        };
        if buf.is_empty() {
            return LineRead::Eof; // EOF; any partial line is dropped
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let oversized = *discarding || pending.len() + pos > max_bytes;
                if !oversized {
                    pending.extend_from_slice(&buf[..pos]);
                }
                reader.consume(pos + 1);
                *discarding = false;
                if oversized {
                    pending.clear();
                    return LineRead::TooLong;
                }
                let line = String::from_utf8_lossy(pending).into_owned();
                pending.clear();
                return LineRead::Line(line);
            }
            None => {
                let chunk = buf.len();
                if !*discarding {
                    if pending.len() + chunk > max_bytes {
                        pending.clear();
                        *discarding = true;
                    } else {
                        pending.extend_from_slice(buf);
                    }
                }
                reader.consume(chunk);
            }
        }
    }
}

/// The daemon: a TCP acceptor, a worker pool, and the shared [`DseCache`].
///
/// [`Self::bind`] claims the port and restores the cache file;
/// [`Self::run`] blocks serving requests until a `shutdown` command or a
/// termination signal, then flushes the cache and returns the final counters.
pub struct MapperServer {
    opts: ServeOptions,
    listener: TcpListener,
    cache: Arc<DseCache>,
    shutdown: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    warm_starts: AtomicU64,
    shed: AtomicU64,
    degraded_warm: AtomicU64,
    degraded_preset: AtomicU64,
    faults_injected: AtomicU64,
    map_seq: AtomicU64,
    search_seq: AtomicU64,
    save_crash_armed: AtomicBool,
    open_connections: AtomicUsize,
    active_searches: Arc<Mutex<HashMap<u64, CancelToken>>>,
    latencies_us: Mutex<VecDeque<u64>>,
}

impl MapperServer {
    /// Binds the listen socket and restores the cache file, when configured.
    /// A missing file is a cold start; a truncated/corrupt/mid-write file is
    /// quarantined (renamed aside) and the daemon starts cold instead of
    /// refusing to boot ([`DseCache::load_or_quarantine`]).
    pub fn bind(opts: ServeOptions) -> io::Result<MapperServer> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let cache = Arc::new(DseCache::with_capacity(opts.cache_capacity));
        if let Some(path) = &opts.cache_file {
            let report = cache.load_or_quarantine(path)?;
            if !opts.quiet {
                if report.cleaned_tmp {
                    eprintln!(
                        "mapperd: removed stale temp file left by an interrupted save of {}",
                        path.display()
                    );
                }
                if let Some(quarantined) = &report.quarantined {
                    eprintln!(
                        "mapperd: cache file {} failed validation; quarantined to {} (cold start)",
                        path.display(),
                        quarantined.display()
                    );
                }
                if report.loaded > 0 {
                    eprintln!(
                        "mapperd: restored {} cached decisions from {}",
                        report.loaded,
                        path.display()
                    );
                }
            }
        }
        let save_crash_armed = AtomicBool::new(opts.faults.save_crash);
        Ok(MapperServer {
            opts,
            listener,
            cache,
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            warm_starts: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            degraded_warm: AtomicU64::new(0),
            degraded_preset: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            map_seq: AtomicU64::new(0),
            search_seq: AtomicU64::new(0),
            save_crash_armed,
            open_connections: AtomicUsize::new(0),
            active_searches: Arc::new(Mutex::new(HashMap::new())),
            latencies_us: Mutex::new(VecDeque::with_capacity(LATENCY_WINDOW)),
        })
    }

    /// The bound address (the concrete port when `addr` asked for port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared decision cache.
    pub fn cache(&self) -> &DseCache {
        &self.cache
    }

    /// Asks the serving loop to drain and exit (same effect as the in-band
    /// `shutdown` command or SIGTERM).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::termination_requested()
    }

    /// Serves until shutdown, then cancels in-flight searches, flushes the
    /// cache file (when configured) and returns the final counters.
    pub fn run(&self) -> io::Result<ServerStats> {
        let queue: Mutex<VecDeque<Conn>> = Mutex::new(VecDeque::new());
        let available = Condvar::new();
        std::thread::scope(|s| {
            for _ in 0..self.opts.threads.max(1) {
                s.spawn(|| self.worker(&queue, &available));
            }
            while !self.shutting_down() {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        if self.open_connections.load(Ordering::Relaxed)
                            >= self.opts.max_connections.max(1)
                        {
                            self.shed_connection(stream);
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        // Short read slices keep the worker pool rotating
                        // through connections and responsive to shutdown.
                        let _ = stream.set_read_timeout(Some(Duration::from_millis(READ_SLICE_MS)));
                        let _ = stream.set_write_timeout(Some(Duration::from_millis(
                            self.opts.write_timeout_ms.max(1),
                        )));
                        let Ok(read_half) = stream.try_clone() else { continue };
                        self.open_connections.fetch_add(1, Ordering::Relaxed);
                        lock_recover(&queue).push_back(Conn {
                            reader: BufReader::new(read_half),
                            writer: stream,
                            pending: Vec::new(),
                            discarding: false,
                        });
                        available.notify_one();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        if !self.opts.quiet {
                            eprintln!("mapperd: accept failed: {e}");
                        }
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            }
            available.notify_all();
        });
        // Stop background searches promptly; a cancelled search discards its
        // partial work and never publishes to the cache.
        for (_, token) in lock_recover(&self.active_searches).drain() {
            token.cancel();
        }
        if let Some(path) = &self.opts.cache_file {
            self.cache.save(path)?;
            if !self.opts.quiet {
                eprintln!(
                    "mapperd: flushed {} cached decisions to {}",
                    self.cache.len(),
                    path.display()
                );
            }
        }
        Ok(self.stats())
    }

    /// Refuses a connection past the admission limit: best-effort explicit
    /// `shed` line (a short write timeout so a slow client cannot stall the
    /// accept loop), then close. Explicit refusal beats a silent stall — the
    /// client can back off and retry instead of hanging.
    fn shed_connection(&self, mut stream: TcpStream) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let response = MapResponse::shed(format!(
            "shed: connection limit {} reached, retry later",
            self.opts.max_connections
        ));
        if let Ok(json) = serde_json::to_string(&response) {
            let _ = stream.write_all(json.as_bytes()).and_then(|()| stream.write_all(b"\n"));
        }
    }

    fn worker(&self, queue: &Mutex<VecDeque<Conn>>, available: &Condvar) {
        loop {
            let conn = {
                let mut q = lock_recover(queue);
                loop {
                    if let Some(c) = q.pop_front() {
                        break Some(c);
                    }
                    if self.shutting_down() {
                        break None;
                    }
                    // Timed wait: a signal flips a flag nobody notifies on.
                    q = available
                        .wait_timeout(q, Duration::from_millis(100))
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            };
            let Some(mut conn) = conn else { return };
            match self.serve_turn(&mut conn) {
                Turn::Continue => {
                    lock_recover(queue).push_back(conn);
                    available.notify_one();
                }
                Turn::Closed => {
                    self.open_connections.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Serves one bounded turn of a connection: up to [`MAX_LINES_PER_TURN`]
    /// requests, or until the read slice times out with no complete line.
    fn serve_turn(&self, conn: &mut Conn) -> Turn {
        for _ in 0..MAX_LINES_PER_TURN {
            let step = read_bounded_line(
                &mut conn.reader,
                &mut conn.pending,
                &mut conn.discarding,
                self.opts.max_line_bytes.max(1),
            );
            let response = match step {
                LineRead::Line(line) => {
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    self.handle_line(trimmed)
                }
                LineRead::TooLong => {
                    self.requests.fetch_add(1, Ordering::Relaxed);
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    let response = MapResponse::err(format!(
                        "oversized request line: exceeds {} bytes",
                        self.opts.max_line_bytes.max(1)
                    ));
                    serde_json::to_string(&response).unwrap_or_default()
                }
                LineRead::Pending => {
                    return if self.shutting_down() { Turn::Closed } else { Turn::Continue }
                }
                LineRead::Eof | LineRead::Dead => return Turn::Closed,
            };
            let sent = conn
                .writer
                .write_all(response.as_bytes())
                .and_then(|()| conn.writer.write_all(b"\n"))
                .and_then(|()| conn.writer.flush());
            if sent.is_err() {
                return Turn::Closed; // dead or timed-out (slow) client
            }
        }
        Turn::Continue
    }

    /// Serves one request line and returns the response line (no trailing
    /// newline). Public so the protocol is testable without a socket.
    pub fn handle_line(&self, line: &str) -> String {
        let started = Instant::now();
        self.requests.fetch_add(1, Ordering::Relaxed);
        let mut response = match serde_json::from_str::<MapRequest>(line) {
            Ok(request) => {
                let id = request.id;
                // A panicking request must answer with an error, not take the
                // worker (and a poisoned lock) down with it.
                let outcome = catch_unwind(AssertUnwindSafe(|| self.dispatch(&request)));
                let mut response = match outcome {
                    Ok(Ok(response)) => response,
                    Ok(Err(error)) => MapResponse::err(error),
                    Err(_) => MapResponse::err("internal panic while serving request".into()),
                };
                response.id = id;
                response
            }
            Err(e) => MapResponse::err(format!("bad request: {e}")),
        };
        if !response.ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        let latency_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        response.latency_us = Some(latency_us);
        let mut window = lock_recover(&self.latencies_us);
        if window.len() == LATENCY_WINDOW {
            window.pop_front();
        }
        window.push_back(latency_us);
        drop(window);
        serde_json::to_string(&response).unwrap_or_else(|e| {
            format!("{{\"ok\":false,\"error\":\"response serialisation failed: {e}\"}}")
        })
    }

    fn dispatch(&self, request: &MapRequest) -> Result<MapResponse, String> {
        match request.cmd.as_deref().unwrap_or("map") {
            "ping" => Ok(MapResponse { ok: true, ..Default::default() }),
            "stats" => Ok(MapResponse { ok: true, stats: Some(self.stats()), ..Default::default() }),
            "save" => {
                let path = self
                    .opts
                    .cache_file
                    .as_ref()
                    .ok_or_else(|| "no --cache-file configured".to_string())?;
                // One-shot injected crash in the tmp-write → rename window:
                // the panic unwinds to handle_line's catch_unwind, the client
                // sees an error, and the stale .tmp is cleaned at next bind.
                let crash = self.save_crash_armed.swap(false, Ordering::SeqCst);
                if crash {
                    self.faults_injected.fetch_add(1, Ordering::Relaxed);
                }
                self.cache
                    .save_with_crash_point(path, crash)
                    .map_err(|e| format!("cache save failed: {e}"))?;
                Ok(MapResponse { ok: true, ..Default::default() })
            }
            "shutdown" => {
                self.request_shutdown();
                Ok(MapResponse { ok: true, stats: Some(self.stats()), ..Default::default() })
            }
            "map" => self.serve_map(request),
            other => Err(format!("unknown cmd `{other}` (expected map|ping|stats|save|shutdown)")),
        }
    }

    fn serve_map(&self, request: &MapRequest) -> Result<MapResponse, String> {
        let started = Instant::now();
        let seq = self.map_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if self.opts.faults.should_panic(seq) {
            self.faults_injected.fetch_add(1, Ordering::Relaxed);
            panic!("injected fault: handler panic on map request {seq}");
        }
        let spec = request.workload.as_ref().ok_or_else(|| "missing `workload`".to_string())?;
        let workload = spec.to_workload()?;
        let objective = match request.objective.as_deref() {
            None | Some("runtime") => Objective::Runtime,
            Some("energy") => Objective::Energy,
            Some("edp") => Objective::Edp,
            Some(other) => {
                return Err(format!("unknown objective `{other}` (expected runtime|energy|edp)"))
            }
        };
        let mut cfg = AccelConfig::paper_default();
        if let Some(pes) = request.pes {
            cfg = cfg.with_pes(pes);
        }
        if let Some(bw) = request.bandwidth {
            cfg = cfg.with_bandwidth(bw);
        }
        let mut opts = DseOptions::new(objective);
        opts.threads = self.opts.search_threads;
        opts.top_k = request.top_k.unwrap_or(self.opts.top_k).clamp(1, self.opts.top_k.max(1));
        let mode = request.mode.as_deref().unwrap_or("exact");
        if !matches!(mode, "exact" | "fast") {
            return Err(format!("unknown mode `{mode}` (expected exact|fast)"));
        }
        // A cached answer is exact and fits any budget.
        if let Some(outcome) = self.cache.lookup(&workload, &cfg, &opts) {
            return Ok(Self::map_response(&outcome, "hit", None, "exact"));
        }
        // `fast` mode prefers a warm start over searching at all.
        if mode == "fast" {
            if let Some(response) = self.warm_start(&workload, &cfg, &opts, objective) {
                return Ok(response);
            }
        }
        match request.deadline_ms {
            None => {
                if self.opts.faults.search_delay_ms > 0 {
                    self.faults_injected.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(self.opts.faults.search_delay_ms));
                }
                let (outcome, how) = self.cache.explore_traced(&workload, &cfg, &opts);
                Ok(Self::map_response(&outcome, disposition(how), None, "exact"))
            }
            Some(deadline_ms) => {
                Ok(self.serve_with_deadline(&workload, cfg, opts, objective, deadline_ms, started))
            }
        }
    }

    /// Cold search under a deadline: the search runs on a detached thread
    /// while this worker waits out the budget (minus a margin reserved for
    /// composing a degraded answer). On time → exact; past budget → the
    /// degradation ladder. The abandoned search keeps running to populate
    /// the cache unless [`ServeOptions::background_complete`] is off, in
    /// which case its [`CancelToken`] stops it at the next chunk boundary.
    fn serve_with_deadline(
        &self,
        workload: &GnnWorkload,
        cfg: AccelConfig,
        opts: DseOptions,
        objective: Objective,
        deadline_ms: u64,
        started: Instant,
    ) -> MapResponse {
        let deadline = Duration::from_millis(deadline_ms.max(1));
        let margin = (deadline / 5).max(Duration::from_millis(1));
        let (rx, token) = self.spawn_search(workload, cfg, opts);
        let budget = deadline.saturating_sub(margin).saturating_sub(started.elapsed());
        match rx.recv_timeout(budget) {
            Ok(Some((outcome, how))) => {
                Self::map_response(&outcome, disposition(how), None, "exact")
            }
            // Cancelled under us (shutdown) or the search thread died:
            // degrade rather than stall or answer nothing.
            Ok(None) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                self.degraded_response(workload, &cfg, &opts, objective)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if !self.opts.background_complete {
                    token.cancel();
                }
                self.degraded_response(workload, &cfg, &opts, objective)
            }
        }
    }

    /// Starts a cancellable cached search on a detached thread, registering
    /// its [`CancelToken`] so shutdown can stop orphaned work. The channel
    /// yields `Some((outcome, disposition))`, or `None` if cancelled.
    fn spawn_search(
        &self,
        workload: &GnnWorkload,
        cfg: AccelConfig,
        opts: DseOptions,
    ) -> (mpsc::Receiver<SearchResult>, CancelToken) {
        let token = CancelToken::new();
        let id = self.search_seq.fetch_add(1, Ordering::Relaxed);
        lock_recover(&self.active_searches).insert(id, token.clone());
        if self.opts.faults.search_delay_ms > 0 {
            self.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        let (tx, rx) = mpsc::channel();
        let cache = Arc::clone(&self.cache);
        let registry = Arc::clone(&self.active_searches);
        let delay_ms = self.opts.faults.search_delay_ms;
        let workload = workload.clone();
        let cancel = token.clone();
        std::thread::spawn(move || {
            if delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(delay_ms));
            }
            let result = cache.explore_traced_cancellable(&workload, &cfg, &opts, &cancel);
            lock_recover(&registry).remove(&id);
            // The requester may have timed out and moved on; that just means
            // nobody reads the result — the cache insert already happened.
            let _ = tx.send(result);
        });
        (rx, token)
    }

    /// The degradation ladder for a missed deadline: warm-start
    /// re-evaluation of the nearest cached shape, then the best preset
    /// dataflow by direct evaluation, then an explicit shed. Each rung is a
    /// handful of cost-model calls — microseconds, well inside any margin.
    fn degraded_response(
        &self,
        workload: &GnnWorkload,
        cfg: &AccelConfig,
        opts: &DseOptions,
        objective: Objective,
    ) -> MapResponse {
        if let Some(response) = self.warm_start(workload, cfg, opts, objective) {
            self.degraded_warm.fetch_add(1, Ordering::Relaxed);
            return response;
        }
        if let Some(response) = self.preset_fallback(workload, cfg, opts, objective) {
            self.degraded_preset.fetch_add(1, Ordering::Relaxed);
            return response;
        }
        self.shed.fetch_add(1, Ordering::Relaxed);
        MapResponse::shed("deadline exceeded and no degraded answer is available".into())
    }

    /// Warm-start path: re-evaluates the ranked dataflows of the nearest
    /// cached shape on the actual workload — a handful of cost-model calls
    /// instead of a full search. `None` when the cache is empty or no hinted
    /// dataflow evaluates successfully (caller falls back further).
    fn warm_start(
        &self,
        workload: &GnnWorkload,
        cfg: &AccelConfig,
        opts: &DseOptions,
        objective: Objective,
    ) -> Option<MapResponse> {
        let hint = self.cache.warm_hint(workload)?;
        let hinted: Vec<GnnDataflow> = hint.outcome.ranked.iter().map(|r| r.dataflow).collect();
        let ranked: Vec<Decision> = rank(&hinted, workload, cfg, objective)
            .iter()
            .take(opts.top_k.max(1))
            .map(Decision::of)
            .collect();
        if ranked.is_empty() {
            return None;
        }
        self.warm_starts.fetch_add(1, Ordering::Relaxed);
        Some(MapResponse {
            ok: true,
            cache: Some("warm".into()),
            decision_quality: Some("warm".into()),
            best: ranked.first().cloned(),
            ranked: Some(ranked),
            warm_distance: Some(hint.distance),
            ..Default::default()
        })
    }

    /// Last resort before shedding: evaluate the preset candidate dataflows
    /// directly (the same seeds the full search starts from) and answer with
    /// the best. Always available — it needs no cache state at all.
    fn preset_fallback(
        &self,
        workload: &GnnWorkload,
        cfg: &AccelConfig,
        opts: &DseOptions,
        objective: Objective,
    ) -> Option<MapResponse> {
        let candidates = extended_candidates(workload, cfg);
        let ranked: Vec<Decision> = rank(&candidates, workload, cfg, objective)
            .iter()
            .take(opts.top_k.max(1))
            .map(Decision::of)
            .collect();
        if ranked.is_empty() {
            return None;
        }
        Some(MapResponse {
            ok: true,
            cache: Some("preset".into()),
            decision_quality: Some("preset".into()),
            best: ranked.first().cloned(),
            ranked: Some(ranked),
            ..Default::default()
        })
    }

    fn map_response(
        outcome: &ExploreOutcome,
        cache: &str,
        warm: Option<f64>,
        quality: &str,
    ) -> MapResponse {
        MapResponse {
            ok: true,
            cache: Some(cache.into()),
            decision_quality: Some(quality.into()),
            best: outcome.best().map(Decision::of),
            ranked: Some(outcome.ranked.iter().map(Decision::of).collect()),
            warm_distance: warm,
            ..Default::default()
        }
    }

    /// Current counters: request/error totals, the shared cache's
    /// hit/search/eviction counters, the robustness counters (shed, degraded
    /// by quality, cancelled searches, quarantined loads, injected faults),
    /// and p50/p99 service latency over a sliding window of recent requests.
    pub fn stats(&self) -> ServerStats {
        let mut sorted: Vec<u64> = lock_recover(&self.latencies_us).iter().copied().collect();
        sorted.sort_unstable();
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cache_entries: self.cache.len() as u64,
            searches: self.cache.searches() as u64,
            hits: self.cache.hits() as u64,
            coalesced: self.cache.coalesced() as u64,
            warm_starts: self.warm_starts.load(Ordering::Relaxed),
            evictions: self.cache.evictions() as u64,
            shed: self.shed.load(Ordering::Relaxed),
            degraded_warm: self.degraded_warm.load(Ordering::Relaxed),
            degraded_preset: self.degraded_preset.load(Ordering::Relaxed),
            cancelled_searches: self.cache.cancelled() as u64,
            quarantined_loads: self.cache.quarantined() as u64,
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            p50_us: percentile_us(&sorted, 0.50),
            p99_us: percentile_us(&sorted, 0.99),
        }
    }
}

fn disposition(how: CacheOutcome) -> &'static str {
    match how {
        CacheOutcome::Hit => "hit",
        CacheOutcome::Coalesced => "coalesced",
        CacheOutcome::Searched => "search",
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload_spec(g: usize) -> WorkloadSpec {
        WorkloadSpec {
            name: Some("tiny".into()),
            v: 24,
            f: 8,
            g,
            degrees: Some((0..24).map(|i| 1 + (i % 4)).collect()),
            mean_degree: None,
            attention_heads: None,
            post_op: None,
            dataset: None,
        }
    }

    fn test_server() -> MapperServer {
        test_server_with(ServeOptions::default())
    }

    fn test_server_with(mut opts: ServeOptions) -> MapperServer {
        // Port 0: bind a throwaway socket purely to construct the server; the
        // protocol tests below go through handle_line, not TCP.
        opts.addr = "127.0.0.1:0".into();
        opts.quiet = true;
        MapperServer::bind(opts).expect("bind")
    }

    fn request_json(spec: &WorkloadSpec, extra: &str) -> String {
        let workload = serde_json::to_string(spec).unwrap();
        format!("{{\"workload\":{workload}{extra}}}")
    }

    #[test]
    fn ping_stats_and_bad_json_round_trip() {
        let server = test_server();
        let pong: MapResponse =
            serde_json::from_str(&server.handle_line("{\"cmd\":\"ping\",\"id\":7}")).unwrap();
        assert!(pong.ok);
        assert_eq!(pong.id, Some(7));
        assert!(pong.latency_us.is_some());

        let bad: MapResponse = serde_json::from_str(&server.handle_line("{nope")).unwrap();
        assert!(!bad.ok);
        assert!(bad.error.unwrap().starts_with("bad request"));

        let stats: MapResponse =
            serde_json::from_str(&server.handle_line("{\"cmd\":\"stats\"}")).unwrap();
        let stats = stats.stats.expect("stats payload");
        assert_eq!(stats.requests, 3); // ping + bad line + this stats call
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn map_request_searches_then_hits() {
        let server = test_server();
        let line = request_json(&tiny_workload_spec(8), ",\"top_k\":3");
        let first: MapResponse = serde_json::from_str(&server.handle_line(&line)).unwrap();
        assert!(first.ok, "error: {:?}", first.error);
        assert_eq!(first.cache.as_deref(), Some("search"));
        assert_eq!(first.decision_quality.as_deref(), Some("exact"));
        let best = first.best.expect("a winning decision");
        assert!(best.cycles > 0);
        assert!(first.ranked.unwrap().len() <= 3);

        let second: MapResponse = serde_json::from_str(&server.handle_line(&line)).unwrap();
        assert_eq!(second.cache.as_deref(), Some("hit"));
        assert_eq!(second.decision_quality.as_deref(), Some("exact"));
        assert_eq!(second.best.unwrap().dataflow, best.dataflow);
        assert_eq!(server.cache().searches(), 1);
        assert_eq!(server.cache().hits(), 1);
    }

    #[test]
    fn fast_mode_warm_starts_from_the_nearest_shape() {
        let server = test_server();
        // Seed the cache with one exact search at g=8 …
        let seed = request_json(&tiny_workload_spec(8), "");
        let seeded: MapResponse = serde_json::from_str(&server.handle_line(&seed)).unwrap();
        assert!(seeded.ok);
        // … then ask for the unseen g=16 in fast mode: warm start, no search.
        let fast = request_json(&tiny_workload_spec(16), ",\"mode\":\"fast\"");
        let warm: MapResponse = serde_json::from_str(&server.handle_line(&fast)).unwrap();
        assert!(warm.ok, "error: {:?}", warm.error);
        assert_eq!(warm.cache.as_deref(), Some("warm"));
        assert_eq!(warm.decision_quality.as_deref(), Some("warm"));
        assert!(warm.warm_distance.unwrap() > 0.0);
        assert!(warm.best.is_some());
        assert_eq!(server.cache().searches(), 1, "warm start must not search");
    }

    #[test]
    fn map_errors_name_the_field() {
        let server = test_server();
        let missing: MapResponse = serde_json::from_str(&server.handle_line("{}")).unwrap();
        assert_eq!(missing.error.as_deref(), Some("missing `workload`"));

        let mut spec = tiny_workload_spec(8);
        spec.degrees = Some(vec![1; 3]); // wrong length
        let bad: MapResponse =
            serde_json::from_str(&server.handle_line(&request_json(&spec, ""))).unwrap();
        assert!(bad.error.unwrap().contains("degrees length 3 != v 24"));

        let unknown: MapResponse = serde_json::from_str(
            &server.handle_line(&request_json(&tiny_workload_spec(8), ",\"cmd\":\"frobnicate\"")),
        )
        .unwrap();
        assert!(unknown.error.unwrap().contains("unknown cmd"));
    }

    #[test]
    fn uniform_degree_fallback_builds_a_workload() {
        let spec = WorkloadSpec {
            name: None,
            v: 10,
            f: 4,
            g: 4,
            degrees: None,
            mean_degree: Some(2.6),
            attention_heads: Some(2),
            post_op: Some("act".into()),
            dataset: None,
        };
        let wl = spec.to_workload().unwrap();
        assert_eq!(wl.degrees, vec![3; 10]);
        assert_eq!(wl.nnz, 30);
        assert_eq!(wl.attention.unwrap().heads, 2);
        assert_eq!(wl.post_op, Some(ElementwiseOp::Activation));
    }

    #[test]
    fn scale_dataset_requests_generate_server_side() {
        let spec = WorkloadSpec {
            name: None,
            v: 0, // ignored: the graph supplies the shape
            f: 0,
            g: 8,
            degrees: None,
            mean_degree: None,
            attention_heads: None,
            post_op: None,
            dataset: Some("rmat-6".into()),
        };
        let wl = spec.to_workload().unwrap();
        assert_eq!(wl.v, 64);
        assert_eq!(wl.f, omega_graph::scale::SCALE_FEATURE_DIM);
        assert_eq!(wl.g, 8);
        assert!(wl.nnz > 64, "mirrors + self loops");
        // Deterministic across servers: the fixed seed pins the graph.
        let again = spec.to_workload().unwrap();
        assert_eq!(wl.degrees, again.degrees);
        // Unknown family names are rejected, not silently defaulted.
        let bad = WorkloadSpec { dataset: Some("rmat-x".into()), ..spec };
        assert!(bad.to_workload().is_err());
    }

    #[test]
    fn oversized_scale_datasets_are_refused_before_generation() {
        let server = test_server();
        let ask = |ds: &str| -> MapResponse {
            let spec = WorkloadSpec { dataset: Some(ds.into()), ..tiny_workload_spec(8) };
            serde_json::from_str(&server.handle_line(&request_json(&spec, ""))).unwrap()
        };
        for ds in ["rmat-21", "rmat-26", "chung-lu-21"] {
            let refused = ask(ds);
            assert!(!refused.ok, "{ds} was served");
            let error = refused.error.unwrap_or_default();
            assert!(error.contains("N <= 20"), "{ds}: error `{error}` does not name the limit");
        }
        let served = ask("rmat-6");
        assert!(served.ok, "rmat-6: {:?}", served.error);
        assert!(served.best.is_some());
    }

    #[test]
    fn oversized_mean_degree_specs_are_refused_before_allocation() {
        let server = test_server();
        let ask = |v: usize| -> MapResponse {
            let line = format!(r#"{{"workload":{{"v":{v},"f":16,"g":16,"mean_degree":4}}}}"#);
            serde_json::from_str(&server.handle_line(&line)).unwrap()
        };
        // 10^10 vertices would be an 80 GB degree vector.
        let refused = ask(10_000_000_000);
        assert!(!refused.ok, "a 10^10-vertex spec was served");
        let error = refused.error.unwrap_or_default();
        assert!(error.contains("v <= 2^20"), "error `{error}` does not name the limit");
        let served = ask(1 << 20);
        assert!(served.ok, "v = 2^20: {:?}", served.error);
        assert!(served.best.is_some());
    }

    #[test]
    fn out_of_range_degrees_are_refused() {
        let server = test_server();
        let ask = |workload: &str| -> MapResponse {
            let line = format!(r#"{{"workload":{workload}}}"#);
            serde_json::from_str(&server.handle_line(&line)).unwrap()
        };
        // 1e300 would saturate every degree to usize::MAX and overflow nnz.
        let huge = ask(r#"{"v":4,"f":16,"g":16,"mean_degree":1e300}"#);
        assert!(!huge.ok, "a 1e300 mean degree was served");
        let error = huge.error.unwrap_or_default();
        assert!(error.contains("at most v = 4"), "error `{error}` does not name the limit");
        let wide = ask(r#"{"v":4,"f":16,"g":16,"degrees":[1,2,5,1]}"#);
        assert!(!wide.ok, "a degree above v was served");
        let error = wide.error.unwrap_or_default();
        assert!(error.contains("degrees[2] = 5") && error.contains("at most v = 4"), "{error}");
        for workload in [
            r#"{"v":4,"f":16,"g":16,"degrees":[4,1,4,2]}"#,
            r#"{"v":4,"f":16,"g":16,"mean_degree":4}"#,
        ] {
            let served = ask(workload);
            assert!(served.ok, "{workload}: {:?}", served.error);
            assert!(served.best.is_some());
        }
    }

    #[test]
    fn oversized_widths_are_refused_before_anything_is_built() {
        let server = test_server();
        let ask = |workload: &str| -> MapResponse {
            let line = format!(r#"{{"workload":{workload}}}"#);
            serde_json::from_str(&server.handle_line(&line)).unwrap()
        };
        // Each of these used to abort the daemon on a 64 GiB allocation.
        for workload in [
            r#"{"v":4,"f":16,"g":4294967296,"mean_degree":2}"#,
            r#"{"v":4,"f":4294967296,"g":16,"mean_degree":2}"#,
            r#"{"v":4,"f":16,"g":65537,"mean_degree":2}"#,
            r#"{"dataset":"rmat-6","v":0,"f":0,"g":4294967296}"#,
            r#"{"dataset":"rmat-6","v":0,"f":65537,"g":16}"#,
        ] {
            let refused = ask(workload);
            assert!(!refused.ok, "{workload} was served");
            let error = refused.error.unwrap_or_default();
            assert!(error.contains("f, g <= 65536"), "{workload}: `{error}` names no limit");
        }
        // The daemon is still up, and the limit itself is served.
        for workload in [
            r#"{"v":4,"f":16,"g":65536,"mean_degree":2}"#,
            r#"{"v":4,"f":65536,"g":16,"mean_degree":2}"#,
        ] {
            let served = ask(workload);
            assert!(served.ok, "{workload}: {:?}", served.error);
            assert!(served.best.is_some());
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile_us(&[], 0.99), 0);
        assert_eq!(percentile_us(&[5], 0.50), 5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&v, 0.50), 50);
        assert_eq!(percentile_us(&v, 0.99), 99);
        assert_eq!(percentile_us(&v, 1.0), 100);
    }

    /// Forces tiny fill_buf slices so lines split across reads exercise the
    /// partial-accumulation path.
    fn chunked(bytes: &[u8]) -> BufReader<io::Cursor<Vec<u8>>> {
        BufReader::with_capacity(3, io::Cursor::new(bytes.to_vec()))
    }

    #[test]
    fn bounded_reader_assembles_lines_across_small_reads() {
        let mut reader = chunked(b"hello world\nsecond\npartial-then-eof");
        let mut pending = Vec::new();
        let mut discarding = false;
        let mut next = || read_bounded_line(&mut reader, &mut pending, &mut discarding, 64);
        assert_eq!(next(), LineRead::Line("hello world".into()));
        assert_eq!(next(), LineRead::Line("second".into()));
        assert_eq!(next(), LineRead::Eof, "a half-sent line before EOF is dropped");
    }

    #[test]
    fn bounded_reader_discards_oversized_lines_without_buffering_them() {
        let big = vec![b'x'; 200];
        let mut input = big.clone();
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let mut reader = chunked(&input);
        let mut pending = Vec::new();
        let mut discarding = false;
        let max = 16;
        loop {
            match read_bounded_line(&mut reader, &mut pending, &mut discarding, max) {
                LineRead::TooLong => break,
                LineRead::Pending => continue,
                other => panic!("expected TooLong, got {other:?}"),
            }
        }
        assert!(pending.len() <= max, "discard mode must not buffer the oversized line");
        // The connection is still usable: the next line parses normally.
        assert_eq!(
            read_bounded_line(&mut reader, &mut pending, &mut discarding, max),
            LineRead::Line("ok".into())
        );
    }

    #[test]
    fn bounded_reader_rejects_an_oversized_line_arriving_in_one_read() {
        // A complete-with-newline line over the bound, all in one buffer.
        let mut reader = BufReader::new(io::Cursor::new(b"0123456789ABCDEF\nok\n".to_vec()));
        let mut pending = Vec::new();
        let mut discarding = false;
        assert_eq!(read_bounded_line(&mut reader, &mut pending, &mut discarding, 8), LineRead::TooLong);
        assert_eq!(
            read_bounded_line(&mut reader, &mut pending, &mut discarding, 8),
            LineRead::Line("ok".into())
        );
    }

    #[test]
    fn deadline_miss_degrades_to_preset_then_background_completes() {
        let server = test_server_with(ServeOptions {
            faults: FaultPlan { search_delay_ms: 400, ..Default::default() },
            ..Default::default()
        });
        // Cold cache + 400 ms injected search delay + 30 ms budget: the
        // ladder has no warm neighbour, so the answer is the best preset.
        let line = request_json(&tiny_workload_spec(8), ",\"deadline_ms\":30,\"id\":1");
        let started = Instant::now();
        let degraded: MapResponse = serde_json::from_str(&server.handle_line(&line)).unwrap();
        assert!(degraded.ok, "error: {:?}", degraded.error);
        assert_eq!(degraded.decision_quality.as_deref(), Some("preset"));
        assert!(degraded.best.is_some(), "a preset answer still carries a decision");
        assert!(
            started.elapsed() < Duration::from_millis(350),
            "the deadline path must not wait out the full search delay"
        );
        let stats = server.stats();
        assert_eq!(stats.degraded_preset, 1);
        assert_eq!(stats.faults_injected, 1);
        // background_complete (default): the abandoned search still runs to
        // completion and publishes, so the same request later is an exact hit.
        let deadline = Instant::now() + Duration::from_secs(20);
        while server.cache().searches() == 0 {
            assert!(Instant::now() < deadline, "background search never completed");
            std::thread::sleep(Duration::from_millis(20));
        }
        let warm: MapResponse = serde_json::from_str(&server.handle_line(&line)).unwrap();
        assert_eq!(warm.cache.as_deref(), Some("hit"));
        assert_eq!(warm.decision_quality.as_deref(), Some("exact"));
    }

    #[test]
    fn deadline_miss_prefers_a_warm_neighbour_over_presets() {
        let server = test_server_with(ServeOptions {
            faults: FaultPlan { search_delay_ms: 400, ..Default::default() },
            background_complete: false,
            ..Default::default()
        });
        // Seed g=8 the slow way (no deadline: waits out the injected delay).
        let seed = request_json(&tiny_workload_spec(8), "");
        let seeded: MapResponse = serde_json::from_str(&server.handle_line(&seed)).unwrap();
        assert!(seeded.ok);
        // g=16 under a tight deadline: the nearest cached shape answers warm.
        let line = request_json(&tiny_workload_spec(16), ",\"deadline_ms\":30");
        let warm: MapResponse = serde_json::from_str(&server.handle_line(&line)).unwrap();
        assert!(warm.ok, "error: {:?}", warm.error);
        assert_eq!(warm.decision_quality.as_deref(), Some("warm"));
        assert!(warm.warm_distance.unwrap() > 0.0);
        assert_eq!(server.stats().degraded_warm, 1);
        // background_complete=false: the abandoned search is cancelled, so it
        // must never publish a second search. Give it time to prove that.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.cache().cancelled() == 0 {
            assert!(Instant::now() < deadline, "cancelled search never wound down");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(server.cache().searches(), 1, "the cancelled search must not publish");
    }

    #[test]
    fn injected_panics_answer_errors_and_are_counted() {
        let server = test_server_with(ServeOptions {
            faults: FaultPlan { panic_every: 2, ..Default::default() },
            ..Default::default()
        });
        let line = request_json(&tiny_workload_spec(8), "");
        let first: MapResponse = serde_json::from_str(&server.handle_line(&line)).unwrap();
        assert!(first.ok, "first map request is not a panic multiple");
        let second: MapResponse = serde_json::from_str(&server.handle_line(&line)).unwrap();
        assert!(!second.ok);
        assert!(second.error.unwrap().contains("panic"));
        // The daemon survives and keeps serving (request 3 is odd → no panic).
        let third: MapResponse = serde_json::from_str(&server.handle_line(&line)).unwrap();
        assert!(third.ok);
        assert_eq!(third.cache.as_deref(), Some("hit"));
        let stats = server.stats();
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn injected_save_crash_leaves_tmp_and_recovery_cleans_it() {
        let dir = std::env::temp_dir().join(format!("omega-serve-crash-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache_file = dir.join("cache.json");
        let server = test_server_with(ServeOptions {
            cache_file: Some(cache_file.clone()),
            faults: FaultPlan { save_crash: true, ..Default::default() },
            ..Default::default()
        });
        let line = request_json(&tiny_workload_spec(8), "");
        let mapped: MapResponse = serde_json::from_str(&server.handle_line(&line)).unwrap();
        assert!(mapped.ok);
        // First save crashes in the tmp-write → rename window …
        let crashed: MapResponse =
            serde_json::from_str(&server.handle_line("{\"cmd\":\"save\"}")).unwrap();
        assert!(!crashed.ok);
        assert!(crashed.error.unwrap().contains("panic"));
        assert!(cache_file.with_extension("tmp").exists(), "crash leaves the tmp file behind");
        assert!(!cache_file.exists(), "the crashed save must not have renamed");
        // … the fault is one-shot: the retry succeeds …
        let saved: MapResponse =
            serde_json::from_str(&server.handle_line("{\"cmd\":\"save\"}")).unwrap();
        assert!(saved.ok, "error: {:?}", saved.error);
        assert!(cache_file.exists());
        drop(server);
        // … and a restart cleans the stale tmp and loads the good file.
        let reborn = test_server_with(ServeOptions {
            cache_file: Some(cache_file.clone()),
            ..Default::default()
        });
        assert!(!cache_file.with_extension("tmp").exists(), "bind cleans stale tmp files");
        let warm: MapResponse = serde_json::from_str(&reborn.handle_line(&line)).unwrap();
        assert_eq!(warm.cache.as_deref(), Some("hit"));
        assert_eq!(reborn.cache().searches(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
