//! The resident analysis service: socket lifecycle, request admission,
//! per-connection workers, and the process-wide caches.
//!
//! # Architecture
//!
//! One [`Daemon`] owns the process state every request shares:
//!
//! * a **PTS store** — compiled programs keyed by `(source, params,
//!   invariant_iters)` itself, so a suite row is compiled and
//!   invariant-propagated once per daemon lifetime and a hit is always
//!   the requested program; an LRU bounds it at [`PTS_STORE_CAPACITY`];
//! * the **shared warm-start basis cache** ([`SharedBasisCache`]) —
//!   installed into every request's `LpSolver` sessions, spilled to the
//!   configured cache file whenever a request dirtied it, and reloaded
//!   on startup so warmth survives restarts;
//! * an **admission gate** bounding concurrent analyses to the rayon
//!   pool width: engine racing already fans each admitted request across
//!   the pool, so admitting more requests than workers would only add
//!   queueing *inside* the pool with worse tail latency — the gate
//!   queues excess requests at the boundary instead, where cancellation
//!   can still reject them cheaply;
//! * honest **process totals**: every request's per-run [`LpStats`]
//!   slices (which partition session totals — pinned by a qava-core
//!   concurrency test) are merged into certified/abandoned buckets.
//!
//! Each accepted connection gets a serving thread and one reader thread
//! that owns the socket's read side for the connection's lifetime. The
//! reader passes request lines (each capped at [`MAX_LINE_BYTES`]) to
//! the serving loop through a channel a few lines deep, which bounds
//! what a pipelining client can make the daemon buffer. On EOF or a
//! socket error it marks the client gone and raises the cancel flag of
//! the analysis in flight: every racing engine observes it at its next
//! LP-solve boundary ([`qava_lp::LpError::Cancelled`]) and the admission
//! permit is released, so an abandoned request frees its worker in
//! bounded time. A request admitted after the client left starts
//! cancelled. When the serving loop ends it shuts the socket down,
//! which ends the reader too.

use crate::json::{obj, parse, Json};
use crate::protocol::{
    engine_run_to_json, intern_name, lp_stats_to_json, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use qava_core::engine::{race_with, AnalysisRequest, EngineRegistry};
use qava_core::suite::runner::EngineRun;
use qava_core::EngineError;
use qava_lp::{BackendChoice, BasisCache, LpSolver, LpStats, SharedBasisCache};
use qava_pts::Pts;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Most compiled programs the PTS store keeps; the least recently used
/// is evicted first. Far above the 36-row suite, while bounding what a
/// stream of never-repeated programs can make a resident daemon hold.
pub const PTS_STORE_CAPACITY: usize = 256;

/// Depth of a connection's request queue: how many read-ahead lines a
/// pipelining client can make the daemon hold while it is busy.
const QUEUED_LINES: usize = 4;

/// Everything that determines a compiled PTS: the source, each param's
/// name and value bits, and the invariant-propagation rounds.
type PtsKey = (String, Vec<(String, u64)>, usize);

/// How the daemon is wired up; see the field docs for defaults.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix-domain socket path to listen on. A stale socket file (left
    /// by a killed daemon) is removed; a *live* one is a bind error.
    pub socket: PathBuf,
    /// Where the shared warm-start cache spills; `None` keeps it
    /// memory-only (still shared across requests, lost on exit).
    pub cache_file: Option<PathBuf>,
    /// LRU bound of the shared cache.
    pub cache_capacity: usize,
    /// Concurrent-analysis bound; `0` means the rayon pool width.
    pub max_inflight: usize,
    /// Backend policy for request sessions unless a request overrides it
    /// with `"lp_backend"`.
    pub backend: BackendChoice,
}

impl DaemonConfig {
    /// A config with everything defaulted except the socket path.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            socket: socket.into(),
            cache_file: None,
            cache_capacity: qava_lp::DEFAULT_SHARED_CACHE_CAPACITY,
            max_inflight: 0,
            backend: BackendChoice::default(),
        }
    }
}

/// Counting semaphore bounding concurrent analyses (std has none; a
/// mutexed counter + condvar is exactly sufficient at request
/// granularity).
struct Gate {
    max: usize,
    inflight: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    fn new(max: usize) -> Gate {
        Gate { max: max.max(1), inflight: Mutex::new(0), freed: Condvar::new() }
    }

    fn acquire(&self) -> Permit<'_> {
        let mut n = self.inflight.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while *n >= self.max {
            n = self.freed.wait(n).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        *n += 1;
        Permit { gate: self }
    }
}

/// RAII admission permit: dropping it (normal completion, error paths,
/// and unwinds alike) frees the slot and wakes one queued request.
struct Permit<'a> {
    gate: &'a Gate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut n =
            self.gate.inflight.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *n -= 1;
        self.gate.freed.notify_one();
    }
}

/// State shared by every connection thread.
struct Shared {
    config: DaemonConfig,
    registry: EngineRegistry,
    warm: Arc<SharedBasisCache>,
    pts_store: Mutex<BasisCache<PtsKey, Arc<Pts>>>,
    gate: Gate,
    /// Merged certified LP work across all completed requests.
    totals: Mutex<LpStats>,
    /// Merged cancelled-racer LP work (kept apart, like suite footers).
    abandoned: Mutex<LpStats>,
    requests: AtomicUsize,
    disconnect_cancels: AtomicUsize,
    pts_hits: AtomicUsize,
    pts_misses: AtomicUsize,
    shutdown: AtomicBool,
}

impl Shared {
    fn new(config: DaemonConfig, warm: Arc<SharedBasisCache>, max_inflight: usize) -> Shared {
        Shared {
            gate: Gate::new(max_inflight),
            registry: EngineRegistry::with_builtins(),
            warm,
            pts_store: Mutex::new(BasisCache::new(PTS_STORE_CAPACITY)),
            totals: Mutex::new(LpStats::default()),
            abandoned: Mutex::new(LpStats::default()),
            requests: AtomicUsize::new(0),
            disconnect_cancels: AtomicUsize::new(0),
            pts_hits: AtomicUsize::new(0),
            pts_misses: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            config,
        }
    }

    fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Spills the shared cache if a request dirtied it. Best-effort: a
    /// failed spill warns and the daemon keeps serving from memory.
    fn maybe_spill(&self) {
        let Some(path) = &self.config.cache_file else { return };
        if self.warm.take_dirty() == 0 {
            return;
        }
        if let Err(e) = self.warm.save(path) {
            eprintln!("qavad: warm-start cache spill to {} failed: {e}", path.display());
        }
    }
}

/// A bound, not-yet-serving daemon. Construction loads the persistent
/// cache and claims the socket; [`run`](Daemon::run) serves until a
/// `shutdown` request.
pub struct Daemon {
    shared: Arc<Shared>,
    listener: UnixListener,
}

impl Daemon {
    /// Loads the warm-start cache (corruption-tolerant: anything
    /// unreadable logs a warning and starts cold) and binds the socket.
    ///
    /// # Errors
    ///
    /// Socket errors: the path is un-bindable, or a live daemon already
    /// listens there.
    pub fn bind(config: DaemonConfig) -> std::io::Result<Daemon> {
        if config.socket.exists() {
            // Distinguish a live daemon from a stale file left by a
            // killed process: only the latter is ours to clean up.
            if UnixStream::connect(&config.socket).is_ok() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!("a daemon is already listening on {}", config.socket.display()),
                ));
            }
            std::fs::remove_file(&config.socket)?;
        }
        let warm = Arc::new(match &config.cache_file {
            Some(path) => SharedBasisCache::load_or_cold(path, config.cache_capacity),
            None => SharedBasisCache::new(config.cache_capacity),
        });
        let listener = UnixListener::bind(&config.socket)?;
        let max_inflight = if config.max_inflight == 0 {
            rayon::current_num_threads()
        } else {
            config.max_inflight
        };
        Ok(Daemon { shared: Arc::new(Shared::new(config, warm, max_inflight)), listener })
    }

    /// Number of bases the persistent cache started with (restart-warmth
    /// introspection for tests and logs).
    pub fn warm_entries(&self) -> usize {
        self.shared.warm.len()
    }

    /// Serves requests until a `shutdown` request arrives, then removes
    /// the socket file and returns. Connection threads are detached;
    /// connections still open at shutdown die with the process (or, in
    /// tests, when their client disconnects).
    pub fn run(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let shared = self.shared.clone();
                    std::thread::spawn(move || serve_connection(&shared, stream));
                }
                Err(e) => eprintln!("qavad: accept failed: {e}"),
            }
        }
        self.shared.maybe_spill();
        let _ = std::fs::remove_file(&self.shared.config.socket);
        Ok(())
    }
}

/// What a connection's reader thread knows about the client's departure.
/// `analyze` arms `cancel` after admission and disarms it after the run.
#[derive(Default)]
struct Departure {
    /// The read side hit EOF or an error: the client is gone.
    gone: bool,
    /// Cancel flag of the analysis in flight, raised on departure.
    cancel: Option<Arc<AtomicBool>>,
}

impl Departure {
    /// Arms `cancel` for the reader to raise on departure. If the client
    /// already left, raises it at once and returns `true`.
    fn arm(&mut self, cancel: &Arc<AtomicBool>) -> bool {
        cancel.store(self.gone, Ordering::SeqCst);
        self.cancel = Some(cancel.clone());
        self.gone
    }
}

/// Reads one `\n`-terminated line of at most `cap` bytes. `Ok(None)` is
/// EOF; a longer line is an [`ErrorKind::InvalidData`] error.
fn read_line(reader: &mut impl BufRead, cap: usize) -> std::io::Result<Option<String>> {
    let mut line = Vec::new();
    reader.take(cap as u64 + 1).read_until(b'\n', &mut line)?;
    if line.pop() == Some(b'\n') {
        return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
    }
    if line.len() < cap {
        // EOF with or without a dangling unterminated fragment: a
        // vanished client has no request to answer.
        return Ok(None);
    }
    Err(std::io::Error::new(ErrorKind::InvalidData, format!("request line exceeds {cap} bytes")))
}

fn write_response(mut stream: &UnixStream, doc: &Json) -> std::io::Result<()> {
    let mut line = doc.render();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

fn error_response(id: Option<usize>, message: &str) -> Json {
    let mut pairs = vec![("ok", Json::Bool(false))];
    if let Some(id) = id {
        pairs.push(("id", Json::Num(id as f64)));
    }
    pairs.push(("error", Json::Str(message.to_string())));
    obj(pairs)
}

fn serve_connection(shared: &Shared, stream: UnixStream) {
    let departure = &Mutex::new(Departure::default());
    let (lines, requests) = sync_channel(QUEUED_LINES);
    std::thread::scope(|s| {
        s.spawn(|| read_requests(shared, &stream, lines, departure));
        serve_requests(shared, &stream, requests, departure);
        // Ends the reader with the connection: its blocked read returns,
        // and a blocked send fails now that `requests` is dropped.
        let _ = stream.shutdown(Shutdown::Both);
    });
}

/// The connection's reader thread: forwards request lines until the
/// client leaves or the serving loop stops listening, then reports the
/// departure.
fn read_requests(
    shared: &Shared,
    stream: &UnixStream,
    lines: SyncSender<std::io::Result<String>>,
    departure: &Mutex<Departure>,
) {
    let mut reader = BufReader::new(stream);
    loop {
        match read_line(&mut reader, MAX_LINE_BYTES) {
            Ok(Some(line)) => {
                if lines.send(Ok(line)).is_err() {
                    return; // the serving loop has ended
                }
            }
            // The serving loop answers it once, then ends the connection.
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                let _ = lines.send(Err(e));
                return;
            }
            Ok(None) | Err(_) => break,
        }
    }
    let mut departure = Shared::lock(departure);
    departure.gone = true;
    if let Some(cancel) = departure.cancel.take() {
        cancel.store(true, Ordering::SeqCst);
        shared.disconnect_cancels.fetch_add(1, Ordering::SeqCst);
    }
}

fn serve_requests(
    shared: &Shared,
    writer: &UnixStream,
    requests: Receiver<std::io::Result<String>>,
    departure: &Mutex<Departure>,
) {
    for line in requests {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                let _ = write_response(writer, &error_response(None, &e.to_string()));
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match parse(&line) {
            Ok(doc) => doc,
            Err(e) => {
                let msg = format!("malformed request: {e}");
                if write_response(writer, &error_response(None, &msg)).is_err() {
                    return;
                }
                continue;
            }
        };
        let response = match request.get("cmd").and_then(Json::as_str) {
            Some("hello") => hello_response(shared),
            Some("stats") => stats_response(shared),
            Some("analyze") => analyze(shared, &request, departure),
            Some("shutdown") => {
                shared.maybe_spill();
                let _ = write_response(writer, &obj(vec![("ok", Json::Bool(true))]));
                shared.shutdown.store(true, Ordering::SeqCst);
                // Unblock the accept loop so `run` observes the flag.
                let _ = UnixStream::connect(&shared.config.socket);
                return;
            }
            Some(other) => error_response(None, &format!("unknown cmd \"{other}\"")),
            None => error_response(None, "request has no \"cmd\""),
        };
        if write_response(writer, &response).is_err() {
            return; // client gone; nothing left to tell it
        }
    }
}

fn hello_response(shared: &Shared) -> Json {
    obj(vec![
        ("ok", Json::Bool(true)),
        ("server", Json::Str("qavad".to_string())),
        ("protocol", Json::Num(PROTOCOL_VERSION as f64)),
        ("pid", Json::Num(f64::from(std::process::id()))),
        ("warm_entries", Json::Num(shared.warm.len() as f64)),
        (
            "cache_file",
            match &shared.config.cache_file {
                Some(p) => Json::Str(p.display().to_string()),
                None => Json::Null,
            },
        ),
    ])
}

fn stats_response(shared: &Shared) -> Json {
    obj(vec![
        ("ok", Json::Bool(true)),
        ("requests", Json::Num(shared.requests.load(Ordering::SeqCst) as f64)),
        (
            "disconnect_cancels",
            Json::Num(shared.disconnect_cancels.load(Ordering::SeqCst) as f64),
        ),
        ("pts_hits", Json::Num(shared.pts_hits.load(Ordering::SeqCst) as f64)),
        ("pts_misses", Json::Num(shared.pts_misses.load(Ordering::SeqCst) as f64)),
        ("warm_entries", Json::Num(shared.warm.len() as f64)),
        ("lp", lp_stats_to_json(&Shared::lock(&shared.totals))),
        ("abandoned", lp_stats_to_json(&Shared::lock(&shared.abandoned))),
        ("kernel", Json::Str(qava_lp::kernel_provenance())),
    ])
}

/// Compile-once store: requests for an already-seen
/// `(source, params, iters)` reuse the compiled, invariant-propagated
/// PTS. `Arc` because racing engines borrow the program concurrently
/// while other requests for the same program are admitted.
fn compile_cached(
    shared: &Shared,
    source: &str,
    params: &BTreeMap<String, f64>,
    invariant_iters: usize,
) -> Result<(Arc<Pts>, bool), String> {
    let key: PtsKey = (
        source.to_string(),
        params.iter().map(|(name, value)| (name.clone(), value.to_bits())).collect(),
        invariant_iters,
    );
    if let Some(pts) = Shared::lock(&shared.pts_store).get(&key) {
        shared.pts_hits.fetch_add(1, Ordering::SeqCst);
        return Ok((pts, true));
    }
    shared.pts_misses.fetch_add(1, Ordering::SeqCst);
    let mut pts =
        qava_lang::compile(source, params).map_err(|e| format!("compile error: {e}"))?;
    if invariant_iters > 0 {
        qava_pts::propagate_invariants(&mut pts, invariant_iters);
    }
    let pts = Arc::new(pts);
    // A concurrent request may have compiled the same program; either
    // copy is fine (compilation is deterministic).
    Shared::lock(&shared.pts_store).put(key, pts.clone());
    Ok((pts, false))
}

fn analyze(shared: &Shared, request: &Json, departure: &Mutex<Departure>) -> Json {
    let id = request.get("id").and_then(Json::as_usize);
    shared.requests.fetch_add(1, Ordering::SeqCst);

    let Some(source) = request.get("source").and_then(Json::as_str) else {
        return error_response(id, "analyze request has no \"source\"");
    };
    let mut params = BTreeMap::new();
    if let Some(pairs) = request.get("params").and_then(Json::as_obj) {
        for (name, value) in pairs {
            let Some(v) = value.as_f64() else {
                return error_response(id, &format!("param \"{name}\" is not a number"));
            };
            params.insert(name.clone(), v);
        }
    }
    let engine_names: Vec<&'static str> = match request.get("engines").and_then(Json::as_arr) {
        Some(arr) if !arr.is_empty() => {
            let mut names = Vec::with_capacity(arr.len());
            for item in arr {
                match item.as_str() {
                    Some(name) => names.push(intern_name(name)),
                    None => return error_response(id, "\"engines\" must be strings"),
                }
            }
            names
        }
        _ => return error_response(id, "analyze request needs a non-empty \"engines\" list"),
    };
    let race = request.get("race").and_then(Json::as_bool).unwrap_or(false);
    let invariant_iters =
        request.get("invariant_iters").and_then(Json::as_usize).unwrap_or(0);
    let deadline = request
        .get("deadline_ms")
        .and_then(Json::as_usize)
        .map(|ms| Duration::from_millis(ms as u64));
    let backend = match request.get("lp_backend").and_then(Json::as_str) {
        None => shared.config.backend,
        Some(name) => {
            match BackendChoice::from_args(&["--lp-backend".to_string(), name.to_string()]) {
                Ok(Some(choice)) => choice,
                _ => return error_response(id, &format!("unknown lp backend \"{name}\"")),
            }
        }
    };

    // Compile (or fetch) before admission: the PTS store is cheap and
    // hot, and a compile error should not occupy an analysis slot.
    let (pts, pts_hit) = match compile_cached(shared, source, &params, invariant_iters) {
        Ok(pair) => pair,
        Err(e) => return error_response(id, &e),
    };

    // Admission: one permit per analysis, released on every exit path.
    let permit = shared.gate.acquire();
    let cancel = Arc::new(AtomicBool::new(false));
    if Shared::lock(departure).arm(&cancel) {
        shared.disconnect_cancels.fetch_add(1, Ordering::SeqCst);
    }

    let runs = if race {
        run_race(shared, &pts, &engine_names, deadline, backend, &cancel)
    } else {
        run_sequential(shared, &pts, &engine_names, deadline, backend, &cancel)
    };
    Shared::lock(departure).cancel = None;
    drop(permit);

    // Fold this request's slices into the process totals (the slices
    // partition per-session work, so the totals stay honest under
    // concurrency) and spill the cache if the request warmed it.
    {
        let mut totals = Shared::lock(&shared.totals);
        for run in &runs {
            totals.merge(&run.lp);
        }
        let mut abandoned = Shared::lock(&shared.abandoned);
        for run in &runs {
            abandoned.merge(&run.abandoned);
        }
    }
    shared.maybe_spill();

    let cancelled = cancel.load(Ordering::SeqCst)
        && runs.iter().all(|r| r.bound.is_err());
    obj(vec![
        ("ok", Json::Bool(true)),
        ("id", Json::Num(id.unwrap_or(0) as f64)),
        ("pts_cache", Json::Str(if pts_hit { "hit" } else { "miss" }.to_string())),
        ("cancelled", Json::Bool(cancelled)),
        ("runs", Json::Arr(runs.iter().map(engine_run_to_json).collect())),
    ])
}

/// Sequential mode: each requested engine runs to completion in its own
/// session — the daemon-side mirror of the suite runner's sequential
/// driver, plus the request's cancel flag and the shared cache.
fn run_sequential(
    shared: &Shared,
    pts: &Pts,
    engine_names: &[&'static str],
    deadline: Option<Duration>,
    backend: BackendChoice,
    cancel: &Arc<AtomicBool>,
) -> Vec<EngineRun> {
    engine_names
        .iter()
        .map(|&name| match shared.registry.engine(name) {
            None => EngineRun {
                engine: name,
                bound: Err(format!("unknown engine `{name}`")),
                seconds: 0.0,
                lp: LpStats::default(),
                abandoned: LpStats::default(),
                raced: Vec::new(),
                fault: None,
            },
            Some(engine) => {
                let mut req = AnalysisRequest::new(pts, engine.direction());
                req.deadline = deadline;
                let mut solver = LpSolver::with_choice(backend);
                solver.set_cancel_flag(cancel.clone());
                solver.set_shared_cache(shared.warm.clone());
                let t0 = Instant::now();
                let report = engine.run(&req, &mut solver);
                EngineRun {
                    engine: name,
                    bound: report
                        .outcome
                        .as_ref()
                        .map(|c| c.bound)
                        .map_err(ToString::to_string),
                    seconds: t0.elapsed().as_secs_f64(),
                    lp: report.lp,
                    abandoned: LpStats::default(),
                    raced: Vec::new(),
                    fault: None,
                }
            }
        })
        .collect()
}

/// Race mode: the daemon-side mirror of the suite runner's race driver —
/// same winner/abandoned semantics, but with the request's cancel flag
/// wired through [`race_with`] (so a disconnect cancels the whole race)
/// and the shared cache installed into every racer's session.
fn run_race(
    shared: &Shared,
    pts: &Pts,
    engine_names: &[&'static str],
    deadline: Option<Duration>,
    backend: BackendChoice,
    cancel: &Arc<AtomicBool>,
) -> Vec<EngineRun> {
    if let Some(unknown) =
        engine_names.iter().find(|n| shared.registry.engine(n).is_none())
    {
        return vec![EngineRun {
            engine: "race",
            bound: Err(format!("unknown engine `{unknown}`")),
            seconds: 0.0,
            lp: LpStats::default(),
            abandoned: LpStats::default(),
            raced: engine_names.to_vec(),
            fault: None,
        }];
    }
    let lineup: Vec<_> =
        engine_names.iter().filter_map(|n| shared.registry.engine(n)).collect();
    let raced: Vec<&'static str> = lineup.iter().map(|e| e.name()).collect();
    // Direction of the race: the lineup's first engine (mixed-direction
    // lineups race the first direction; the rest are skipped, exactly as
    // `race` screens them).
    let mut req = AnalysisRequest::new(pts, lineup[0].direction());
    req.deadline = deadline;
    let warm = shared.warm.clone();
    let t0 = Instant::now();
    let outcome = race_with(&lineup, &req, backend, cancel.clone(), &move |solver| {
        solver.set_shared_cache(warm.clone())
    });
    let seconds = t0.elapsed().as_secs_f64();
    let run = match outcome.winner {
        Some(w) => {
            let report = &outcome.reports[w];
            EngineRun {
                engine: report.engine,
                bound: Ok(report.outcome.as_ref().expect("winner is certified").bound),
                seconds,
                lp: report.lp.clone(),
                abandoned: outcome.abandoned,
                raced,
                fault: None,
            }
        }
        None => {
            let msgs: Vec<String> = outcome
                .reports
                .iter()
                .filter(|r| !r.cancelled())
                .map(|r| {
                    format!(
                        "{}: {}",
                        r.engine,
                        r.outcome
                            .as_ref()
                            .err()
                            .map_or_else(|| "uncertified".to_string(), EngineError::to_string)
                    )
                })
                .collect();
            EngineRun {
                engine: "race",
                bound: Err(if msgs.is_empty() {
                    "cancelled".to_string()
                } else {
                    msgs.join("; ")
                }),
                seconds,
                lp: LpStats::default(),
                abandoned: outcome.abandoned,
                raced,
                fault: None,
            }
        }
    };
    vec![run]
}

/// Renders a one-line startup banner (the binary prints it; tests don't).
pub fn banner(daemon: &Daemon) -> String {
    format!(
        "qavad listening on {} (protocol {PROTOCOL_VERSION}, {} warm bases, \
         cache {}, {} analysis slots)",
        daemon.shared.config.socket.display(),
        daemon.warm_entries(),
        daemon
            .shared
            .config
            .cache_file
            .as_ref()
            .map_or_else(|| "in-memory".to_string(), |p| p.display().to_string()),
        daemon.shared.gate.max,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_bounds_inflight_and_releases_on_drop() {
        let gate = Arc::new(Gate::new(2));
        let peak = Arc::new(AtomicUsize::new(0));
        let current = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (gate, peak, current) = (gate.clone(), peak.clone(), current.clone());
                s.spawn(move || {
                    let _permit = gate.acquire();
                    let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(5));
                    current.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "gate must bound concurrency");
        assert_eq!(*gate.inflight.lock().unwrap(), 0, "all permits returned");
    }

    fn test_shared() -> Shared {
        Shared::new(DaemonConfig::new("unbound.sock"), Arc::default(), 1)
    }

    /// A one-line program with a parameter `n`, made distinct by `i`.
    fn program(i: usize) -> String {
        format!("param n = 1; x := n + {i}; if prob(0.5) {{ assert false; }} else {{ exit; }}")
    }

    /// Compiles through the store, returning whether it was a hit.
    fn hit(shared: &Shared, source: &str, n: Option<f64>, iters: usize) -> bool {
        let params = n.map(|v| ("n".to_string(), v)).into_iter().collect();
        compile_cached(shared, source, &params, iters).expect("compiles").1
    }

    #[test]
    fn pts_store_separates_params() {
        let (shared, src) = (test_shared(), program(0));
        assert!(!hit(&shared, &src, Some(40.0), 0));
        assert!(!hit(&shared, &src, Some(41.0), 0), "other params, other program");
        assert!(!hit(&shared, &src, None, 0), "no params is a program of its own");
        assert!(hit(&shared, &src, Some(40.0), 0));
        assert!(hit(&shared, &src, Some(41.0), 0));
    }

    #[test]
    fn pts_store_separates_invariant_iters() {
        let (shared, src) = (test_shared(), program(0));
        assert!(!hit(&shared, &src, None, 0));
        assert!(!hit(&shared, &src, None, 8), "other rounds, other program");
        assert!(hit(&shared, &src, None, 0));
        assert!(hit(&shared, &src, None, 8));
    }

    #[test]
    fn pts_store_evicts_the_least_recently_used_program() {
        let shared = test_shared();
        for i in 0..PTS_STORE_CAPACITY {
            assert!(!hit(&shared, &program(i), None, 0));
        }
        // Touching program 0 leaves program 1 the least recently used,
        // so the capacity + 1st program evicts it.
        assert!(hit(&shared, &program(0), None, 0));
        assert!(!hit(&shared, &program(PTS_STORE_CAPACITY), None, 0));
        let misses = shared.pts_misses.load(Ordering::SeqCst);
        assert!(hit(&shared, &program(0), None, 0), "recently used program survives");
        assert!(!hit(&shared, &program(1), None, 0), "least recently used program was evicted");
        assert_eq!(shared.pts_misses.load(Ordering::SeqCst), misses + 1);
    }

    #[test]
    fn direction_str_roundtrip() {
        use crate::protocol::{direction_str, parse_direction};
        for d in [qava_core::Direction::Upper, qava_core::Direction::Lower] {
            assert_eq!(parse_direction(direction_str(d)), Some(d));
        }
    }
}
