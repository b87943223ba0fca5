//! The four workloads, each a closed loop of `clients` threads that
//! send their next request only after the previous one answered.
//!
//! * `suite-inproc` — whole seeded passes over the 36 table rows, each
//!   analysis one `runner::run_rows_with` call with the paper lineup,
//!   sent by one client.
//! * `daemon-suite` — suite rows in seeded blocks, sent to a warmed-up
//!   `qavad` over `clients` connections.
//! * `daemon-serial` — the same request stream over one connection, as
//!   one `qava FILE --connect SOCK` client after another sends it.
//! * `daemon-fresh` — Table 2 programs at never-repeated parameters,
//!   sent to `qavad`; every request compiles.

use crate::check::{self, EngineAnswer, Expected, Tally};
use crate::daemon::{self, Daemon};
use crate::gen::{Blocks, FreshDraw, FreshDraws};
use crate::trace::{self, Span, Tracer};
use qava_convex::ConvexError;
use qava_core::engine::{AnalysisRequest, EngineRegistry};
use qava_core::explinsyn::build_convex_program_in;
use qava_core::invariants::propagate_invariants;
use qava_core::suite::runner::{default_engines, run_rows_with, EngineRun};
use qava_core::suite::Benchmark;
use qava_core::template::TemplateSpace;
use qava_core::LogProb;
use qava_lp::{BackendChoice, LpSolver, LpStats};
use qava_pts::Pts;
use qavad::client::{AnalyzeSpec, SUITE_INVARIANT_ITERS};
use qavad::json::Json;
use qavad::Client;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SuiteInproc,
    DaemonSuite,
    DaemonSerial,
    DaemonFresh,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SuiteInproc,
        Workload::DaemonSuite,
        Workload::DaemonSerial,
        Workload::DaemonFresh,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteInproc => "suite-inproc",
            Workload::DaemonSuite => "daemon-suite",
            Workload::DaemonSerial => "daemon-serial",
            Workload::DaemonFresh => "daemon-fresh",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Closed-loop clients (and, on a daemon, connections) of a run.
    pub fn clients(self, nproc: usize) -> usize {
        match self {
            Workload::DaemonSerial | Workload::SuiteInproc => 1,
            _ => nproc,
        }
    }
}

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Everything a run needs.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub clients: usize,
    pub qavad: PathBuf,
    /// Private scratch directory of this run (daemon sockets, caches).
    pub work_dir: PathBuf,
    pub rows: Vec<Benchmark>,
    pub expected: Expected,
    pub registry: EngineRegistry,
}

/// The paper's engine lineup for a row.
pub fn lineup(b: &Benchmark) -> Vec<&'static str> {
    default_engines(b.direction).to_vec()
}

/// What one request asks for.
#[derive(Debug, Clone)]
pub enum Request {
    Row(usize),
    Fresh(FreshDraw),
}

enum Gen {
    Rows(Blocks),
    Fresh(FreshDraws),
}

impl Gen {
    fn new(ctx: &Ctx) -> Gen {
        match ctx.workload {
            Workload::SuiteInproc => Gen::Rows(Blocks::new(ctx.seed, 1, ctx.rows.len())),
            Workload::DaemonSuite | Workload::DaemonSerial => {
                Gen::Rows(Blocks::new(ctx.seed, 2, ctx.rows.len()))
            }
            Workload::DaemonFresh => Gen::Fresh(FreshDraws::new(ctx.seed)),
        }
    }

    /// The next request, or `None` once time is up and the requests
    /// handed out form whole blocks.
    fn next(&mut self, expired: bool) -> Option<Request> {
        let boundary = match self {
            Gen::Rows(g) => g.at_boundary(),
            Gen::Fresh(g) => g.at_boundary(),
        };
        if expired && boundary {
            return None;
        }
        Some(match self {
            Gen::Rows(g) => Request::Row(g.next_item()),
            Gen::Fresh(g) => Request::Fresh(g.next_draw()),
        })
    }
}

/// One engine's part of an answered analysis.
#[derive(Debug, Clone)]
pub struct Answer {
    pub engine: String,
    pub ln: Result<f64, String>,
    pub seconds: f64,
    pub lp: LpStats,
}

impl From<EngineRun> for Answer {
    fn from(run: EngineRun) -> Answer {
        Answer {
            engine: run.engine.to_string(),
            ln: run.bound.map(|b| b.ln()),
            seconds: run.seconds,
            lp: run.lp,
        }
    }
}

/// One analysis of a timed phase.
pub struct Record {
    pub id: u64,
    pub request: Request,
    pub latency_s: f64,
    /// `Err`: an error response, or no response at all.
    pub outcome: Result<Vec<Answer>, String>,
    /// The daemon reused a compiled program.
    pub pts_hit: bool,
}

/// A timed phase: its analyses, its wall time, and the CPU seconds the
/// serving process spent in it.
pub struct Phase {
    pub records: Vec<Record>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Per-layer counters that are not spans.
#[derive(Default)]
pub struct Layers {
    pub lp: LpStats,
    pub canonical_constraints: usize,
    pub newton_iters: usize,
    pub convex_failed: usize,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("benchmark state poisoned by a panicking client")
}

/// Runs `clients` closed-loop client threads for `seconds`, then until
/// the requests handed out form whole blocks.
fn closed_loop<C>(
    ctx: &Ctx,
    pid: u32,
    gen: &Mutex<Gen>,
    connect: impl Fn() -> Result<C, String> + Sync,
    send: impl Fn(&mut C, u64, &Request) -> (Result<Vec<Answer>, String>, bool) + Sync,
) -> Result<Phase, String> {
    let next_id = AtomicU64::new(0);
    let records = Mutex::new(Vec::new());
    let errors = Mutex::new(Vec::new());
    let cpu0 = daemon::cpu_seconds(pid)?;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..ctx.clients {
            s.spawn(|| {
                let mut conn = match connect() {
                    Ok(c) => c,
                    Err(e) => return lock(&errors).push(e),
                };
                loop {
                    let expired = t0.elapsed().as_secs_f64() >= ctx.seconds;
                    let Some(request) = lock(gen).next(expired) else {
                        break;
                    };
                    let id = next_id.fetch_add(1, Ordering::Relaxed);
                    let sent = Instant::now();
                    let (outcome, pts_hit) = send(&mut conn, id, &request);
                    let latency_s = sent.elapsed().as_secs_f64();
                    let failed = outcome.is_err();
                    lock(&records).push(Record {
                        id,
                        request,
                        latency_s,
                        outcome,
                        pts_hit,
                    });
                    if failed {
                        // The connection may be dead; a daemon that is
                        // gone leaves every later request unanswered.
                        conn = match connect() {
                            Ok(c) => c,
                            Err(_) => break,
                        };
                    }
                }
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = daemon::cpu_seconds(pid)? - cpu0;
    let errors = errors.into_inner().expect("error list poisoned");
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    let mut records = records.into_inner().expect("record list poisoned");
    records.sort_by_key(|r| r.id);
    Ok(Phase {
        records,
        wall_s,
        cpu_s,
    })
}

/// A suite row's paper-lineup analysis through the public runner.
fn run_row(ctx: &Ctx, row: usize) -> Vec<Answer> {
    let reports = run_rows_with(
        std::slice::from_ref(&ctx.rows[row]),
        lineup,
        BackendChoice::default(),
    );
    reports
        .into_iter()
        .flat_map(|r| r.runs)
        .map(Answer::from)
        .collect()
}

fn analyze_spec<'a>(ctx: &'a Ctx, id: u64, request: &'a Request) -> AnalyzeSpec<'a> {
    let (source, params, engines) = request_input(ctx, request);
    AnalyzeSpec {
        id: usize::try_from(id).unwrap_or(usize::MAX),
        source,
        params,
        engines: engines.into_iter().map(str::to_string).collect(),
        race: false,
        deadline_ms: None,
        invariant_iters: SUITE_INVARIANT_ITERS,
        lp_backend: None,
    }
}

/// One `analyze` round trip.
fn daemon_send(
    ctx: &Ctx,
    client: &mut Client,
    id: u64,
    request: &Request,
) -> (Result<Vec<Answer>, String>, bool) {
    match client.analyze(&analyze_spec(ctx, id, request)) {
        Ok(resp) if resp.cancelled => (Err("analysis cancelled".to_string()), resp.pts_cache_hit),
        Ok(resp) => (
            Ok(resp.runs.into_iter().map(Answer::from).collect()),
            resp.pts_cache_hit,
        ),
        Err(e) => (Err(e), false),
    }
}

/// Whose execution a traced analysis mirrors.
#[derive(Clone, Copy)]
enum Mirror<'a> {
    /// The suite runner: every engine task compiles its own program, and
    /// a row's engines run in parallel.
    Runner,
    /// The daemon: one compile per request unless its store already held
    /// the program, and the engines one after another.
    Daemon(Option<&'a Pts>),
}

/// A suite row or fresh draw as (source, params, lineup).
fn request_input<'a>(
    ctx: &'a Ctx,
    request: &'a Request,
) -> (&'a str, &'a BTreeMap<String, f64>, Vec<&'static str>) {
    match request {
        Request::Row(i) => {
            let b = &ctx.rows[*i];
            (b.source, &b.params, lineup(b))
        }
        Request::Fresh(d) => (d.source, &d.params, vec!["explowsyn"]),
    }
}

fn traced_compile(
    tracer: &Tracer,
    parent: u64,
    id: u64,
    source: &str,
    params: &BTreeMap<String, f64>,
) -> Result<Pts, String> {
    let mut pts = tracer
        .scope("lang.compile", Some(parent), id, || {
            qava_lang::compile(source, params)
        })
        .map_err(|e| format!("compile error: {e}"))?;
    tracer.scope("invariants.propagate", Some(parent), id, || {
        propagate_invariants(&mut pts, SUITE_INVARIANT_ITERS);
    });
    Ok(pts)
}

/// One analysis through the public layer calls, each inside a span
/// under `root`: compile, invariant propagation, and per engine its
/// `BoundEngine::run` — or, for `explinsyn`, the convex program build
/// and solve it consists of.
fn traced_analysis(
    ctx: &Ctx,
    tracer: &Tracer,
    layers: &Mutex<Layers>,
    root: u64,
    id: u64,
    request: &Request,
    mirror: Mirror<'_>,
) -> Result<Vec<Answer>, String> {
    let (source, params, engines) = request_input(ctx, request);
    match mirror {
        Mirror::Runner => std::thread::scope(|s| {
            let handles: Vec<_> = engines
                .iter()
                .map(|&name| {
                    s.spawn(move || {
                        let pts = traced_compile(tracer, root, id, source, params)?;
                        Ok(traced_engine(ctx, tracer, layers, root, id, &pts, name))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("traced engine task panicked"))
                .collect()
        }),
        Mirror::Daemon(stored) => {
            let compiled;
            let pts = match stored {
                Some(pts) => pts,
                None => {
                    compiled = traced_compile(tracer, root, id, source, params)?;
                    &compiled
                }
            };
            Ok(engines
                .iter()
                .map(|&name| traced_engine(ctx, tracer, layers, root, id, pts, name))
                .collect())
        }
    }
}

fn traced_engine(
    ctx: &Ctx,
    tracer: &Tracer,
    layers: &Mutex<Layers>,
    root: u64,
    id: u64,
    pts: &Pts,
    name: &'static str,
) -> Answer {
    let Some(engine) = ctx.registry.engine(name) else {
        return Answer {
            engine: name.to_string(),
            ln: Err(format!("unknown engine `{name}`")),
            seconds: 0.0,
            lp: LpStats::default(),
        };
    };
    let req = AnalysisRequest::new(pts, engine.direction());
    let mut solver = LpSolver::with_choice(BackendChoice::default());
    let span = tracer.open(&format!("engine.{name}"), Some(root), id);
    let span_id = span.id();
    let t0 = Instant::now();
    let (ln, own_lp) = if name == "explinsyn" {
        (
            traced_explinsyn(tracer, layers, span_id, id, &req, &mut solver),
            0.0,
        )
    } else {
        let report = engine.run(&req, &mut solver);
        (
            report
                .outcome
                .map(|c| c.bound.ln())
                .map_err(|e| e.to_string()),
            solver.stats().wall_seconds,
        )
    };
    let seconds = t0.elapsed().as_secs_f64();
    tracer.close(span, own_lp);
    let lp = solver.take_stats();
    lock(layers).lp.merge(&lp);
    Answer {
        engine: name.to_string(),
        ln,
        seconds,
        lp,
    }
}

/// ExpLinSyn as its public steps: template space, convex program build
/// (whose canonicalization probes are this engine's LP work), solve.
fn traced_explinsyn(
    tracer: &Tracer,
    layers: &Mutex<Layers>,
    parent: u64,
    id: u64,
    req: &AnalysisRequest<'_>,
    solver: &mut LpSolver,
) -> Result<f64, String> {
    let pts = req.pts;
    if pts.is_absorbing(pts.initial_state().loc) {
        return Err("initial location is absorbing; the bound is trivial".to_string());
    }
    let space = TemplateSpace::new(pts, false);
    let build = tracer.open("canonical.build", Some(parent), id);
    let problem = build_convex_program_in(pts, &space, solver);
    tracer.close(build, solver.stats().wall_seconds);
    let problem = problem.map_err(|e| e.to_string())?;
    let solved = tracer.scope("convex.solve", Some(parent), id, || {
        problem.solve(&req.convex)
    });
    let mut l = lock(layers);
    l.canonical_constraints += problem.num_constraints();
    match solved {
        Ok(sol) => {
            l.newton_iters += sol.newton_iterations;
            Ok(LogProb::from_ln(sol.objective).clamp_to_unit().ln())
        }
        Err(e) => {
            l.convex_failed += 1;
            Err(match e {
                ConvexError::Infeasible => {
                    "no exponential pre fixed-point with affine exponent exists".to_string()
                }
                ConvexError::NumericalFailure(m) => format!("convex solver failed: {m}"),
            })
        }
    }
}

/// Checks every analysis of a phase; returns whether each passed.
pub fn check_phase(
    ctx: &Ctx,
    phase: &Phase,
    brackets: &[Option<(f64, f64)>],
    tally: &mut Tally,
) -> Vec<bool> {
    phase
        .records
        .iter()
        .map(|rec| {
            let answers = match &rec.outcome {
                Ok(a) => a,
                Err(e) => {
                    tally.fail(format!("request {}: {e}", rec.id));
                    return false;
                }
            };
            let pairs: Vec<EngineAnswer> = answers
                .iter()
                .map(|a| (a.engine.clone(), a.ln.clone()))
                .collect();
            match &rec.request {
                Request::Row(i) => {
                    let want = lineup(&ctx.rows[*i]);
                    check::check_suite_analysis(
                        tally,
                        &ctx.expected,
                        brackets,
                        &ctx.rows,
                        *i,
                        &pairs,
                        &want,
                    )
                }
                Request::Fresh(d) => check_fresh(ctx, d, &pairs, tally),
            }
        })
        .collect()
}

/// A fresh draw's daemon bound against an in-process run of the same
/// input.
fn check_fresh(ctx: &Ctx, d: &FreshDraw, answers: &[EngineAnswer], tally: &mut Tally) -> bool {
    let what = format!("{} {:?}", d.name, d.params);
    let [(engine, Ok(got))] = answers else {
        tally.fail(format!(
            "{what}: expected one certified explowsyn run, got {answers:?}"
        ));
        return false;
    };
    if engine != "explowsyn" {
        tally.fail(format!("{what}: ran {engine}"));
        return false;
    }
    let reference = qava_lang::compile(d.source, &d.params)
        .map_err(|e| e.to_string())
        .and_then(|mut pts| {
            propagate_invariants(&mut pts, SUITE_INVARIANT_ITERS);
            let engine = ctx
                .registry
                .engine("explowsyn")
                .ok_or("explowsyn is not registered")?;
            let req = AnalysisRequest::new(&pts, engine.direction());
            let report = engine.run(&req, &mut LpSolver::with_choice(BackendChoice::default()));
            report
                .outcome
                .map(|c| c.bound.ln())
                .map_err(|e| e.to_string())
        });
    match reference {
        Ok(want) if check::fresh_matches(*got, want) => return true,
        Ok(want) => tally.fail(format!(
            "{what}: daemon ln-bound {got} vs in-process {want}"
        )),
        Err(e) => tally.fail(format!("{what}: in-process reference failed: {e}")),
    }
    false
}

/// One whole seeded pass of the suite, sent the way the timed phase
/// sends its requests (the set-up's warm-up); an error or an
/// uncertified run aborts the run.
fn warm_pass<C>(
    ctx: &Ctx,
    connect: impl Fn() -> Result<C, String> + Sync,
    send: impl Fn(&mut C, &Request) -> Result<Vec<Answer>, String> + Sync,
) -> Result<(), String> {
    let mut order = Blocks::new(ctx.seed, 0, ctx.rows.len());
    let queue: Vec<usize> = (0..ctx.rows.len()).map(|_| order.next_item()).collect();
    let next = AtomicUsize::new(0);
    let errors = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..ctx.clients {
            s.spawn(|| {
                let mut conn = match connect() {
                    Ok(c) => c,
                    Err(e) => return lock(&errors).push(e),
                };
                while let Some(&row) = queue.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let failure = match send(&mut conn, &Request::Row(row)) {
                        Err(e) => Some(e),
                        Ok(answers) => answers
                            .into_iter()
                            .find_map(|a| a.ln.err().map(|e| format!("{}: {e}", a.engine))),
                    };
                    if let Some(e) = failure {
                        return lock(&errors).push(format!("warm-up row {row}: {e}"));
                    }
                }
            });
        }
    });
    let errors = errors.into_inner().expect("error list poisoned");
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

/// A set-up that leaves the workload ready for its first timed request.
enum Ready {
    InProcess,
    Daemon(Daemon),
}

impl Ready {
    fn pid(&self) -> u32 {
        match self {
            Ready::InProcess => std::process::id(),
            Ready::Daemon(d) => d.pid,
        }
    }

    fn stop(self) -> Result<(), String> {
        match self {
            Ready::InProcess => Ok(()),
            Ready::Daemon(d) => d.stop(),
        }
    }
}

static SETUP_SEQ: AtomicUsize = AtomicUsize::new(0);

/// One timed set-up: for `suite-inproc` a warm-up pass through the runner;
/// for the daemon workloads spawning `qavad`, its socket, `hello`, and
/// (`daemon-suite`, `daemon-serial`) a warm-up pass that fills its stores.
fn setup(ctx: &Ctx) -> Result<(Ready, f64), String> {
    let t0 = Instant::now();
    let ready = match ctx.workload {
        Workload::SuiteInproc => {
            warm_pass(
                ctx,
                || Ok(()),
                |_, req| match req {
                    Request::Row(i) => Ok(run_row(ctx, *i)),
                    Request::Fresh(_) => Err("suite-inproc sends suite rows only".to_string()),
                },
            )?;
            Ready::InProcess
        }
        Workload::DaemonSuite | Workload::DaemonSerial | Workload::DaemonFresh => {
            let dir = ctx
                .work_dir
                .join(format!("d{}", SETUP_SEQ.fetch_add(1, Ordering::Relaxed)));
            let d = Daemon::start(&ctx.qavad, &dir)?;
            if ctx.workload != Workload::DaemonFresh {
                warm_pass(ctx, || d.connect(), |c, req| daemon_send(ctx, c, 0, req).0)?;
            }
            Ready::Daemon(d)
        }
    };
    Ok((ready, t0.elapsed().as_secs_f64()))
}

/// An untraced timed phase on a ready workload.
fn untraced_phase(ctx: &Ctx, ready: &Ready) -> Result<Phase, String> {
    let gen = Mutex::new(Gen::new(ctx));
    let pid = ready.pid();
    match ready {
        Ready::InProcess => closed_loop(
            ctx,
            pid,
            &gen,
            || Ok(()),
            |_, _, req| match req {
                Request::Row(i) => (Ok(run_row(ctx, *i)), false),
                Request::Fresh(_) => (Err("suite-inproc sends suite rows only".to_string()), false),
            },
        ),
        Ready::Daemon(d) => closed_loop(
            ctx,
            pid,
            &gen,
            || d.connect(),
            |c, id, req| daemon_send(ctx, c, id, req),
        ),
    }
}

/// End-to-end results of an untraced run.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub phase: Phase,
    pub peak_rss_mb: f64,
}

/// The untraced run: [`SETUPS`] timed set-ups (all but the last torn
/// down again), then one timed phase on the last. The second result is
/// daemon hygiene over every daemon the run started.
pub fn run_untraced(ctx: &Ctx) -> Result<(EndToEnd, Result<(), String>), String> {
    let mut setup_s = Vec::new();
    let mut hygiene = Ok(());
    for _ in 1..SETUPS {
        let (ready, s) = setup(ctx)?;
        setup_s.push(s);
        hygiene = hygiene.and(ready.stop());
    }
    let (ready, s) = setup(ctx)?;
    setup_s.push(s);
    let phase = untraced_phase(ctx, &ready)?;
    let peak_rss_mb = daemon::peak_rss_mb(ready.pid())?;
    let hygiene = hygiene.and(ready.stop());
    Ok((
        EndToEnd {
            setup_s,
            phase,
            peak_rss_mb,
        },
        hygiene,
    ))
}

/// Results of a traced run.
pub struct Traced {
    /// The untraced phase run first, for the tracing overhead.
    pub untraced: Phase,
    pub traced: Phase,
    pub spans: Vec<Span>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// Daemon counters from `stats`.
fn daemon_stats(d: &Daemon) -> Result<Json, String> {
    d.connect()?.stats()
}

fn stat_count(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The traced run: an untraced phase, then the traced phase of the same
/// request stream, each on a set-up of its own (so a fresh draw is never
/// sent to one daemon twice).
pub fn run_traced(ctx: &Ctx) -> Result<(Traced, Result<(), String>), String> {
    let (ready, _) = setup(ctx)?;
    let untraced = untraced_phase(ctx, &ready)?;
    let first_stop = ready.stop();
    let (ready, _) = setup(ctx)?;
    let tracer = Tracer::default();
    let layers = Mutex::new(Layers::default());
    let gen = Mutex::new(Gen::new(ctx));
    let (traced, daemon_side) = match &ready {
        Ready::InProcess => {
            let phase = closed_loop(
                ctx,
                ready.pid(),
                &gen,
                || Ok(()),
                |_, id, req| {
                    let root = tracer.open("analysis", None, id);
                    let root_id = root.id();
                    let out =
                        traced_analysis(ctx, &tracer, &layers, root_id, id, req, Mirror::Runner);
                    tracer.close(root, 0.0);
                    (out, false)
                },
            )?;
            (phase, None)
        }
        Ready::Daemon(d) => {
            let before = daemon_stats(d)?;
            let phase = closed_loop(
                ctx,
                d.pid,
                &gen,
                || d.connect(),
                |c, id, req| {
                    tracer.scope("qavad.request", None, id, || daemon_send(ctx, c, id, req))
                },
            )?;
            let after = daemon_stats(d)?;
            let cache_bytes = std::fs::metadata(&d.cache_file).map_or(0, |m| m.len());
            (phase, Some((before, after, cache_bytes)))
        }
    };
    let hygiene = first_stop.and(ready.stop());
    if daemon_side.is_some() {
        replay(ctx, &tracer, &layers, &traced);
    }
    let spans = tracer.finish();
    let metrics = per_layer(
        &traced,
        &spans,
        &layers.into_inner().expect("layer totals poisoned"),
        daemon_side.as_ref(),
    );
    Ok((
        Traced {
            untraced,
            traced,
            spans,
            metrics,
        },
        hygiene,
    ))
}

/// Replays the daemon's analyses in-process with spans, to split the
/// daemon-side time the client cannot see into layers: programs the
/// daemon found in its store are replayed precompiled, the others
/// compile inside spans.
fn replay(ctx: &Ctx, tracer: &Tracer, layers: &Mutex<Layers>, phase: &Phase) {
    let compiled: Vec<Pts> = ctx.rows.iter().map(Benchmark::compile).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..ctx.clients {
            s.spawn(|| {
                while let Some(rec) = phase.records.get(next.fetch_add(1, Ordering::Relaxed)) {
                    if rec.outcome.is_err() {
                        continue;
                    }
                    let mirror = match (&rec.request, rec.pts_hit) {
                        (Request::Row(i), true) => Mirror::Daemon(Some(&compiled[*i])),
                        _ => Mirror::Daemon(None),
                    };
                    let root = tracer.open("replay.analysis", None, rec.id);
                    let root_id = root.id();
                    // The replay's bounds were checked on the daemon's
                    // answers already; only its spans matter here.
                    let _ =
                        traced_analysis(ctx, tracer, layers, root_id, rec.id, &rec.request, mirror);
                    tracer.close(root, 0.0);
                }
            });
        }
    });
}

/// LP metrics per analysis from merged session statistics.
fn lp_metrics(lp: &LpStats, n: f64, out: &mut Vec<(String, f64, &'static str)>) {
    let mut put = |name: &str, v: f64, unit: &'static str| out.push((name.to_string(), v, unit));
    put("lp.ms", lp.wall_seconds * 1e3 / n, "ms/analysis");
    put("lp.solves", lp.solves as f64 / n, "count/analysis");
    put("lp.pivots", lp.pivots as f64 / n, "count/analysis");
    put(
        "lp.pivots_per_solve",
        ratio(lp.pivots as f64, lp.solves as f64),
        "count/solve",
    );
    put(
        "lp.retries",
        (lp.watchdog_restarts + lp.bland_retries + lp.failovers) as f64 / n,
        "count/analysis",
    );
    put(
        "lp.warm_hit_ratio",
        ratio(
            lp.warm_start_hits as f64,
            (lp.warm_start_hits + lp.warm_start_misses) as f64,
        ),
        "ratio",
    );
    for backend in ["dense", "sparse", "lu-ft"] {
        let t = lp.backends.iter().find(|t| t.name == backend);
        put(
            &format!("lp.backend.{backend}.ms"),
            t.map_or(0.0, |t| t.wall_seconds) * 1e3 / n,
            "ms/analysis",
        );
        put(
            &format!("lp.backend.{backend}.solves"),
            t.map_or(0.0, |t| t.solves as f64) / n,
            "count/analysis",
        );
    }
    put(
        "lp.persistent_warm_hits",
        lp.persistent_warm_hits as f64 / n,
        "count/analysis",
    );
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run, per analysis of the traced
/// phase.
fn per_layer(
    phase: &Phase,
    spans: &[Span],
    layers: &Layers,
    daemon_side: Option<&(Json, Json, u64)>,
) -> Vec<(String, f64, &'static str)> {
    let n = phase.records.len().max(1) as f64;
    let self_ns = trace::self_times(spans);
    // name -> (count, total ns, self ns)
    let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name.as_str()).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += self_ns[&s.id];
    }
    let total_ms = |name: &str| by_name.get(name).map_or(0.0, |e| e.1 as f64 / 1e6) / n;
    let self_ms = |name: &str| by_name.get(name).map_or(0.0, |e| e.2 as f64 / 1e6) / n;

    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let answers = || {
        phase
            .records
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .flatten()
    };
    match daemon_side {
        None => lp_metrics(&layers.lp, n, &mut out),
        Some(_) => {
            // The daemon's own LP sessions, shared warm cache included.
            let mut lp = LpStats::default();
            for a in answers() {
                lp.merge(&a.lp);
            }
            lp_metrics(&lp, n, &mut out);
        }
    }
    let mut put = |name: &str, v: f64, unit: &'static str| out.push((name.to_string(), v, unit));
    put("convex.solve.ms", total_ms("convex.solve"), "ms/analysis");
    put(
        "convex.newton_iters",
        layers.newton_iters as f64 / n,
        "count/analysis",
    );
    put(
        "convex.failed",
        layers.convex_failed as f64 / n,
        "count/analysis",
    );
    put(
        "canonical.build.ms",
        total_ms("canonical.build"),
        "ms/analysis",
    );
    put(
        "canonical.constraints",
        layers.canonical_constraints as f64 / n,
        "count/analysis",
    );
    for engine in ["hoeffding-linear", "explinsyn", "explowsyn"] {
        let span = format!("engine.{engine}");
        let ms = match daemon_side {
            None => total_ms(&span),
            // What the daemon reported running the engine.
            Some(_) => {
                answers()
                    .filter(|a| a.engine == engine)
                    .fold(0.0, |acc, a| acc + a.seconds * 1e3)
                    / n
            }
        };
        put(&format!("{span}.ms"), ms, "ms/analysis");
        put(&format!("{span}.self.ms"), self_ms(&span), "ms/analysis");
    }
    put("lang.compile.ms", total_ms("lang.compile"), "ms/analysis");
    put(
        "invariants.propagate.ms",
        total_ms("invariants.propagate"),
        "ms/analysis",
    );
    match daemon_side {
        None => {
            put(
                "lang.compile.calls",
                by_name.get("lang.compile").map_or(0.0, |e| e.0 as f64) / n,
                "count/analysis",
            );
            put("qavad.overhead.ms", 0.0, "ms/analysis");
            put("qavad.pts_hit_ratio", 0.0, "ratio");
            put("qavad.warm_entries", 0.0, "count");
            put("qavad.cache_file_bytes", 0.0, "bytes");
            put("unattributed.ms", self_ms("analysis"), "ms/analysis");
        }
        Some((before, after, cache_bytes)) => {
            let hits = stat_count(after, "pts_hits") - stat_count(before, "pts_hits");
            let misses = stat_count(after, "pts_misses") - stat_count(before, "pts_misses");
            put("lang.compile.calls", misses / n, "count/analysis");
            let engine_s = |r: &Record| {
                r.outcome
                    .as_ref()
                    .map_or(0.0, |a| a.iter().fold(0.0, |acc, a| acc + a.seconds))
            };
            let overhead_ms = phase
                .records
                .iter()
                .fold(0.0, |acc, r| acc + (r.latency_s - engine_s(r)) * 1e3)
                / n;
            put("qavad.overhead.ms", overhead_ms, "ms/analysis");
            put("qavad.pts_hit_ratio", ratio(hits, hits + misses), "ratio");
            put(
                "qavad.warm_entries",
                stat_count(after, "warm_entries"),
                "count",
            );
            put("qavad.cache_file_bytes", *cache_bytes as f64, "bytes");
            // Round trip not explained by engine time or by the
            // (replayed) compile of a store miss.
            let compile_ms = total_ms("lang.compile") + total_ms("invariants.propagate");
            put("unattributed.ms", overhead_ms - compile_ms, "ms/analysis");
        }
    }
    out
}

/// Per-analysis latencies of a phase, ms.
pub fn latencies_ms(phase: &Phase) -> Vec<f64> {
    phase.records.iter().map(|r| r.latency_s * 1e3).collect()
}
