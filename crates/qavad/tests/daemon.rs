//! End-to-end tests of the resident analysis service: a real daemon on
//! a real Unix socket, driven by real client connections.
//!
//! The heavyweight test is the conformance gate: the full 36-row suite
//! driven through the daemon must certify bit-identical bounds (1e-9 in
//! ln-space) to the in-process driver, a second daemon-mediated run
//! must hit the shared warm-start cache persistently, and a *restarted*
//! daemon reloading the spilled cache file must still start warm. The
//! cheap tests pin the failure modes: disconnect-cancellation freeing
//! the single analysis slot, deadline expiry winding down as cancelled,
//! corrupted cache files booting cold, and protocol-level rejection
//! keeping the connection usable. The connection tests pin pipelining,
//! departure before the run, the line-size cap, and that a request pays
//! no per-request wait.

use qava_core::suite::runner::{default_engines, run_rows_with, RowReport};
use qava_core::suite::{table1, table2, Benchmark};
use qava_lp::BackendChoice;
use qavad::client::{run_suite_via_daemon, AnalyzeSpec, Client, SUITE_INVARIANT_ITERS};
use qavad::json::Json;
use qavad::server::{Daemon, DaemonConfig};
use qavad::protocol::MAX_LINE_BYTES;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A unique scratch directory per test (tests run in one process but on
/// different names).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qavad-test-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Boots a daemon on its own thread and waits until it accepts
/// connections. Returns the join handle; stop it with a `shutdown`
/// request.
fn boot(config: DaemonConfig) -> std::thread::JoinHandle<()> {
    let socket = config.socket.clone();
    let daemon = Daemon::bind(config).expect("bind daemon");
    let handle = std::thread::spawn(move || daemon.run().expect("daemon run"));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(&socket) {
            Ok(mut client) => {
                client.hello().expect("hello");
                return handle;
            }
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10))
            }
            Err(e) => panic!("daemon never came up on {}: {e}", socket.display()),
        }
    }
}

fn shutdown(socket: &Path, handle: std::thread::JoinHandle<()>) {
    Client::connect(socket).expect("connect for shutdown").shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

fn suite_rows() -> Vec<Benchmark> {
    table1().into_iter().chain(table2()).collect()
}

/// A raw `analyze` request line for a suite row (sequential mode, the
/// suite's invariant rounds).
fn analyze_line(id: usize, row: &Benchmark, engine: &str) -> String {
    format!(
        "{{\"cmd\":\"analyze\",\"id\":{id},\"source\":{},\"engines\":[\"{engine}\"],\"invariant_iters\":8,\"params\":{}}}\n",
        Json::Str(row.source.to_string()).render(),
        Json::Obj(row.params.iter().map(|(k, &v)| (k.clone(), Json::from_f64(v))).collect())
            .render(),
    )
}

/// Reads one response line off a raw connection and parses it.
fn read_response(reader: &mut impl BufRead) -> Json {
    let mut line = String::new();
    assert!(reader.read_line(&mut line).expect("read response") > 0, "daemon hung up early");
    qavad::json::parse(line.trim_end()).expect("response is JSON")
}

/// Asserts two suite runs certified identical outcomes: same engines in
/// the same order, bounds within 1e-9 in ln-space, failures for
/// failures.
fn assert_conformant(daemon_side: &[RowReport], in_process: &[RowReport]) {
    assert_eq!(daemon_side.len(), in_process.len());
    for (d, p) in daemon_side.iter().zip(in_process) {
        assert_eq!(d.name, p.name, "row order must match");
        assert_eq!(d.runs.len(), p.runs.len(), "{}: run count", d.name);
        for (dr, pr) in d.runs.iter().zip(&p.runs) {
            assert_eq!(dr.engine, pr.engine, "{} ({}): engine", d.name, d.label);
            match (&dr.bound, &pr.bound) {
                (Ok(db), Ok(pb)) => assert!(
                    (db.ln() - pb.ln()).abs() <= 1e-9,
                    "{} ({}) / {}: daemon ln {} vs in-process ln {}",
                    d.name,
                    d.label,
                    dr.engine,
                    db.ln(),
                    pb.ln()
                ),
                (Err(_), Err(_)) => {}
                (daemon, local) => panic!(
                    "{} ({}) / {}: verdicts diverge (daemon {daemon:?}, in-process {local:?})",
                    d.name, d.label, dr.engine
                ),
            }
        }
    }
}

fn persistent_hits(client: &mut Client) -> usize {
    let stats = client.stats().expect("stats");
    stats
        .get("lp")
        .and_then(|lp| lp.get("persistent_warm_hits"))
        .and_then(Json::as_usize)
        .expect("stats carries lp.persistent_warm_hits")
}

/// The acceptance gate of the daemon: full-suite conformance, warm
/// cross-request cache hits on the second run, and restart warmth from
/// the spilled cache file.
#[test]
fn suite_over_daemon_is_conformant_and_warms_across_runs_and_restarts() {
    let dir = scratch("suite");
    let socket = dir.join("qavad.sock");
    let cache = dir.join("warm.cache");
    let rows = suite_rows();
    assert_eq!(rows.len(), 36);

    let reference =
        run_rows_with(&rows, |b| default_engines(b.direction).to_vec(), BackendChoice::default());

    let mut config = DaemonConfig::new(&socket);
    config.cache_file = Some(cache.clone());
    let handle = boot(config.clone());

    // Run 1 (cold daemon): every bound must already match in-process.
    let first = run_suite_via_daemon(&socket, &rows, false, None).expect("daemon suite run 1");
    assert_conformant(&first, &reference);

    // Run 2 (fresh clients, same daemon): the shared cache now carries
    // run 1's bases, so solves must start warm from the persistent
    // store — and the compile-once PTS store must be hitting.
    let second = run_suite_via_daemon(&socket, &rows, false, None).expect("daemon suite run 2");
    assert_conformant(&second, &reference);
    let mut client = Client::connect(&socket).expect("stats client");
    let hits_after_second = persistent_hits(&mut client);
    assert!(
        hits_after_second > 0,
        "second daemon-mediated run must hit the shared warm-start cache"
    );
    let stats = client.stats().expect("stats");
    let pts_hits = stats.get("pts_hits").and_then(Json::as_usize).unwrap_or(0);
    assert!(pts_hits > 0, "repeated rows must reuse compiled programs");
    drop(client);

    shutdown(&socket, handle);
    assert!(cache.exists(), "daemon must spill the warm cache on shutdown");

    // Restart: the new daemon reloads the spilled cache and its very
    // first solves of repeated patterns start warm.
    let restarted = Daemon::bind(config).expect("rebind with spilled cache");
    assert!(restarted.warm_entries() > 0, "restart must reload spilled bases");
    let handle = std::thread::spawn(move || restarted.run().expect("daemon run"));
    let mut client = loop {
        if let Ok(c) = Client::connect(&socket) {
            break c;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let b = &rows[0];
    let response = client
        .analyze(&AnalyzeSpec {
            id: 0,
            source: b.source,
            params: &b.params,
            engines: default_engines(b.direction).iter().map(|e| (*e).to_string()).collect(),
            race: false,
            deadline_ms: None,
            invariant_iters: SUITE_INVARIANT_ITERS,
            lp_backend: None,
        })
        .expect("analyze after restart");
    let reference_row = &reference[0];
    for (dr, pr) in response.runs.iter().zip(&reference_row.runs) {
        let (db, pb) = (dr.bound.as_ref().expect("certifies"), pr.bound.as_ref().expect("certifies"));
        assert!((db.ln() - pb.ln()).abs() <= 1e-9, "restarted daemon diverged");
    }
    let warm_hits: usize = response.runs.iter().map(|r| r.lp.persistent_warm_hits).sum();
    assert!(
        warm_hits > 0,
        "the first solve after a restart must warm-start from the reloaded cache"
    );
    drop(client);
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Racing through the daemon: same certified values, winner drawn from
/// the raced lineup.
#[test]
fn raced_rows_through_the_daemon_certify_in_process_values() {
    let dir = scratch("race");
    let socket = dir.join("qavad.sock");
    let handle = boot(DaemonConfig::new(&socket));
    // A couple of upper rows (race mode's interesting case: two engines
    // in the lineup) is enough — full-suite racing is covered by the
    // in-process race conformance tests.
    let rows: Vec<Benchmark> = suite_rows().into_iter().take(3).collect();
    let reference =
        run_rows_with(&rows, |b| default_engines(b.direction).to_vec(), BackendChoice::default());
    let raced = run_suite_via_daemon(&socket, &rows, true, None).expect("raced daemon suite");
    for (d, p) in raced.iter().zip(&reference) {
        assert_eq!(d.runs.len(), 1, "{}: race mode reports one run per row", d.name);
        let run = &d.runs[0];
        let won = run.bound.as_ref().expect("race certifies");
        assert!(!run.raced.is_empty(), "race run names its lineup");
        assert!(run.raced.contains(&run.engine), "winner comes from the lineup");
        let local = p
            .runs
            .iter()
            .find(|r| r.engine == run.engine)
            .expect("winner exists in sequential reference")
            .bound
            .as_ref()
            .expect("reference certifies");
        assert!(
            (won.ln() - local.ln()).abs() <= 1e-9,
            "{}: raced daemon bound diverges from that engine alone",
            d.name
        );
    }
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Engine runs in the abandoned request of
/// [`disconnect_mid_solve_cancels_and_frees_the_worker`].
const ABANDONED_RUNS: usize = 200;

/// A client that vanishes mid-solve must cancel its analysis and free
/// the (only) analysis slot for the next request.
///
/// The abandoned request runs `hoeffding-linear` on the heaviest 3DWalk
/// row [`ABANDONED_RUNS`] times over. Uncancelled that takes many
/// seconds in any build, so the analysis is certainly still in flight
/// when the hangup is seen — a fixed sleep before hanging up is not,
/// once an optimized build finishes one run first. The engine works
/// only through LP solves, so after the flag is raised every remaining
/// run stops at its first solve boundary.
#[test]
fn disconnect_mid_solve_cancels_and_frees_the_worker() {
    let dir = scratch("disconnect");
    let socket = dir.join("qavad.sock");
    let mut config = DaemonConfig::new(&socket);
    config.max_inflight = 1;
    let handle = boot(config);

    let rows = suite_rows();
    let heavy = rows
        .iter()
        .filter(|b| b.name == "3DWalk")
        .find(|b| b.params.get("y0") == Some(&150.0))
        .expect("3DWalk (100, 150, 200) row exists");
    // Compile the program first, so the abandoned request below is
    // admitted as soon as it is looked up in the compile store.
    let mut client = Client::connect(&socket).expect("client");
    let compile = AnalyzeSpec {
        id: 1,
        source: heavy.source,
        params: &heavy.params,
        engines: vec!["hoeffding-linear".to_string()],
        race: false,
        deadline_ms: Some(1),
        invariant_iters: SUITE_INVARIANT_ITERS,
        lp_backend: None,
    };
    client.analyze(&compile).expect("compile the heavy row");

    let engines = vec![Json::Str("hoeffding-linear".to_string()); ABANDONED_RUNS];
    let request = format!(
        "{{\"cmd\":\"analyze\",\"source\":{},\"engines\":{},\"invariant_iters\":{SUITE_INVARIANT_ITERS},\"params\":{}}}\n",
        Json::Str(heavy.source.to_string()).render(),
        Json::Arr(engines).render(),
        Json::Obj(heavy.params.iter().map(|(k, &v)| (k.clone(), Json::from_f64(v))).collect())
            .render(),
    );
    let mut vanishing = UnixStream::connect(&socket).expect("connect");
    vanishing.write_all(request.as_bytes()).expect("send analyze");
    // Hang up once the daemon has found the program in its store: the
    // request is admitted next and runs far longer than this test.
    let looked_up = Instant::now() + Duration::from_secs(60);
    while client.stats().expect("stats").get("pts_hits").and_then(Json::as_usize) < Some(1) {
        assert!(Instant::now() < looked_up, "the abandoned request never reached the store");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(vanishing); // hang up without reading the response

    // With the only slot occupied by the abandoned analysis, this
    // request completes only once cancellation released the permit.
    let quick = &rows[0];
    let response = client
        .analyze(&AnalyzeSpec {
            id: 2,
            source: quick.source,
            params: &quick.params,
            engines: vec!["hoeffding-linear".to_string()],
            race: false,
            deadline_ms: None,
            invariant_iters: SUITE_INVARIANT_ITERS,
            lp_backend: None,
        })
        .expect("analysis after an abandoned request");
    assert!(response.runs[0].bound.is_ok(), "follow-up analysis certifies");
    let stats = client.stats().expect("stats");
    assert!(
        stats.get("disconnect_cancels").and_then(Json::as_usize).unwrap_or(0) >= 1,
        "the monitor must have observed the disconnect and cancelled"
    );
    drop(client);
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deadline expiry winds the request down as cancelled instead of
/// blocking the daemon.
#[test]
fn deadline_expiry_reports_cancelled() {
    let dir = scratch("deadline");
    let socket = dir.join("qavad.sock");
    let handle = boot(DaemonConfig::new(&socket));
    let rows = suite_rows();
    let heavy = rows.iter().find(|b| b.name == "3DWalk").expect("3DWalk row exists");
    let mut client = Client::connect(&socket).expect("client");
    // hoeffding-linear does all its work through LpSolver solves, where
    // the deadline is enforced at solve boundaries; explinsyn's convex
    // solve polls it once per Newton step. 1ms trips either.
    for (id, engine) in [(7, "hoeffding-linear"), (8, "explinsyn")] {
        let response = client
            .analyze(&AnalyzeSpec {
                id,
                source: heavy.source,
                params: &heavy.params,
                engines: vec![engine.to_string()],
                race: false,
                deadline_ms: Some(1),
                invariant_iters: SUITE_INVARIANT_ITERS,
                lp_backend: None,
            })
            .expect("deadline-bounded analyze still answers");
        let err = response.runs[0]
            .bound
            .as_ref()
            .expect_err("1ms is not enough to certify");
        assert!(err.contains("cancelled"), "{engine}: deadline expiry surfaces as cancellation: {err}");
    }
    drop(client);
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted cache file must never poison a daemon: it boots cold and
/// analyses still certify.
#[test]
fn corrupted_cache_file_boots_cold_and_solves_fine() {
    let dir = scratch("corrupt");
    let socket = dir.join("qavad.sock");
    let cache = dir.join("warm.cache");
    std::fs::write(&cache, b"QAVWARM\x01 definitely not a basis section").expect("write garbage");
    let mut config = DaemonConfig::new(&socket);
    config.cache_file = Some(cache);
    let daemon = Daemon::bind(config).expect("bind over garbage cache");
    assert_eq!(daemon.warm_entries(), 0, "garbage cache must read as cold, not crash");
    let handle = std::thread::spawn(move || daemon.run().expect("daemon run"));
    let mut client = loop {
        if let Ok(c) = Client::connect(&socket) {
            break c;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let quick = &suite_rows()[0];
    let response = client
        .analyze(&AnalyzeSpec {
            id: 0,
            source: quick.source,
            params: &quick.params,
            engines: vec!["hoeffding-linear".to_string()],
            race: false,
            deadline_ms: None,
            invariant_iters: SUITE_INVARIANT_ITERS,
            lp_backend: None,
        })
        .expect("cold daemon analyzes");
    assert!(response.runs[0].bound.is_ok());
    drop(client);
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Protocol failures cost one request, not the connection: garbage and
/// unknown commands are answered with `ok:false`, then the same
/// connection still serves real requests.
#[test]
fn protocol_errors_keep_the_connection_usable() {
    let dir = scratch("protocol");
    let socket = dir.join("qavad.sock");
    let handle = boot(DaemonConfig::new(&socket));
    let mut client = Client::connect(&socket).expect("client");

    let garbage = client.request(&Json::Str("not an object".to_string()));
    assert!(garbage.is_err(), "a non-object request is rejected");
    let unknown = client.request(&qavad::json::obj(vec![(
        "cmd",
        Json::Str("transmogrify".to_string()),
    )]));
    assert!(unknown.unwrap_err().contains("unknown cmd"));
    let no_engines = client.request(&qavad::json::obj(vec![
        ("cmd", Json::Str("analyze".to_string())),
        ("source", Json::Str("var x; while x > 0 { x := x - 1; }".to_string())),
    ]));
    assert!(no_engines.unwrap_err().contains("engines"));

    // Same connection, real request, still fine.
    client.hello().expect("connection survived the abuse");
    drop(client);
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pipelined requests in one write come back as one response each, in
/// order.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let dir = scratch("pipeline");
    let socket = dir.join("qavad.sock");
    let handle = boot(DaemonConfig::new(&socket));
    let quick = &suite_rows()[0];
    let mut batch = analyze_line(1, quick, "hoeffding-linear");
    batch.push_str(&analyze_line(2, quick, "hoeffding-linear"));
    batch.push_str("{\"cmd\":\"stats\"}\n");
    let stream = UnixStream::connect(&socket).expect("connect");
    (&stream).write_all(batch.as_bytes()).expect("send the batch in one write");
    let mut reader = BufReader::new(&stream);
    for id in [1, 2] {
        let response = read_response(&mut reader);
        assert_eq!(response.get("id").and_then(Json::as_usize), Some(id));
        assert_eq!(response.get("cancelled").and_then(Json::as_bool), Some(false));
    }
    let stats = read_response(&mut reader);
    assert_eq!(stats.get("requests").and_then(Json::as_usize), Some(2));
    drop(reader);
    drop(stream);
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that sends a request and closes its write half at once has
/// left before the run: the request starts (or is soon) cancelled, and
/// the answer still reaches the half-open connection. `hoeffding-linear`
/// does all its work through LP solves, so it observes the flag however
/// late the departure is seen; explinsyn's convex phase would not.
#[test]
fn departure_before_the_run_cancels() {
    let dir = scratch("departure");
    let socket = dir.join("qavad.sock");
    let handle = boot(DaemonConfig::new(&socket));
    let rows = suite_rows();
    let heavy = rows.iter().find(|b| b.name == "3DWalk").expect("3DWalk row exists");
    let stream = UnixStream::connect(&socket).expect("connect");
    let request = analyze_line(3, heavy, "hoeffding-linear");
    (&stream).write_all(request.as_bytes()).expect("send analyze");
    stream.shutdown(Shutdown::Write).expect("close the write half");
    let response = read_response(&mut BufReader::new(&stream));
    assert_eq!(response.get("id").and_then(Json::as_usize), Some(3));
    assert_eq!(response.get("cancelled").and_then(Json::as_bool), Some(true));
    drop(stream);
    let mut client = Client::connect(&socket).expect("stats client");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("disconnect_cancels").and_then(Json::as_usize), Some(1));
    drop(client);
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A line over [`MAX_LINE_BYTES`] gets one `ok:false` answer, then the
/// daemon closes the connection.
#[test]
fn oversized_line_is_answered_once_then_closed() {
    let dir = scratch("oversized");
    let socket = dir.join("qavad.sock");
    let handle = boot(DaemonConfig::new(&socket));
    let mut stream = UnixStream::connect(&socket).expect("connect");
    // The daemon may close before taking every byte; only its answer
    // matters.
    let _ = stream.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]);
    let mut reader = BufReader::new(&stream);
    let response = read_response(&mut reader);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    let error = response.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(error.contains("exceeds"), "{error}");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "nothing follows the one answer");
    drop(reader);
    drop(stream);
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serving a request costs the analysis and nothing else: no
/// per-request poll or timeout stands between a result and its answer.
#[test]
fn serial_requests_pay_no_per_request_wait() {
    let dir = scratch("serial");
    let socket = dir.join("qavad.sock");
    let handle = boot(DaemonConfig::new(&socket));
    // About a millisecond of engine work in a debug build.
    let tiny = "x := 0; if prob(0.5) { assert false; } else { exit; }";
    let params = std::collections::BTreeMap::new();
    let spec = |id| AnalyzeSpec {
        id,
        source: tiny,
        params: &params,
        engines: vec!["explinsyn".to_string()],
        race: false,
        deadline_ms: None,
        invariant_iters: 0,
        lp_backend: None,
    };
    let mut client = Client::connect(&socket).expect("client");
    client.analyze(&spec(0)).expect("warm-up analysis");
    let t0 = Instant::now();
    for id in 1..=50 {
        let response = client.analyze(&spec(id)).expect("tiny analysis");
        assert!(response.runs[0].bound.is_ok(), "the coin flip certifies");
    }
    let elapsed = t0.elapsed();
    assert!(elapsed < Duration::from_millis(500), "50 tiny analyses took {elapsed:?}");
    drop(client);
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
