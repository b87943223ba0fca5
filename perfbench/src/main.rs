//! `qava-perfbench`: the end-to-end and per-layer benchmark of qava.
//!
//! ```text
//! qava-perfbench --workload W --seed N --seconds S --trace 0|1
//!                --qavad PATH --data DIR --state DIR
//!                [--commit C] [--source-digest D] [--bench-digest D]
//! qava-perfbench expected          # regenerate expected_bounds.json
//! ```
//!
//! `perfbench/run.py` builds this binary and `qavad` and passes the
//! paths; see `BENCHMARK.json` for the workloads and metrics. The last
//! line of standard output is the result object; everything above it
//! is for people.

mod check;
mod daemon;
mod gen;
mod stats;
mod trace;
mod workloads;

use check::{Expected, Tally};
use qava_core::engine::EngineRegistry;
use qava_core::suite::runner::run_rows_with;
use qava_lp::BackendChoice;
use qavad::json::{obj, Json};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{lineup, Ctx, Phase, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    qavad: PathBuf,
    data: PathBuf,
    state: PathBuf,
    commit: String,
    source_digest: String,
    bench_digest: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| {
        map.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = get("workload")?;
    let trace = get("trace")?;
    let args = Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed takes a whole number".to_string())?,
        seconds: get("seconds")?
            .parse()
            .map_err(|_| "--seconds takes a number".to_string())?,
        trace: match trace.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".to_string()),
        },
        qavad: get("qavad")?.into(),
        data: get("data")?.into(),
        state: get("state")?.into(),
        commit: map
            .get("commit")
            .cloned()
            .unwrap_or_else(|| "unknown".to_string()),
        source_digest: map
            .get("source-digest")
            .cloned()
            .unwrap_or_else(|| "unknown".to_string()),
        bench_digest: map
            .get("bench-digest")
            .cloned()
            .unwrap_or_else(|| "unknown".to_string()),
    };
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".to_string());
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Prints `expected_bounds.json` from one clean in-process suite run.
fn print_expected() -> ExitCode {
    let rows = gen::suite_rows();
    let reports = run_rows_with(&rows, lineup, BackendChoice::default());
    let mut runs = Vec::new();
    for r in &reports {
        let mut row = Vec::new();
        for run in &r.runs {
            match &run.bound {
                Ok(b) => row.push((run.engine, b.ln())),
                Err(e) => {
                    eprintln!("{} {} {}: {e}", r.name, r.label, run.engine);
                    return ExitCode::FAILURE;
                }
            }
        }
        runs.push(row);
    }
    print!("{}", Expected::render(&rows, &runs));
    ExitCode::SUCCESS
}

fn provenance(a: &Args) -> Json {
    obj(vec![
        ("workload", Json::Str(a.workload.name().to_string())),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::from_f64(a.seconds)),
        ("trace", Json::Bool(a.trace)),
        ("nproc", Json::Num(nproc() as f64)),
        (
            "rayon_num_threads",
            Json::Str(std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".to_string())),
        ),
        ("kernel", Json::Str(qava_lp::kernel_provenance())),
        ("commit", Json::Str(a.commit.clone())),
        ("source_digest", Json::Str(a.source_digest.clone())),
        ("bench_digest", Json::Str(a.bench_digest.clone())),
    ])
}

/// A metric as it goes into the result: name, value, unit.
type Metric = (String, f64, &'static str);

fn throughput(phase: &Phase, failed: usize) -> f64 {
    (phase.records.len() - failed) as f64 / phase.wall_s
}

fn run(a: &Args) -> Result<ExitCode, String> {
    let rows = gen::suite_rows();
    let expected = Expected::load(&a.data.join("expected_bounds.json"), &rows, lineup)?;
    let work_dir = a.state.join("run").join(std::process::id().to_string());
    let ctx = Ctx {
        workload: a.workload,
        seed: a.seed,
        seconds: a.seconds,
        clients: a.workload.clients(nproc()),
        qavad: a.qavad.clone(),
        work_dir: work_dir.clone(),
        rows,
        expected,
        registry: EngineRegistry::with_builtins(),
    };
    let prov = provenance(a);
    println!("provenance {}", prov.render());
    println!(
        "clients {} (closed loop), workload {}, {} s timed",
        ctx.clients,
        a.workload.name(),
        a.seconds
    );

    let brackets = |ctx: &Ctx| -> Vec<Option<(f64, f64)>> {
        if ctx.workload == Workload::DaemonFresh {
            vec![None; ctx.rows.len()]
        } else {
            check::cached_brackets(&ctx.rows, &a.state, &a.source_digest)
        }
    };

    let mut tally = Tally::default();
    let mut metrics: Vec<Metric> = Vec::new();
    let mut extra: Vec<(&str, Json)> = Vec::new();
    let attempted;
    let hygiene;
    if a.trace {
        let (t, h) = workloads::run_traced(&ctx)?;
        hygiene = h;
        let br = brackets(&ctx);
        workloads::check_phase(&ctx, &t.untraced, &br, &mut tally);
        let untraced_failed = tally.failed;
        workloads::check_phase(&ctx, &t.traced, &br, &mut tally);
        attempted = t.untraced.records.len() + t.traced.records.len();
        let plain = throughput(&t.untraced, untraced_failed);
        let traced = throughput(&t.traced, tally.failed - untraced_failed);
        println!(
            "untraced phase: {} analyses, {plain:.3} /s; traced phase: {} analyses, {traced:.3} /s",
            t.untraced.records.len(),
            t.traced.records.len()
        );
        metrics = t.metrics;
        metrics.push((
            "trace.overhead_pct".to_string(),
            100.0 * (plain / traced - 1.0),
            "%",
        ));
        let trace_dir = a.state.join("traces");
        std::fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
        let trace_file = trace_dir.join(format!("{}-seed{}.jsonl", a.workload.name(), a.seed));
        std::fs::write(&trace_file, trace::to_jsonl(&t.spans)).map_err(|e| e.to_string())?;
        println!(
            "spans: {} written to {}",
            t.spans.len(),
            trace_file.display()
        );
    } else {
        let (e, h) = workloads::run_untraced(&ctx)?;
        hygiene = h;
        workloads::check_phase(&ctx, &e.phase, &brackets(&ctx), &mut tally);
        attempted = e.phase.records.len();
        let lat = workloads::latencies_ms(&e.phase);
        let tail = stats::tail(&lat);
        let (tail_ms, tail_note) = match &tail {
            Some(t) => (
                t.value,
                format!(
                    "p{:.2} of {} samples, {} beyond",
                    t.percentile,
                    t.samples,
                    stats::TAIL_BEYOND
                ),
            ),
            None => (
                lat.iter().copied().fold(0.0, f64::max),
                format!("maximum: only {} samples", lat.len()),
            ),
        };
        let n = attempted.max(1) as f64;
        metrics.push(("setup_s".to_string(), stats::median(&e.setup_s), "s"));
        metrics.push((
            "throughput_per_s".to_string(),
            throughput(&e.phase, tally.failed),
            "1/s",
        ));
        metrics.push(("latency_p50_ms".to_string(), stats::median(&lat), "ms"));
        metrics.push(("latency_tail_ms".to_string(), tail_ms, "ms"));
        metrics.push((
            "certified_frac".to_string(),
            1.0 - tally.failed as f64 / n,
            "ratio",
        ));
        metrics.push((
            "cpu_ms_per_analysis".to_string(),
            e.phase.cpu_s * 1e3 / n,
            "ms",
        ));
        metrics.push(("peak_rss_mb".to_string(), e.peak_rss_mb, "MiB"));
        println!("setup_s samples {:?}", e.setup_s);
        println!("latency_tail_ms is the {tail_note}");
        println!(
            "failed_frac {} ({} of {attempted})",
            tally.failed as f64 / n,
            tally.failed
        );
        extra.push(("latency_tail", Json::Str(tail_note)));
        extra.push(("failed_frac", Json::from_f64(tally.failed as f64 / n)));
    }
    let _ = std::fs::remove_dir_all(&work_dir);

    println!(
        "tighter than expected: {}, bracket checks: {}",
        tally.tighter, tally.bracket_checks
    );
    for reason in &tally.reasons {
        println!("FAILED: {reason}");
    }
    if let Err(e) = &hygiene {
        println!("FAILED daemon hygiene: {e}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>14.6} {unit}");
    }

    let correct = tally.failed == 0 && hygiene.is_ok();
    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    obj(vec![
                        ("value", Json::from_f64(*value)),
                        ("unit", Json::Str((*unit).to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", metrics_json),
    ]);

    let mut record = vec![
        ("provenance", prov),
        ("result", result.clone()),
        ("tighter", Json::Num(tally.tighter as f64)),
    ];
    record.extend(extra);
    let results_dir = a.state.join("results");
    std::fs::create_dir_all(&results_dir).map_err(|e| e.to_string())?;
    let results_file = results_dir.join(format!(
        "{}-seed{}-trace{}-{}.json",
        a.workload.name(),
        a.seed,
        u8::from(a.trace),
        std::process::id()
    ));
    std::fs::write(&results_file, obj(record).render()).map_err(|e| e.to_string())?;
    println!("result recorded in {}", results_file.display());
    println!("{}", result.render());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("expected") {
        return print_expected();
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qava-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("qava-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
