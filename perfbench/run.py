#!/usr/bin/env python3
"""Build and run the qava benchmark.

One run:
    python3 perfbench/run.py --workload suite-inproc --seed 1 --seconds 30 --trace 0

Every workload, untraced and traced, with a summary of all metrics:
    python3 perfbench/run.py --all [--seed 1] [--seconds 30]

The script builds `qavad` (from the repository's workspace) and the
benchmark binary (its own workspace in this directory) with cargo, into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then
runs the binary. The last line of standard output is the result object.
Results, traces and daemon scratch files go under .perfbench/ at the
repository root. Workloads and metrics are described in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["suite-inproc", "daemon-suite", "daemon-serial", "daemon-fresh"]
# A run must end within 180 s; leave room for process start-up.
RUN_BUDGET_S = 172.0


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "qavad", "--bin", "qavad"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            die(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "qava-perfbench"), os.path.join(release, "qavad")


def digest(paths):
    """sha256 over the files under `paths` (relative to the repo root)."""
    h = hashlib.sha256()
    skip = {"target", ".bench_build", ".perfbench", "__pycache__", ".git"}
    files = []
    for p in paths:
        full = os.path.join(ROOT, p)
        if os.path.isfile(full):
            files.append(p)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = sorted(d for d in dirnames if d not in skip)
            for f in filenames:
                files.append(os.path.relpath(os.path.join(dirpath, f), ROOT))
    for rel in sorted(files):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()[:16]


def commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def run_one(binary, qavad, workload, seed, seconds, trace, deadline):
    """Runs the benchmark binary once; returns (exit code, last stdout line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--qavad", qavad, "--data", HERE,
           "--state", os.path.join(ROOT, ".perfbench"), "--commit", commit(),
           "--source-digest", digest(["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"]),
           "--bench-digest", digest(["perfbench"])]
    # Its own process group, so a timeout also takes down any daemon it
    # started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    last = ""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"{workload} run exceeded its time budget", 3)
    for line in out.splitlines():
        print(line, flush=True)
        if line.strip():
            last = line
    return proc.returncode, last


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced and summarise")
    args = ap.parse_args()
    if not args.all and args.workload is None:
        die("--workload or --all is required")

    started = time.monotonic()
    binary, qavad = build()
    built = time.monotonic() - started
    if not args.all:
        # A first run that builds gets a full budget after its build.
        budget = RUN_BUDGET_S - (0 if built > 30 else built)
        code, _ = run_one(binary, qavad, args.workload, args.seed, args.seconds, args.trace,
                          time.monotonic() + budget)
        sys.exit(code)

    summary = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"=== {workload} trace={trace} seed={args.seed}", flush=True)
            code, last = run_one(binary, qavad, workload, args.seed, args.seconds, trace,
                                 time.monotonic() + RUN_BUDGET_S)
            if code != 0:
                die(f"{workload} trace={trace} exited with {code}", code)
            summary.append((workload, trace, json.loads(last)))
    print("=== summary")
    for workload, trace, res in summary:
        kind = "per-layer (traced run)" if trace else "end-to-end"
        print(f"{workload} {kind}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} failed_frac={res['failed'] / max(res['attempted'], 1):g}")
        for name, m in res["metrics"].items():
            print(f"  {name:<34} {m['value']:>16.6f} {m['unit']}")


if __name__ == "__main__":
    main()
