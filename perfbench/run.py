#!/usr/bin/env python3
"""Builds the IoTLS benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is the Cargo package in this directory. It is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build), then run
with one worker (IOTLS_THREADS=1). Host facts go to stderr and to a
`host` line on stdout; the last line of stdout is the JSON result.
Working files (the corpus store, the trace dump) live in .bench_work.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("active_audit", "gateway_soak", "passive_corpus")
WORKERS = "1"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run measures for --seconds plus set-up and checks; leave the rest
# of the 180 s limit as margin.
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem_of(path):
    """Filesystem type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def rustc_version(env):
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, env=env, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["IOTLS_THREADS"] = WORKERS
    env.pop("IOTLS_METRICS", None)
    work_dir = ".bench_work"
    os.makedirs(work_dir, exist_ok=True)

    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        log("build failed")
        return build.returncode or 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "iotls-perfbench")

    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "rustc": rustc_version(env),
        "workers": int(WORKERS),
        "workload": args.workload,
        "seed": args.seed,
        "corpus_filesystem": filesystem_of(work_dir),
    }
    log(f"host {json.dumps(host)}")
    print(json.dumps({"host": host}), flush=True)

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", work_dir,
    ]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"benchmark exited with {run.returncode}")
        return run.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("benchmark printed no JSON result")
        return 1
    if set(result) != RESULT_KEYS:
        log(f"result has keys {sorted(result)}")
        return 1
    if not result["correct"]:
        log("correctness checks failed (see messages above)")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
