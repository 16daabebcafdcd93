#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the `perfbench` package
(`cargo build --release --offline`, into $CARGO_TARGET_DIR, by default
`.bench_build`), runs the workload in a scratch directory under
`.bench_out/`, checks every output, deletes the scratch directory, and
prints one line per metric followed, as the last line, by one JSON
object: {"correct", "attempted", "failed", "metrics"}. `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer ones (see
perfbench/METRICS.md). It exits non-zero when any check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analysis  # noqa: E402

WORKLOADS = ("session_small", "round_hub", "round_sharded", "device_paper")
# A run that outlives this is killed with its whole process group.
RUN_TIMEOUT_S = 170
ROOT = os.getcwd()


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary and returns its path."""
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        raise RuntimeError("no crates/ here: run from the root of a checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest],
        stdout=sys.stderr, stderr=sys.stderr, env=env, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"cargo build failed with {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def source_id():
    """The git commit, or a digest of the source tree where the
    checkout is not a git repository."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if "__pycache__" in f or f"{os.sep}target{os.sep}" in f:
                continue
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def cpu_jiffies():
    """The host's aggregate CPU counters from /proc/stat."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def run_bench(exe, args, out):
    """Runs the benchmark binary; returns (exit code, raw result or None,
    peak RSS in KiB of its largest process)."""
    raw_path = os.path.join(out, "raw.json")
    cmd = [exe, "bench", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--raw", raw_path]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT, start_new_session=True)

    def kill():
        log(f"run exceeded {RUN_TIMEOUT_S} s; killing it")
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(RUN_TIMEOUT_S, kill)
    timer.start()
    try:
        # wait4 reports the largest peak RSS of the child and of every
        # descendant it waited for: the round's role processes included.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Role processes the binary left behind (only after a kill) go too.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    raw = None
    if os.path.exists(raw_path):
        with open(raw_path) as fh:
            raw = json.load(fh)
    return proc.returncode, raw, usage.ru_maxrss


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        exe = build()
    except (RuntimeError, OSError) as e:
        log(str(e))
        return 1
    out = os.path.join(ROOT, ".bench_out",
                       f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    before = cpu_jiffies()
    try:
        code, raw, peak_kb = run_bench(exe, args, out)
        with open("/proc/mounts") as fh:
            fs = analysis.fs_type(os.path.realpath(out), fh.read())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if raw is None:
        log(f"the benchmark binary exited with {code} and wrote no result")
        return 1

    # Share of CPU time the hypervisor gave to other guests during the
    # run (/proc/stat "steal"): timings from a contended host read slower.
    delta = [b - a for a, b in zip(before, cpu_jiffies())]
    steal = delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else 0.0
    stamp = dict(raw["stamp"], fs=fs, seed=args.seed, source=source_id(),
                 workload=args.workload, trace=args.trace,
                 host_steal=round(steal, 4))
    print("stamp " + json.dumps(stamp, sort_keys=True))
    attempted, failed = raw["attempted"], len(raw["failures"])
    for f in raw["failures"]:
        print(f"FAILED {f}")
    if args.trace:
        metrics, levels = analysis.per_layer(raw)
    else:
        metrics, levels = analysis.end_to_end(raw, peak_kb), {}
        alias = "device_contrib_s" if args.workload == "device_paper" else "round_s"
        print(f"{alias} = latency_s, median of {len(raw['op_s'])} operations")
    for name, (value, unit) in metrics.items():
        note = f"  (p{levels[name]:g})" if name in levels else ""
        print(f"{name:<28} {value:>14.6g} {unit}{note}")
    print(f"fail_frac {failed}/{attempted}")
    correct = code == 0 and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
