"""projpair benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/projpair``).  The
workloads are ``pipeline8``, ``heavy12``, ``enumerate`` and
``recentralize``; see README.md for what each does and why.

``--trace 0`` repeats passes of the workload, each in a fresh
interpreter, until ``--seconds`` have gone by: a run always completes
one pass and starts another only if, by the last pass's time, it ends
before the deadline.  It also starts fresh interpreters that only set up,
until set-up has been timed five times.  It prints the end-to-end
metrics.  Times are in reference seconds (``refclock``): wall time
scaled by the speed of the core the work ran on, so that the machine's
swings in speed do not show; wall-clock figures are printed alongside.

``--trace 1`` runs one untraced and one traced pass with the same seed
and prints the per-layer metrics of the traced pass, with the tracing
overhead.  Both passes must give the same answers, and every entry point
the workload is meant to reach must have recorded a span.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only if every item gave the reference answer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("pipeline8", "heavy12", "enumerate", "recentralize")
SETUPS_PER_RUN = 5
RUN_TIMEOUT_S = 170


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("PROJPAIR_CONDUCTOR_CAP", None)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> tuple[dict, float]:
    """Run worker.py in a fresh interpreter; returns its result and its
    set-up time: the wall time from starting the interpreter to the
    worker's ``main``, plus the reference time of the worker's set-up."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    spawn_wall = time.time()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(f"worker {' '.join(args)} timed out")
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise HarnessError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise HarnessError(f"worker {' '.join(args)} printed nothing:\n{err[-2000:]}")
    result = json.loads(lines[-1])
    return result, result["started_wall"] - spawn_wall + result["setup_s"]


def _reap_group(pgid: int) -> None:
    """Stop anything the worker left running in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def environment(root: str, workload: str) -> dict:
    import workloads

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "workers": workloads.HEAVY_WORKERS if workload == "heavy12" else 1,
        "machine": cpu_model(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def untraced_run(workload: str, seed: int, seconds: int, env: dict, workdir: str,
                 deadline: float):
    common = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
    passes, setups = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        result, setup_s = run_worker(common, env, deadline)
        setups.append(setup_s)
        passes.append(result)
        elapsed, last = time.monotonic() - start, time.monotonic() - t0
        if elapsed + last > seconds:
            break
    while len(setups) < SETUPS_PER_RUN:
        _, setup_s = run_worker(common + ["--setup-only"], env, deadline)
        setups.append(setup_s)

    latencies = [x for p in passes for x in p["latencies_s"]]
    tail_p, tail_s = stats.tail([p["latencies_s"] for p in passes])
    items = sum(p["items"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (items / sum(p["timed_s"] for p in passes), "1/s"),
        "item_tail_ms": (1000 * tail_s, "ms"),
        "cpu_s": (statistics.median([p["cpu_s"] for p in passes]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # The median latency is printed but not bounded: on a shared machine
    # the millisecond-scale items near the recentralize median moved by
    # 20-30% between runs, more than any bound the benchmark may set.
    raw_s = sum(p["raw_timed_s"] for p in passes)
    notes = {
        "passes": len(passes),
        "setups": len(setups),
        "latency_samples": len(latencies),
        "item_p50_ms": f"{1000 * stats.hd_quantile(latencies, 0.5):.6g} ms",
        "item_tail_percentile": tail_p,
        "wall_items_per_s": f"{items / raw_s:.6g} 1/s",
        "wall_cpu_s": f"{statistics.median([p['raw_cpu_s'] for p in passes]):.6g} s",
        "reference_s_per_wall_s": f"{sum(p['timed_s'] for p in passes) / raw_s:.4f}",
        "probe_share": f"{sum(p['probe_s'] for p in passes) / raw_s:.4f}",
    }
    return passes, metrics, notes


def traced_run(workload: str, seed: int, env: dict, workdir: str, deadline: float):
    from tracing import cli_startup_s

    common = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
    plain, _ = run_worker(common, env, deadline)
    traced, _ = run_worker(common + ["--trace"], env, deadline)
    trace = traced["trace"]
    problems = []
    if plain["answers_sha256"] != traced["answers_sha256"]:
        problems.append("traced and untraced passes gave different answers")
    if trace["uncovered"]:
        problems.append(f"entry points with no span: {', '.join(trace['uncovered'])}")
    rate = {p_name: p["items"] / p["timed_s"] for p_name, p in (("plain", plain), ("traced", traced))}
    metrics = {name: (value, _unit(name)) for name, value in trace["metrics"].items()}
    metrics["cli.startup_s"] = (cli_startup_s(env), "s")
    metrics["trace.overhead_items_per_s"] = (rate["traced"] - rate["plain"], "1/s")
    notes = {
        "spans": trace["spans"],
        "missing_entry_points": trace["missing"],
        "untraced_items_per_s": rate["plain"],
        "traced_items_per_s": rate["traced"],
    }
    return [plain, traced], metrics, notes, problems


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac") or name.endswith("_yield"):
        return "ratio"
    if name == "cyclo.max_conductor":
        return "int"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="projpair benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "projpair", "__init__.py")):
        print("error: run from the root of a projpair checkout (no src/projpair here)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = worker_env(root)
    workdir = os.path.join(root, ".bench_build", "perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            passes, metrics, notes, problems = traced_run(
                args.workload, args.seed, env, workdir, deadline)
        else:
            passes, metrics, notes = untraced_run(
                args.workload, args.seed, args.seconds, env, workdir, deadline)
            problems = []
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for line in p["failures"][:10]:
            problems.append(f"failed item: {line}")
    correct = failed == 0 and not problems

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in environment(root, args.workload).items():
        print(f"  {key}: {value}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {stats.failed_frac(attempted, failed):.6g} ({failed}/{attempted})")
    for line in problems:
        print(f"  PROBLEM: {line}")
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
