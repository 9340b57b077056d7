"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR [--trace] [--setup-only]

``run.py`` starts this script once per pass, so that module-level caches
of projpair (``_PHI_INV_CACHE``, ``_AUT_INVERSE_CACHE`` and the
``lru_cache`` functions of ``cyclo`` and ``abelian``) start cold every
time.  Times are read on a ``refclock.RefClock`` started as ``main``
begins, in reference seconds.  The last line of standard output is one
JSON object:

* ``started_wall``: ``time.time()`` when ``main`` began;
* ``setup_s``: reference time from then to the first timed operation;
* ``timed_s``, ``raw_timed_s``: reference and wall time of the timed part;
* ``cpu_s``, ``raw_cpu_s``: CPU time of the timed part, of this process
  and of the child processes it waited for, scaled to reference speed
  by ``timed_s / raw_timed_s``, and as measured;
* ``probes``, ``probe_s``: the clock's probes and their wall time;
* ``items``, ``latencies_s``: items done and one reference-time latency
  per item;
* ``attempted``, ``failed``, ``failures``: correctness against
  ``reference.json``;
* ``answers_sha256``: digest of every answer, to compare traced and
  untraced passes;
* ``trace`` (with ``--trace``): per-layer metrics and span coverage.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

from refclock import RefClock

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def build(workload: str, seed: int, workdir: str, reference: dict):
    """Set-up: returns ``prepare()``, the timed callable that yields the
    pass's items in seed order."""
    import workloads as w

    rng = random.Random(seed)
    if workload == "pipeline8":
        def prepare():
            rows = w.pipeline_rows()
            rng.shuffle(rows)
            return [w.Item(key, lambda row=row: w.verify_row(row)) for key, row in rows]
        return prepare
    if workload == "recentralize":
        specs = w.centralizer_specs()
        rng.shuffle(specs)
        items = [item for name, spec in specs for item in w.recentralize_items(name, spec)]
        return lambda: items
    if workload == "heavy12":
        items = w.heavy12_items(workdir)
    elif workload == "enumerate":
        weights = {k: v["rows"] for k, v in reference.get("enumerate", {}).items()}
        items = w.enumerate_items(weights)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return lambda: items


def run_forked(fn, tracer=None) -> tuple[object, float]:
    """Run ``fn`` in a child forked from this process; return its answer
    and the reference time it took, read on a clock the child starts, so
    that the child's own core is probed.  An error in the child raises
    ``ItemFailed``.  Spans the child records are merged into ``tracer``.
    """
    from workloads import ItemFailed

    first = tracer.span_count() if tracer is not None else 0
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            clock = RefClock().start()
            t0 = clock.now()
            try:
                message = {"answer": fn()}
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                message = {"error": f"{type(exc).__name__}: {exc}"}
            message["seconds"] = clock.now() - t0
            clock.stop()
            if tracer is not None:
                message["trace"] = tracer.export(first)
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(message, fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise ItemFailed(f"forked child ended with status {status}")
    message = json.loads(text)
    if tracer is not None:
        tracer.merge(message["trace"])
    if "error" in message:
        raise ItemFailed(message["error"])
    return message["answer"], message["seconds"]


def run_items(items, expected: dict, clock=time.perf_counter, tracer=None) -> dict:
    """Run each item once, timing it and checking its answer.

    An item is timed on ``clock``, or, if ``forked``, on the clock of the
    child it ran in; ``shift_s`` is the sum of the child's time minus
    ``clock``'s time over forked items.  An item fails if it raises
    (``ItemFailed`` for a nonzero exit) or its answer differs from
    ``expected[key]``; a reference key that no item ran counts as one
    failed item.  ``items`` counts the items that succeeded,
    ``attempted`` and ``failed`` all of them, each weighted.
    """
    latencies, answers, failures = [], {}, []
    done = attempted = failed = 0
    shift = 0.0
    for item in items:
        attempted += item.weight
        start = clock()
        try:
            if item.forked:
                answer, seconds = run_forked(item.run, tracer)
                shift += seconds - (clock() - start)
                latencies.append(seconds)
            else:
                answer = item.run()
                latencies.append(clock() - start)
        except Exception as exc:  # noqa: BLE001 - any error fails the item
            latencies.append(clock() - start)
            failed += item.weight
            failures.append(f"{item.key}: {type(exc).__name__}: {exc}")
            continue
        answers[item.key] = answer
        if answer == expected.get(item.key):
            done += item.weight
        else:
            failed += item.weight
            failures.append(f"{item.key}: got {answer}, expected {expected.get(item.key)}")
    missing = sorted(set(expected) - {item.key for item in items})
    if missing:
        failures.append(f"items missing from the pass: {missing[:5]}")
        attempted += len(missing)
        failed += len(missing)
    return {"items": done, "latencies_s": latencies, "attempted": attempted,
            "failed": failed, "failures": failures, "answers": answers, "shift_s": shift}


def run_pass(workload: str, seed: int, workdir: str, trace: bool, setup_only: bool,
             clock: RefClock) -> dict:
    setup0 = clock.now()
    reference = load_reference()
    import projpair.cli  # noqa: F401 - importing every module is part of set-up

    prepare = build(workload, seed, workdir, reference=reference)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ref0, cpu0, wall0 = clock.now(), _cpu(), time.perf_counter()
    if setup_only:
        return {"setup_s": ref0 - setup0}

    tally = run_items(prepare(), reference[workload], clock.now, tracer)
    timed_s = clock.now() - ref0 + tally.pop("shift_s")
    raw_timed_s, raw_cpu_s = time.perf_counter() - wall0, _cpu() - cpu0

    import workloads as w

    answers = tally.pop("answers")
    out = {
        "setup_s": ref0 - setup0,
        "timed_s": timed_s,
        "raw_timed_s": raw_timed_s,
        "cpu_s": raw_cpu_s * timed_s / raw_timed_s,
        "raw_cpu_s": raw_cpu_s,
        "answers_sha256": w.sha256_json(answers),
        **tally,
    }
    if tracer is not None:
        out["trace"] = {
            "metrics": tracer.metrics(),
            "uncovered": tracer.uncovered(workload),
            "missing": tracer.missing,
            "spans": tracer.span_count(),
        }
        tracer.dump(os.path.join(os.path.dirname(workdir),
                                 f"spans-{workload}-seed{seed}.json.gz"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    started_wall = time.time()
    clock = RefClock().start()
    try:
        result = run_pass(args.workload, args.seed, args.workdir, args.trace, args.setup_only,
                          clock)
    finally:
        clock.stop()
    result.update(started_wall=started_wall, probes=clock.probes, probe_s=clock.probe_s)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
