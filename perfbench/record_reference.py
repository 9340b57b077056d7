"""Record the reference answers of every workload item.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit whose answers are the
reference; writes perfbench/reference.json.  Items run in seed-0 order,
untraced, with the environment the benchmark gives its workers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS, worker_env  # noqa: E402


def record(workload: str, workdir: str) -> dict:
    import worker

    prepare = worker.build(workload, seed=0, workdir=workdir, reference={})
    return {item.key: item.run() for item in prepare()}


def main() -> int:
    root = os.getcwd()
    env = worker_env(root)
    if os.environ.get("PYTHONHASHSEED") != env["PYTHONHASHSEED"] or "PROJPAIR_CONDUCTOR_CAP" in os.environ:
        # re-run under the workers' environment
        return subprocess.call([sys.executable, os.path.abspath(__file__)], env=env)
    workdir = os.path.join(root, ".bench_build", "perfbench", "reference")
    reference = {w: record(w, workdir) for w in WORKLOADS}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for w in WORKLOADS:
        print(f"{w}: {len(reference[w])} items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
