"""The traced benchmark run of every workload.

A traced run (perfbench/run.py --trace 1) exits 1 when an item fails, when
the traced and untraced answers differ, or when an entry point that the
workload must reach (tracing.REQUIRED) records no span.  The span coverage
of each layer is part of its contract with the benchmark, so a change that
stops reaching one of those entry points fails here first.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["pipeline8", "heavy12", "enumerate", "recentralize"])
def test_traced_run_exits_zero_and_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    if workload == "enumerate":
        # the enumeration canonicalizes every candidate, once
        assert result["metrics"]["classify.canonicalize.calls"]["value"] == 2768
