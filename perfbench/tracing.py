"""Spans around the public entry points of each projpair module, installed
from outside the package.

``Tracer.install()`` replaces each entry point listed in ``ENTRY_POINTS``
with a wrapper that records a span (name, start, end, parent) in memory.
A function imported by name into other modules (``from .verify import
verify_dual_pair`` in ``cli``) is replaced in every projpair module that
holds it, or its span would silently read zero.  Methods are replaced
once on their class; static methods stay static.

Spans of an item that the benchmark runs in a forked child (a
``projpair`` command) are sent back and merged.  Spans inside the worker
processes of ``verify``'s process pool are recorded there and lost; the
pool's parent records their CPU time instead (``verify.pool.*``).
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array

from stats import ancestor_masks, span_totals

# (span name, module, attribute); an attribute "Class.method" is a method.
ENTRY_POINTS = (
    ("classify.enumerate", "classify", "enumerate_multi_orbit"),
    ("classify.enumerate", "classify", "enumerate_single_orbit"),
    ("classify.canonicalize", "classify", "canonicalize_row"),
    ("abelian.transport", "abelian", "dual_isomorphism_transport"),
    ("abelian.invert", "abelian", "invert_isomorphism"),
    ("abelian.automorphisms", "abelian", "automorphisms"),
    ("construct.build", "construct", "single_orbit_pair"),
    ("construct.build", "construct", "multi_orbit_glue"),
    ("construct.build", "construct", "xx_hat_pair"),
    ("construct.build", "construct", "connected_pair"),
    ("construct.build", "construct", "type2_pair"),
    ("construct.build", "classify", "ClassificationRow.build"),
    ("matrep.to_matrix", "matrep", "Monomial.to_matrix"),
    ("matrep.from_matrix", "matrep", "Monomial.from_matrix"),
    ("matrep.commutator", "matrep", "commutator_scalar"),
    ("cyclo.rank", "cyclo", "CycMatrix.rank"),
    ("cyclo.kernel", "cyclo", "CycMatrix.kernel"),
    ("cyclo.span", "cyclo", "VectorSpan.add"),
    ("cyclo.span", "cyclo", "VectorSpan.contains"),
    ("cyclo.span", "cyclo", "VectorSpan.contains_span"),
    ("cyclo.root_of_unity", "cyclo", "CycNum.as_root_of_unity"),
    ("verify.pair", "verify", "verify_dual_pair"),
    ("verify.centralizer", "verify", "compute_centralizer"),
    ("verify.solve", "verify", "CommutantEngine.solve"),
    ("verify.witness", "verify", "CommutantEngine.witness"),
    ("verify.pairing", "verify", "pairing_table"),
    ("verify.specs_equal", "verify", "specs_equal"),
    ("serialize.decode", "serialize", "pair_from_json"),
    ("serialize.encode", "serialize", "row_to_json"),
    ("serialize.encode", "serialize", "dumps_canonical"),
    ("cli.main", "cli", "main"),
)

MODULES = ("abelian", "classify", "cli", "construct", "cyclo", "matrep",
           "serialize", "verify")

# Entry points that must record a span on each workload, from the
# per-layer table of the benchmark.  verify.witness is absent from
# heavy12: with two workers every twisted tuple is solved in the pool.
REQUIRED = {
    "pipeline8": ("construct.build", "matrep.from_matrix", "matrep.commutator",
                  "cyclo.rank", "cyclo.root_of_unity", "verify.pair",
                  "verify.centralizer", "verify.solve", "verify.witness",
                  "verify.pairing"),
    "heavy12": ("matrep.from_matrix", "matrep.commutator", "cyclo.root_of_unity",
                "verify.pair", "verify.centralizer", "verify.solve",
                "verify.pairing", "serialize.decode", "cli.main"),
    "enumerate": ("classify.enumerate", "classify.canonicalize",
                  "abelian.transport", "abelian.invert", "abelian.automorphisms",
                  "construct.build", "matrep.to_matrix", "serialize.encode",
                  "cli.main"),
    "recentralize": ("cyclo.rank", "cyclo.kernel", "cyclo.span",
                     "verify.centralizer", "verify.solve", "verify.witness",
                     "verify.specs_equal"),
}


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Spans of one process, kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, outcome=None):
        """``fn`` recording a span named ``name``; ``outcome(result, count)``
        may bump counters from the result."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if outcome is not None:
                outcome(result, self.count)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"projpair.{m}") for m in MODULES}
        for name, mod, attr in ENTRY_POINTS:
            outcome = OUTCOMES.get(attr)
            if "." in attr:
                self._patch_method(mods[mod], attr, name, outcome)
            else:
                self._patch_function(mods[mod], attr, name, outcome)
        self._install_probes(mods)

    def _patch_function(self, module, attr, name, outcome) -> None:
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._replace_everywhere(orig, self.wrap(name, orig, outcome))

    def _patch_method(self, module, attr, name, outcome) -> None:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name, None)
        raw = cls.__dict__.get(meth) if cls is not None else None
        if raw is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        if isinstance(raw, staticmethod):
            setattr(cls, meth, staticmethod(self.wrap(name, raw.__func__, outcome)))
        else:
            setattr(cls, meth, self.wrap(name, raw, outcome))

    @staticmethod
    def _replace_everywhere(orig, new) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "projpair" or mod_name.startswith("projpair.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)

    def _install_probes(self, mods) -> None:
        """Counters that are not spans: the largest conductor of a root of
        unity, and the CPU time of verify's process pool."""
        cyc = mods["cyclo"].CycNum
        raw = cyc.__dict__.get("root_of_unity")
        if isinstance(raw, staticmethod):
            root_of_unity = raw.__func__
            counters = self.counters

            def probed_root_of_unity(m, k=1):
                if m > counters.get("cyclo.max_conductor", 0):
                    counters["cyclo.max_conductor"] = m
                return root_of_unity(m, k)

            cyc.root_of_unity = staticmethod(probed_root_of_unity)
        else:
            self.missing.append("projpair.cyclo.CycNum.root_of_unity")

        verify = mods["verify"]
        traced_centralizer = verify.compute_centralizer

        def pooled_centralizer(target, workers=1):
            if workers <= 1:
                return traced_centralizer(target, workers=workers)
            cpu0, t0 = _children_cpu(), time.perf_counter()
            try:
                return traced_centralizer(target, workers=workers)
            finally:
                self.count("pool.child_cpu_s", _children_cpu() - cpu0)
                self.count("pool.capacity_s", workers * (time.perf_counter() - t0))

        self._replace_everywhere(traced_centralizer, pooled_centralizer)

    # -- results -----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of the benchmark (without ``cli.startup_s``
        and the tracing overhead, which the harness measures)."""
        names = [self.names[i] for i in self.name_id]
        parents = list(self.parent)
        totals = span_totals(names, self.start, self.end, parents)
        masks, bits = ancestor_masks(names, parents)
        c = self.counters

        def t(name, key):
            return totals.get(name, {}).get(key, 0)

        def frac(num, den):
            return num / den if den else 0.0

        witness_bit = bits.get("verify.witness", 0)
        rank_under_witness = sum(
            1 for i, nm in enumerate(names) if nm == "cyclo.rank" and masks[i] & witness_bit
        )
        build_under_classify = sum(
            1 for i, nm in enumerate(names)
            if nm == "construct.build" and parents[i] >= 0
            and names[parents[i]].startswith("classify.")
        )
        out = {
            "classify.enumerate.s": t("classify.enumerate", "s"),
            "classify.enumerate.self_s": t("classify.enumerate", "self_s"),
            "classify.canonicalize.calls": t("classify.canonicalize", "calls"),
            "classify.canonicalize.s": t("classify.canonicalize", "s"),
            "classify.dedup_yield": frac(c.get("classify.rows_kept", 0),
                                         t("classify.canonicalize", "calls")),
            "abelian.transport.calls": t("abelian.transport", "calls"),
            "abelian.transport.s": t("abelian.transport", "s"),
            "abelian.invert.calls": t("abelian.invert", "calls"),
            "abelian.invert.s": t("abelian.invert", "s"),
            "abelian.automorphisms.s": t("abelian.automorphisms", "s"),
            "construct.build.calls": t("construct.build", "calls"),
            "construct.build.s": t("construct.build", "s"),
            "construct.build.self_s": t("construct.build", "self_s"),
            "construct.build_under_classify.calls": build_under_classify,
            "matrep.to_matrix.calls": t("matrep.to_matrix", "calls"),
            "matrep.to_matrix.s": t("matrep.to_matrix", "s"),
            "matrep.from_matrix.calls": t("matrep.from_matrix", "calls"),
            "matrep.from_matrix.s": t("matrep.from_matrix", "s"),
            "matrep.from_matrix.hit_frac": frac(c.get("matrep.from_matrix.hit", 0),
                                                t("matrep.from_matrix", "calls")),
            "matrep.commutator.calls": t("matrep.commutator", "calls"),
            "matrep.commutator.s": t("matrep.commutator", "s"),
            "cyclo.rank.calls": t("cyclo.rank", "calls"),
            "cyclo.rank.s": t("cyclo.rank", "s"),
            "cyclo.kernel.calls": t("cyclo.kernel", "calls"),
            "cyclo.kernel.s": t("cyclo.kernel", "s"),
            "cyclo.span.calls": t("cyclo.span", "calls"),
            "cyclo.span.s": t("cyclo.span", "s"),
            "cyclo.root_of_unity.calls": t("cyclo.root_of_unity", "calls"),
            "cyclo.root_of_unity.s": t("cyclo.root_of_unity", "s"),
            "cyclo.max_conductor": c.get("cyclo.max_conductor", 0),
            "verify.pair.calls": t("verify.pair", "calls"),
            "verify.pair.s": t("verify.pair", "s"),
            "verify.pair.self_s": t("verify.pair", "self_s"),
            "verify.centralizer.calls": t("verify.centralizer", "calls"),
            "verify.centralizer.s": t("verify.centralizer", "s"),
            "verify.centralizer.self_s": t("verify.centralizer", "self_s"),
            "verify.solve.calls": t("verify.solve", "calls"),
            "verify.solve.s": t("verify.solve", "s"),
            "verify.solve.empty_frac": frac(c.get("verify.solve.empty", 0),
                                            t("verify.solve", "calls")),
            "verify.witness.calls": t("verify.witness", "calls"),
            "verify.witness.s": t("verify.witness", "s"),
            "verify.witness.found_frac": frac(c.get("verify.witness.found", 0),
                                              t("verify.witness", "calls")),
            "verify.witness.rank_calls": rank_under_witness,
            "verify.pairing.calls": t("verify.pairing", "calls"),
            "verify.pairing.s": t("verify.pairing", "s"),
            "verify.specs_equal.s": t("verify.specs_equal", "s"),
            "verify.pool.child_cpu_s": c.get("pool.child_cpu_s", 0.0),
            "verify.pool.busy_frac": frac(c.get("pool.child_cpu_s", 0.0),
                                          c.get("pool.capacity_s", 0.0)),
            "serialize.decode.s": t("serialize.decode", "s"),
            "serialize.encode.s": t("serialize.encode", "s"),
            "cli.main.s": t("cli.main", "s"),
        }
        return out

    def export(self, first: int) -> dict:
        """Spans from index ``first`` on, and the counters, for ``merge``
        in the process this one was forked from."""
        return {
            "name_id": self.name_id[first:].tolist(),
            "start": self.start[first:].tolist(),
            "end": self.end[first:].tolist(),
            "parent": self.parent[first:].tolist(),
            "counters": self.counters,
        }

    def merge(self, part: dict) -> None:
        """Take in what a forked child's ``export`` gave.  The child's
        spans continue this tracer's indices: it forked with this tracer's
        spans, and this process recorded none while waiting for it."""
        self.name_id.extend(part["name_id"])
        self.start.extend(part["start"])
        self.end.extend(part["end"])
        self.parent.extend(part["parent"])
        self.counters = part["counters"]

    def uncovered(self, workload: str) -> list[str]:
        """Required entry points of ``workload`` that recorded no span."""
        seen = {self.names[i] for i in set(self.name_id)}
        return [n for n in REQUIRED[workload] if n not in seen]

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON columns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name_id": self.name_id.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "counters": self.counters,
            }, fh)


def _from_matrix_outcome(mono, count):
    if mono is not None:
        count("matrep.from_matrix.hit")


def _solve_outcome(basis, count):
    if not basis:
        count("verify.solve.empty")


def _witness_outcome(witness, count):
    if witness is not None:
        count("verify.witness.found")


def _enumerate_outcome(rows, count):
    count("classify.rows_kept", sum(1 for r in rows if r.kind == "multi"))


# Counters bumped from an entry point's result, keyed by attribute.
OUTCOMES = {
    "Monomial.from_matrix": _from_matrix_outcome,
    "CommutantEngine.solve": _solve_outcome,
    "CommutantEngine.witness": _witness_outcome,
    "enumerate_multi_orbit": _enumerate_outcome,
}


def cli_startup_s(env, repeats: int = 3) -> float:
    """Median wall time of a fresh ``python -c 'import projpair.cli'``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import projpair.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
