"""The four benchmark workloads.

Each workload has a set-up step, which builds its inputs, and a list of
items, each of which runs the program and returns an answer that can be
compared with the one recorded at the seed commit (``reference.json``).
A pass is set-up followed by every item once, in an order shuffled by
the workload seed.  ``worker.py`` runs one pass in a fresh interpreter.

* ``pipeline8``: enumerate the classification rows for n = 1..8 (timed,
  not an item), then build and verify each selected row;
* ``heavy12``: verify the 144-component Z12 pair through the CLI;
* ``enumerate``: three ``projpair enumerate`` calls;
* ``recentralize``: Z1 = Z(S), Z2 = Z(Z1), Z3 = Z(Z2) for 27 specs S,
  each centralizer one item.

``pipeline8`` and ``recentralize`` call the library API in the
worker's process.  ``heavy12`` and ``enumerate`` call the command line
through ``projpair.cli.main``, each call in a child forked from the
worker, as a new ``projpair`` process would run it but without the
interpreter start-up and imports.  Either way the item runs in a thread
that a ``refclock`` clock probes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

# The whole n <= 8 acceptance pipeline takes 33-42 s on a 2-core Xeon,
# and the machine can run at half that speed, more than one benchmark run
# may last.  A pass keeps every row for n <= 7 and every eighth row for
# n = 8 in enumeration order: 154 of the 280 rows, about 11 s.
PIPELINE_FULL_MAX_N = 7
PIPELINE_N8_STRIDE = 8

# One verify of the 144-component Z12 pair takes 15-28 s with two
# workers.  The Z2 x Z6 pair costs as much and exercises the same code,
# so it is left out to keep runs short.
HEAVY_GROUPS = ("12",)
HEAVY_WORKERS = 2
# n = 20 rather than 24 for the two-part call: 3 s rather than 12 s.
ENUMERATE_CALLS = ((20, 2), (14, 3), (15, 3))


def sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ItemFailed(Exception):
    """An item exited nonzero or its answer differs from the reference."""


@dataclass
class Item:
    """One unit of timed work.

    ``key`` names the item in ``reference.json``; ``run`` performs it
    and returns its answer; ``weight`` is the number of items it counts
    for in ``items_per_s`` (rows, for an ``enumerate`` call).  A
    ``forked`` item runs in a child forked from the worker after set-up,
    with projpair's caches as cold as in a new ``projpair`` process.
    """

    key: str
    run: Callable[[], object]
    weight: int = 1
    forked: bool = False


# ---------------------------------------------------------------------------
# command-line items
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> str:
    """Run ``projpair <argv>`` through ``projpair.cli.main`` and return
    its standard output.  A nonzero exit code raises ``ItemFailed``."""
    from projpair import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise ItemFailed(f"projpair {' '.join(argv)} exited {code}: "
                         f"{err.getvalue().strip()[-500:]}")
    return out.getvalue()


# Keys of the verify report and of an enumerated row that state the
# answer.  Fields that a later change might add (statistics) or drop
# (``gamma_hat``, which always equals ``gamma``) do not count.
REPORT_KEYS = ("is_dual_pair", "g_dim", "h_dim", "g_components", "h_components",
               "pairing")
ROW_KEYS = ("kind", "n", "parts", "gamma", "flags", "ingredients", "glue")


def report_answer(text: str) -> dict:
    report = json.loads(text)
    answer = {k: report.get(k) for k in REPORT_KEYS}
    answer["failure_codes"] = [f["code"] for f in report.get("failures", [])]
    return {"digest": sha256_json(answer)}


def rows_answer(text: str) -> dict:
    rows = json.loads(text)["rows"]
    kept = [{k: r[k] for k in ROW_KEYS if k in r} for r in rows]
    return {"rows": len(rows), "digest": sha256_json(kept)}


def heavy12_items(workdir: str) -> list[Item]:
    """Set-up writes the translation-character pair file of each group;
    each item verifies one file with two worker processes."""
    os.makedirs(workdir, exist_ok=True)
    items = []
    for group in HEAVY_GROUPS:
        path = os.path.join(workdir, f"pair_L{group.replace(',', '_')}.json")
        run_cli(["construct", "--L", group, "--output", path])
        argv = ["verify", path, "--format", "json", "--workers", str(HEAVY_WORKERS)]
        items.append(Item(
            key=f"verify L={group}",
            run=lambda argv=argv: report_answer(run_cli(argv)),
            forked=True,
        ))
    return items


def enumerate_items(weights: dict[str, int]) -> list[Item]:
    """``projpair enumerate --format json`` calls; each counts for the
    number of rows it returned at the seed commit."""
    items = []
    for n, parts in ENUMERATE_CALLS:
        argv = ["enumerate", "--n", str(n), "--max-parts", str(parts), "--format", "json"]
        key = f"enumerate n={n} parts={parts}"
        items.append(Item(
            key=key,
            run=lambda argv=argv: rows_answer(run_cli(argv)),
            weight=weights.get(key, 1),
            forked=True,
        ))
    return items


# ---------------------------------------------------------------------------
# library items
# ---------------------------------------------------------------------------


def pipeline_rows():
    """The ``pipeline8`` rows as (key, row), in enumeration order."""
    from projpair.classify import enumerate_multi_orbit

    out = []
    for n in range(1, 9):
        rows = enumerate_multi_orbit(n, min(4, n))
        for i, row in enumerate(rows):
            if n <= PIPELINE_FULL_MAX_N or i % PIPELINE_N8_STRIDE == 0:
                out.append((f"n={n} row={i}", row))
    return out


def verify_row(row) -> dict:
    from projpair.verify import verify_dual_pair

    g, h = row.build()
    report = verify_dual_pair(g, h)
    values = report.pairing.values if report.pairing is not None else None
    return {
        "is_dual_pair": report.is_dual_pair,
        "components": [report.g_components, report.h_components],
        "pairing_sha256": sha256_json(values),
    }


def _involution_spec(n, matrix):
    from projpair.abelian import FinAbGroup
    from projpair.construct import Ambient, GroupSpec, scalar_blocks
    from projpair.cyclo import CycMatrix
    from projpair.matrep import TensorShape

    ambient = Ambient.single(TensorShape((("A", n),)))
    return GroupSpec(ambient, scalar_blocks(n), FinAbGroup.cyclic(2),
                     {(0,): CycMatrix.identity(n), (1,): matrix})


def _cyclic_permutation_spec(perm, order):
    """The group generated by one permutation matrix, over the scalars."""
    from projpair.abelian import FinAbGroup
    from projpair.construct import Ambient, GroupSpec, scalar_blocks
    from projpair.cyclo import ONE, CycMatrix
    from projpair.matrep import Monomial, TensorShape

    n = len(perm)
    mat = Monomial(perm, [ONE] * n).to_matrix()
    gens = {(0,): CycMatrix.identity(n)}
    power = CycMatrix.identity(n)
    for k in range(1, order):
        power = power @ mat
        gens[(k,)] = power
    ambient = Ambient.single(TensorShape((("A", n),)))
    return GroupSpec(ambient, scalar_blocks(n), FinAbGroup.cyclic(order), gens)


def centralizer_specs():
    """The 22-spec triple-centralizer battery of the acceptance suite,
    plus five larger specs, as (name, spec)."""
    from projpair.abelian import FinAbGroup
    from projpair.construct import (
        SingleOrbitIngredients,
        connected_pair,
        single_orbit_pair,
        type2_pair,
        xx_hat_pair,
    )
    from projpair.cyclo import CycMatrix

    triv, z2, z3 = FinAbGroup.trivial(), FinAbGroup.cyclic(2), FinAbGroup.cyclic(3)
    specs = [
        ("swap2", _involution_spec(2, CycMatrix([[0, 1], [1, 0]]))),
        ("diag2", _involution_spec(2, CycMatrix.diagonal([1, -1]))),
        ("diag3", _involution_spec(3, CycMatrix.diagonal([1, -1, 1]))),
    ]
    g, h = connected_pair([(2, 3)])
    specs += [("gl2x3_g", g), ("gl2x3_h", h)]
    specs.append(("torus2", connected_pair([(1, 1), (1, 1)])[0]))
    specs.append(("gl2sq_g", connected_pair([(2, 2)])[0]))
    g, h = connected_pair([(2, 1), (1, 2)])
    specs += [("mixed_sum_g", g), ("mixed_sum_h", h)]
    for name, group in (("heis2", z2), ("heis3", z3), ("heis4", FinAbGroup.cyclic(4)),
                        ("heis22", FinAbGroup((2, 2)))):
        specs.append((name, xx_hat_pair(group)[0]))
    g, h = single_orbit_pair(SingleOrbitIngredients(1, 1, triv, z2, triv))
    specs += [("so_j2_g", g), ("so_j2_h", h)]
    specs.append(("so_j2k2_g", single_orbit_pair(SingleOrbitIngredients(1, 1, triv, z2, z2))[0]))
    specs.append(("so_j3_g", single_orbit_pair(SingleOrbitIngredients(1, 1, triv, z3, triv))[0]))
    specs.append(("so_b2j2_g", single_orbit_pair(SingleOrbitIngredients(2, 1, triv, z2, triv))[0]))
    g, h = type2_pair(*connected_pair([(2, 1)]), z2, "ii")
    specs += [("type2ii_g", g), ("type2ii_h", h)]
    specs.append(("shift4", _cyclic_permutation_spec((1, 2, 3, 0), 4)))
    specs.append(("perm6", _cyclic_permutation_spec((1, 2, 0, 4, 5, 3), 3)))
    # beyond the acceptance battery
    specs.append(("heis5", xx_hat_pair(FinAbGroup.cyclic(5))[0]))
    specs.append(("heis6", xx_hat_pair(FinAbGroup.cyclic(6))[0]))
    specs.append(("shift4x2", _cyclic_permutation_spec((1, 2, 3, 0, 5, 6, 7, 4), 4)))
    specs.append(("gl3sq_g", connected_pair([(3, 3)])[0]))
    specs.append(("gl2sq2_g", connected_pair([(2, 2), (2, 2)])[0]))
    return specs


def recentralize_items(name: str, spec) -> list[Item]:
    """Three items, to run in order: Z1 = Z(spec), Z2 = Z(Z1), Z3 = Z(Z2).
    The third also checks ``specs_equal(Z1, Z3)``."""
    chain = [spec]

    def step(k: int):
        def run():
            from projpair.verify import projective_centralizer, specs_equal

            z = projective_centralizer(chain[-1])
            chain.append(z)
            answer = {"dim": z.identity_component_dim(), "components": z.component_count()}
            if k == 3:
                answer["equal_to_z1"] = specs_equal(chain[1], z)
            return answer
        return run

    return [Item(f"{name} Z{k}", step(k)) for k in (1, 2, 3)]
