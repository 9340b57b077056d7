"""Canonical JSON forms for every value that crosses the CLI boundary.

All integers that can grow without bound (numerators, denominators) are
decimal strings, and only decimal strings are read there (_decimal); keys
are emitted sorted, so serialization is bit-exact and round-trips
losslessly.  Every other integer field is read by _int, which turns down
a JSON float or boolean instead of truncating it.

A spec's "generators" lists its identity and generating cosets, the
operators a GroupSpec stores; a file that lists more, as old files list
every coset, still reads (GroupSpec checks and drops the extras), and a
coset listed twice is bad input.  A unit-monomial generator is written
as its permutation, least order and exponents ({"monomial": ...}), read
from the cached GroupSpec.operator, so writing it expands nothing; any
other is a dense matrix ({"matrix": ...}).  Both forms are read, so a
file that writes unit monomials dense decodes to the same operators.
report_text and pairing_table_text are the one JSON writer of a verify
report and a pairing table, field by field; neither has a dict form.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .abelian import FinAbGroup, SymplecticPairing
from .construct import (
    Ambient,
    Block,
    GroupSpec,
    MultiOrbitSpec,
    SingleOrbitIngredients,
)
from .cyclo import CycMatrix, CycNum, euler_phi
from .matrep import Monomial, TensorShape, lowest_terms


def _text(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dumps_canonical(obj) -> str:
    return _text(obj) + "\n"


def _object_text(fields: dict[str, str]) -> str:
    """A JSON object as _text writes it, from the JSON text of each value."""
    return "{" + ",".join(f"{_text(k)}:{v}" for k, v in sorted(fields.items())) + "}"


def _int(value) -> int:
    """An integer field as written: a JSON integer.  A float or a boolean
    raises ValueError, where int() would truncate or coerce it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(value) -> int:
    """A numerator or denominator as written: a decimal string, an optional
    sign and ASCII digits.  Anything else raises ValueError, where int()
    would truncate a float, coerce a boolean or read other digits."""
    if not isinstance(value, str) or not _DECIMAL.fullmatch(value):
        raise ValueError(f"expected a decimal string, got {value!r}")
    return int(value)


# -- cyclotomic values ---------------------------------------------------


def _coeffs_to_json(c: CycNum) -> list:
    return [[str(f.numerator), str(f.denominator)] for f in c.coefficients()]


def _zero_coeffs(m: int) -> list:
    """The coefficients of zero on conductor m, as _coeffs_to_json writes them."""
    return [["0", "1"] for _ in range(euler_phi(m))]


def cyc_num_from_json(data: dict) -> CycNum:
    """Decode on integers over the lcm of the denominators; a coordinate
    that is not a pair of decimal strings, or a zero denominator, raises
    ValueError."""
    m = _int(data["conductor"])
    pairs = [(_decimal(n), _decimal(d)) for n, d in data["coeffs"]]
    if any(d == 0 for _, d in pairs):
        raise ValueError("coefficient with a zero denominator")
    den = math.lcm(*(d for _, d in pairs))
    return CycNum(m, [n * (den // d) for n, d in pairs], den)


def cyc_matrix_to_json(mat: CycMatrix) -> dict:
    """Entries in row-major order; every zero entry shares one list."""
    cells = mat.cells
    zero = _zero_coeffs(mat.m)
    return {
        "rows": mat.rows,
        "cols": mat.cols,
        "conductor": mat.m,
        "entries": [
            _coeffs_to_json(cells[i, j]) if (i, j) in cells else zero
            for i in range(mat.rows)
            for j in range(mat.cols)
        ],
    }


def cyc_matrix_from_json(data: dict) -> CycMatrix:
    """Decode a matrix from its entries in row-major order.  Once the first
    entry has checked the conductor, an entry written exactly as zero is
    skipped; any other entry is decoded, so malformed input fails as it
    would in cyc_num_from_json.  A wrong entry count raises ValueError."""
    rows, cols, m = _int(data["rows"]), _int(data["cols"]), _int(data["conductor"])
    zero = None
    values = {}
    for k, coeffs in enumerate(data["entries"]):
        if coeffs == zero:
            continue
        values[k] = cyc_num_from_json({"conductor": m, "coeffs": coeffs})
        if zero is None:
            zero = _zero_coeffs(m)
    count = len(data["entries"])
    if rows < 1 or cols < 1 or count != rows * cols:
        raise ValueError(f"{count} entries for a {rows} x {cols} matrix")
    # every value is on conductor m, so the matrix is too
    return CycMatrix.from_entries(rows, cols, {divmod(k, cols): v for k, v in values.items()})


# -- groups ----------------------------------------------------------------


def group_to_json(g: FinAbGroup) -> dict:
    return {"invariant_factors": list(g.invariant_factors)}


def group_from_json(data: dict) -> FinAbGroup:
    return FinAbGroup(tuple(_int(d) for d in data["invariant_factors"]))


def pairing_from_json(data: dict) -> SymplecticPairing:
    group = group_from_json(data["group"])
    table = tuple(tuple(_root_exponent(*entry) for entry in row) for row in data["table"])
    return SymplecticPairing(group, table)


def _root_exponent(order, expo) -> Fraction:
    """A table entry (order, exponent) as the exponent in Q/Z."""
    if _int(order) < 1:
        raise ValueError(f"root of unity of order {order}")
    return Fraction(_int(expo), order)


def _pairing_text(table) -> str:
    """A PairingTable's JSON text, its values written from its row sums
    without building them: the text of each exponent's reduced root of
    unity, such as "[12,5]", is built once and each row is joined from
    those."""
    roots = [_text(lowest_terms(table.order, k)) for k in range(table.order)]
    rows = ",".join(["[" + ",".join([roots[k] for k in sums]) + "]"
                     for sums in table.row_sums()])
    return _object_text({
        "gamma": _text(group_to_json(table.gamma)),
        "delta": _text(group_to_json(table.delta)),
        "values": "[" + rows + "]",
    })


def pairing_table_text(table) -> str:
    """A PairingTable as a canonical JSON document, by _pairing_text."""
    return _pairing_text(table) + "\n"


def report_text(report) -> str:
    """A VerificationReport as a canonical JSON document, every field
    written here and its pairing table (or null) by _pairing_text."""
    return _object_text({
        "is_dual_pair": _text(report.is_dual_pair),
        "g_dim": _text(report.g_dim),
        "h_dim": _text(report.h_dim),
        "g_components": _text(report.g_components),
        "h_components": _text(report.h_components),
        "pairing": "null" if report.pairing is None else _pairing_text(report.pairing),
        "failures": _text([{"code": f.code, "detail": f.detail} for f in report.failures]),
    }) + "\n"


# -- specs ------------------------------------------------------------------


def shape_to_json(shape: TensorShape) -> list:
    return [{"label": lbl, "dim": d} for lbl, d in shape.factors]


def shape_from_json(data: list) -> TensorShape:
    return TensorShape(tuple((f["label"], _int(f["dim"])) for f in data))


def monomial_to_json(mono: Monomial) -> dict:
    """Column j holds zeta_order^exps[j] at row perm[j], order the least."""
    return {"perm": list(mono.perm), "order": mono.order, "exps": list(mono.exps)}


def monomial_from_json(data: dict) -> Monomial:
    """Decode in integers.  A perm that is not a permutation of
    range(len(perm)), exps of another length, an order below 1 or an
    exponent outside range(order) raises ValueError; the order is reduced
    to the least one."""
    perm = [_int(p) for p in data["perm"]]
    order = _int(data["order"])
    exps = [_int(e) for e in data["exps"]]
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("monomial perm is not a permutation")
    if len(exps) != len(perm):
        raise ValueError(f"{len(exps)} exponents for a monomial of size {len(perm)}")
    if order < 1:
        raise ValueError(f"monomial of order {order}")
    if not all(0 <= e < order for e in exps):
        raise ValueError(f"monomial exponent outside range({order})")
    return Monomial.from_exponents(perm, order, exps)


def _generator_to_json(coords, op) -> dict:
    if isinstance(op, Monomial):
        return {"coset": list(coords), "monomial": monomial_to_json(op)}
    return {"coset": list(coords), "matrix": cyc_matrix_to_json(op)}


def _generator_from_json(item: dict):
    """A Monomial or a CycMatrix; an item with both forms or neither raises
    ValueError."""
    if ("matrix" in item) == ("monomial" in item):
        raise ValueError("a generator needs exactly one of 'matrix' and 'monomial'")
    if "monomial" in item:
        return monomial_from_json(item["monomial"])
    return cyc_matrix_from_json(item["matrix"])


def spec_to_json(spec: GroupSpec) -> dict:
    out = {
        "shape": [shape_to_json(s) for s in spec.ambient.summands],
        "blocks": None
        if spec.blocks is None
        else [{"dim": b.dim, "grid": [list(r) for r in b.grid]} for b in spec.blocks],
        "component_group": group_to_json(spec.component_group),
        "generators": [_generator_to_json(c, spec.operator(c))
                       for c in sorted([spec.cosets()[0], *spec.generating_cosets()])],
    }
    if spec.blocks is None:
        out["algebra_basis"] = [cyc_matrix_to_json(m) for m in spec.algebra().basis]
    return out


def spec_from_json(data: dict) -> GroupSpec:
    summands = tuple(shape_from_json(s) for s in data["shape"])
    if not summands:
        raise ValueError("a side needs at least one ambient summand")
    ambient = Ambient(summands)
    blocks = None
    if data.get("blocks") is not None:
        blocks = tuple(
            Block(_int(b["dim"]), tuple(tuple(_int(i) for i in r) for r in b["grid"]))
            for b in data["blocks"]
        )
    group = group_from_json(data["component_group"])
    gens = {}
    for item in data["generators"]:
        coords = tuple(_int(c) for c in item["coset"])
        if coords in gens:
            raise ValueError(f"coset {list(coords)} is listed twice")
        gens[coords] = _generator_from_json(item)
    basis = None
    if data.get("algebra_basis") is not None:
        basis = [cyc_matrix_from_json(m) for m in data["algebra_basis"]]
    return GroupSpec(ambient, blocks, group, gens, algebra_basis=basis)


def pair_to_json(g: GroupSpec, h: GroupSpec, meta=None) -> dict:
    return {
        "g": spec_to_json(g),
        "h": spec_to_json(h),
        "meta": dict(meta or {}),
    }


def pair_from_json(data: dict):
    """Decode a pair file and validate both sides (GroupSpec.validate): a
    side that is no reductive group with one coset per label (a raw
    algebra basis that is not closed under products or has a degenerate
    trace form, a singular generator, a
    generator that does not normalize the identity component, two that do
    not commute modulo it, two labels of one coset, or an extra coset off
    its word, among them) or two sides in different ambient spaces raise
    ValueError."""
    g, h = spec_from_json(data["g"]), spec_from_json(data["h"])
    g.validate()
    h.validate()
    if not g.ambient.compatible_with(h.ambient):
        raise ValueError("the two sides live in different ambient spaces")
    return g, h


# -- ingredients ------------------------------------------------------------


def ingredients_to_json(ing: SingleOrbitIngredients) -> dict:
    return {
        "b": ing.b,
        "e": ing.e,
        "L": group_to_json(ing.L_group),
        "J": group_to_json(ing.J_group),
        "K": group_to_json(ing.K_group),
    }


def ingredients_from_json(data: dict) -> SingleOrbitIngredients:
    return SingleOrbitIngredients(
        _int(data["b"]),
        _int(data["e"]),
        group_from_json(data["L"]),
        group_from_json(data["J"]),
        group_from_json(data["K"]),
    )


def multi_spec_to_json(spec: MultiOrbitSpec) -> dict:
    return {
        "gamma": group_to_json(spec.gamma),
        "summands": [
            {"ingredients": ingredients_to_json(ing), "q": [list(r) for r in q]}
            for ing, q in spec.summands
        ],
    }


def multi_spec_from_json(data: dict) -> MultiOrbitSpec:
    gamma = group_from_json(data["gamma"])
    summands = tuple(
        (
            ingredients_from_json(item["ingredients"]),
            tuple(tuple(_int(x) for x in r) for r in item["q"]),
        )
        for item in data["summands"]
    )
    return MultiOrbitSpec(gamma, summands)


def row_to_json(row) -> dict:
    out = {
        "kind": row.kind,
        "n": row.ambient_dim,
        "parts": row.parts,
        "gamma": group_to_json(row.gamma),
        "flags": list(row.flags),
    }
    if row.kind == "single":
        out["ingredients"] = ingredients_to_json(row.single)
    else:
        out["glue"] = multi_spec_to_json(row.multi)
    return out
