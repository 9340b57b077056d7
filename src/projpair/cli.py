"""Command-line front-end.

Commands: construct, verify, enumerate, pairing, symplectic.  Files are
UTF-8 JSON in canonical key order; exit codes are the only success
channel: 0 ok, 1 verification/decomposition failure, 2 bad input, 3 a
construction error or a resource limit (the conductor cap, or a witness
search on a twisted commutant of the untwisted dimension whose samples
found no invertible element and whose exhaustive grid is too large).  No
exception but KeyboardInterrupt leaves main as a traceback, since a
traceback exits 1 and 1 means "not a dual pair": a failed internal check
(an AssertionError) and any other unexpected exception (a MemoryError, a
TypeError from a bug) exit 3 with one error line, and enumerate --check
reports such a row as an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import serialize
from .abelian import FinAbGroup
from .classify import enumerate_multi_orbit, enumerate_single_orbit
from .construct import SingleOrbitIngredients, multi_orbit_glue, single_orbit_pair
from .cyclo import conductor_cap, set_conductor_cap
from .errors import DegeneratePairing, NotAlternating, NotProjectivelyCommuting, ProjPairError
from .verify import pairing_table, verify_dual_pair


def _parse_group(text: str) -> FinAbGroup:
    factors = [int(t) for t in text.split(",") if t.strip()]
    if not factors or any(f < 1 for f in factors):
        raise ValueError(f"bad group factors {text!r}")
    return FinAbGroup.from_factors(factors)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)
# 0 and 1 both mean serial
_workers_int = _int_at_least(0)


def _write_output(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_input(path: str, decode, noun: str):
    """decode of the JSON in the file at path, or None after one
    'error: malformed <noun>' line on stderr when the file cannot be read
    or decoded."""
    try:
        return decode(_load_json(path))
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        print(f"error: malformed {noun}: {exc}", file=sys.stderr)
        return None


def cmd_construct(args) -> int:
    try:
        if args.glue is not None:
            data = _load_json(args.glue)
            spec = serialize.multi_spec_from_json(data)
            g, h = multi_orbit_glue(spec)
            meta = {"construction": "multi_orbit", "summands": len(spec.summands)}
        else:
            ing = SingleOrbitIngredients(
                args.b, args.e, _parse_group(args.L), _parse_group(args.J),
                _parse_group(args.K),
            )
            g, h = single_orbit_pair(ing)
            meta = {
                "construction": "single_orbit",
                "ingredients": serialize.ingredients_to_json(ing),
            }
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    except ProjPairError as exc:
        print(f"error: construction failed: {exc}", file=sys.stderr)
        return 3
    meta["ambient_dim"] = g.ambient.dim
    _write_output(
        serialize.dumps_canonical(serialize.pair_to_json(g, h, meta)), args.output
    )
    return 0


def _report_lines(report) -> str:
    lines = [
        f"is_dual_pair: {report.is_dual_pair}",
        f"identity component dims: {report.g_dim}, {report.h_dim}",
        f"components: {report.g_components}, {report.h_components}",
    ]
    for f in report.failures:
        lines.append(f"failure: {f.code}: {f.detail}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    pair = _read_input(args.pair_file, serialize.pair_from_json, "pair file")
    if pair is None:
        return 2
    report = verify_dual_pair(*pair)
    if args.format == "json":
        _write_output(serialize.report_text(report), args.output)
    else:
        _write_output(_report_lines(report), args.output)
    return 0 if report.is_dual_pair else 1


def _row_cells(row):
    if row.kind == "single":
        ing = row.single
        return [
            str(row.ambient_dim),
            str(ing.b),
            str(ing.e),
            str(ing.L_group),
            str(ing.J_group),
            str(ing.K_group),
            str(row.gamma),
            "1",
        ]
    summary = " + ".join(
        f"{ing.b}x{ing.e}x[{ing.L_group}]x[{ing.J_group}]x[{ing.K_group}]"
        for ing, _ in row.multi.summands
    )
    return [
        str(row.ambient_dim), summary, "", "", "", "",
        str(row.gamma), str(row.parts),
    ]


def _format_table(rows) -> str:
    header = ["n", "b", "e", "L", "J", "K", "Gamma", "r"]
    cells = [header] + [_row_cells(r) for r in rows]
    widths = [max(len(c[i]) for c in cells) for i in range(len(header))]
    lines = [
        "  ".join(c[i].ljust(widths[i]) for i in range(len(header))).rstrip()
        for c in cells
    ]
    return "\n".join(lines) + "\n"


def _check_one(row):
    """Worker: construct and verify one classification row.  Returns
    (verified, failure codes, error), the error "<Type>: <message>" when
    the row raised, else None."""
    try:
        report = verify_dual_pair(*row.build())
    except Exception as exc:
        return False, [], f"{type(exc).__name__}: {exc}"
    return report.is_dual_pair, report.failure_codes(), None


def cmd_enumerate(args) -> int:
    if (args.max_parts or 1) > 1:
        rows = enumerate_multi_orbit(args.n, args.max_parts)
    else:
        rows = enumerate_single_orbit(args.n)
    if args.format == "json":
        payload = {"n": args.n, "rows": [serialize.row_to_json(r) for r in rows]}
    check_results = None
    if args.check:
        # all cores by default; an explicit --workers 0 or 1 stays serial
        workers = args.workers if args.workers is not None else os.cpu_count() or 1
        if workers > 1 and len(rows) > 1:
            # imported here: no other command starts a pool
            from concurrent.futures import ProcessPoolExecutor

            # a forked pool starts all its workers at the first submit
            with ProcessPoolExecutor(max_workers=min(workers, len(rows)),
                                     initializer=set_conductor_cap,
                                     initargs=(conductor_cap(),)) as pool:
                check_results = list(pool.map(_check_one, rows))
        else:
            check_results = [_check_one(row) for row in rows]
    if args.format == "json":
        if check_results is not None:
            for rj, (ok, codes, error) in zip(payload["rows"], check_results):
                rj["verified"] = ok
                rj["failure_codes"] = codes
                if error is not None:
                    rj["error"] = error
            payload["passed"] = sum(1 for ok, _, _ in check_results if ok)
            payload["failed"] = sum(1 for ok, _, error in check_results
                                    if not ok and error is None)
            payload["errors"] = sum(1 for _, _, error in check_results if error is not None)
        _write_output(serialize.dumps_canonical(payload), args.output)
    else:
        text = _format_table(rows)
        if check_results is not None:
            passed = sum(1 for ok, _, _ in check_results if ok)
            text += f"verified: {passed}/{len(rows)} pairs pass\n"
            for row, (ok, codes, error) in zip(rows, check_results):
                if error is not None:
                    text += f"ERROR: {_row_cells(row)} {error}\n"
                elif not ok:
                    text += f"FAILED: {_row_cells(row)} {codes}\n"
        _write_output(text, args.output)
    if check_results is None:
        return 0
    if any(error is not None for _, _, error in check_results):
        return 3
    return 1 if any(not ok for ok, _, _ in check_results) else 0


def cmd_pairing(args) -> int:
    pair = _read_input(args.pair_file, serialize.pair_from_json, "pair file")
    if pair is None:
        return 2
    try:
        table = pairing_table(*pair)
    except NotProjectivelyCommuting as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        _write_output(serialize.pairing_table_text(table), args.output)
    else:
        lines = [
            " ".join(f"z{order}^{expo}" if order > 1 else "1" for order, expo in row)
            for row in table.values
        ]
        nondeg = table.is_nondegenerate()
        _write_output("\n".join(lines) + f"\nnondegenerate: {nondeg}\n", args.output)
    return 0


def cmd_symplectic(args) -> int:
    from .abelian import symplectic_decompose

    pairing = _read_input(args.pairing_file, serialize.pairing_from_json, "pairing file")
    if pairing is None:
        return 2
    try:
        dec = symplectic_decompose(pairing)
    except (DegeneratePairing, NotAlternating) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        payload = {
            "pairs": [
                {"lambda": list(lam.coords), "lambda_prime": list(lp.coords), "order": r}
                for lam, lp, r in dec.pairs
            ],
            "lagrangian": serialize.group_to_json(dec.lagrangian),
        }
        _write_output(serialize.dumps_canonical(payload), args.output)
    else:
        lines = [
            f"pair: lambda={list(lam.coords)} lambda'={list(lp.coords)} order={r}"
            for lam, lp, r in dec.pairs
        ]
        lines.append(f"lagrangian: {dec.lagrangian}")
        _write_output("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projpair",
        description="Construct, verify, and enumerate dual pairs in PGL(n, C) "
        "with exact cyclotomic arithmetic.",
    )
    parser.add_argument("--conductor-cap", type=_positive_int, default=None,
                        help="override the cyclotomic conductor cap")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a pair from ingredients")
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--L", default="1", help="invariant factors, e.g. '2,4'")
    p.add_argument("--J", default="1")
    p.add_argument("--K", default="1")
    p.add_argument("--glue", default=None, help="multi-orbit glue spec file")
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("verify", help="verify a pair file")
    p.add_argument("pair_file")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.add_argument("--workers", type=_workers_int, default=1,
                   help="accepted and checked (0 or more) but has no effect: "
                        "verify runs serially")
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("enumerate", help="enumerate classification rows")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--max-parts", type=_positive_int, default=None)
    p.add_argument("--check", action="store_true",
                   help="construct and verify every row")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.add_argument("--workers", type=_workers_int, default=None)
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("pairing", help="print the component pairing table")
    p.add_argument("pair_file")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("symplectic", help="hyperbolic decomposition of a pairing")
    p.add_argument("pairing_file")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.add_argument("--output", "-o", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.conductor_cap is not None:
        set_conductor_cap(args.conductor_cap)
    handlers = {
        "construct": cmd_construct,
        "verify": cmd_verify,
        "enumerate": cmd_enumerate,
        "pairing": cmd_pairing,
        "symplectic": cmd_symplectic,
    }
    try:
        return handlers[args.command](args)
    except ProjPairError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
