"""CLI commands, exit codes, and JSON round-trips."""

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from projpair import serialize
from projpair.abelian import FinAbGroup
from projpair.cli import main
from projpair.construct import (
    Ambient,
    Block,
    GroupSpec,
    SingleOrbitIngredients,
    connected_pair,
    scalar_blocks,
    single_orbit_pair,
    xx_hat_pair,
)
from projpair.cyclo import CycMatrix, conductor_cap, set_conductor_cap
from projpair.matrep import Monomial, TensorShape
from projpair.verify import compute_centralizer, verify_dual_pair

from test_verify import cycle_spec

DATA = Path(__file__).parent / "data"
TRIV = FinAbGroup.trivial()
Z2 = FinAbGroup.cyclic(2)


def run(args):
    return main(args)


def test_construct_and_verify_roundtrip(tmp_path):
    pair_file = tmp_path / "klein.json"
    assert run(["construct", "--L", "2", "-o", str(pair_file)]) == 0
    assert run(["verify", str(pair_file)]) == 0
    # round-trip: parsed verification equals in-memory verification
    data = json.loads(pair_file.read_text())
    g, h = serialize.pair_from_json(data)
    mem_g, mem_h = xx_hat_pair(Z2)
    report_file = verify_dual_pair(g, h)
    report_mem = verify_dual_pair(mem_g, mem_h)
    assert report_file.to_json_dict() == report_mem.to_json_dict()


def test_construct_is_deterministic(tmp_path):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    run(["construct", "--b", "2", "--e", "1", "--J", "2", "-o", str(f1)])
    run(["construct", "--b", "2", "--e", "1", "--J", "2", "-o", str(f2)])
    assert f1.read_bytes() == f2.read_bytes()


def test_verify_rejects_truncated_json(tmp_path):
    pair_file = tmp_path / "pair.json"
    run(["construct", "--L", "2", "-o", str(pair_file)])
    text = pair_file.read_text()
    pair_file.write_text(text[: len(text) // 2])
    assert run(["verify", str(pair_file)]) == 2


def test_verify_missing_file():
    assert run(["verify", "/nonexistent/file.json"]) == 2


def test_internal_check_failure_exits_3(tmp_path, capsys, monkeypatch):
    """An AssertionError from an internal check is a construction error
    (3) with one error line, in verify and in each row of enumerate
    --check; at the parent commit it left main as a traceback, which
    exits 1, the code for "not a dual pair"."""
    from projpair import verify

    pair_file = tmp_path / "pair.json"
    assert run(["construct", "--L", "2", "-o", str(pair_file)]) == 0
    capsys.readouterr()

    def broken(target, *args, **kwargs):
        raise AssertionError("surviving scalar tuples do not form a group")

    monkeypatch.setattr(verify, "compute_centralizer", broken)
    assert run(["verify", str(pair_file)]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: internal check failed: surviving scalar tuples do not form a group"]
    assert run(["enumerate", "--n", "2", "--check", "--workers", "1"]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    errors = [line for line in captured.out.splitlines() if line.startswith("ERROR: ")]
    assert errors and all(line.endswith("AssertionError: surviving scalar tuples do not "
                                        "form a group") for line in errors)


@pytest.mark.parametrize("error", [MemoryError("out of memory"),
                                   TypeError("unsupported operand")])
def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch, error):
    """Any other exception raised inside a solve is an internal error (3)
    with one error line and no traceback, in verify and in each row of
    serial enumerate --check, and so is one raised inside a commutator
    in pairing; at the parent commit either exception left main as a
    traceback, which exits 1, the code for "not a dual pair"."""
    from projpair import verify
    from projpair.verify import CommutantEngine

    pair_file = tmp_path / "pair.json"
    assert run(["construct", "--L", "2", "-o", str(pair_file)]) == 0
    capsys.readouterr()

    def broken(self, scalars):
        raise error

    monkeypatch.setattr(CommutantEngine, "solve", broken)
    message = f"{type(error).__name__}: {error}"
    assert run(["verify", str(pair_file)]) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: internal error: {message}"]
    assert run(["enumerate", "--n", "2", "--check", "--workers", "1"]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    errors = [line for line in captured.out.splitlines() if line.startswith("ERROR: ")]
    assert errors and all(line.endswith(message) for line in errors)
    assert not [line for line in captured.out.splitlines() if line.startswith("FAILED: ")]
    monkeypatch.setattr(verify, "commutator_scalar", lambda g, h: broken(None, None))
    assert run(["pairing", str(pair_file)]) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: internal error: {message}"]


def _dense(item):
    """A generator item rewritten in the dense form ("matrix"), which every
    generator of a pair file once took, so that its entries can be edited."""
    if "monomial" in item:
        mono = serialize.monomial_from_json(item.pop("monomial"))
        item["matrix"] = serialize.cyc_matrix_to_json(mono.to_matrix())
    return item


def test_verify_rejects_singular_generator(tmp_path):
    """A zero generator is bad input (2), not a failed verification (1);
    so is a zero operator at a coset beyond the generating ones in a file
    that lists every coset, although the algebra holds it."""
    pair_file = tmp_path / "pair.json"
    run(["construct", "--L", "2", "-o", str(pair_file)])
    data = json.loads(pair_file.read_text())
    matrix = _dense(data["g"]["generators"][1])["matrix"]
    matrix["entries"] = [[["0", "1"]] for _ in matrix["entries"]]
    pair_file.write_text(json.dumps(data))
    assert run(["verify", str(pair_file)]) == 2
    assert run(["pairing", str(pair_file)]) == 2
    data = json.loads((DATA / "pair_L4_monomial.json").read_text())
    item = next(item for item in data["g"]["generators"] if item["coset"] == [1, 1])
    matrix = _dense(item)["matrix"]
    matrix.update(conductor=1, entries=[[["0", "1"]] for _ in matrix["entries"]])
    pair_file.write_text(json.dumps(data))
    assert run(["verify", str(pair_file)]) == 2
    assert run(["pairing", str(pair_file)]) == 2


def test_pair_sides_in_different_ambients_are_bad_input(tmp_path, capsys):
    """g from --L 2 and h from --L 3 is bad input: exit 2 and one error
    line for both commands, not "pairing not defined" (1) or a package
    error (3)."""
    pair2, pair3 = tmp_path / "p2.json", tmp_path / "p3.json"
    assert run(["construct", "--L", "2", "-o", str(pair2)]) == 0
    assert run(["construct", "--L", "3", "-o", str(pair3)]) == 0
    data = json.loads(pair2.read_text())
    data["h"] = json.loads(pair3.read_text())["h"]
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(data))
    capsys.readouterr()
    for command in ("verify", "pairing"):
        assert run([command, str(mixed)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_empty_shape_is_bad_input(tmp_path, capsys):
    """A side whose ambient has no summand ("shape": []) is bad input for
    both commands: exit 2 and one error line, not a construction error
    (3)."""
    pair_file = tmp_path / "pair.json"
    assert run(["construct", "--L", "2", "-o", str(pair_file)]) == 0
    data = json.loads(pair_file.read_text())
    data["g"]["shape"] = []
    pair_file.write_text(json.dumps(data))
    capsys.readouterr()
    for command in ("verify", "pairing"):
        assert run([command, str(pair_file)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1


def _edited_pair(tmp_path, edit):
    """The --L 2 pair file with one edit applied to its decoded JSON."""
    pair_file = tmp_path / "pair.json"
    run(["construct", "--L", "2", "-o", str(pair_file)])
    data = json.loads(pair_file.read_text())
    edit(data)
    pair_file.write_text(json.dumps(data))
    return str(pair_file)


def assert_bad_input(path, capsys):
    capsys.readouterr()
    assert run(["verify", path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_rejects_block_index_out_of_range(tmp_path, capsys):
    """A grid index outside range(n), past it or negative, is bad input,
    not an IndexError (which would exit 3)."""
    for grid in ([[0, 5]], [[0, -1]]):
        def edit(data):
            data["g"]["blocks"][0]["grid"] = grid
        assert_bad_input(_edited_pair(tmp_path, edit), capsys)


def test_verify_rejects_repeated_block_index(tmp_path, capsys):
    """Grids that repeat an index (and so miss another), within one block
    or across two, are bad input."""
    def repeat(data):
        data["g"]["blocks"][0]["grid"] = [[0, 0]]

    def share(data):
        data["g"]["blocks"] = [{"dim": 1, "grid": [[0, 1]]}, {"dim": 1, "grid": [[1, 0]]}]
    for edit in (repeat, share):
        assert_bad_input(_edited_pair(tmp_path, edit), capsys)


def test_verify_rejects_generator_power_outside_identity_component(tmp_path, capsys):
    """diag(1, 2) squared is not a scalar, so it cannot generate a coset of
    order 2 over the scalars."""
    def edit(data):
        _dense(data["g"]["generators"][1])["matrix"]["entries"] = [
            [["1", "1"]], [["0", "1"]], [["0", "1"]], [["2", "1"]]]
    assert_bad_input(_edited_pair(tmp_path, edit), capsys)


def test_verify_rejects_zero_denominator(tmp_path, capsys):
    """A coefficient over 0 is bad input; a ZeroDivisionError traceback and
    exit 1 at the parent commit."""
    def edit(data):
        _dense(data["g"]["generators"][1])["matrix"]["entries"][0][0] = ["1", "0"]
    assert_bad_input(_edited_pair(tmp_path, edit), capsys)


@pytest.mark.parametrize("extra", [[["0", "1"]], [["1", "1"]]])
@pytest.mark.parametrize("command", ["verify", "pairing"])
def test_matrix_with_extra_entries_is_bad_input(tmp_path, capsys, command, extra):
    """A 2 x 2 generator with five entries is bad input; at the parent commit
    the fifth entry was dropped and the file verified."""
    def edit(data):
        _dense(data["g"]["generators"][1])["matrix"]["entries"].append(extra)
    path = _edited_pair(tmp_path, edit)
    capsys.readouterr()
    assert run([command, path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_matrix_decoder_skips_only_canonical_zeros():
    """Zero entries keep the matrix on the file's conductor, and an entry
    that only looks like zero is decoded, and rejected, as before."""
    from projpair.cyclo import CycMatrix, CycNum

    z4 = CycNum.root_of_unity(4)
    for mat in (CycMatrix([[z4, 0], [0, 0]]), CycMatrix([[z4 - z4, 0]])):
        back = serialize.cyc_matrix_from_json(serialize.cyc_matrix_to_json(mat))
        assert back == mat and back.m == mat.m == 4
    assert CycMatrix([[z4 - z4, 0]]).cells == {}
    data = {"rows": 1, "cols": 2, "conductor": 4,
            "entries": [[["0", "1"], ["0", "1"]], [["0", "3"], ["0", "1"]]]}
    back = serialize.cyc_matrix_from_json(data)
    assert back.m == 4 and back.is_zero()
    data["entries"][1] = [["0", "1"]]
    with pytest.raises(ValueError):
        serialize.cyc_matrix_from_json(data)
    data["entries"][1] = [["0", "1"], ["0", "1"]]
    data["entries"].append([["0", "1"], ["0", "1"]])
    with pytest.raises(ValueError):
        serialize.cyc_matrix_from_json(data)


def _json_leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _json_leaves(value, path + (key,))
    elif isinstance(obj, list) and obj:
        for i, value in enumerate(obj):
            yield from _json_leaves(value, path + (i,))
    else:
        yield path


def _fuzzed_leaf_exit_code(tmp_path, document, path, value, command):
    """Exit code of command on document with the leaf at path replaced by
    value; a SystemExit must carry 2 (bad input) and counts as that."""
    data = json.loads(json.dumps(document))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    fuzzed = tmp_path / "fuzzed.json"
    fuzzed.write_text(json.dumps(data))
    try:
        return main([*command, str(fuzzed)])
    except SystemExit as exc:
        assert exc.code == 2
        return 2


_L2_PAIR = serialize.pair_to_json(*xx_hat_pair(Z2))
_L2_LEAVES = list(_json_leaves(_L2_PAIR))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_L2_LEAVES),
       st.one_of(st.integers(-3, 30), st.sampled_from(["", "x", "-1", "0", "2", "1/2"])),
       st.sampled_from(["verify", "pairing"]))
def test_verify_fuzzed_leaf_keeps_exit_contract(tmp_path, path, value, command):
    """Replacing any one leaf of the --L 2 pair file by an int or a string
    gives an exit code in {0, 1, 2, 3} for verify and for pairing, never
    another exception."""
    code = _fuzzed_leaf_exit_code(tmp_path, _L2_PAIR, path, value, [command])
    assert code in (0, 1, 2, 3)


_SMALL_LEAVES = st.one_of(st.integers(-3, 6), st.sampled_from(["", "x", "-1", "0", "2", "1/2"]))

_Z2Z2_PAIRING = {
    "group": {"invariant_factors": [2, 2]},
    "table": [[[1, 0], [2, 1]], [[2, 1], [1, 0]]],
}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(list(_json_leaves(_Z2Z2_PAIRING))), _SMALL_LEAVES)
def test_symplectic_fuzzed_leaf_keeps_exit_contract(tmp_path, path, value):
    """Replacing any one leaf of a Z2 x Z2 pairing file gives an exit code
    in {0, 1, 2, 3}, never another exception."""
    code = _fuzzed_leaf_exit_code(tmp_path, _Z2Z2_PAIRING, path, value, ["symplectic"])
    assert code in (0, 1, 2, 3)


_L2_GLUE_SUMMAND = {
    "ingredients": {"b": 1, "e": 1, "L": {"invariant_factors": [2]},
                    "J": {"invariant_factors": []}, "K": {"invariant_factors": []}},
    "q": [[1, 0], [0, 1]],
}
_L2_GLUE = {"gamma": {"invariant_factors": [2, 2]},
            "summands": [_L2_GLUE_SUMMAND, _L2_GLUE_SUMMAND]}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(list(_json_leaves(_L2_GLUE))), _SMALL_LEAVES)
def test_glue_fuzzed_leaf_keeps_exit_contract(tmp_path, path, value):
    """Replacing any one leaf of the README glue file gives an exit code in
    {0, 1, 2, 3}, never another exception."""
    code = _fuzzed_leaf_exit_code(tmp_path, _L2_GLUE, path, value,
                                  ["construct", "-o", str(tmp_path / "pair.json"), "--glue"])
    assert code in (0, 1, 2, 3)


def test_pairing_order_zero_is_bad_input(tmp_path, capsys):
    """A table entry of order 0 is bad input: exit 2 and one error line; a
    ZeroDivisionError traceback and exit 1 at the parent commit."""
    data = json.loads(json.dumps(_Z2Z2_PAIRING))
    data["table"][0][0] = [0, 1]
    f = tmp_path / "pairing.json"
    f.write_text(json.dumps(data))
    assert run(["symplectic", str(f)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_resource_limit_exits_3_without_traceback(tmp_path, capsys):
    """The conductor cap is a resource limit: exit 3 and one error line."""
    pair_file = tmp_path / "p3.json"
    assert run(["construct", "--L", "3", "-o", str(pair_file)]) == 0
    capsys.readouterr()
    old = conductor_cap()
    try:
        code = run(["--conductor-cap", "2", "verify", str(pair_file)])
    finally:
        set_conductor_cap(old)
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_conductor_cap_below_one_is_bad_input(capsys):
    """A cap below 1 is a bad flag: exit 2 and one error line, before the
    global cap is touched."""
    old = conductor_cap()
    try:
        with pytest.raises(SystemExit) as exc:
            run(["--conductor-cap", "0", "enumerate", "--n", "1"])
        assert conductor_cap() == old
    finally:
        set_conductor_cap(old)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1


def test_mislabelled_coset_table_is_bad_input(tmp_path, capsys):
    """Two files that list every coset of the --L 4 pair, as construct once
    wrote it dense and then as monomials.  Swapping the g-side operators of
    cosets (0, 2) and (1, 2) leaves each off its word in the generating
    cosets: bad input (2) for verify and for pairing, with one error line.
    The group is still the dual partner of h as a set, so only the labels
    are wrong."""
    for fixture in ("pair_L4_dense.json", "pair_L4_monomial.json"):
        data = json.loads((DATA / fixture).read_text())
        assert len(data["g"]["generators"]) == 16
        pair_file = tmp_path / fixture
        pair_file.write_text(json.dumps(data))
        assert run(["verify", str(pair_file)]) == 0
        items = {tuple(item["coset"]): item for item in data["g"]["generators"]}
        a, b = _dense(items[(0, 2)]), _dense(items[(1, 2)])
        a["matrix"], b["matrix"] = b["matrix"], a["matrix"]
        pair_file.write_text(json.dumps(data))
        capsys.readouterr()
        for command in ("verify", "pairing"):
            assert run([command, str(pair_file)]) == 2
            err = capsys.readouterr().err
            assert "not its word in the generating cosets" in err
            assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("block", [
    {"dim": 1, "grid": [[]]},
    {"dim": 2, "grid": [[], []]},
    {"dim": 0, "grid": []},
], ids=["empty row", "two empty rows", "dimension 0"])
def test_phantom_block_is_bad_input(tmp_path, capsys, block):
    """A block with no multiplicity copy or no dimension adds nothing to
    the identity component, yet verify once counted its dim^2 in g_dim
    and exited 0: bad input (2) for verify and for pairing."""
    pair_file = tmp_path / "pair.json"
    assert run(["construct", "--L", "2", "-o", str(pair_file)]) == 0
    data = json.loads(pair_file.read_text())
    data["g"]["blocks"].append(block)
    pair_file.write_text(json.dumps(data))
    capsys.readouterr()
    for command in ("verify", "pairing"):
        assert run([command, str(pair_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_coset_listed_twice_is_bad_input(tmp_path, capsys):
    """g's coset (0, 1) listed first as the identity and then as its true
    operator is bad input (2), not the pair whichever item came last
    makes."""
    pair_file = tmp_path / "pair.json"
    assert run(["construct", "--L", "2", "-o", str(pair_file)]) == 0
    data = json.loads(pair_file.read_text())
    items = data["g"]["generators"]
    k = next(k for k, item in enumerate(items) if item["coset"] == [0, 1])
    items.insert(k, {"coset": [0, 1], "monomial": {"perm": [0, 1], "order": 1, "exps": [0, 0]}})
    pair_file.write_text(json.dumps(data))
    capsys.readouterr()
    for command in ("verify", "pairing"):
        assert run([command, str(pair_file)]) == 2
        err = capsys.readouterr().err
        assert "listed twice" in err
        assert err.startswith("error:") and err.count("\n") == 1


def _raw_basis_pair(tmp_path, basis):
    """The connected_pair([(2, 1)]) file with g's blocks replaced by the
    raw algebra basis given as dense rows."""
    g, h = connected_pair([(2, 1)])
    data = serialize.pair_to_json(g, h)
    data["g"]["blocks"] = None
    data["g"]["algebra_basis"] = [serialize.cyc_matrix_to_json(CycMatrix(rows))
                                  for rows in basis]
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(data))
    return str(pair_file)


@pytest.mark.parametrize("basis, message", [
    ([], "algebra basis is empty"),
    ([[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], "wrong shape"),
    ([[[1, 0], [0, 0]]], "does not hold the identity"),
], ids=["empty", "wrong_shape", "no_identity"])
def test_malformed_raw_algebra_basis_is_bad_input(tmp_path, capsys, basis, message):
    """An empty raw basis, a basis matrix of the wrong size and a basis
    whose span misses the identity are bad input (2) for verify and for
    pairing, with one error line.  At the parent commit the first two
    crashed with a traceback and exit 1, and the third read
    CENTRALIZER_LARGER on input that is not a group."""
    pair_file = _raw_basis_pair(tmp_path, basis)
    capsys.readouterr()
    for command in ("verify", "pairing"):
        assert run([command, pair_file]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("side, closed_exit", [("g", 0), ("h", 1)])
@pytest.mark.parametrize("scale", [1, 2], ids=["pattern", "dense"])
def test_raw_algebra_basis_not_closed_under_products_is_bad_input(tmp_path, capsys,
                                                                    scale, side, closed_exit):
    """span{I, E01, E10} in PGL(2) holds the identity and has a
    nondegenerate trace form, but E01 E10 = E00 lies outside it, so it is
    no algebra: bad input (2) for verify and for pairing on either side of
    connected_pair([(2, 1)]), whose g is GL(2) and h the scalars; so is
    span{I, 2 E01, 2 E10}, which is no root pattern.  Unchecked, verify
    read CENTRALIZER_SMALLER or CENTRALIZER_LARGER (exit 1).  With E00
    added the span is all of M(2): verify answers 0 on the g side and 1 on
    the h side."""
    g, h = connected_pair([(2, 1)])
    data = serialize.pair_to_json(g, h)
    basis = [[[1, 0], [0, 1]], [[0, scale], [0, 0]], [[0, 0], [scale, 0]]]
    pair_file = tmp_path / "pair.json"
    for extra, expected in (([], 2), ([[[1, 0], [0, 0]]], closed_exit)):
        data[side]["blocks"] = None
        data[side]["algebra_basis"] = [serialize.cyc_matrix_to_json(CycMatrix(rows))
                                       for rows in basis + extra]
        pair_file.write_text(json.dumps(data))
        capsys.readouterr()
        assert run(["verify", str(pair_file)]) == expected
        err = capsys.readouterr().err
        if expected == 2:
            assert run(["pairing", str(pair_file)]) == 2
            err += capsys.readouterr().err
            assert err.count("not closed under products") == 2
            assert err.startswith("error: malformed pair file") and err.count("\n") == 2
        else:
            assert not err


def test_blocks_and_raw_algebra_basis_together_is_bad_input(tmp_path, capsys):
    """A side that gives both blocks and a raw algebra basis is bad input
    (2) for verify and for pairing.  At the parent commit, adding
    "algebra_basis": [I] to the g side of connected_pair([(2, 1)]) gave a
    spec whose algebra was the raw basis while its identity dimension
    came from the blocks, and verify read CENTRALIZER_LARGER both ways."""
    g, h = connected_pair([(2, 1)])
    data = serialize.pair_to_json(g, h)
    data["g"]["algebra_basis"] = [serialize.cyc_matrix_to_json(CycMatrix.identity(2))]
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(data))
    capsys.readouterr()
    for command in ("verify", "pairing"):
        assert run([command, str(pair_file)]) == 2
        err = capsys.readouterr().err
        assert "either blocks or an algebra basis, not both" in err
        assert err.startswith("error:") and err.count("\n") == 1


def test_verify_detects_edited_pair(tmp_path):
    """Removing a generator (and shrinking the component group accordingly)
    leaves a subgroup whose centralizer is strictly larger."""
    pair_file = tmp_path / "pair.json"
    run(["construct", "--L", "2", "-o", str(pair_file)])
    data = json.loads(pair_file.read_text())
    kept = [
        item
        for item in data["g"]["generators"]
        if item["coset"] in ([0, 0], [1, 0])
    ]
    for item in kept:
        item["coset"] = [item["coset"][0]]
    data["g"]["generators"] = kept
    data["g"]["component_group"] = {"invariant_factors": [2]}
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(data))
    assert run(["verify", str(edited)]) == 1
    out = tmp_path / "report.json"
    run(["verify", str(edited), "--format", "json", "-o", str(out)])
    report = json.loads(out.read_text())
    assert not report["is_dual_pair"]
    codes = [f["code"] for f in report["failures"]]
    assert "CENTRALIZER_LARGER" in codes


def test_verify_finds_the_centralizer_of_a_centralizer_larger(tmp_path, capsys):
    """The pair (S, Z(S)) for S = <(0 1 2)> in PGL(6) is no dual pair:
    Z(Z(S)) is a 3-dimensional torus, larger than S, and S has 3
    components to Z(S)'s one.  Every nonzero twist of S is decided by
    dimension, with no witness search."""
    s = cycle_spec(6, (0, 1, 2))
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(serialize.pair_to_json(s, compute_centralizer(s))))
    out = tmp_path / "report.json"
    assert run(["verify", str(pair_file), "--format", "json", "-o", str(out)]) == 1
    report = json.loads(out.read_text())
    assert [f["code"] for f in report["failures"]] == ["CENTRALIZER_LARGER",
                                                       "PAIRING_DEGENERATE"]
    assert "Traceback" not in capsys.readouterr().err


def _non_commuting_pair(tmp_path):
    """<diag(1, 1, -1)> against <(0 2)> in PGL(3): the commutator of the
    two generators is diag(-1, 1, -1), not a scalar."""
    ambient = Ambient.single(TensorShape((("A", 3),)))
    sides = [GroupSpec(ambient, scalar_blocks(3), Z2, {(0,): Monomial.identity(3), (1,): op})
             for op in (Monomial.from_exponents([0, 1, 2], 2, [0, 0, 1]),
                        Monomial.from_exponents([2, 1, 0], 1, [0, 0, 0]))]
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(serialize.pair_to_json(*sides)))
    return str(pair_file)


def test_pairing_of_non_commuting_generators_exits_1(tmp_path, capsys):
    pair_file = _non_commuting_pair(tmp_path)
    assert run(["pairing", pair_file]) == 1
    assert capsys.readouterr().err == "error: commutator is not scalar\n"


def test_verify_of_non_commuting_generators_has_no_pairing(tmp_path):
    pair_file = _non_commuting_pair(tmp_path)
    out = tmp_path / "report.json"
    assert run(["verify", pair_file, "--format", "json", "-o", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["pairing"] is None
    assert {"code": "PAIRING_DEGENERATE",
            "detail": "pairing not defined: commutator is not scalar"} in report["failures"]


def _one_sided_pair_file(tmp_path, blocks, group, gens):
    """A pair file of one spec on both sides, written as its generators
    are given, with no check that they make a group."""
    n = next(iter(gens.values())).shape[0]
    spec = GroupSpec(Ambient.single(TensorShape((("A", n),))), blocks, group, gens)
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(serialize.pair_to_json(spec, spec)))
    return str(pair_file)


def _transposition(n, i, j):
    perm = list(range(n))
    perm[i], perm[j] = j, i
    return Monomial.from_exponents(perm, 1, [0] * n)


@pytest.mark.parametrize("blocks, group, gens, message", [
    # the Hadamard matrix does not normalize the diagonal torus of PGL(2)
    ((Block(1, ((0,),)), Block(1, ((1,),))), Z2,
     {(0,): CycMatrix.identity(2), (1,): CycMatrix([[1, 1], [1, -1]])},
     "does not normalize"),
    # (0 1) and (1 2) do not commute modulo the scalars of PGL(3)
    (scalar_blocks(3), FinAbGroup((2, 2)),
     {(0, 0): Monomial.identity(3), (1, 0): _transposition(3, 0, 1),
      (0, 1): _transposition(3, 1, 2)},
     "leave the extension"),
    # <I> declared as Z2: both labels name the identity component
    (scalar_blocks(2), Z2, {(0,): Monomial.identity(2), (1,): Monomial.identity(2)},
     "names the identity component"),
], ids=["torus_not_normalized", "generators_not_commuting", "labels_collapse"])
def test_pair_file_of_a_side_that_is_no_group_exits_2(tmp_path, capsys, blocks, group,
                                                     gens, message):
    """A side whose generators do not make a group with one coset per
    label is bad input for verify and for pairing, not a failing pair."""
    pair_file = _one_sided_pair_file(tmp_path, blocks, group, gens)
    for command in ("verify", "pairing"):
        assert run([command, pair_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed pair file") and message in err


def test_pair_file_of_a_side_that_is_not_reductive_exits_2(tmp_path, capsys):
    """span{I, E_01} in PGL(2) is no reductive group (its trace form is
    degenerate), so a pair file with it on both sides is bad input for
    verify and for pairing, not a construction error or a pairing."""
    basis = [CycMatrix.identity(2), CycMatrix.from_entries(2, 2, {(0, 1): 1})]
    spec = GroupSpec(Ambient.single(TensorShape((("A", 2),))), None, FinAbGroup.trivial(),
                     {(): Monomial.identity(2)}, algebra_basis=basis)
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(serialize.pair_to_json(spec, spec)))
    for command in ("verify", "pairing"):
        assert run([command, str(pair_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed pair file") and "not semisimple" in err


def test_enumerate_counts(tmp_path):
    out = tmp_path / "rows.json"
    assert run(["enumerate", "--n", "1", "--format", "json", "-o", str(out)]) == 0
    assert len(json.loads(out.read_text())["rows"]) == 1
    assert run(["enumerate", "--n", "2", "--format", "json", "-o", str(out)]) == 0
    assert len(json.loads(out.read_text())["rows"]) == 5
    assert run(
        ["enumerate", "--n", "2", "--max-parts", "2", "--format", "json", "-o", str(out)]
    ) == 0
    assert len(json.loads(out.read_text())["rows"]) == 6


def test_enumerate_check_small(tmp_path):
    out = tmp_path / "rows.json"
    code = run(
        ["enumerate", "--n", "4", "--max-parts", "2", "--check", "--workers", "1",
         "--format", "json", "-o", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["failed"] == 0
    assert payload["passed"] == len(payload["rows"])


@pytest.mark.parametrize("workers", ["1", "2"])
def test_enumerate_check_reports_row_errors(tmp_path, capsys, workers):
    """A row that raises is reported on its own line and in its JSON row,
    and the command exits 3; at the parent commit the first raising row
    aborted the command with one error line and every row was lost."""
    out = tmp_path / "rows.json"
    args = ["enumerate", "--n", "4", "--max-parts", "2", "--check", "--workers", workers]
    old = conductor_cap()
    try:
        code = run(["--conductor-cap", "2", *args, "--format", "json", "-o", str(out)])
        table_code = run(["--conductor-cap", "2", *args])
    finally:
        set_conductor_cap(old)
    assert code == table_code == 3
    payload = json.loads(out.read_text())
    rows = payload["rows"]
    errors = [r["error"] for r in rows if "error" in r]
    assert len(rows) == 24
    assert errors and all(e.startswith("ConductorCapExceeded: ") for e in errors)
    assert payload["errors"] == len(errors)
    assert payload["passed"] + payload["failed"] + payload["errors"] == len(rows)
    assert all(not r["verified"] for r in rows if "error" in r)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert sum(line.startswith("ERROR: ") for line in captured.out.splitlines()) == len(errors)


def test_enumerate_requires_n(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["enumerate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [["--n", "0"], ["--n", "-2"],
                                   ["--n", "2", "--max-parts", "0"],
                                   ["--n", "2", "--max-parts", "-1"],
                                   ["--n", "2", "--check", "--workers", "-1"]])
def test_enumerate_nonpositive_flags_are_bad_input(flags, capsys):
    """--n and --max-parts below 1, and --workers below 0, are bad flags:
    exit 2 and one error line, not a ValueError traceback or a silent
    single-orbit listing."""
    with pytest.raises(SystemExit) as exc:
        run(["enumerate", *flags])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1


def test_verify_negative_workers_is_bad_input(tmp_path, capsys):
    pair_file = tmp_path / "pair.json"
    run(["construct", "--L", "2", "-o", str(pair_file)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["verify", str(pair_file), "--workers", "-1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert run(["verify", str(pair_file), "--workers", "0"]) == 0


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool that cli imports when it starts one by a
    pool that records max_workers and maps in this process, so no worker
    is started."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


def test_pools_never_outnumber_their_work(tmp_path, pool_sizes):
    """enumerate --check's row pool asks for no more workers than it has
    rows: a forked pool starts every worker at the first submit.  verify
    starts no pool, whatever --workers says."""
    assert run(["enumerate", "--n", "2", "--check", "--workers", "5000"]) == 0
    # the five single-orbit rows at n = 2
    assert pool_sizes == [5]
    pair_file = tmp_path / "pair.json"
    run(["construct", "--L", "2", "-o", str(pair_file)])
    assert run(["verify", str(pair_file), "--workers", "5000"]) == 0
    assert pool_sizes == [5]


_FLAG_VALUES = st.one_of(st.integers(-3, 6).map(str),
                         st.sampled_from(["", "x", "-", "1.5", "0x2", " 3"]))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_FLAG_VALUES, _FLAG_VALUES)
def test_enumerate_fuzzed_flags_keep_exit_contract(tmp_path, capsys, n, max_parts):
    """Any --n and --max-parts give exit 0, or exit 2 with one error line."""
    out = tmp_path / "rows.json"
    try:
        code = main(["enumerate", "--n", n, "--max-parts", max_parts, "-o", str(out)])
    except SystemExit as exc:
        code = exc.code
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1
    assert code in (0, 2)


def test_glue_file_roundtrip(tmp_path):
    ing = SingleOrbitIngredients(1, 1, TRIV, TRIV, TRIV)
    glue = {
        "gamma": {"invariant_factors": []},
        "summands": [
            {"ingredients": serialize.ingredients_to_json(ing), "q": []},
            {"ingredients": serialize.ingredients_to_json(ing), "q": []},
        ],
    }
    glue_file = tmp_path / "glue.json"
    glue_file.write_text(json.dumps(glue))
    pair_file = tmp_path / "pair.json"
    assert run(["construct", "--glue", str(glue_file), "-o", str(pair_file)]) == 0
    assert run(["verify", str(pair_file)]) == 0


def test_glue_bad_isomorphism_exit3(tmp_path):
    ing = SingleOrbitIngredients(1, 1, Z2, TRIV, TRIV)
    glue = {
        "gamma": {"invariant_factors": [2, 2]},
        "summands": [
            {"ingredients": serialize.ingredients_to_json(ing), "q": [[1, 0], [0, 1]]},
            {"ingredients": serialize.ingredients_to_json(ing), "q": [[1, 0], [1, 0]]},
        ],
    }
    glue_file = tmp_path / "glue.json"
    glue_file.write_text(json.dumps(glue))
    assert run(["construct", "--glue", str(glue_file)]) == 3


def test_construct_bad_flags():
    assert run(["construct", "--L", "0"]) == 2
    assert run(["construct", "--L", "x"]) == 2


def test_pairing_command(tmp_path):
    pair_file = tmp_path / "pair.json"
    run(["construct", "--L", "2", "-o", str(pair_file)])
    out = tmp_path / "table.json"
    assert run(["pairing", str(pair_file), "--format", "json", "-o", str(out)]) == 0
    table = json.loads(out.read_text())
    assert len(table["values"]) == 4


def test_symplectic_command(tmp_path):
    good = {
        "group": {"invariant_factors": [2, 2]},
        "table": [[[1, 0], [2, 1]], [[2, 1], [1, 0]]],
    }
    f = tmp_path / "pairing.json"
    f.write_text(json.dumps(good))
    out = tmp_path / "dec.json"
    assert run(["symplectic", str(f), "--format", "json", "-o", str(out)]) == 0
    dec = json.loads(out.read_text())
    assert dec["lagrangian"] == {"invariant_factors": [2]}
    assert len(dec["pairs"]) == 1

    degenerate = {
        "group": {"invariant_factors": [2, 2]},
        "table": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]],
    }
    f.write_text(json.dumps(degenerate))
    assert run(["symplectic", str(f)]) == 1

    f.write_text("{not json")
    assert run(["symplectic", str(f)]) == 2


def test_serialize_roundtrips():
    from projpair.cyclo import CycMatrix, CycNum

    z12 = CycNum.root_of_unity(12, 5)
    val = z12 * CycNum.from_rational(7) / CycNum.from_rational(3)
    mat = CycMatrix([[val, 1], [0, z12]])
    assert serialize.cyc_matrix_from_json(serialize.cyc_matrix_to_json(mat)) == mat
    g, h = single_orbit_pair(SingleOrbitIngredients(2, 1, Z2, TRIV, TRIV))
    back_g = serialize.spec_from_json(serialize.spec_to_json(g))
    assert back_g.ambient.dim == g.ambient.dim
    assert back_g.component_group == g.component_group
    assert back_g.cosets() == g.cosets()
    for coords in g.cosets():
        assert back_g.operator(coords) == g.operator(coords)
    assert back_g.algebra().span.equals(g.algebra().span)


def test_reencoding_a_decoded_unit_monomial_writes_its_least_conductor():
    """A decoded dense generator that is a unit monomial written on a larger
    conductor than its entries need is re-encoded as the monomial item of
    least order that every construction writes."""
    from projpair.cyclo import CycMatrix

    g, _ = xx_hat_pair(Z2)
    data = serialize.spec_to_json(g)
    item = _dense(next(i for i in data["generators"] if i["coset"] == [0, 1]))
    assert item["matrix"]["conductor"] == 1
    mat = serialize.cyc_matrix_from_json(item["matrix"])
    item["matrix"] = serialize.cyc_matrix_to_json(
        CycMatrix.from_entries(2, 2, {k: v.lift(4) for k, v in mat.cells.items()}))
    assert item["matrix"]["conductor"] == 4
    again = serialize.spec_to_json(serialize.spec_from_json(data))
    assert again == serialize.spec_to_json(g)
    back = next(i for i in again["generators"] if i["coset"] == [0, 1])
    assert set(back) == {"coset", "monomial"} and back["monomial"]["order"] == 1


def test_package_runs_as_a_module(tmp_path):
    """python -m projpair is the projpair command, with its exit codes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def code(*args):
        return subprocess.run([sys.executable, "-m", "projpair", *args], cwd=tmp_path,
                              env=env, capture_output=True).returncode

    assert code("enumerate", "--n", "2") == 0
    assert code("verify", "missing.json") == 2


def test_conductor_cap_reads_no_environment_variable(tmp_path):
    """The cap is set by --conductor-cap only: a PROJPAIR_CONDUCTOR_CAP
    that is no integer changes nothing, where it once killed every command
    at import with a traceback and exit 1."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PROJPAIR_CONDUCTOR_CAP="abc", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "projpair", "enumerate", "--n", "1"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert "Traceback" not in done.stderr
