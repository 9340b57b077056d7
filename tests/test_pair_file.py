"""The pair-file format: monomial and dense generator items, integer
fields, the generating cosets alone, and the files written before:
dense, and listing every coset."""

import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_answer_digests import JK_GLUE, PAIR_DIGESTS, README_GLUE
from test_cli import _dense

from projpair import serialize
from projpair.abelian import FinAbGroup
from projpair.classify import enumerate_single_orbit
from projpair.cli import main
from projpair.construct import (
    SingleOrbitIngredients,
    connected_pair,
    multi_orbit_glue,
    single_orbit_pair,
    type2_pair,
    xx_hat_pair,
)
from projpair.cyclo import CycNum
from projpair.matrep import Monomial
from projpair.verify import compute_centralizer

DATA = Path(__file__).parent / "data"
Z2 = FinAbGroup.cyclic(2)
Z3 = FinAbGroup.cyclic(3)
TRIV = FinAbGroup.trivial()


def _construct(tmp_path, args, name="pair.json"):
    path = tmp_path / name
    assert main(["construct"] + args + ["-o", str(path)]) == 0
    return path


def _assert_bad_input(path, capsys):
    capsys.readouterr()
    for command in ("verify", "pairing"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1


# -- the monomial item ---------------------------------------------------------


@st.composite
def monomial_items(draw):
    """A monomial item whose order is d * f and whose exponents are f times
    exponents mod d, so f > 1 writes them above lowest terms."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 24))
    f = draw(st.integers(1, 24 // d))
    perm = draw(st.permutations(range(n)))
    exps = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    return {"perm": list(perm), "order": d * f, "exps": [f * e for e in exps]}


@given(monomial_items())
def test_monomial_item_round_trip(item):
    """An item decodes to the monomial its roots of unity give, and encodes
    back on the least order, which is then a fixed point."""
    mono = serialize.monomial_from_json(item)
    order = item["order"]
    scales = [CycNum.root_of_unity(order, e) for e in item["exps"]]
    assert mono == Monomial(item["perm"], scales)
    again = serialize.monomial_to_json(mono)
    g = math.gcd(order, *item["exps"])
    assert again == {"perm": item["perm"], "order": order // g,
                     "exps": [e // g for e in item["exps"]]}
    assert serialize.monomial_from_json(again) == mono
    assert serialize.dumps_canonical(
        serialize.monomial_to_json(serialize.monomial_from_json(again))
    ) == serialize.dumps_canonical(again)


def _constructed_specs():
    out = []
    for n in range(1, 7):
        for row in enumerate_single_orbit(n):
            out.extend(row.build())
    for glue in (README_GLUE, JK_GLUE):
        out.extend(multi_orbit_glue(serialize.multi_spec_from_json(glue)))
    a, b = connected_pair([(2, 1)])
    out.extend([a, b])
    out.extend(connected_pair([(1, 2), (1, 1)]))
    out.extend(type2_pair(a, b, Z2, "ii"))
    out.extend(type2_pair(*connected_pair([(1, 1)]), Z3, "i"))
    out.extend(xx_hat_pair(FinAbGroup((2, 2))))
    out.extend(xx_hat_pair(FinAbGroup.cyclic(6)))
    return out


def test_every_construction_round_trips():
    """Each built side decodes to the same operator on every coset and
    re-encodes to the same bytes; so does a computed centralizer holding
    a dense witness and a raw algebra basis."""
    specs = _constructed_specs()
    g, _ = single_orbit_pair(SingleOrbitIngredients(1, 2, TRIV, TRIV, Z2))
    mixed = compute_centralizer(g)
    assert not all(isinstance(mixed.operator(c), Monomial) for c in mixed.cosets())
    for spec in specs + [mixed]:
        text = serialize.dumps_canonical(serialize.spec_to_json(spec))
        back = serialize.spec_from_json(json.loads(text))
        assert back.cosets() == spec.cosets()
        for coords in spec.cosets():
            assert back.operator(coords) == spec.operator(coords)
        assert serialize.dumps_canonical(serialize.spec_to_json(back)) == text


# each edit breaks generator 1 of the --L 2 pair's g side, which is the
# monomial {"perm": [1, 0], "order": 1, "exps": [0, 0]}
MALFORMED = {
    "perm not a permutation": lambda m: m.update(perm=[0, 0]),
    "perm too long": lambda m: m.update(perm=[1, 0, 2], exps=[0, 0, 0]),
    "exps too short": lambda m: m.update(exps=[0]),
    "order 0": lambda m: m.update(order=0),
    "empty of order 0": lambda m: m.update(perm=[], order=0, exps=[]),
    "negative exponent": lambda m: m.update(order=2, exps=[-1, 0]),
    "exponent at the order": lambda m: m.update(order=2, exps=[2, 0]),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_monomial_is_bad_input(tmp_path, capsys, edit):
    path = _construct(tmp_path, ["--L", "2"])
    data = json.loads(path.read_text())
    item = data["g"]["generators"][1]
    assert item["monomial"] == {"perm": [1, 0], "order": 1, "exps": [0, 0]}
    edit(item["monomial"])
    path.write_text(json.dumps(data))
    _assert_bad_input(path, capsys)


@pytest.mark.parametrize("keys", ["both", "neither"])
def test_generator_item_takes_exactly_one_form(tmp_path, capsys, keys):
    path = _construct(tmp_path, ["--L", "2"])
    data = json.loads(path.read_text())
    item = data["g"]["generators"][1]
    if keys == "both":
        item["matrix"] = _dense(dict(item))["matrix"]
    else:
        del item["monomial"]
    path.write_text(json.dumps(data))
    _assert_bad_input(path, capsys)


def test_file_mixing_both_forms_verifies(tmp_path):
    """Every other generator of the --L 4 pair rewritten dense: the file
    verifies with the same report and pairing table."""
    path = _construct(tmp_path, ["--L", "4"])
    data = json.loads(path.read_text())
    for side in ("g", "h"):
        for item in data[side]["generators"][1::2]:
            _dense(item)
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(data))
    for command in (["verify", "--format", "json"], ["pairing"]):
        outs = []
        for pair in (path, mixed):
            out = tmp_path / "out.txt"
            assert main([command[0], str(pair)] + command[1:] + ["-o", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# -- integer fields ------------------------------------------------------------


INT_EDITS = {
    "fractional coset": lambda d: d["g"]["generators"][1].update(coset=[0, 1.9]),
    "fractional block dim": lambda d: d["g"]["blocks"][0].update(dim=1.5),
    "boolean coset": lambda d: d["g"]["generators"][1].update(coset=[0, True]),
    "fractional monomial order": lambda d: d["g"]["generators"][1]["monomial"].update(order=1.0),
}


@pytest.mark.parametrize("edit", INT_EDITS.values(), ids=INT_EDITS.keys())
def test_integer_field_is_not_truncated(tmp_path, capsys, edit):
    """A float or a boolean where the format has an integer is bad input;
    int() read [0, 1.9] as [0, 1] and a block dim of 1.5 as 1, and both
    files verified."""
    path = _construct(tmp_path, ["--L", "2"])
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    _assert_bad_input(path, capsys)


@pytest.mark.parametrize("field,value", [("b", 1.0), ("q", [[1.0, 0], [0, 1]])])
def test_glue_integer_field_is_not_truncated(tmp_path, capsys, field, value):
    glue = json.loads(json.dumps(README_GLUE))
    summand = glue["summands"][0]
    if field == "q":
        summand["q"] = value
    else:
        summand["ingredients"][field] = value
    path = tmp_path / "glue.json"
    path.write_text(json.dumps(glue))
    capsys.readouterr()
    assert main(["construct", "--glue", str(path), "-o", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


# -- what construct writes -----------------------------------------------------


def test_construct_writes_every_generator_as_a_monomial(tmp_path):
    """No constructed generator falls back to the dense form, and the Z12
    file is under a tenth of the 1,143,603 bytes it took dense."""
    for name, glue in (("glue.json", README_GLUE), ("jk_glue.json", JK_GLUE)):
        (tmp_path / name).write_text(json.dumps(glue))
    runs = [["--L", "2"], ["--L", "12"], ["--b", "2", "--e", "1", "--J", "2"],
            ["--glue", str(tmp_path / "glue.json")], ["--glue", str(tmp_path / "jk_glue.json")]]
    for k, args in enumerate(runs):
        path = _construct(tmp_path, args, f"pair{k}.json")
        data = json.loads(path.read_text())
        for side in ("g", "h"):
            for item in data[side]["generators"]:
                assert set(item) == {"coset", "monomial"}, (args, side, item["coset"])
        if args == ["--L", "12"]:
            assert path.stat().st_size < 114_360


def test_construct_writes_the_generating_cosets_alone(tmp_path):
    """A pair file lists the identity and the generating cosets of each
    side, in coset order: the Z8 x Z8 file is under a hundredth of the
    3,040,224 bytes it took when it listed all 4096 cosets."""
    path = _construct(tmp_path, ["--L", "8,8"])
    data = json.loads(path.read_text())
    for side in ("g", "h"):
        cosets = [item["coset"] for item in data[side]["generators"]]
        assert cosets == [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    assert path.stat().st_size < 30_402


# -- the formats written before --------------------------------------------------


def test_dense_fixture_decodes_and_verifies_as_before(tmp_path):
    """construct --L 4 as written when pair files listed every coset,
    first with every generator a dense matrix, then as monomials: each
    decodes to the operators of today's file, which lists the identity and
    the two generating cosets alone, once its extra cosets are checked
    against their words and dropped, and verify and pairing give the
    pinned answers of today's file."""
    new = _construct(tmp_path, ["--L", "4"])
    assert len(json.loads(new.read_text())["g"]["generators"]) == 3
    new_pair = serialize.pair_from_json(json.loads(new.read_text()))
    for name, sha in (
            ("pair_L4_dense.json",
             "40a97b8861febe239074db83c94e73779e5ab850281dca71555192fc61473686"),
            ("pair_L4_monomial.json",
             "97cca6350c421c015e069cfbd792a7914b72c3cb3c8d72ec93a062e074fd2c93")):
        fixture = DATA / name
        assert hashlib.sha256(fixture.read_bytes()).hexdigest() == sha
        old_pair = serialize.pair_from_json(json.loads(fixture.read_text()))
        for old, cur in zip(old_pair, new_pair):
            assert old.cosets() == cur.cosets()
            assert old.blocks == cur.blocks
            for coords in cur.cosets():
                assert old.operator(coords) == cur.operator(coords)
        for construct_args, command, digest in PAIR_DIGESTS:
            if construct_args != ["--L", "4"]:
                continue
            out = tmp_path / "out.txt"
            assert main([command[0], str(fixture)] + command[1:] + ["-o", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("coefficient", [[1.9, "1"], ["1", True]], ids=["float", "bool"])
@pytest.mark.parametrize("command", ["verify", "pairing"])
def test_coefficients_are_read_only_as_decimal_strings(tmp_path, coefficient, command):
    """One ["1", "1"] coefficient of a g-side generator, rewritten with a
    JSON float or boolean that int() would truncate or coerce, makes the
    file bad input (exit 2) instead of the pair it read as before."""
    data = json.loads((DATA / "pair_L4_dense.json").read_text())
    entries = data["g"]["generators"][1]["matrix"]["entries"]
    assert entries[3] == [["1", "1"]]
    entries[3] = [coefficient]
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(data))
    assert main([command, str(edited), "-o", str(tmp_path / "out.txt")]) == 2


def test_decimal_strings_only():
    for text, value in [("12", 12), ("-3", -3), ("+7", 7), ("0", 0)]:
        assert serialize._decimal(text) == value
    for bad in [1, 1.0, True, None, "", "1.5", " 1", "1_000", "١", "1\n", "--1"]:
        with pytest.raises(ValueError):
            serialize._decimal(bad)
