"""Byte-identity guard: the CLI's answer files keep the sha256 digests they
had when these were recorded.

A change to how rows or pairs are built may change their speed, never
their bytes.  A digest that moves means an answer moved: find out why
before re-recording it.  The calls are cut to stay under a second or so;
(12, 2) reaches the two-part rows and the mirrored gluing matrices at
n = 12, (10, 3) and (8, 4) the three- and four-part canonical gluings.
The two glue files cover an L summand alone and next to a J/K summand
glued through a non-identity map.  The verify report and the pairing
table are pinned on the `construct --L 4` pair and the README glue pair,
on the 144-component pairs of `construct --L 12` and `--L 2,6`, and on
the 81- and 64-component pairs of `--L 3,3`, `--L 2,4` and `--L 2,2,2`,
whose component groups have several invariant factors, equal or not.
JSON tables are written straight from their generator rows, so these
pin that writer against the tables as they were first printed.
The three construct digests were re-recorded when pair files began to
write unit-monomial generators as monomial items, and again when they
began to list only the identity and the generating cosets.  The two
`construct --L 4` files they replaced, which list every coset, are kept
as tests/data/pair_L4_dense.json and tests/data/pair_L4_monomial.json.
One more digest pins every twisted-commutant basis and every witness the
verifier finds on the 299 rows with n <= 8 and on one dense cut, each
written as its sorted cells, so that it does not depend on the type
that carries a basis.
"""

import hashlib
import json

import pytest

from projpair.abelian import FinAbGroup
from projpair.classify import enumerate_multi_orbit
from projpair.cli import main
from projpair.construct import Ambient, GroupSpec, scalar_blocks
from projpair.matrep import Monomial, TensorShape, as_dense
from projpair.verify import CommutantEngine, compute_centralizer, verify_dual_pair

# the glue file shown in the README
README_GLUE = {
    "gamma": {"invariant_factors": [2, 2]},
    "summands": [
        {"ingredients": {"b": 1, "e": 1, "L": {"invariant_factors": [2]},
                         "J": {"invariant_factors": []},
                         "K": {"invariant_factors": []}},
         "q": [[1, 0], [0, 1]]},
        {"ingredients": {"b": 1, "e": 1, "L": {"invariant_factors": [2]},
                         "J": {"invariant_factors": []},
                         "K": {"invariant_factors": []}},
         "q": [[1, 0], [0, 1]]},
    ],
}

# a J/K summand glued through a non-identity map next to an L summand
JK_GLUE = {
    "gamma": {"invariant_factors": [2, 2]},
    "summands": [
        {"ingredients": {"b": 1, "e": 1, "L": {"invariant_factors": [2]},
                         "J": {"invariant_factors": []},
                         "K": {"invariant_factors": []}},
         "q": [[1, 0], [0, 1]]},
        {"ingredients": {"b": 1, "e": 1, "L": {"invariant_factors": []},
                         "J": {"invariant_factors": [2]},
                         "K": {"invariant_factors": [2]}},
         "q": [[0, 1], [1, 0]]},
    ],
}

DIGESTS = [
    (["enumerate", "--n", "12", "--max-parts", "2", "--format", "json"],
     "79bb58cdb858085b7d142e0c2556a24dc8d0dd913bba2d5ff987dbfaab59473c"),
    (["enumerate", "--n", "10", "--max-parts", "3", "--format", "json"],
     "e2e33081962cf4566990a13cf2d32d1bf66da219c7fb03ab879376f4ab8ed752"),
    (["enumerate", "--n", "8", "--max-parts", "4", "--format", "json"],
     "a47842171ba760c07b3701fc163851f888db5b2a36968e58cffac75b058ba2e3"),
    (["construct", "--L", "4"],
     "a02b2a042c7b7c08839833eef7f3ab004e3779baa8f2607375de9cd573ed72a2"),
    (["construct", "--glue", "{glue}"],
     "3abcff7d9e5173cc21c8b8a7b69a5778fa0eab3cbd761cad2567050200a07142"),
    (["construct", "--glue", "{jk_glue}"],
     "c8dd516806c3e7340fe9781dd7bcf7d5abb1deaeb5f1ab684e575603f279e450"),
]


@pytest.mark.parametrize("args,digest", DIGESTS, ids=[" ".join(a) for a, _ in DIGESTS])
def test_answer_bytes_unchanged(tmp_path, args, digest):
    glue = tmp_path / "glue.json"
    glue.write_text(json.dumps(README_GLUE))
    jk_glue = tmp_path / "jk_glue.json"
    jk_glue.write_text(json.dumps(JK_GLUE))
    out = tmp_path / "out.json"
    args = [a.format(glue=glue, jk_glue=jk_glue) for a in args]
    assert main(args + ["-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# (pair built by these construct args, command run on it, digest)
PAIR_DIGESTS = [
    (["--L", "4"], ["verify", "--format", "json"],
     "37cca2a0f615864a3740a6f45611c76db436e49ff6367e19394a6445ee9c6b59"),
    (["--L", "4"], ["pairing"],
     "f9e9265dbc72e3ef700c046b2e6902a93b5e0c400259a08141ebfac48e10952d"),
    (["--L", "4"], ["pairing", "--format", "json"],
     "8afcf9d3f93971624e6972510e4a36985519aa645ccdfe237ce078fdf44cf74a"),
    (["--glue", "{glue}"], ["verify", "--format", "json"],
     "fcb3d1b27515a01b578f42693a8a5bf920beedb13866c21278e735c555233bbc"),
    (["--glue", "{glue}"], ["pairing"],
     "e067a6bac42783892351eb10dca225e87a07c4b9c93fb73a1d3273fc54e94774"),
    (["--glue", "{glue}"], ["pairing", "--format", "json"],
     "adb52d6696a54558a6a1a43ef9c1f65076df2c7f1092e587730fedea16061d29"),
    (["--L", "12"], ["verify", "--format", "json"],
     "e151225bba687d4f07d0006a61b092889aa6a41b85762808f0070a16bdeae715"),
    (["--L", "2,6"], ["verify", "--format", "json"],
     "71cdaf02b022b100545bee10e19a9c3ff16bce654ace4216bfc0f6e370eabb69"),
    (["--L", "12"], ["pairing", "--format", "json"],
     "373e8595f8e27bce8d08239a58a2935a0ed5b0182109123d99cb9c5a90e49f4a"),
    (["--L", "2,6"], ["pairing", "--format", "json"],
     "8f4095288d8bdd8fa13b00f05ae9e5a44821ec75c8d064318479051843978009"),
    (["--L", "3,3"], ["verify", "--format", "json"],
     "60b30453ab839f13cb5f3ff475705f53148802e676baa5d6db335248892e970d"),
    (["--L", "3,3"], ["pairing", "--format", "json"],
     "78c2889c809607781c976a2bb7a9e3bcb488cb66916d24b202b992dc65bbfddc"),
    (["--L", "2,4"], ["verify", "--format", "json"],
     "aaec6ad2fbf6baf0a0d57438a011b6aa2df93253de9108da83293bfe482f5095"),
    (["--L", "2,4"], ["pairing", "--format", "json"],
     "4384a182abb35b8f62b543b229aded95e5819c215a94761e96854c55472567ce"),
    (["--L", "2,2,2"], ["verify", "--format", "json"],
     "bb21daa2fc0becea7b216b9b093735ae428814635031856e0860be80a9208a96"),
    (["--L", "2,2,2"], ["pairing", "--format", "json"],
     "847ad689ebbc2a6b400b23f5300b2360f312894e0d650a47bb9203a2f4ae0df5"),
]


@pytest.mark.parametrize(
    "construct_args,command,digest", PAIR_DIGESTS,
    ids=[" ".join(c + a) for a, c, _ in PAIR_DIGESTS])
def test_pair_answer_bytes_unchanged(tmp_path, construct_args, command, digest):
    glue = tmp_path / "glue.json"
    glue.write_text(json.dumps(README_GLUE))
    pair = tmp_path / "pair.json"
    construct_args = [a.format(glue=glue) for a in construct_args]
    assert main(["construct"] + construct_args + ["-o", str(pair)]) == 0
    out = tmp_path / "out.txt"
    assert main([command[0], str(pair)] + command[1:] + ["-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _cells(op):
    """An operator's nonzero cells, sorted, each value as its reduced root
    of unity (order, exponent) when it is one and as its repr otherwise."""
    return [(i, j, v.as_root_of_unity() or repr(v))
            for (i, j), v in sorted(as_dense(op).cells.items())]


def _swap_in_pgl3():
    """The image of the permutation matrix of (1 2) in PGL(3)."""
    ambient = Ambient.single(TensorShape((("A", 3),)))
    return GroupSpec(ambient, scalar_blocks(3), FinAbGroup.cyclic(2),
                     {(0,): Monomial.identity(3),
                      (1,): Monomial.from_exponents((0, 2, 1), 1, (0, 0, 0))})


def test_solves_and_witnesses_keep_their_digest(monkeypatch):
    """Every CommutantEngine.solve basis, in class order, and every witness
    found while building and verifying the 299 rows of
    enumerate_multi_orbit(n) for n <= 8, then while computing the
    centralizer of Z((1 2)) in PGL(3), whose algebra has elements that are
    not partial monomials and so takes a dense cut.  Each matrix is written
    as its sorted cells, so the digest does not depend on the type that
    carries a basis."""
    digest = hashlib.sha256()
    solve, witness = CommutantEngine.solve, CommutantEngine.witness

    def record(*parts):
        digest.update(repr(parts).encode())

    def recording_solve(self, scalars):
        basis = solve(self, scalars)
        record("solve", tuple(scalars), [_cells(x) for x in basis])
        return basis

    def recording_witness(self, basis, scalars):
        w = witness(self, basis, scalars)
        record("witness", tuple(scalars), None if w is None else (type(w).__name__, _cells(w)))
        return w

    monkeypatch.setattr(CommutantEngine, "solve", recording_solve)
    monkeypatch.setattr(CommutantEngine, "witness", recording_witness)
    rows = 0
    for n in range(1, 9):
        for row in enumerate_multi_orbit(n):
            verify_dual_pair(*row.build())
            rows += 1
    compute_centralizer(compute_centralizer(_swap_in_pgl3()))
    assert (rows, digest.hexdigest()) == (
        299, "0af2f7c34e41eebe9e5218550169da8f800b1a81cf85f02adf371ff3a577614c")
