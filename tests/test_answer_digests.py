"""Byte-identity guard: the CLI's answer files keep the sha256 digests they
had when these were recorded.

A change to how rows or pairs are built may change their speed, never
their bytes.  A digest that moves means an answer moved: find out why
before re-recording it.  The calls are cut to stay under a second or so;
(12, 2) reaches the two-part rows and the mirrored gluing matrices at
n = 12, (10, 3) and (8, 4) the three- and four-part canonical gluings.
The two glue files cover an L summand alone and next to a J/K summand
glued through a non-identity map.
"""

import hashlib
import json

import pytest

from projpair.cli import main

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
     "40a97b8861febe239074db83c94e73779e5ab850281dca71555192fc61473686"),
    (["construct", "--glue", "{glue}"],
     "986d13fe1dd379c5fa6d12932e6d7dfc36ca6b70f710688b38078aef728399e3"),
    (["construct", "--glue", "{jk_glue}"],
     "b533ba26c2cf11b0ea453d682bdf6400378a3ed44eafcc9f776eca1a710b2a87"),
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
