"""Seeded samplers shared by the tests."""

import math

from projpair.abelian import FinAbGroup, is_isomorphism_matrix
from projpair.construct import GroupSpec
from projpair.cyclo import CycMatrix
from projpair.matrep import Monomial


def random_automorphism(group: FinAbGroup, rng) -> list[list[int]]:
    """One automorphism drawn from a seeded RNG via rejection sampling.

    Entries respect the homomorphism condition d_j * q[i][j] = 0 mod d_i;
    a random legal matrix is invertible with decent probability, so this
    stays cheap even where enumerating the automorphism group would not.
    """
    fs = group.invariant_factors
    r = group.rank
    if r == 0:
        return []
    while True:
        q = []
        for i in range(r):
            row = []
            for j in range(r):
                g = math.gcd(fs[i], fs[j])
                row.append(rng.randrange(g) * (fs[i] // g))
            q.append(row)
        if is_isomorphism_matrix(q, group, group):
            return q


def random_shear(n: int, rng) -> CycMatrix:
    """A product of two integer shears I + t E_ij (i != j, t in {1, 2}):
    an integer matrix of determinant 1 that is no monomial for n >= 2, so
    a pair conjugated by it takes the dense path.  The identity for n = 1."""
    p = CycMatrix.identity(n)
    if n < 2:
        return p
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        cells = {(k, k): 1 for k in range(n)}
        cells[i, j] = rng.choice((1, 2))
        p = p @ CycMatrix.from_entries(n, n, cells)
    return p


def random_unit_monomial(n: int, rng) -> Monomial:
    """A permutation times roots of unity of order 2, 3 or 4: a pair
    conjugated by it stays on the monomial path."""
    order = rng.choice((2, 3, 4))
    perm = list(range(n))
    rng.shuffle(perm)
    return Monomial.from_exponents(perm, order, [rng.randrange(order) for _ in range(n)])


def conjugated(spec: GroupSpec, p) -> GroupSpec:
    """P spec P^-1 for an invertible P, a CycMatrix or a Monomial: each
    generating coset's operator and each element of the algebra's basis
    conjugated, on the same ambient and component group.  Conjugation
    keeps every coset's label, so the answers of a verification hold."""
    inv = p.inverse()
    gens = {c: p @ spec.operator(c) @ inv for c in spec.generating_cosets()}
    gens[spec.cosets()[0]] = Monomial.identity(spec.ambient.dim)
    basis = [p @ a @ inv for a in spec.algebra().basis]
    return GroupSpec(spec.ambient, None, spec.component_group, gens, basis)
