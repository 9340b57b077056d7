"""Seeded samplers shared by the tests."""

import math

from projpair.abelian import FinAbGroup, is_isomorphism_matrix


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
