"""Classification enumeration and canonical labeling."""

import itertools
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from projpair import abelian, classify, construct
from projpair.abelian import (
    FinAbGroup,
    enumerate_abelian_groups,
    identity_matrix,
)
from projpair.classify import (
    GLUING_CLASS_FLAG,
    _aut_inverse,
    _canonical_gluing,
    _mat_mod,
    _reduce_matrix,
    canonicalize_row,
    component_group_of,
    enumerate_multi_orbit,
    enumerate_single_orbit,
    multi_row,
    single_row,
)
from projpair.construct import MultiOrbitSpec, SingleOrbitIngredients

from sampling import random_automorphism

TRIV = FinAbGroup.trivial()
Z2 = FinAbGroup.cyclic(2)


def brute_force_count(n):
    """Independent oracle: loop over ordered factorizations and multiply
    the abelian-group counts of the three group slots."""
    total = 0
    for b in range(1, n + 1):
        if n % b:
            continue
        for e in range(1, n + 1):
            if (n // b) % e:
                continue
            rest = n // b // e
            for lo in range(1, rest + 1):
                if rest % lo:
                    continue
                rest2 = rest // lo
                for jo in range(1, rest2 + 1):
                    if rest2 % jo:
                        continue
                    ko = rest2 // jo
                    total += (
                        len(enumerate_abelian_groups(lo))
                        * len(enumerate_abelian_groups(jo))
                        * len(enumerate_abelian_groups(ko))
                    )
    return total


def test_single_orbit_counts_against_oracle():
    for n in range(1, 31):
        assert len(enumerate_single_orbit(n)) == brute_force_count(n), n


def test_single_orbit_examples():
    assert len(enumerate_single_orbit(1)) == 1
    rows = enumerate_single_orbit(2)
    assert len(rows) == 5
    # the factor 2 lands in each of the five slots exactly once
    placements = set()
    for r in rows:
        ing = r.single
        placements.add(
            (ing.b, ing.e, ing.L_group.order, ing.J_group.order, ing.K_group.order)
        )
    assert placements == {
        (2, 1, 1, 1, 1), (1, 2, 1, 1, 1), (1, 1, 2, 1, 1),
        (1, 1, 1, 2, 1), (1, 1, 1, 1, 2),
    }


def test_rows_are_deterministic_and_sorted():
    a = enumerate_single_orbit(12)
    b = enumerate_single_orbit(12)
    assert a == b
    m1 = enumerate_multi_orbit(6, 3)
    m2 = enumerate_multi_orbit(6, 3)
    assert m1 == m2


def test_component_group_formula():
    ing = SingleOrbitIngredients(2, 1, Z2, FinAbGroup.cyclic(4), FinAbGroup.cyclic(3))
    gamma = component_group_of(ing)
    assert gamma == FinAbGroup.from_factors([2, 2, 4, 3])
    assert gamma.order == ing.L_group.order ** 2 * 4 * 3
    assert single_row(ing).gamma == gamma


def test_canonicalize_single_orientation():
    ing = SingleOrbitIngredients(1, 2, TRIV, Z2, TRIV)
    row = single_row(ing)
    canon = canonicalize_row(row)
    # swapped tuple (2, 1, triv, triv, Z2-as-J...) compares smaller on (b, e)
    assert canon.single.b >= 1
    assert canonicalize_row(canon) == canon
    # a self-mirror row stays put
    sym = single_row(SingleOrbitIngredients(1, 1, Z2, TRIV, TRIV))
    assert canonicalize_row(sym).single == sym.single


def test_canonicalize_swaps_a_single_row_to_its_mirror():
    """(b, e, L, J, K) = (2, 1, 1, 1, Z2) sorts after its mirror
    (1, 2, 1, Z2, 1), which is the normal form of both."""
    canon = canonicalize_row(single_row(SingleOrbitIngredients(2, 1, TRIV, TRIV, Z2)))
    assert canon.single == SingleOrbitIngredients(1, 2, TRIV, Z2, TRIV)
    assert canonicalize_row(canon) == canon


def test_canonicalize_multi_sorts_summands():
    triv_ing = SingleOrbitIngredients(1, 1, TRIV, TRIV, TRIV)
    big = SingleOrbitIngredients(1, 3, TRIV, TRIV, TRIV)
    spec = MultiOrbitSpec(TRIV, ((big, ()), (triv_ing, ())))
    canon = canonicalize_row(multi_row(spec))
    dims = [ing.ambient_dim for ing, _ in canon.multi.summands]
    assert dims == sorted(dims)
    assert GLUING_CLASS_FLAG in canon.flags
    assert canonicalize_row(canon) == canon


def test_multi_orbit_counts_small():
    assert len(enumerate_multi_orbit(2, 1)) == 5
    rows = enumerate_multi_orbit(2, 2)
    assert len(rows) == 6
    multi = [r for r in rows if r.kind == "multi"]
    assert len(multi) == 1
    assert multi[0].gamma.is_trivial()
    rows3 = enumerate_multi_orbit(3, 3)
    assert sum(1 for r in rows3 if r.kind == "multi") == 2


def test_multi_orbit_gamma_matching():
    rows = enumerate_multi_orbit(4, 2)
    for row in rows:
        if row.kind != "multi":
            continue
        for ing, q in row.multi.summands:
            assert component_group_of(ing) == row.gamma


def test_enumerated_rows_have_consistent_dimension():
    for n in [4, 6]:
        for row in enumerate_multi_orbit(n, 4):
            assert row.ambient_dim == n
            if row.kind == "single":
                assert row.single.ambient_dim == n
            else:
                assert sum(i.ambient_dim for i, _ in row.multi.summands) == n


def test_multi_rows_build_and_roundtrip():
    rows = enumerate_multi_orbit(4, 2)
    for row in rows:
        g, h = row.build()
        assert g.ambient.dim == row.ambient_dim
        assert g.component_group.order == row.gamma.order


def _oracle_canonical_gluing(summand_keys, qs, gamma):
    """_canonical_gluing as it multiplied out every slot: pin the first
    map, then compose all but the first with the inverse of the second."""
    r = len(qs)
    ident = tuple(tuple(row) for row in identity_matrix(gamma))
    if gamma.is_trivial() or r == 1:
        return tuple([ident] * r)
    qs = [_reduce_matrix(q, gamma) for q in qs]
    blocks = []
    start = 0
    for i in range(1, r + 1):
        if i == r or summand_keys[i] != summand_keys[start]:
            blocks.append(list(range(start, i)))
            start = i
    fs = gamma.invariant_factors
    best = None
    for combo in itertools.product(*[list(itertools.permutations(b)) for b in blocks]):
        permuted = [qs[p] for block in combo for p in block]
        pin = _aut_inverse(permuted[0], gamma)
        pinned = [_mat_mod(q, pin, fs) for q in permuted]
        alpha = _aut_inverse(pinned[1], gamma)
        cand = tuple([pinned[0]] + [_mat_mod(alpha, q, fs) for q in pinned[1:]])
        if best is None or cand < best:
            best = cand
    return best


_GLUING_GROUPS = [FinAbGroup(fs) for fs in [(2,), (3,), (4,), (2, 2), (2, 4), (2, 2, 2)]]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_GLUING_GROUPS), st.integers(1, 4), st.data())
def test_canonical_gluing_matches_oracle(gamma, r, data):
    """Slots 0 and 1 are left as the identity instead of multiplied out;
    the result is the same on random automorphism tuples, with equal
    summand keys and unreduced entries."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    keys = sorted(data.draw(st.lists(st.integers(0, 2), min_size=r, max_size=r)))
    qs = []
    for _ in range(r):
        q = random_automorphism(gamma, rng)
        # lift each entry by a multiple of its row's invariant factor
        qs.append(tuple(tuple(x + rng.randrange(3) * d for x in row)
                        for row, d in zip(q, gamma.invariant_factors)))
    assert _canonical_gluing(keys, qs, gamma) == _oracle_canonical_gluing(keys, qs, gamma)


def test_enumeration_shares_its_integer_work(monkeypatch):
    """Count guard on the shared work of the enumeration, from cold caches:
    one single-orbit pair is built per distinct (L, J, K), whatever b and e
    the summands carry, and one Smith-form inverse runs per distinct
    (matrix, source, target)."""
    construct.pairing_identification.cache_clear()
    construct.summand_pair.cache_clear()
    classify._PHI_INV_CACHE.clear()
    classify._mat_mod.cache_clear()
    abelian.automorphisms.cache_clear()
    abelian._INVERSES.clear()
    builds, smiths = Counter(), Counter()
    real_build, real_smith = construct.single_orbit_pair, abelian._smith_inverse

    def counting_build(ing):
        builds[ing.L_group, ing.J_group, ing.K_group] += 1
        return real_build(ing)

    def counting_smith(q, source, target):
        smiths[tuple(map(tuple, q)), source, target] += 1
        return real_smith(q, source, target)

    monkeypatch.setattr(construct, "single_orbit_pair", counting_build)
    monkeypatch.setattr(abelian, "_smith_inverse", counting_smith)
    rows = enumerate_multi_orbit(9, 3) + enumerate_multi_orbit(10, 3)
    assert len(rows) == 68 + 137
    assert len(builds) > 10 and max(builds.values()) == 1
    assert len(smiths) > 10 and max(smiths.values()) == 1
