"""Classification enumeration and canonical labeling."""

import hashlib
import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projpair import abelian, classify, construct
from projpair.abelian import (
    FinAbGroup,
    enumerate_abelian_groups,
    identity_matrix,
    invert_isomorphism,
)
from projpair.classify import (
    GLUING_CLASS_FLAG,
    _canonical_gluing,
    _mat_mod,
    _orders,
    _row_key,
    canonicalize_row,
    component_group_of,
    enumerate_multi_orbit,
    enumerate_single_orbit,
    multi_row,
    single_row,
)
from projpair.construct import MultiOrbitSpec, SingleOrbitIngredients
from projpair.errors import NotIsomorphism

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


def _reduce_matrix(mat, gamma):
    return tuple(tuple(x % d for x in row) for row, d in zip(mat, gamma.invariant_factors))


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
        pin = invert_isomorphism(permuted[0], gamma, gamma)
        pinned = [_mat_mod(q, pin, fs) for q in permuted]
        alpha = invert_isomorphism(pinned[1], gamma, gamma)
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
    assert _canonical_gluing(qs, _orders(keys), gamma) == _oracle_canonical_gluing(keys, qs, gamma)


@pytest.fixture
def cold_counts(monkeypatch):
    """Cold caches, and counters of the single-orbit pairs built per
    (L, J, K) and of the Smith-form inverses run per (matrix, source,
    target)."""
    construct.pairing_identification.cache_clear()
    construct.summand_pair.cache_clear()
    classify._dual_gluing_matrix.cache_clear()
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
    return builds, smiths


def test_enumeration_shares_its_integer_work(cold_counts):
    """Count guard on the shared work of the enumeration, from cold caches:
    one single-orbit pair is built per distinct (L, J, K), whatever b and e
    the summands carry, and one Smith-form inverse runs per distinct
    (matrix, source, target).  A row decided on its ingredient keys builds
    no pair, so (14, 3) and (15, 3) join the input to keep more than ten
    distinct (L, J, K) in play."""
    builds, smiths = cold_counts
    rows = [row for n in (9, 10, 14, 15) for row in enumerate_multi_orbit(n, 3)]
    assert len(rows) == 68 + 137 + 400 + 327
    assert len(builds) > 10 and max(builds.values()) == 1
    assert len(smiths) > 10 and max(smiths.values()) == 1


def test_two_part_rows_build_no_pair(cold_counts):
    """A two-part row has the identity in both slots in either orientation,
    so its ingredient keys pick the orientation and no dual gluing map, nor
    the pair behind one, is built."""
    builds, _ = cold_counts
    assert len(enumerate_multi_orbit(20, 2)) == 373
    assert not builds and not classify._dual_gluing_matrix.cache_info().currsize


# sha256 over (n, max_parts, _row_key, flags) of every row of
# enumerate_multi_orbit(n, max_parts), n <= 10 and max_parts <= min(n, 5),
# one JSON line per row; recorded before the orientation was read off the
# ingredient keys, which must not move a row
ROW_KEYS_DIGEST = "4c147a65428e66a956e54fd14b6d4a0d7493ed617462fa427931b4d19128a5fb"


def test_row_keys_keep_their_digest():
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 11):
        for max_parts in range(1, min(n, 5) + 1):
            for row in enumerate_multi_orbit(n, max_parts):
                line = json.dumps([n, max_parts, _row_key(row), row.flags],
                                  separators=(",", ":"))
                digest.update(line.encode() + b"\n")
                count += 1
    assert count == 2055
    assert digest.hexdigest() == ROW_KEYS_DIGEST


def _oracle_canonicalize_row(row):
    """Independent oracle for a multi-orbit row: build the normal form of
    both orientations, the mirror through every summand's dual gluing map,
    and keep the one with the least sequence of (key, map) pairs."""
    gamma = row.multi.gamma

    def normal_form(summands):
        ordered = sorted(summands, key=lambda s: s[0].sort_key())
        keys = [ing.sort_key() for ing, _ in ordered]
        qs = _canonical_gluing([q for _, q in ordered], _orders(keys), gamma)
        return tuple(zip([ing for ing, _ in ordered], qs))

    direct = normal_form(row.multi.summands)
    mirrored = normal_form(tuple(
        (ing.swapped(),
         classify._dual_gluing_matrix(ing.L_group, ing.J_group, ing.K_group, q, gamma))
        for ing, q in row.multi.summands))
    chosen = min([direct, mirrored],
                 key=lambda form: tuple((ing.sort_key(), q) for ing, q in form))
    flags = tuple(sorted(set(row.flags) | {GLUING_CLASS_FLAG}))
    return multi_row(MultiOrbitSpec(gamma, chosen), flags)


def _ingredients_by_gamma(max_dim):
    pools = {}
    for d in range(1, max_dim + 1):
        for srow in enumerate_single_orbit(d):
            pools.setdefault(srow.gamma, []).append(srow.single)
    return pools


_POOLS = _ingredients_by_gamma(18)
_ROW_GROUPS = [FinAbGroup(fs) for fs in [(), (2,), (3,), (2, 2), (2, 4), (3, 3)]]


def _random_row(gamma, ings, rng):
    return multi_row(MultiOrbitSpec(
        gamma, tuple((ing, random_automorphism(gamma, rng)) for ing in ings)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_ROW_GROUPS), st.integers(2, 5), st.data())
def test_canonicalize_row_matches_both_orientations(gamma, r, data):
    """Random rows, their summands drawn from a few ingredient tuples and
    their mirrors so that keys repeat and orientations tie."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    few = rng.sample(_POOLS[gamma], min(3, len(_POOLS[gamma])))
    few += [ing.swapped() for ing in few]
    row = _random_row(gamma, [rng.choice(few) for _ in range(r)], rng)
    assert canonicalize_row(row) == _oracle_canonicalize_row(row)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([FinAbGroup((2, 2)), FinAbGroup((3, 3))]), st.data())
def test_canonicalize_row_decides_a_three_key_tie_on_the_third_map(gamma, data):
    """Four-part rows whose three smallest keys agree in both orientations
    and whose fourth keys differ: the third map picks the orientation."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    pool = _POOLS[gamma]
    low_dim = min(ing.ambient_dim for ing in pool)
    low = [ing for ing in pool if ing.ambient_dim == low_dim]
    self_mirror = [ing for ing in low if ing.swapped() == ing]
    a = rng.choice(low)
    low_three = [a, a.swapped(), rng.choice(self_mirror)]
    high = rng.choice([ing for ing in pool
                       if ing.ambient_dim > low_dim and ing.swapped() != ing])
    ings = low_three + [high]
    rng.shuffle(ings)
    keys = [ing.sort_key() for ing in ings]
    mirror_keys = [ing.swapped().sort_key() for ing in ings]
    assert sorted(keys)[:3] == sorted(mirror_keys)[:3]
    assert sorted(keys) != sorted(mirror_keys)
    row = _random_row(gamma, ings, rng)
    assert canonicalize_row(row) == _oracle_canonicalize_row(row)


def _random_singular_map(gamma, rng):
    """A random homomorphism of gamma that is not an automorphism."""
    fs = gamma.invariant_factors
    while True:
        q = [[rng.randrange(math.gcd(a, b)) * (a // math.gcd(a, b)) for b in fs]
             for a in fs]
        if not abelian.is_isomorphism_matrix(q, gamma, gamma):
            return q


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_ROW_GROUPS[1:]), st.integers(2, 5), st.data())
def test_canonicalize_row_rejects_a_singular_map(gamma, r, data):
    """Whichever orientation wins, and whichever slot holds it, a gluing
    map that is not an automorphism raises NotIsomorphism."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    row = _random_row(gamma, [rng.choice(_POOLS[gamma]) for _ in range(r)], rng)
    summands = list(row.multi.summands)
    slot = rng.randrange(r)
    summands[slot] = (summands[slot][0], _random_singular_map(gamma, rng))
    with pytest.raises(NotIsomorphism):
        canonicalize_row(multi_row(MultiOrbitSpec(gamma, tuple(summands))))


def _candidates(monkeypatch, calls):
    """Every row enumerate_multi_orbit(n, p) hands canonicalize_row, over
    the given (n, p)."""
    seen = []
    real = classify.canonicalize_row

    def recording(row):
        seen.append(row)
        return real(row)

    monkeypatch.setattr(classify, "canonicalize_row", recording)
    for n, p in calls:
        enumerate_multi_orbit(n, p)
    monkeypatch.setattr(classify, "canonicalize_row", real)
    return seen


def test_plan_memo_gives_the_cold_normal_form(monkeypatch):
    """Each candidate of the n <= 8 enumerations gives one row, the
    oracle's, whether the plan memo is warm, cold, or holds only the plan of
    its mirror (the same maps on the swapped ingredients) or of its summands
    listed in reverse, which have the same normal form."""
    calls = [(n, p) for n in range(2, 9) for p in range(2, min(n, 4) + 1)]
    candidates = [row for row in _candidates(monkeypatch, calls) if row.kind == "multi"]
    assert len(candidates) > 500
    assert any(row.parts >= 3 and not row.gamma.is_trivial() for row in candidates)
    for row in candidates:
        warm = canonicalize_row(row)
        assert warm == _oracle_canonicalize_row(row)
        classify._plan.cache_clear()
        assert canonicalize_row(row) == warm
        summands = row.multi.summands
        mirror = multi_row(MultiOrbitSpec(
            row.gamma, tuple((ing.swapped(), q) for ing, q in summands)))
        reverse = multi_row(MultiOrbitSpec(row.gamma, summands[::-1]))
        for first in (mirror, reverse):
            classify._plan.cache_clear()
            canonicalize_row(first)
            assert canonicalize_row(row) == warm
        assert canonicalize_row(reverse) == warm


def test_one_plan_per_gamma_and_key_tuple(monkeypatch):
    """enumerate_multi_orbit(15, 3) canonicalizes 1277 candidates and builds
    one plan per (Gamma, ingredient keys), far fewer than candidates."""
    classify._plan.cache_clear()
    candidates = _candidates(monkeypatch, [(15, 3)])
    assert len(candidates) == 1277
    keyed = {
        (row.gamma.invariant_factors, tuple(ing.sort_key() for ing, _ in row.multi.summands))
        for row in candidates}
    info = classify._plan.cache_info()
    assert info.misses == info.currsize == len(keyed)
    assert info.hits == len(candidates) - len(keyed)
    assert len(keyed) < len(candidates) / 3


Z5_SQ = FinAbGroup((5, 5))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_inverse_memo_shortcut_skips_no_check(r, data):
    """With Aut(Z5^2) listed, every automorphism's inverse is in abelian's
    memo.  A singular map still raises NotIsomorphism in any slot, and an
    automorphism given unreduced or as lists gives the normal form of its
    reduced tuple."""
    autos = abelian.automorphisms(Z5_SQ)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    ings = [rng.choice(_POOLS[Z5_SQ]) for _ in range(r)]
    maps = [rng.choice(autos) for _ in range(r)]
    canon = canonicalize_row(multi_row(MultiOrbitSpec(Z5_SQ, tuple(zip(ings, maps)))))
    slot = rng.randrange(r)
    lifted = tuple(tuple(x + rng.randrange(1, 3) * 5 for x in row) for row in maps[slot])
    listed = [list(row) for row in maps[slot]]
    for q in (lifted, listed):
        changed = maps[:slot] + [q] + maps[slot + 1:]
        row = multi_row(MultiOrbitSpec(Z5_SQ, tuple(zip(ings, changed))))
        assert canonicalize_row(row) == canon
        assert invert_isomorphism(q, Z5_SQ, Z5_SQ) == invert_isomorphism(maps[slot], Z5_SQ, Z5_SQ)
    singular = _random_singular_map(Z5_SQ, rng)
    for q in (singular, [list(row) for row in singular]):
        changed = maps[:slot] + [q] + maps[slot + 1:]
        with pytest.raises(NotIsomorphism):
            canonicalize_row(multi_row(MultiOrbitSpec(Z5_SQ, tuple(zip(ings, changed)))))
        with pytest.raises(NotIsomorphism):
            invert_isomorphism(q, Z5_SQ, Z5_SQ)
