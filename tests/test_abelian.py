"""Finite abelian groups, characters, and hyperbolic decomposition."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from projpair import abelian
from projpair.abelian import (
    Character,
    FinAbGroup,
    SymplecticPairing,
    apply_matrix,
    automorphisms,
    canonical_factors,
    char_eval,
    direct_product,
    dual_isomorphism_transport,
    enumerate_abelian_groups,
    identity_matrix,
    invert_isomorphism,
    is_homomorphism_matrix,
    is_isomorphism_matrix,
    partitions,
    product_embedding,
    smith_normal_form,
    subgroup_from_elements,
    symplectic_decompose,
    transport_character,
)
from projpair.cyclo import CycNum, MINUS_ONE, ONE, prime_factors
from projpair.errors import DegeneratePairing, GroupMismatch, NotAlternating, NotIsomorphism

from sampling import random_automorphism


def test_canonical_factors():
    assert canonical_factors([1, 1]) == ()
    assert canonical_factors([2, 3]) == (6,)
    assert canonical_factors([4, 2]) == (2, 4)
    assert canonical_factors([2, 2, 3]) == (2, 6)
    assert canonical_factors([12, 2]) == (2, 12)
    for bad in ([0], [2, -3]):
        with pytest.raises(ValueError, match="must be positive"):
            canonical_factors(bad)
    with pytest.raises(ValueError):
        FinAbGroup((4, 2))


def test_group_basics():
    g = FinAbGroup((2, 4))
    assert g.order == 8 and g.exponent == 4 and g.rank == 2
    els = list(g.elements())
    assert len(els) == 8
    assert els[0].is_identity()
    assert [g.index_of(e) for e in els] == list(range(8))
    x = g.element((1, 3))
    assert (x + x).coords == (0, 2)
    assert (-x).coords == (1, 1)
    assert x.order() == 4


def test_char_eval_examples():
    triv = FinAbGroup.trivial()
    assert char_eval(triv.trivial_character(), triv.identity()) == ONE
    z2 = FinAbGroup.cyclic(2)
    assert char_eval(z2.character((1,)), z2.element((1,))) == MINUS_ONE
    g = FinAbGroup((4, 4))
    assert char_eval(g.character((1, 0)), g.element((3, 2))) == CycNum.root_of_unity(4, 3)
    with pytest.raises(GroupMismatch):
        char_eval(z2.character((1,)), g.element((0, 0)))


def test_char_eval_multiplicative():
    g = FinAbGroup((2, 6))
    for xi in g.characters():
        for x in list(g.elements())[:6]:
            for y in list(g.elements())[:6]:
                assert char_eval(xi, x) * char_eval(xi, y) == char_eval(xi, x + y)


def test_double_dual_injective():
    """The map x -> (xi -> xi(x)) is injective: characters separate points."""
    for factors in [(2,), (4,), (2, 2), (8,), (2, 4), (3, 3), (2, 2, 2), (12,)]:
        g = FinAbGroup(factors)
        assert g.order <= 64
        seen = set()
        for x in g.elements():
            key = tuple(xi.exponent_at(x) for xi in g.characters())
            assert key not in seen
            seen.add(key)


def test_enumerate_abelian_groups_examples():
    assert enumerate_abelian_groups(1) == [FinAbGroup.trivial()]
    assert [g.invariant_factors for g in enumerate_abelian_groups(8)] == [
        (2, 2, 2), (2, 4), (8,),
    ]
    assert [g.invariant_factors for g in enumerate_abelian_groups(12)] == [
        (2, 6), (12,),
    ]


def partition_count(n):
    return len(partitions(n))


def _count_oracle(n):
    c = 1
    m = n
    for p in prime_factors(n):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        c *= partition_count(e)
    return c


def test_enumerate_count_matches_partition_product():
    for n in range(1, 201):
        got = enumerate_abelian_groups(n)
        assert len(got) == _count_oracle(n), n
        assert len({g.invariant_factors for g in got}) == len(got)
        for g in got:
            assert g.order == n


def test_direct_product_embeddings():
    groups = [FinAbGroup.cyclic(2), FinAbGroup.cyclic(3), FinAbGroup((2, 4))]
    product, combine, split = product_embedding(groups)
    assert product.order == 2 * 3 * 8
    # combine/split are mutually inverse bijections
    import itertools

    count = 0
    for combo in itertools.product(*(g.elements() for g in groups)):
        total = combine(combo)
        assert split(total) == tuple(combo)
        count += 1
    assert count == product.order
    # combine is a homomorphism factorwise
    a = combine([FinAbGroup.cyclic(2).element((1,)),
                 FinAbGroup.cyclic(3).element((1,)),
                 FinAbGroup((2, 4)).element((0, 0))])
    assert a.order() == 6


# the primary-part merge as two separate loops, kept as the oracle for the
# shared slot rule


def _oracle_canonical_factors(factors):
    primary = {}
    for f in factors:
        if f < 1:
            raise ValueError(f"cyclic factor must be positive, got {f}")
        if f == 1:
            continue
        n = f
        for p in prime_factors(f):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            primary.setdefault(p, []).append(p ** e)
    if not primary:
        return ()
    for p in primary:
        primary[p].sort(reverse=True)
    depth = max(len(v) for v in primary.values())
    out = []
    for i in range(depth):
        d = 1
        for p in primary:
            if i < len(primary[p]):
                d *= primary[p][i]
        out.append(d)
    out.reverse()
    return tuple(out)


def _oracle_direct_product(groups):
    all_factors = [d for g in groups for d in g.invariant_factors]
    product = FinAbGroup(_oracle_canonical_factors(all_factors))
    primary = {}
    for d in all_factors:
        for p in prime_factors(d):
            e = 0
            dd = d
            while dd % p == 0:
                dd //= p
                e += 1
            primary.setdefault(p, []).append(p ** e)
    slot_of = {}
    depth = len(product.invariant_factors)
    for p, powers in primary.items():
        order = sorted(range(len(powers)), key=lambda i: -powers[i])
        for rank_pos, idx in enumerate(order):
            slot_of[(p, idx)] = depth - 1 - rank_pos
    counters = {}
    embeds = []
    for g in groups:
        cols = []
        for d in g.invariant_factors:
            col = [0] * depth
            dd = d
            for p in prime_factors(d):
                e = 0
                while dd % p == 0:
                    dd //= p
                    e += 1
                idx = counters.get(p, 0)
                counters[p] = idx + 1
                slot = slot_of[(p, idx)]
                col[slot] = (col[slot] + product.invariant_factors[slot] // p ** e) % \
                    product.invariant_factors[slot]
            cols.append(col)
        embeds.append([[cols[j][i] for j in range(len(cols))] for i in range(depth)])
    return product, embeds


def _oracle_split_table(groups):
    """Every element of the product, from the oracle's embedding columns,
    mapped to the tuple of per-factor elements it combines."""
    product, embeds = _oracle_direct_product(groups)
    table = {}
    for combo in itertools.product(*(g.elements() for g in groups)):
        coords = [sum(emb[i][j] * c for emb, x in zip(embeds, combo)
                      for j, c in enumerate(x.coords)) % d
                  for i, d in enumerate(product.invariant_factors)]
        table[tuple(coords)] = combo
    assert len(table) == product.order
    return product, table


_SPLIT_GROUPS = [FinAbGroup(fs) for fs in
                 [(2,), (3,), (4,), (6,), (12,), (2, 2), (2, 4), (2, 6), (3, 3)]]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(_SPLIT_GROUPS), min_size=1, max_size=4)
       .filter(lambda gs: math.prod(g.order for g in gs) <= 576))
@example([FinAbGroup((2,)), FinAbGroup((6,)), FinAbGroup((4,))])
@example([FinAbGroup((12,)), FinAbGroup((2,)), FinAbGroup((3,))])
def test_product_split_matches_full_table(groups):
    """split reads each factor's p-part off its primary slot by the inverse
    of the slot's cofactor, not by dividing by it, since one slot holds the
    parts of several factors; it agrees with a table of every element."""
    product, combine, split = product_embedding(groups)
    oracle_product, table = _oracle_split_table(groups)
    assert product == oracle_product
    for coords, parts in table.items():
        assert split(product.element(coords)) == parts
        assert combine(parts).coords == coords


def test_direct_product_matches_oracle():
    """Ordered pairs over every group of order <= 32 and triples over every
    group of order <= 12 (7,938 products), trivial group included.  The
    embeddings are tuple rows (abelian.Matrix), one per factor."""
    upto32 = [g for n in range(1, 33) for g in enumerate_abelian_groups(n)]
    upto12 = [g for g in upto32 if g.order <= 12]
    count = 0
    for groups in itertools.chain(itertools.product(upto32, repeat=2),
                                  itertools.product(upto12, repeat=3)):
        product, embeds = _oracle_direct_product(groups)
        expected = (product, tuple(tuple(map(tuple, emb)) for emb in embeds))
        assert direct_product(groups) == expected, groups
        count += 1
    assert count == 7938


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 400), max_size=6))
def test_canonical_factors_matches_oracle(factors):
    assert canonical_factors(factors) == _oracle_canonical_factors(factors)


def test_dual_transport_examples():
    z4 = FinAbGroup.cyclic(4)
    assert dual_isomorphism_transport([[1]], z4, z4) == ((1,),)
    assert dual_isomorphism_transport([[3]], z4, z4) == ((3,),)
    k4 = FinAbGroup((2, 2))
    assert dual_isomorphism_transport([[0, 1], [1, 0]], k4, k4) == ((0, 1), (1, 0))
    with pytest.raises(NotIsomorphism):
        dual_isomorphism_transport([[2]], z4, z4)


def test_dual_transport_defining_relation_exhaustive():
    g = FinAbGroup((2, 4))
    for q in list(automorphisms(g))[:6]:
        u = dual_isomorphism_transport([list(r) for r in q], g, g)
        for delta_coords in [(0, 1), (1, 0), (1, 3)]:
            delta = Character(g, delta_coords)
            u_delta = Character(
                g,
                tuple(sum(u[i][j] * delta.coords[j] for j in range(2)) for i in range(2)),
            )
            for x in g.elements():
                qx = apply_matrix([list(r) for r in q], x.coords, g)
                assert u_delta.exponent_at(qx) == delta.exponent_at(x)


# -- integer transports against element-wise oracles --------------------------


def _oracle_is_isomorphism(q, source, target):
    """Count the image of every element."""
    if source.order != target.order or not is_homomorphism_matrix(q, source, target):
        return False
    seen = {apply_matrix(q, x.coords, target).coords for x in source.elements()}
    return len(seen) == source.order


def _oracle_invert(q, source, target):
    """Look up the preimage of each target generator."""
    if not _oracle_is_isomorphism(q, source, target):
        raise NotIsomorphism("matrix is not an isomorphism")
    lookup = {apply_matrix(q, x.coords, target).coords: x.coords for x in source.elements()}
    cols = [lookup[g.coords] for g in target.generators()]
    return tuple(tuple(cols[j][i] for j in range(target.rank)) for i in range(source.rank))


def _oracle_transport(q, source, target):
    """Evaluate characters, as exponents in Q/Z, on preimages of generators."""
    q_inv = _oracle_invert(q, source, target)
    preimages = [
        apply_matrix(q_inv, tuple(1 if t == j else 0 for t in range(target.rank)), source)
        for j in range(target.rank)
    ]
    u = [[0] * source.rank for _ in range(target.rank)]
    for k in range(source.rank):
        delta = Character(source, tuple(1 if t == k else 0 for t in range(source.rank)))
        for j, e in enumerate(target.invariant_factors):
            val = delta.exponent_at(preimages[j]) * e
            if val.denominator != 1:
                raise NotIsomorphism("transport does not land in the character lattice")
            u[j][k] = int(val) % e
    for k in range(source.rank):
        delta = Character(source, tuple(1 if t == k else 0 for t in range(source.rank)))
        u_delta = transport_character(u, delta, target)
        for g in source.generators():
            if u_delta.exponent_at(apply_matrix(q, g.coords, target)) != delta.exponent_at(g):
                raise NotIsomorphism("transported map fails the defining relation")
    return tuple(map(tuple, u))


def _oracle_is_nondegenerate(pairing):
    """The map omega -> (pairing with generators) is injective, element by element."""
    seen = set()
    gens = pairing.group.generators()
    for x in pairing.group.elements():
        key = tuple(pairing.value(x, g) for g in gens)
        if key in seen:
            return False
        seen.add(key)
    return True


_SMALL_GROUPS = [g for n in range(1, 65) for g in enumerate_abelian_groups(n)]


@st.composite
def _group_pairs(draw):
    """A source group of order <= 64 and a target of the same order (mostly
    the same group, sometimes another factor chain), rarely of another order."""
    source = draw(st.sampled_from(_SMALL_GROUPS))
    kind = draw(st.sampled_from(["same"] * 6 + ["same_order"] * 3 + ["any"]))
    if kind == "same":
        return source, source
    if kind == "same_order":
        return source, draw(st.sampled_from(enumerate_abelian_groups(source.order)))
    return source, draw(st.sampled_from(_SMALL_GROUPS))


@st.composite
def _hom_matrices(draw, source, target):
    """A homomorphism matrix source -> target, entries sometimes shifted by
    a multiple of the target factor (unreduced or negative); now and then
    one entry is spoilt by 1 so that the matrix is no homomorphism."""
    q = []
    for e in target.invariant_factors:
        row = []
        for d in source.invariant_factors:
            g = math.gcd(d, e)
            row.append(draw(st.integers(0, g - 1)) * (e // g) + e * draw(st.sampled_from(
                [0, 0, 0, -1, 1, -2, 3])))
        q.append(row)
    if q and q[0] and draw(st.integers(0, 9)) == 0:
        q[0][0] += 1
    return q


@st.composite
def _transport_cases(draw):
    source, target = draw(_group_pairs())
    return source, target, draw(_hom_matrices(source, target))


def _same_outcome(fn, oracle, *args):
    try:
        want = oracle(*args)
    except NotIsomorphism:
        with pytest.raises(NotIsomorphism):
            fn(*args)
        return False
    assert fn(*args) == want
    return True


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_transport_cases())
def test_integer_transports_match_elementwise_oracles(case):
    source, target, q = case
    assert is_isomorphism_matrix(q, source, target) == _oracle_is_isomorphism(q, source, target)
    _same_outcome(invert_isomorphism, _oracle_invert, q, source, target)
    _same_outcome(dual_isomorphism_transport, _oracle_transport, q, source, target)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_is_nondegenerate_matches_elementwise_oracle(data):
    group = data.draw(st.sampled_from(_SMALL_GROUPS))
    fs = group.invariant_factors
    table = [[Fraction(data.draw(st.integers(-2, 2 * math.gcd(a, b))), math.gcd(a, b))
              for b in fs] for a in fs]
    pairing = SymplecticPairing(group, tuple(tuple(row) for row in table))
    assert pairing.is_nondegenerate() == _oracle_is_nondegenerate(pairing)


def test_transport_refuses_a_non_integral_inverse(monkeypatch):
    """The closed form needs e_j p[k][j] / d_k integral; an inverse that is
    not a homomorphism matrix must be refused, not rounded."""
    g = FinAbGroup((2, 4))
    monkeypatch.setattr(abelian, "invert_isomorphism", lambda q, s, t: [[1, 0], [1, 1]])
    with pytest.raises(NotIsomorphism, match="character lattice"):
        dual_isomorphism_transport([[1, 0], [0, 1]], g, g)


def test_inverse_memo_hands_out_immutable_rows():
    """What invert_isomorphism or dual_isomorphism_transport returns
    refuses mutation, so no caller can change the memo; mutating the matrix
    passed in leaves the next call's answer as it was."""
    g = FinAbGroup((2, 4))
    q = [[1, 0], [2, 1]]
    p = invert_isomorphism(q, g, g)
    u = dual_isomorphism_transport(q, g, g)
    assert p == _oracle_invert(q, g, g) and u == _oracle_transport(q, g, g)
    for mat in (p, u):
        with pytest.raises(TypeError):
            mat[0][0] += 1
        with pytest.raises(AttributeError):
            mat.append((7, 7))
    q[1][0] = 0
    assert invert_isomorphism([[1, 0], [2, 1]], g, g) == p
    assert dual_isomorphism_transport([[1, 0], [2, 1]], g, g) == u
    assert invert_isomorphism(q, g, g) == ((1, 0), (0, 1))


@pytest.mark.parametrize("fs", [(2, 2), (4,), (2, 4), (2, 2, 2), (6,), (2, 6), (3, 3)])
def test_automorphisms_keep_the_smith_inverse(fs):
    """The inverse that automorphisms keeps for each automorphism is the
    one _smith_inverse computes, and invert_isomorphism reads it without a
    second Smith form."""
    group = FinAbGroup(fs)
    automorphisms.cache_clear()
    abelian._INVERSES.clear()
    autos = automorphisms(group)
    kept = dict(abelian._INVERSES)
    assert len(kept) == len(autos)
    for a in autos:
        want = abelian._smith_inverse(a, group, group)
        assert kept[(a, fs, fs)] == want
        assert invert_isomorphism(a, group, group) == want
    assert abelian._INVERSES == kept


def test_invert_isomorphism_reads_the_stored_tuple():
    """invert_isomorphism hands out the memo's own tuple, with no Smith
    form for a map the memo holds.  A map it does not hold is reduced before
    it is keyed, so lists, an unreduced map and its reduced tuple share one
    entry.  A singular map raises, whether the memo holds it or not."""
    group = FinAbGroup((2, 4))
    fs = group.invariant_factors
    automorphisms.cache_clear()
    abelian._INVERSES.clear()
    autos = automorphisms(group)
    kept = dict(abelian._INVERSES)
    for a in autos:
        assert invert_isomorphism(a, group, group) is kept[a, fs, fs]
    assert abelian._INVERSES == kept
    abelian._INVERSES.clear()
    q = ((1, 0), (2, 1))
    p = invert_isomorphism(((3, 2), (6, 5)), group, group)
    assert list(abelian._INVERSES) == [(q, fs, fs)]
    assert invert_isomorphism([list(row) for row in q], group, group) is p
    assert invert_isomorphism(q, group, group) is p
    assert p == _oracle_invert(q, group, group)
    for _ in range(2):
        with pytest.raises(NotIsomorphism):
            invert_isomorphism(((1, 0), (0, 2)), group, group)
    assert abelian._INVERSES[((1, 0), (0, 2)), fs, fs] is None
    automorphisms.cache_clear()


def _is_int_tuple_matrix(mat):
    return type(mat) is tuple and all(
        type(row) is tuple and all(type(x) is int for x in row) for row in mat)


@pytest.mark.parametrize("fs", [(), (4,), (2, 4), (2, 2, 2), (3, 3)])
def test_homomorphism_matrices_are_int_tuple_rows(fs):
    """identity_matrix, automorphisms, invert_isomorphism and
    dual_isomorphism_transport hand out a homomorphism matrix in one form,
    a tuple of int tuples.  invert_isomorphism hands out the memo's own
    tuple, whether the map comes as the tuple the memo holds, as lists or
    unreduced."""
    group = FinAbGroup(fs)
    assert _is_int_tuple_matrix(identity_matrix(group))
    for a in automorphisms(group):
        p = invert_isomorphism(a, group, group)
        assert _is_int_tuple_matrix(a) and _is_int_tuple_matrix(p)
        assert p is abelian._INVERSES[a, fs, fs]
        assert invert_isomorphism([list(row) for row in a], group, group) is p
        lifted = tuple(tuple(x + 2 * d for x in row) for row, d in zip(a, fs))
        assert invert_isomorphism(lifted, group, group) is p
        assert _is_int_tuple_matrix(dual_isomorphism_transport(a, group, group))


def test_pairing_coset_matrix_is_int_tuple_rows():
    from projpair.construct import SingleOrbitIngredients, pairing_coset_matrix, single_orbit_pair

    z2, z3 = FinAbGroup.cyclic(2), FinAbGroup.cyclic(3)
    g, h = single_orbit_pair(SingleOrbitIngredients(1, 1, z2, FinAbGroup.trivial(), z3))
    assert _is_int_tuple_matrix(pairing_coset_matrix(g, h))


def test_automorphism_counts():
    assert len(automorphisms(FinAbGroup((2, 2)))) == 6
    assert len(automorphisms(FinAbGroup.cyclic(4))) == 2
    assert len(automorphisms(FinAbGroup.cyclic(8))) == 4
    assert len(automorphisms(FinAbGroup((2, 2, 2)))) == 168
    assert len(automorphisms(FinAbGroup.trivial())) == 1


# -- symplectic pairings -----------------------------------------------------


def test_standard_pairing_klein():
    pairing = SymplecticPairing.standard_hyperbolic(FinAbGroup.cyclic(2))
    assert pairing.group.invariant_factors == (2, 2)
    assert pairing.is_alternating()
    assert pairing.is_nondegenerate()
    dec = symplectic_decompose(pairing)
    assert len(dec.pairs) == 1
    assert dec.lagrangian == FinAbGroup.cyclic(2)


def test_decompose_z4_example():
    pairing = SymplecticPairing.standard_hyperbolic(FinAbGroup.cyclic(4))
    dec = symplectic_decompose(pairing)
    assert dec.lagrangian == FinAbGroup.cyclic(4)
    assert len(dec.pairs) == 1
    lam, lam_p, r = dec.pairs[0]
    assert r == 4
    assert pairing.value(lam, lam_p).denominator == 4


def test_decompose_trivial():
    pairing = SymplecticPairing.standard_hyperbolic(FinAbGroup.trivial())
    dec = symplectic_decompose(pairing)
    assert dec.pairs == ()
    assert dec.lagrangian.is_trivial()


def test_decompose_rejects_degenerate():
    g = FinAbGroup((2, 2))
    zero = SymplecticPairing(g, ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))
    with pytest.raises(DegeneratePairing):
        symplectic_decompose(zero)


def test_decompose_rejects_non_alternating():
    g = FinAbGroup((2, 2))
    sym = SymplecticPairing(
        g, ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2)))
    )
    with pytest.raises(NotAlternating):
        symplectic_decompose(sym)


def random_nondegenerate_pairing(rng):
    """Seeded sampler: a standard hyperbolic pairing pulled back along a
    random automorphism (stays alternating and nondegenerate)."""
    lagrangians = [
        FinAbGroup.cyclic(2), FinAbGroup.cyclic(3), FinAbGroup.cyclic(4),
        FinAbGroup((2, 2)), FinAbGroup.cyclic(5), FinAbGroup.cyclic(6),
        FinAbGroup.cyclic(7), FinAbGroup.cyclic(8), FinAbGroup((2, 4)),
        FinAbGroup((2, 2, 2)),
    ]
    lag = rng.choice(lagrangians)
    pairing = SymplecticPairing.standard_hyperbolic(lag)
    alpha = random_automorphism(pairing.group, rng)
    return pairing.conjugate(alpha), lag


def test_decompose_reconstructs_random_pairings():
    rng = random.Random(2024)
    for _ in range(20):
        pairing, lag = random_nondegenerate_pairing(rng)
        assert pairing.group.order <= 64
        dec = symplectic_decompose(pairing)
        assert dec.lagrangian.order ** 2 == pairing.group.order
        assert dec.reconstructs_pairing()


# -- subgroup extraction ------------------------------------------------------


def test_smith_normal_form_random():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 4)
        mat = [[rng.randrange(-6, 7) for _ in range(m)] for _ in range(n)]
        d, u, v = smith_normal_form(mat)
        # U mat V == D
        prod = [[sum(u[i][k] * mat[k][j] for k in range(n)) for j in range(m)]
                for i in range(n)]
        prod = [[sum(prod[i][k] * v[k][j] for k in range(m)) for j in range(m)]
                for i in range(n)]
        for i in range(n):
            for j in range(m):
                assert prod[i][j] == (d[i][j] if i == j else 0)
        diag = [d[i][i] for i in range(min(n, m))]
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0


def test_subgroup_from_elements():
    g, conv = subgroup_from_elements([2, 2, 2], [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert g.invariant_factors == (2, 2)
    images = {conv(c) for c in [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]}
    assert len(images) == 4
    g2, conv2 = subgroup_from_elements([8], [(0,), (2,), (4,), (6,)])
    assert g2.invariant_factors == (4,)
    g3, _ = subgroup_from_elements([4, 4], [(0, 0)])
    assert g3.is_trivial()


def _closure(moduli, gens):
    """Every element of prod Z/moduli that is a sum of the gens."""
    elems = {tuple(0 for _ in moduli)}
    frontier = list(elems)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % d for a, b, d in zip(cur, g, moduli))
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    return elems


@st.composite
def _generated_subgroups(draw):
    moduli = draw(st.lists(st.integers(1, 12), max_size=3)
                  .filter(lambda ms: math.prod(ms) <= 288))
    gens = draw(st.lists(st.tuples(*(st.integers(0, d - 1) for d in moduli)), max_size=4))
    return moduli, gens


@settings(max_examples=120, deadline=None)
@given(_generated_subgroups())
@example(([12, 2], [(1, 1), (11, 0)]))
def test_subgroup_from_generators_matches_the_element_list(case):
    """Generators and their closure name the same subgroup, and each
    to_canonical is an isomorphism onto it.  The labels may differ: in the
    example, (1, 0) is labelled (0, 1) from the element list and (1, 1)
    from the generators."""
    moduli, gens = case
    elems = _closure(moduli, gens)
    from_gens = subgroup_from_elements(moduli, gens)
    from_elems = subgroup_from_elements(moduli, sorted(elems))
    assert from_gens[0].invariant_factors == from_elems[0].invariant_factors
    for group, conv in (from_gens, from_elems):
        assert {conv(x) for x in elems} == {x.coords for x in group.elements()}
        assert group.order == len(elems)
        factors = group.invariant_factors
        for x in elems:
            for g in gens:
                s = tuple((a + b) % d for a, b, d in zip(x, g, moduli))
                assert conv(s) == tuple(
                    (a + b) % d for a, b, d in zip(conv(x), conv(g), factors))


def _immutable(obj) -> bool:
    """obj is an int, a tuple of immutable objects, or a function whose
    closure holds only immutable objects."""
    if isinstance(obj, int):
        return True
    if isinstance(obj, tuple):
        return all(_immutable(x) for x in obj)
    if callable(obj) and hasattr(obj, "__closure__"):
        return all(_immutable(c.cell_contents) for c in obj.__closure__ or ())
    return isinstance(obj, FinAbGroup)


@settings(max_examples=150, deadline=None)
@given(_generated_subgroups())
@example(([12, 2], [(1, 1), (11, 0)]))
@example(([4, 4], [(0, 0)]))
def test_lattice_memo_matches_the_unmemoized_computation(case):
    """subgroup_from_elements and generator_coefficients answer from a memo
    keyed by integer tuples.  Each answer equals the unmemoized computation
    (the memo's __wrapped__): the group, to_canonical on every element of
    the subgroup, and the coefficients.  Asking again with lists reads the
    same entry, and every entry is built of ints and tuples only."""
    moduli, gens = case
    group, conv = subgroup_from_elements(moduli, gens)
    fresh_group, fresh_conv = abelian._subgroup.__wrapped__(
        tuple(moduli), tuple(map(tuple, gens)))
    assert group == fresh_group
    for x in _closure(moduli, gens):
        assert conv(x) == fresh_conv(x)
    assert subgroup_from_elements(list(moduli), [list(g) for g in gens]) == (group, conv)
    assert _immutable((group, conv))

    images = [conv(g) for g in gens]
    coeffs = abelian.generator_coefficients(images, group)
    assert coeffs == abelian._coefficients.__wrapped__(tuple(images), group)
    assert abelian.generator_coefficients([list(y) for y in images], group) is coeffs
    assert _immutable(coeffs)
    for k, row in enumerate(coeffs):
        total = tuple(sum(a * y[i] for a, y in zip(row, images)) % d
                      for i, d in enumerate(group.invariant_factors))
        assert total == tuple(int(i == k) for i in range(group.rank))


def test_subgroup_map_is_homomorphism():
    rng = random.Random(13)
    for _ in range(10):
        moduli = rng.choice([[4, 4], [2, 6], [8], [2, 2, 2]])
        ambient = FinAbGroup.from_factors(moduli)
        # random subgroup: generated by two random elements
        gens = [tuple(rng.randrange(d) for d in moduli) for _ in range(2)]
        elems = _closure(moduli, gens)
        group, conv = subgroup_from_elements(moduli, sorted(elems))
        assert group.order == len(elems)
        assert len({conv(e) for e in elems}) == len(elems)
        for a in list(sorted(elems))[:8]:
            for b in list(sorted(elems))[:8]:
                s = tuple((x + y) % d for x, y, d in zip(a, b, moduli))
                ca, cb, cs = conv(a), conv(b), conv(s)
                added = tuple(
                    (x + y) % d for x, y, d in zip(ca, cb, group.invariant_factors)
                )
                assert added == cs
