"""Translation and character operators, tensor shapes, commutator scalars."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projpair.abelian import FinAbGroup, char_eval, enumerate_abelian_groups
from projpair.construct import Ambient, GroupSpec, scalar_blocks
from projpair.cyclo import CycMatrix, CycNum, MINUS_ONE, ONE
from projpair.errors import DimensionMismatch, GroupMismatch, NotProjectivelyCommuting
from projpair.matrep import (
    Monomial,
    TensorShape,
    as_dense,
    character_monomial,
    commutator_scalar,
    heisenberg_monomial,
    lowest_terms,
    projective_equal,
    translation_monomial,
)


def test_translation_examples():
    z2 = FinAbGroup.cyclic(2)
    assert translation_monomial(z2, z2.identity()).to_matrix().is_identity()
    assert translation_monomial(z2, z2.element((1,))).to_matrix() == CycMatrix([[0, 1], [1, 0]])
    z3 = FinAbGroup.cyclic(3)
    t = translation_monomial(z3, z3.element((1,))).to_matrix()
    assert (t @ t @ t).is_identity()
    assert not (t @ t).is_identity()


def test_character_examples():
    z2 = FinAbGroup.cyclic(2)
    assert character_monomial(z2, z2.trivial_character()).to_matrix().is_identity()
    assert character_monomial(z2, z2.character((1,))).to_matrix() == CycMatrix.diagonal([1, -1])
    z4 = FinAbGroup.cyclic(4)
    z = CycNum.root_of_unity(4)
    assert character_monomial(z4, z4.character((1,))).to_matrix() == CycMatrix.diagonal(
        [ONE, z, MINUS_ONE, z ** 3]
    )
    with pytest.raises(GroupMismatch):
        character_monomial(z2, z4.character((1,)))


def test_operators_are_homomorphisms():
    """tau and sigma are group homomorphisms into GL, exhaustively."""
    for n in range(1, 13):
        for g in enumerate_abelian_groups(n):
            for x in g.elements():
                for y in g.elements():
                    lhs = translation_monomial(g, x) @ translation_monomial(g, y)
                    assert lhs == translation_monomial(g, x + y)
            chars = list(g.characters())
            for xi in chars[:4]:
                for eta in chars[:4]:
                    lhs = character_monomial(g, xi) @ character_monomial(g, eta)
                    assert lhs == character_monomial(g, xi + eta)


def _oracle_translation(group, x):
    """tau_x element by element: column index(e) has its 1 at index(e + x)."""
    perm = [group.index_of(e + x) for e in group.elements()]
    return Monomial.from_exponents(perm, 1, (0,) * len(perm))


def _oracle_character(group, xi):
    """sigma_xi element by element: entry index(e) is xi(e) on zeta_N."""
    order = group.exponent
    weights = [c * (order // d) for c, d in zip(xi.coords, group.invariant_factors)]
    exps = [sum(w * v for w, v in zip(weights, e.coords)) % order for e in group.elements()]
    return Monomial.from_exponents(range(group.order), order, exps)


def test_operators_match_element_wise_oracles():
    """The mixed-radix integer builds equal the element-wise formulas, for
    every element and character of every group of order <= 32."""
    for n in range(1, 33):
        for g in enumerate_abelian_groups(n):
            for x in g.elements():
                assert translation_monomial(g, x) == _oracle_translation(g, x)
            for xi in g.characters():
                assert character_monomial(g, xi) == _oracle_character(g, xi)


def test_commutation_relation_small():
    """The conjugation relations between sigma and tau, exact, order <= 8."""
    for n in range(1, 9):
        for g in enumerate_abelian_groups(n):
            for x in g.elements():
                tx = translation_monomial(g, x)
                tx_inv = tx.inverse()
                for xi in g.characters():
                    sx = character_monomial(g, xi)
                    assert sx @ tx @ sx.inverse() == tx.scale_by(char_eval(xi, x))
                    assert tx @ sx @ tx_inv == sx.scale_by(char_eval(xi, -x))


def test_commutator_scalar_examples():
    z2 = FinAbGroup.cyclic(2)
    t = translation_monomial(z2, z2.element((1,)))
    s = character_monomial(z2, z2.character((1,)))
    assert commutator_scalar(Monomial.identity(2), t) == (1, 0)
    assert commutator_scalar(s, t) == (2, 1)
    assert commutator_scalar(t, s) == (2, 1)
    with pytest.raises(NotProjectivelyCommuting):
        commutator_scalar(CycMatrix.diagonal([1, 2]), CycMatrix([[1, 1], [0, 1]]))


def _root_product(a, b):
    """The product of two reduced roots of unity (order, exponent)."""
    order = math.lcm(a[0], b[0])
    return lowest_terms(order, a[1] * (order // a[0]) + b[1] * (order // b[0]))


def test_commutator_scalar_is_bimultiplicative():
    g = FinAbGroup.cyclic(4)
    ops = [heisenberg_monomial(g, x, xi)
           for x in g.elements() for xi in list(g.characters())[:2]]
    for a in ops[:4]:
        for b in ops[:4]:
            for c in ops[:4]:
                left = _root_product(commutator_scalar(a, c), commutator_scalar(b, c))
                assert left == commutator_scalar(a @ b, c)


def test_commutator_scalar_agrees_across_forms():
    """The monomial path, the dense path and a mixed pair give one scalar."""
    g = FinAbGroup.cyclic(4)
    ops = [heisenberg_monomial(g, x, xi) for x in g.elements() for xi in g.characters()]
    for a in ops[::3]:
        for b in ops[::2]:
            c = commutator_scalar(a, b)
            assert commutator_scalar(a.to_matrix(), b.to_matrix()) == c
            assert commutator_scalar(a, b.to_matrix()) == c
            assert commutator_scalar(a.to_matrix(), b) == c
            # in lowest terms, as the dense scalar's as_root_of_unity reads it
            assert lowest_terms(*c) == c


def _assert_matches_dense(g, h):
    """commutator_scalar on the operators equals it on their dense forms,
    or both raise NotProjectivelyCommuting."""
    try:
        c = commutator_scalar(g, h)
    except NotProjectivelyCommuting:
        with pytest.raises(NotProjectivelyCommuting):
            commutator_scalar(as_dense(g), as_dense(h))
        return
    assert commutator_scalar(as_dense(g), as_dense(h)) == c


@st.composite
def unit_monomials(draw, n):
    perm = draw(st.permutations(range(n)))
    scales = []
    for _ in range(n):
        d = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
        scales.append(CycNum.root_of_unity(d, draw(st.integers(0, d - 1))))
    return Monomial(perm, scales)


@st.composite
def unit_monomial_pairs(draw):
    n = draw(st.integers(1, 4))
    g = draw(unit_monomials(n))
    # h is either independent of g, or a scaled power of g, which commutes
    # with g up to that scale
    if draw(st.booleans()):
        h = draw(unit_monomials(n))
    else:
        d = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
        scale = CycNum.root_of_unity(d, draw(st.integers(0, d - 1)))
        h = (g ** draw(st.integers(-2, 3))).scale_by(scale)
    return g, h


def _dense_commutator_root(g, h):
    """The scalar of g h g^-1 h^-1 multiplied out densely and read by
    as_root_of_unity, or None when it is no scalar n-th root of unity."""
    gm, hm = as_dense(g), as_dense(h)
    comm = gm @ hm @ gm.inverse() @ hm.inverse()
    c = comm.entry(0, 0)
    if comm != CycMatrix.identity(gm.rows).scale(c) or c ** gm.rows != ONE:
        return None
    return c.as_root_of_unity()


@settings(max_examples=80, deadline=None)
@given(unit_monomial_pairs())
def test_integer_commutator_matches_dense_on_random_monomials(pair):
    """For Monomial, dense and mixed arguments, commutator_scalar gives the
    dense product's scalar read by as_root_of_unity, reduced and of an
    order dividing n, or raises in every form."""
    g, h = pair
    n = g.n
    expected = _dense_commutator_root(g, h)
    forms = [(g, h), (as_dense(g), as_dense(h)), (g, as_dense(h)), (as_dense(g), h)]
    for a, b in forms:
        if expected is None:
            with pytest.raises(NotProjectivelyCommuting):
                commutator_scalar(a, b)
            continue
        d, k = commutator_scalar(a, b)
        assert math.gcd(d, k) == 1 and 0 <= k < d and n % d == 0
        assert (d, k) == expected


@st.composite
def heisenberg_pairs(draw):
    group = FinAbGroup(draw(st.sampled_from([(2,), (3,), (4,), (6,), (2, 2), (2, 4)])))
    elems = list(group.elements())
    chars = list(group.characters())
    return tuple(
        heisenberg_monomial(group, draw(st.sampled_from(elems)), draw(st.sampled_from(chars)))
        for _ in range(2)
    )


@settings(max_examples=40, deadline=None)
@given(heisenberg_pairs())
def test_integer_commutator_matches_dense_on_heisenberg_operators(pair):
    _assert_matches_dense(*pair)


def test_non_root_scale_is_not_a_monomial():
    """A scale that is not a root of unity is refused by the constructor;
    such a matrix is no Monomial, so its generator stays dense and its
    commutator is multiplied out."""
    with pytest.raises(ValueError):
        Monomial([0, 1], [2, -2])
    with pytest.raises(ValueError):
        Monomial.identity(2).scale_by(2)
    doubled = CycMatrix.diagonal([2, -2])
    assert Monomial.from_matrix(doubled) is None
    ambient = Ambient.single(TensorShape((("A", 2),)))
    spec = GroupSpec(ambient, scalar_blocks(2), FinAbGroup.cyclic(2),
                     {(0,): CycMatrix.identity(2), (1,): doubled})
    assert spec.operator((1,)) is doubled
    swap = Monomial([1, 0], [ONE, ONE])
    assert commutator_scalar(spec.operator((1,)), swap) == (2, 1)


def test_monomial_times_dense_matrix():
    g = FinAbGroup((2, 4))
    mono = heisenberg_monomial(g, g.element((1, 3)), g.character((1, 1)))
    rng = random.Random(5)
    dense = CycMatrix([[rng.randrange(-2, 3) for _ in range(8)] for _ in range(8)])
    assert mono @ dense == mono.to_matrix() @ dense
    with pytest.raises(DimensionMismatch):
        mono @ CycMatrix.identity(3)


_CELL_VALUES = [ONE, MINUS_ONE, CycNum.from_rational(2), CycNum.root_of_unity(4),
                CycNum.root_of_unity(6), CycNum.root_of_unity(6, 2),
                ONE + CycNum.root_of_unity(4)]


@st.composite
def sparse_matrices(draw, rows, cols):
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        st.sampled_from(_CELL_VALUES), max_size=rows * cols))
    return CycMatrix.from_entries(rows, cols, cells)


@st.composite
def mixed_operands(draw):
    """(A, R, M): a Monomial M with fourth- and sixth-root scales, a square
    CycMatrix A that is sparse and random, or a scaled power of M made
    dense, which commutes with M up to that scale, and a sparse random
    CycMatrix R with as many columns as M and one to three rows."""
    n = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(n)))
    scales = []
    for _ in range(n):
        d = draw(st.sampled_from([4, 6]))
        scales.append(CycNum.root_of_unity(d, draw(st.integers(0, d - 1))))
    mono = Monomial(perm, scales)
    if draw(st.booleans()):
        mat = draw(sparse_matrices(n, n))
    else:
        scale = CycNum.root_of_unity(4, draw(st.integers(0, 3)))
        mat = (mono ** draw(st.integers(-2, 3))).to_matrix().scale(scale)
    rect = draw(sparse_matrices(draw(st.integers(1, 3)), n))
    return mat, rect, mono


def _outcome(f):
    """f's value, or the type of the package error it raised."""
    try:
        return f()
    except (NotProjectivelyCommuting, DimensionMismatch) as exc:
        return type(exc)


@settings(max_examples=100, deadline=None)
@given(mixed_operands())
def test_mixed_forms_multiply_as_dense(operands):
    """@ and kron take a Monomial and a CycMatrix in either position and
    give the all-dense result, and commutator_scalar on a mixed pair gives
    the all-dense pair's scalar or raises the same error."""
    mat, rect, mono = operands
    dense = mono.to_matrix()
    assert mat @ mono == mat @ dense
    assert mono @ mat == dense @ mat
    assert rect @ mono == rect @ dense
    assert mono @ rect.transpose() == dense @ rect.transpose()
    assert mat.kron(mono) == mat.kron(dense)
    assert mono.kron(mat) == dense.kron(mat)
    if rect.rows != mono.n:
        with pytest.raises(DimensionMismatch):
            rect.transpose() @ mono
        with pytest.raises(DimensionMismatch):
            mono @ rect
    assert _outcome(lambda: commutator_scalar(mat, mono)) == _outcome(
        lambda: commutator_scalar(mat, dense))
    assert _outcome(lambda: commutator_scalar(mono, mat)) == _outcome(
        lambda: commutator_scalar(dense, mat))


def test_commutator_scalar_order_divides_dimension():
    for n in [2, 3, 4, 6]:
        g = FinAbGroup.cyclic(n)
        for x in g.elements():
            for xi in g.characters():
                d, k = commutator_scalar(
                    character_monomial(g, xi), translation_monomial(g, x)
                )
                assert n % d == 0
                assert CycNum.root_of_unity(d, k) ** n == ONE


def _random_monomial(rng, n):
    """A monomial with scales zeta_d^k of mixed orders d."""
    perm = list(range(n))
    rng.shuffle(perm)
    scales = []
    for _ in range(n):
        d = rng.choice([1, 2, 3, 4, 6, 12])
        scales.append(CycNum.root_of_unity(d, rng.randrange(d)))
    return Monomial(perm, scales)


def test_monomial_roundtrip_and_products():
    """Every integer operation on Monomials agrees with its dense form."""
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 5)
        a, b = _random_monomial(rng, n), _random_monomial(rng, n)
        c = _random_monomial(rng, rng.randrange(1, 4))
        da, db = a.to_matrix(), b.to_matrix()
        assert Monomial.from_matrix(da) == a
        assert [a.entry(i, j) for i in range(n) for j in range(n)] == da.flatten()
        assert a.inverse().to_matrix() == da.inverse()
        assert (a @ b).to_matrix() == da @ db
        assert (a ** 3).to_matrix() == da @ da @ da
        assert (a ** -2).to_matrix() == (da @ da).inverse()
        assert a.kron(c).to_matrix() == da.kron(c.to_matrix())
        d = rng.choice([1, 2, 3, 4, 6, 12])
        z = CycNum.root_of_unity(d, rng.randrange(d))
        assert a.scale_by(z).to_matrix() == da.scale(z)
        assert (a @ a.inverse()).is_identity()
    g = FinAbGroup((2, 4))
    ops = [heisenberg_monomial(g, x, xi) for x in g.elements() for xi in g.characters()]
    for a in ops[::5]:
        assert Monomial.from_matrix(a.to_matrix()) == a
    assert Monomial.from_matrix(CycMatrix([[1, 1], [0, 1]])) is None
    assert Monomial.from_matrix(CycMatrix([[1, 0], [1, 0]])) is None
    assert Monomial.from_matrix(CycMatrix([[1, 0], [0, 0]])) is None


def test_projective_equal():
    g = CycMatrix([[1, 2], [3, 4]])
    z3 = CycNum.root_of_unity(3)
    assert projective_equal(g, g)
    assert projective_equal(g.scale(z3), g)
    assert not projective_equal(CycMatrix.diagonal([1, -1]), CycMatrix([[0, 1], [1, 0]]))
    assert not projective_equal(g, CycMatrix([[1, 2], [3, 5]]))


def test_embeds_at_distinct_labels_commute():
    """A matrix on the first tensor slot commutes with one on the second."""
    rng = random.Random(9)
    shape = TensorShape((("A", 2), ("B", 3)))
    assert shape.dim == 6
    for _ in range(6):
        m = CycMatrix([[rng.randrange(-2, 3) for _ in range(2)] for _ in range(2)])
        n = CycMatrix([[rng.randrange(-2, 3) for _ in range(3)] for _ in range(3)])
        em = m.kron(CycMatrix.identity(3))
        en = CycMatrix.identity(2).kron(n)
        assert em @ en == en @ em


def test_tensor_shape_indexing():
    shape = TensorShape((("A", 2), ("B", 3), ("C", 2)))
    seen = set()
    for i in range(2):
        for j in range(3):
            for k in range(2):
                seen.add(shape.flatten((i, j, k)))
    assert seen == set(range(12))
    with pytest.raises(ValueError):
        shape.flatten((2, 0, 0))
