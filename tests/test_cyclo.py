"""Exact cyclotomic arithmetic and linear algebra."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projpair.cyclo import (
    CycMatrix,
    CycNum,
    MINUS_ONE,
    ONE,
    ZERO,
    VectorSpan,
    conductor_cap,
    cyclotomic_polynomial,
    euler_phi,
    set_conductor_cap,
    span_of_matrices,
)
from projpair.errors import ConductorCapExceeded, DimensionMismatch, SingularMatrix


def test_roots_of_unity_basics():
    assert CycNum.root_of_unity(1, 0) == ONE
    assert CycNum.root_of_unity(2, 1) == MINUS_ONE
    # squaring the fourth root gives -1 in reduced form
    z4 = CycNum.root_of_unity(4)
    assert z4 * z4 == MINUS_ONE
    assert CycNum.root_of_unity(4, 2) == MINUS_ONE


def test_root_of_unity_orders():
    for m in [1, 2, 3, 4, 6, 8, 9, 12]:
        for k in range(m):
            z = CycNum.root_of_unity(m, k)
            order, expo = z.as_root_of_unity()
            import math

            g = math.gcd(k, m) if k else m
            assert order == m // g


def test_field_examples():
    z3 = CycNum.root_of_unity(3)
    z4 = CycNum.root_of_unity(4)
    z5 = CycNum.root_of_unity(5)
    assert z4 * z4 == MINUS_ONE
    assert z3 * CycNum.root_of_unity(3, 2) == ONE
    x = ONE + z5
    assert x / x == ONE
    with pytest.raises(ZeroDivisionError):
        x / ZERO


def _random_cyc(rng, conductors=(1, 2, 3, 4)):
    m = rng.choice(conductors)
    phi = euler_phi(m)
    num = [rng.randrange(-3, 4) for _ in range(phi)]
    den = rng.randrange(1, 4)
    return CycNum(m, num, den)


names = st.integers(min_value=0, max_value=10 ** 6)


@st.composite
def cyc_numbers(draw):
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    phi = euler_phi(m)
    num = [draw(st.integers(min_value=-5, max_value=5)) for _ in range(phi)]
    den = draw(st.integers(min_value=1, max_value=6))
    return CycNum(m, num, den)


@settings(max_examples=60, deadline=None)
@given(cyc_numbers(), cyc_numbers(), cyc_numbers())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO
    if not b.is_zero():
        assert (a / b) * b == a
        assert b * b.inverse() == ONE


@settings(max_examples=40, deadline=None)
@given(cyc_numbers(), st.sampled_from([2, 3, 4, 6, 12, 24]))
def test_conductor_lift_coherence(a, factor):
    target = a.conductor * factor
    lifted = a.lift(target)
    assert lifted == a
    assert (lifted * lifted) == (a * a)
    assert (lifted + ONE) == (a + ONE)


def test_conductor_cap():
    old = conductor_cap()
    try:
        set_conductor_cap(10)
        with pytest.raises(ConductorCapExceeded):
            CycNum.root_of_unity(11)
        set_conductor_cap(11)
        CycNum.root_of_unity(11)
        # a root already built and memoized still obeys a lowered cap
        CycNum.root_of_unity(3)
        set_conductor_cap(2)
        with pytest.raises(ConductorCapExceeded):
            CycNum.root_of_unity(3)
        # so does the memoized zero of a conductor
        set_conductor_cap(12)
        assert ZERO.lift(12).is_zero()
        set_conductor_cap(6)
        with pytest.raises(ConductorCapExceeded):
            ZERO.lift(12)
    finally:
        set_conductor_cap(old)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


# -- matrices ----------------------------------------------------------------


def test_kernel_examples():
    assert CycMatrix.identity(3).kernel() == []
    assert len(CycMatrix.zeros(2, 2).kernel()) == 2
    z4 = CycNum.root_of_unity(4)
    a = CycMatrix([[1, z4], [-z4, 1]])
    assert a.det().is_zero()
    ker = a.kernel()
    assert len(ker) == 1
    assert (a @ ker[0]).is_zero()


def _random_matrix(rng, rows, cols):
    return CycMatrix([[_random_cyc(rng) for _ in range(cols)] for _ in range(rows)])


def _free_columns(mat):
    """Columns that lie in the span of the columns before them."""
    free, prev = [], 0
    for j in range(mat.cols):
        r = CycMatrix([row[: j + 1] for row in mat.data]).rank()
        if r == prev:
            free.append(j)
        prev = r
    return free


def test_kernel_rank_random():
    rng = random.Random(11)
    mats = []
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        mats.append(_random_matrix(rng, rows, cols))
    for _ in range(30):
        # low rank: a product through k < min(rows, cols) dimensions
        rows, cols = rng.randrange(2, 6), rng.randrange(2, 6)
        k = rng.randrange(1, min(rows, cols))
        mats.append(_random_matrix(rng, rows, k) @ _random_matrix(rng, k, cols))
    for mat in mats:
        ker = mat.kernel()
        assert len(ker) + mat.rank() == mat.cols
        free = _free_columns(mat)
        assert len(ker) == len(free)
        for v, fc in zip(ker, free):
            assert (mat @ v).is_zero()
            entries = [v.entry(i, 0) for i in range(mat.cols)]
            assert next(x for x in entries if not x.is_zero()) == ONE
            # on the free columns, the vector is a multiple of its own unit vector
            assert not entries[fc].is_zero()
            assert all(entries[f].is_zero() for f in free if f != fc)


def test_matrix_ops_examples():
    z3 = CycNum.root_of_unity(3)
    assert CycMatrix.identity(2).kron(CycMatrix.identity(3)) == CycMatrix.identity(6)
    assert CycMatrix.diagonal([z3, z3 * z3]).det() == ONE
    with pytest.raises(SingularMatrix):
        CycMatrix([[1, 1], [1, 1]]).inverse()
    with pytest.raises(DimensionMismatch):
        CycMatrix.identity(2) @ CycMatrix.identity(3)


def _kron_oracle(a, b):
    """Independent Kronecker product from the index formula."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [[ZERO] * cols for _ in range(rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            for k in range(b.rows):
                for l in range(b.cols):
                    out[i * b.rows + k][j * b.cols + l] = a.entry(i, j) * b.entry(k, l)
    return CycMatrix(out)


def test_kron_matches_oracle_and_mixed_product():
    rng = random.Random(5)
    for _ in range(10):
        a = CycMatrix([[_random_cyc(rng) for _ in range(2)] for _ in range(2)])
        b = CycMatrix([[_random_cyc(rng) for _ in range(3)] for _ in range(2)])
        assert a.kron(b) == _kron_oracle(a, b)
    for _ in range(8):
        dims = [rng.randrange(1, 3) for _ in range(4)]
        a = CycMatrix([[_random_cyc(rng) for _ in range(dims[0])] for _ in range(dims[0])])
        c = CycMatrix([[_random_cyc(rng) for _ in range(dims[0])] for _ in range(dims[0])])
        b = CycMatrix([[_random_cyc(rng) for _ in range(dims[1])] for _ in range(dims[1])])
        d = CycMatrix([[_random_cyc(rng) for _ in range(dims[1])] for _ in range(dims[1])])
        assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)


def _laplace_det(mat):
    """Independent determinant by cofactor expansion along the first row."""
    n = mat.rows
    if n == 1:
        return mat.entry(0, 0)
    acc = ZERO
    for j in range(n):
        a = mat.entry(0, j)
        if a.is_zero():
            continue
        minor = CycMatrix([[mat.entry(i, k) for k in range(n) if k != j] for i in range(1, n)])
        term = a * _laplace_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def test_inverse_det_random():
    rng = random.Random(23)
    for trial in range(50):
        # the sparse second half puts the pivots out of row order
        sparse = trial >= 25
        n = rng.randrange(2, 5) if sparse else rng.randrange(1, 4)
        mat = CycMatrix([
            [ZERO if sparse and rng.random() < 0.5 else _random_cyc(rng) for _ in range(n)]
            for _ in range(n)
        ])
        assert mat.det() == _laplace_det(mat)
        if mat.det().is_zero():
            assert mat.rank() < n
            continue
        inv = mat.inverse()
        assert (mat @ inv).is_identity()
        assert (inv @ mat).is_identity()
        assert mat.det() * inv.det() == ONE


def test_det_multiplicative_random():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randrange(1, 4)
        a = CycMatrix([[_random_cyc(rng) for _ in range(n)] for _ in range(n)])
        b = CycMatrix([[_random_cyc(rng) for _ in range(n)] for _ in range(n)])
        assert (a @ b).det() == a.det() * b.det()


def test_vector_span():
    s = span_of_matrices([CycMatrix.identity(2), CycMatrix([[0, 1], [1, 0]])])
    assert s.dim == 2
    assert s.contains(CycMatrix([[3, 5], [5, 3]]).flatten())
    assert not s.contains(CycMatrix([[1, 1], [0, 1]]).flatten())
    t = span_of_matrices([CycMatrix([[1, 1], [1, 1]]), CycMatrix([[1, -1], [-1, 1]])])
    assert s.equals(t)
    u = VectorSpan(4)
    assert u.dim == 0
    assert not u.contains([ONE, ZERO, ZERO, ZERO])


def test_serialization_of_coefficients():
    x = CycNum(4, [1, -2], 3)
    assert x.coefficients() == [Fraction(1, 3), Fraction(-2, 3)]


# -- sparse elimination against a dense oracle --------------------------------


_ORACLE_CONDUCTORS = [1, 2, 3, 4, 6, 12]


@st.composite
def _sparse_entries(draw, m):
    """Half the entries zero: the shared ZERO, or a value minus itself, which
    is zero on conductor m; the rest small sums of m-th roots of unity, which
    may cancel to zero too."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return ZERO
    root = CycNum.root_of_unity(m, draw(st.integers(0, m - 1)))
    if kind == 1:
        return root - root
    value = ZERO
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(0, m - 1))
        value = value + CycNum.root_of_unity(m, k) * draw(st.integers(-2, 2))
    return value


@st.composite
def _oracle_matrices(draw, square=False):
    m = draw(st.sampled_from(_ORACLE_CONDUCTORS))
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))

    def grid(r, c):
        return CycMatrix([[draw(_sparse_entries(m)) for _ in range(c)] for _ in range(r)])

    if draw(st.booleans()):
        # a product through k inner dimensions has rank at most k
        k = draw(st.integers(1, 5))
        return grid(rows, k) @ grid(k, cols)
    return grid(rows, cols)


def _dense_gauss_jordan(rows, ncols):
    """Textbook Gauss-Jordan on full rows: (reduced rows, pivot columns,
    determinant of the leading square part when the rows are square)."""
    a = [list(r) for r in rows]
    pivots, det, r = [], ONE, 0
    for c in range(ncols):
        k = next((i for i in range(r, len(a)) if not a[i][c].is_zero()), None)
        if k is None:
            continue
        if k != r:
            a[r], a[k] = a[k], a[r]
            det = -det
        det = det * a[r][c]
        inv = a[r][c].inverse()
        a[r] = [inv * v for v in a[r]]
        for i in range(len(a)):
            if i != r and not a[i][c].is_zero():
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    if r < len(a):
        det = ZERO
    return a[:r], pivots, det


def _column(vec):
    return [vec.entry(i, 0) for i in range(vec.rows)]


@settings(max_examples=150, deadline=None)
@given(_oracle_matrices())
def test_sparse_elimination_matches_dense_oracle(mat):
    """rank, kernel and span membership equal a dense Gauss-Jordan's."""
    rows = [list(r) for r in mat.data]
    reduced, pivots, _ = _dense_gauss_jordan(rows, mat.cols)
    assert mat.rank() == len(pivots)
    expected = []
    for fc in (j for j in range(mat.cols) if j not in pivots):
        vec = [ZERO] * mat.cols
        vec[fc] = ONE
        for row, p in zip(reduced, pivots):
            vec[p] = -row[fc]
        lead = next(v for v in vec if not v.is_zero())
        expected.append([v / lead for v in vec])
    assert [_column(v) for v in mat.kernel()] == expected

    span = VectorSpan(mat.cols)
    for row in rows:
        span.add(row)
    assert span.dim == len(pivots)
    # every row, a combination of rows, and each unit vector
    candidates = rows + [[x + y for x, y in zip(rows[0], rows[-1])]]
    candidates += [[ONE if j == k else ZERO for j in range(mat.cols)] for k in range(mat.cols)]
    for vec in candidates:
        inside = len(_dense_gauss_jordan(rows + [vec], mat.cols)[1]) == len(pivots)
        assert span.contains(vec) == inside


@settings(max_examples=150, deadline=None)
@given(_oracle_matrices(square=True))
def test_sparse_det_and_inverse_match_dense_oracle(mat):
    n = mat.rows
    _, pivots, det = _dense_gauss_jordan(mat.data, n)
    assert mat.det() == det
    if len(pivots) < n:
        with pytest.raises(SingularMatrix):
            mat.inverse()
        return
    augmented = [list(row) + [ONE if j == i else ZERO for j in range(n)]
                 for i, row in enumerate(mat.data)]
    reduced, _, _ = _dense_gauss_jordan(augmented, 2 * n)
    inv = mat.inverse()
    assert [[inv.entry(i, j) for j in range(n)] for i in range(n)] == [row[n:] for row in reduced]
