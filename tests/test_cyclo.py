"""Exact cyclotomic arithmetic and linear algebra."""

import contextlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projpair import cyclo
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
from projpair.matrep import Monomial, unit_pattern


def test_euler_phi_counts_units():
    for m in range(1, 301):
        assert euler_phi(m) == sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1), m


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
    target = a.m * factor
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


def test_dict_vectors_drop_their_zero_entries():
    """A dict vector's explicit zeros are no entries: the zero vector lies
    in every span and adds nothing to it, where a zero entry once became a
    pivot (ZeroDivisionError) and failed membership."""
    empty = VectorSpan(2)
    assert empty.contains({0: ZERO})
    assert not empty.add({0: ZERO})
    assert empty.dim == 0
    s = VectorSpan(3)
    assert s.add({0: ZERO, 1: ONE})
    assert s.pivots == [1] and s.rows == [{1: ONE}]
    assert s.contains({1: MINUS_ONE, 2: ZERO})
    assert not s.contains({0: ONE, 1: ZERO})


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


# -- sparse storage against a dense oracle ------------------------------------
#
# The oracle computes on full grids, every entry on its matrix's conductor,
# exactly as a dense matrix type does: a result's conductor is the lcm over
# all of its entries, zeros included.


def _grid_conductor(grid):
    return math.lcm(*(v.m for row in grid for v in row))


def _assert_matches(mat, grid):
    """mat holds the grid's values, on the grid's conductor, and keeps
    exactly the grid's nonzero cells."""
    assert mat.shape == (len(grid), len(grid[0]))
    assert [list(r) for r in mat.data] == grid
    assert mat.m == _grid_conductor(grid)
    assert set(mat.cells) == {(i, j) for i, row in enumerate(grid)
                              for j, v in enumerate(row) if not v.is_zero()}
    assert all(v.m == mat.m for v in mat.cells.values())


def _dense_matmul(a, b):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = ZERO
            for x, col in zip(row, b):
                if x and col[j]:
                    acc = acc + x * col[j]
            out_row.append(acc)
        out.append(out_row)
    return out


def _dense_kron(a, b):
    return [[ZERO if x.is_zero() else x * y for x in arow for y in brow]
            for arow in a for brow in b]


def _dense_unit_pattern(grid):
    """The row scan of a dense matrix that unit_pattern replaces, as
    (order, cells)."""
    roots, used = [], set()
    for i, row in enumerate(grid):
        hits = [j for j, v in enumerate(row) if v]
        if not hits:
            continue
        if len(hits) > 1 or hits[0] in used:
            return None
        root = row[hits[0]].as_root_of_unity()
        if root is None:
            return None
        used.add(hits[0])
        roots.append((i, hits[0], root))
    order = math.lcm(*(d for _, _, (d, _) in roots))
    return order, [(i, j, k * (order // d)) for i, j, (d, k) in roots]


@st.composite
def _storage_operands(draw):
    """Matrices A and B of one shape and D with A's column count as rows, on
    conductors drawn apart, half their entries zero; a scalar that may be
    zero on a conductor above 1; and a monomial of A's row count."""
    r, k, c = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    m_a, m_b, m_d = (draw(st.sampled_from(_ORACLE_CONDUCTORS)) for _ in range(3))

    def grid(rows, cols, m):
        return CycMatrix([[draw(_sparse_entries(m)) for _ in range(cols)] for _ in range(rows)])

    a, b, d = grid(r, k, m_a), grid(r, k, m_b), grid(k, c, m_d)
    scalar = draw(_sparse_entries(draw(st.sampled_from(_ORACLE_CONDUCTORS))))
    order = draw(st.sampled_from(_ORACLE_CONDUCTORS))
    perm = draw(st.permutations(range(r)))
    exps = [draw(st.integers(0, order - 1)) for _ in range(r)]
    return a, b, d, scalar, Monomial.from_exponents(perm, order, exps)


@settings(max_examples=150, deadline=None)
@given(_storage_operands())
def test_sparse_storage_matches_dense_oracle(operands):
    """+, -, scale, @, kron, transpose, == and Monomial @ give the dense
    grid's values and conductor, including products and sums that cancel
    to zero."""
    a, b, d, c, mono = operands
    ga, gb, gd = ([list(r) for r in x.data] for x in (a, b, d))
    _assert_matches(a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(ga, gb)])
    _assert_matches(a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(ga, gb)])
    _assert_matches(a - a, [[x - x for x in r] for r in ga])
    for s in (c, ZERO, c - c, ONE):
        _assert_matches(a.scale(s), [[x if x.is_zero() else s * x for x in r] for r in ga])
    _assert_matches(a @ d, _dense_matmul(ga, gd))
    # each kernel vector's product with a cancels to zero on every row
    for vec in a.kernel():
        _assert_matches(a @ vec, _dense_matmul(ga, [list(r) for r in vec.data]))
    _assert_matches(a.kron(d), _dense_kron(ga, gd))
    _assert_matches(a.transpose(), [list(col) for col in zip(*ga)])
    scales = mono.scales
    rows = [None] * mono.n
    for j, p in enumerate(mono.perm):
        rows[p] = [scales[j] * v if v else ZERO for v in ga[j]]
    _assert_matches(mono @ a, rows)
    assert (a == b) == (ga == gb)
    assert a == a + CycMatrix.zeros(*a.shape).scale(c) + (b - b)
    assert a.is_zero() == all(v.is_zero() for r in ga for v in r)


@st.composite
def _pattern_candidates(draw):
    """Partial monomials with root-of-unity entries, some spoilt by a second
    cell in a row or column or by a value that is not a root of unity."""
    n = draw(st.integers(1, 5))
    order = draw(st.sampled_from(_ORACLE_CONDUCTORS))
    perm = draw(st.permutations(range(n)))
    grid = [[ZERO] * n for _ in range(n)]
    for j, p in enumerate(perm):
        if draw(st.booleans()):
            grid[p][j] = CycNum.root_of_unity(order, draw(st.integers(0, order - 1)))
    spoil = draw(st.integers(0, 3))
    if spoil == 1:
        grid[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = ONE
    elif spoil == 2:
        i = draw(st.integers(0, n - 1))
        grid[i] = [v + v for v in grid[i]]
    return CycMatrix(grid)


@settings(max_examples=150, deadline=None)
@given(_pattern_candidates())
def test_unit_pattern_matches_row_scan(mat):
    """unit_pattern turns down what the row scan turns down, and writes
    what it accepts as one class: the scan's order and its cells in row
    order, each at position i * n + j."""
    pattern, scan = unit_pattern(mat), _dense_unit_pattern(mat.data)
    if scan is None:
        assert pattern is None
        return
    order, cells = scan
    n = mat.rows
    assert (pattern.n, pattern.order, pattern.classes) == (n, order, [cells])
    assert pattern.where == {i * n + j: (0, k) for i, j, k in cells}
    assert pattern.sizes == (len(cells),)


def test_cells_outside_the_shape_are_refused():
    with pytest.raises(IndexError):
        CycMatrix.from_entries(2, 2, {(2, 0): ONE})
    with pytest.raises(IndexError):
        CycMatrix.from_entries(2, 2, {(0, -1): ONE})
    with pytest.raises(IndexError):
        CycMatrix.identity(2).entry(0, 2)
    with pytest.raises(ValueError):
        CycMatrix.identity(0)


# -- delayed reduction against the per-term oracle ------------------------------
#
# The oracle is the arithmetic that _dot replaced: each product a * b and
# each partial sum a normalized CycNum of its own.  Both must give the same
# values on the same conductors, and keep the same cells in the same order.

_KERNEL_CONDUCTORS = [1, 3, 4, 8, 12]


def _oracle_matmul(a, b):
    by_row = {}
    for (k, j), y in b.cells.items():
        by_row.setdefault(k, []).append((j, y))
    acc = {}
    for (i, k), x in a.cells.items():
        for j, y in by_row.get(k, ()):
            w = acc.get((i, j))
            acc[(i, j)] = x * y if w is None else w + x * y
    m = math.lcm(a.m, b.m) if acc else 1
    return CycMatrix._of(a.rows, b.cols, {k: v for k, v in acc.items() if not v.is_zero()}, m)


def _oracle_subtract_multiple(vec, c, row, pivot):
    for j, v in row.items():
        if j != pivot:
            w = vec[j] - c * v if j in vec else -(c * v)
            if w.is_zero():
                del vec[j]
            else:
                vec[j] = w


@contextlib.contextmanager
def _oracle_row_updates():
    """Within the block, every elimination runs the per-term row update."""
    real = cyclo._subtract_multiple
    cyclo._subtract_multiple = _oracle_subtract_multiple
    try:
        yield
    finally:
        cyclo._subtract_multiple = real


@st.composite
def _kernel_values(draw, m):
    """Zero a quarter of the time; else a sum of one to three rational
    multiples of m-th roots of unity (denominators up to 6), which may
    cancel to zero."""
    if draw(st.integers(0, 3)) == 0:
        return ZERO
    value = ZERO
    for _ in range(draw(st.integers(1, 3))):
        q = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 6)))
        value = value + CycNum.root_of_unity(m, draw(st.integers(0, m - 1))) * q
    return value


def _kernel_grid(draw, rows, cols, m):
    return CycMatrix([[draw(_kernel_values(m)) for _ in range(cols)] for _ in range(rows)])


@st.composite
def _kernel_products(draw):
    """A (r x k) and B (k x c) on conductors drawn apart.  Half the time A's
    last column repeats its first and B's last row negates its first, so
    those two products cancel in every cell (all of them when k = 2)."""
    r, k, c = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    a = _kernel_grid(draw, r, k, draw(st.sampled_from(_KERNEL_CONDUCTORS)))
    b = _kernel_grid(draw, k, c, draw(st.sampled_from(_KERNEL_CONDUCTORS)))
    if k > 1 and draw(st.booleans()):
        ga, gb = [list(row) for row in a.data], [list(row) for row in b.data]
        for row in ga:
            row[-1] = row[0]
        gb[-1] = [-v for v in gb[0]]
        a, b = CycMatrix(ga), CycMatrix(gb)
    return a, b


def _assert_same_cells(got, want):
    """The same shape, conductor, values, value conductors and cell order,
    and no zero cell."""
    assert got.shape == want.shape and got.m == want.m
    assert list(got.cells) == list(want.cells)
    for key, v in got.cells.items():
        w = want.cells[key]
        assert (v.m, v.num, v.den) == (w.m, w.num, w.den)
        assert not v.is_zero()


@settings(max_examples=200, deadline=None)
@given(_kernel_products())
def test_product_matches_per_term_oracle(operands):
    a, b = operands
    _assert_same_cells(a @ b, _oracle_matmul(a, b))


def _span_rows(span):
    return [(p, [(j, v.m, v.num, v.den) for j, v in row.items()])
            for p, row in zip(span.pivots, span.rows)]


@st.composite
def _kernel_squares(draw):
    n = draw(st.integers(1, 5))
    a = _kernel_grid(draw, n, n, draw(st.sampled_from(_KERNEL_CONDUCTORS)))
    if n > 1 and draw(st.booleans()):
        # a repeated row up to a unit: singular
        grid = [list(row) for row in a.data]
        unit = CycNum.root_of_unity(draw(st.sampled_from(_KERNEL_CONDUCTORS)), 1)
        grid[-1] = [unit * v for v in grid[0]]
        a = CycMatrix(grid)
    return a


@settings(max_examples=150, deadline=None)
@given(_kernel_squares())
def test_elimination_matches_per_term_oracle(mat):
    """rank, kernel, det and inverse, and the echelon rows behind them."""

    def run():
        try:
            inv = mat.inverse()
        except SingularMatrix:
            inv = None
        return mat.rank(), mat.kernel(), mat.det(), inv, _span_rows(mat._echelon())

    rank, kern, det, inv, rows = run()
    with _oracle_row_updates():
        o_rank, o_kern, o_det, o_inv, o_rows = run()
    assert rank == o_rank and rows == o_rows
    assert len(kern) == len(o_kern)
    for v, w in zip(kern, o_kern):
        _assert_same_cells(v, w)
    assert (det.m, det.num, det.den) == (o_det.m, o_det.num, o_det.den)
    assert (inv is None) == (o_inv is None)
    if inv is not None:
        _assert_same_cells(inv, o_inv)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_KERNEL_CONDUCTORS), min_size=4, max_size=4),
                min_size=1, max_size=5),
       st.data())
def test_span_with_mixed_conductors_matches_per_term_oracle(conductors, data):
    """Vectors whose entries keep conductors of their own, so each row
    update meets up to three conductors."""
    vecs = [{j: v for j, v in enumerate(data.draw(_kernel_values(m)) for m in row)
             if not v.is_zero()} for row in conductors]
    span = VectorSpan(4)
    for vec in vecs:
        span.add(vec)
    with _oracle_row_updates():
        oracle = VectorSpan(4)
        for vec in vecs:
            oracle.add(vec)
    assert _span_rows(span) == _span_rows(oracle)


def test_product_that_cancels_keeps_the_lcm_conductor():
    """Every product meets another that cancels it: no cell is left, but
    the two nonzero factors met, so the conductor is lcm(4, 3) = 12."""
    z4 = CycNum.root_of_unity(4)
    z3 = CycNum.root_of_unity(3)
    a = CycMatrix([[z4, z4], [Fraction(1, 2), Fraction(1, 2)]])
    b = CycMatrix([[z3, 1], [-z3, -1]])
    prod = a @ b
    assert prod.cells == {} and prod.m == 12
    _assert_same_cells(prod, _oracle_matmul(a, b))
    # no two nonzero cells meet: conductor 1
    assert (CycMatrix([[z4, 0]]) @ CycMatrix([[0], [z3]])).m == 1


def test_dense_product_builds_one_value_per_cell(monkeypatch):
    """An 8 x 8 product on one conductor normalizes one CycNum per output
    cell (the per-term arithmetic built 15); on two conductors, one more
    per lifted input cell."""
    rng = random.Random(27)
    calls = []
    real = cyclo._normalize

    def counted(*args):
        calls.append(1)
        return real(*args)

    def dense(m):
        return CycMatrix([[CycNum(m, [rng.randrange(1, 5) for _ in range(euler_phi(m))],
                                  rng.randrange(1, 4)) for _ in range(8)] for _ in range(8)])

    a, b, c = dense(12), dense(12), dense(8)
    monkeypatch.setattr(cyclo, "_normalize", counted)
    prod = a @ b
    assert len(prod.cells) == 64 and len(calls) <= 64
    calls.clear()
    prod = a @ c
    assert prod.m == 24 and len(calls) <= 64 + 128


_TWIST_CONDUCTORS = [1, 2, 3, 4, 8, 12]
_TWIST_CASES = ("random", "commuting", "clock", "killed")


def _sparse_grid(draw, n, m):
    """An n x n grid on conductor m with about five of every eight cells
    zero."""
    return [[draw(_kernel_values(m)) if draw(st.booleans()) else ZERO for _ in range(n)]
            for _ in range(n)]


@st.composite
def _twist_operands(draw):
    """Sparse n x n matrices x and h on conductors drawn apart, a scalar c
    and the case they were built for.  c is a root of unity of any order
    up to 12, so often not one of the conductors, zero, or a sum of roots.
    Three cases cancel: x a combination of h and I with c = 1 (zero); x
    a shift and h a clock, scaled, with c the inverse of the scalar by
    which they commute (zero); and h @ x = 0 while the two meet, so c's
    conductor must not join."""
    n = draw(st.integers(1, 5))
    case = draw(st.sampled_from(_TWIST_CASES))
    mx, mh = draw(st.sampled_from(_TWIST_CONDUCTORS)), draw(st.sampled_from(_TWIST_CONDUCTORS))
    x, h = _sparse_grid(draw, n, mx), _sparse_grid(draw, n, mh)
    c = draw(st.one_of(
        st.builds(CycNum.root_of_unity, st.integers(1, 12), st.integers(0, 11)),
        st.just(ZERO),
        _kernel_values(draw(st.sampled_from(_TWIST_CONDUCTORS)))))
    if case == "commuting":
        a, b = draw(_kernel_values(mx)), draw(_kernel_values(mh))
        x = CycMatrix(h).scale(a) + CycMatrix.identity(n).scale(b)
        return x, CycMatrix(h), ONE, case
    if case == "clock":
        omega = CycNum.root_of_unity(n)
        a, b = draw(_kernel_values(mx)), draw(_kernel_values(mh))
        shift = CycMatrix.from_entries(n, n, {((i + 1) % n, i): a for i in range(n)})
        clock = CycMatrix.diagonal([omega ** i * b for i in range(n)])
        # clock @ shift = omega shift @ clock
        return shift, clock, omega.inverse(), case
    if case == "killed" and n > 1:
        # rows 0 and n-1 of x equal, no other row; column n-1 of h is minus column 0
        x = [x[0]] + [[ZERO] * n for _ in range(n - 2)] + [x[0]]
        for row in h:
            row[-1] = -row[0]
    return CycMatrix(x), CycMatrix(h), c, case


@settings(max_examples=300, deadline=None)
@given(_twist_operands())
def test_twisted_commutator_matches_the_three_step_form(operands):
    """x.twisted_commutator(h, c) is x h - c h x as the two products, the
    scaling and the difference give it: the same conductor and the same
    cells, each value on the same conductor in the same reduced form.
    Cell order is not compared: the dense cut sorts the cells."""
    x, h, c, case = operands
    got = x.twisted_commutator(h, c)
    want = (x @ h) - (h @ x).scale(c)
    assert got.shape == want.shape and got.m == want.m
    assert got.cells.keys() == want.cells.keys()
    for key, v in got.cells.items():
        w = want.cells[key]
        assert (v.m, v.num, v.den) == (w.m, w.num, w.den)
    if case in ("commuting", "clock"):
        assert got.is_zero()


def test_twisted_commutator_needs_square_matrices_of_one_size():
    with pytest.raises(DimensionMismatch):
        CycMatrix.identity(2).twisted_commutator(CycMatrix.identity(3), ONE)
    with pytest.raises(DimensionMismatch):
        CycMatrix([[1, 2]]).twisted_commutator(CycMatrix.identity(2), ONE)
