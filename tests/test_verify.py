"""The twisted-commutant solver and centralizer verification."""

import itertools
import math
import random
import sys

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from projpair import matrep, verify
from projpair.abelian import FinAbGroup, subgroup_from_elements
from projpair.classify import enumerate_multi_orbit, single_row
from projpair.construct import (
    Ambient,
    GroupSpec,
    SingleOrbitIngredients,
    connected_pair,
    scalar_blocks,
    single_orbit_pair,
    xx_hat_pair,
)
from projpair.cyclo import (
    ONE,
    CycMatrix,
    CycNum,
    VectorSpan,
    conductor_cap,
    set_conductor_cap,
    span_of_matrices,
)
from projpair.errors import (
    ConductorCapExceeded,
    NotProjectivelyCommuting,
    ShapeMismatch,
    WitnessSearchUndecided,
)
from projpair.matrep import (
    Algebra,
    Monomial,
    PatternBasis,
    TensorShape,
    _gram_nondegenerate,
    _partner_sums_nonzero,
    as_dense,
    character_monomial,
    commutator_scalar,
    lowest_terms,
    translation_monomial,
    unit_pattern,
)
from projpair.verify import (
    FAIL_CENTRALIZER_LARGER,
    FAIL_CENTRALIZER_SMALLER,
    FAIL_IDENTITY_COMPONENT_MISMATCH,
    FAIL_PAIRING_DEGENERATE,
    CommutantEngine,
    PairingTable,
    VerificationFailure,
    _apply_twist_constraint,
    _det_nonzero,
    _invertible_in_span,
    _normalize_projective,
    compute_centralizer,
    pairing_table,
    projective_centralizer,
    projective_order,
    spec_contains,
    specs_equal,
    verify_dual_pair,
)

from sampling import conjugated, random_shear, random_unit_monomial
from test_acceptance import _battery, bicharacter_oracle, builder_formulas, full_pairing_table
from test_construct import assert_one_stored_form, block_layouts, block_units

TRIV = FinAbGroup.trivial()
Z2 = FinAbGroup.cyclic(2)
Z3 = FinAbGroup.cyclic(3)


def _dense_involution_spec():
    """The swap conjugated by [[1, 1], [0, 1]]: an involution image in
    PGL(2) whose generator [[1, 0], [1, -1]] is not monomial."""
    ambient = Ambient.single(TensorShape((("L", 2),)))
    return GroupSpec(
        ambient,
        scalar_blocks(2),
        Z2,
        {(0,): CycMatrix.identity(2), (1,): CycMatrix([[1, 0], [1, -1]])},
    )


def swap_spec():
    """The projective image of a single swap involution in PGL(2)."""
    ambient = Ambient.single(TensorShape((("L", 2),)))
    return GroupSpec(
        ambient,
        scalar_blocks(2),
        Z2,
        {(0,): CycMatrix.identity(2), (1,): CycMatrix([[0, 1], [1, 0]])},
    )


# -- twisted commutants --------------------------------------------------------


def test_commutant_of_gl2_block():
    g, h = connected_pair([(2, 2)])
    engine = CommutantEngine.from_spec(g)
    basis = engine.solve([])
    witness = engine.witness(basis, [])
    assert len(basis) == 4
    assert witness is not None
    assert witness.is_identity()
    assert span_of_matrices(basis).equals(h.algebra().span)


def test_commutant_twisted_by_character():
    s = character_monomial(Z2, Z2.character((1,)))
    engine = CommutantEngine(Algebra(2, [CycMatrix.identity(2)]), [s])
    basis = engine.solve([(2, 1)])
    assert len(basis) == 2
    # solutions are the antidiagonal matrices
    for mat in basis:
        assert mat.entry(0, 0).is_zero() and mat.entry(1, 1).is_zero()
    assert engine.witness(basis, [(2, 1)]) is not None


def _dense_commutant(n, algebra_basis, gens, scalars):
    """The reference solve: the n^2 matrix units cut by X a = a X for every
    algebra element and by X h = c h X for every generator, c = zeta_d^k
    for each scalar (d, k), each constraint through the dense kernel."""
    basis = [CycMatrix.from_entries(n, n, {(i, j): ONE}) for i in range(n) for j in range(n)]
    constraints = [(a, ONE) for a in algebra_basis] + [
        (h, CycNum.root_of_unity(d, k)) for h, (d, k) in zip(gens, scalars)]
    for h, c in constraints:
        if not basis:
            break
        basis = _apply_twist_constraint(basis, as_dense(h), c)
    return basis


def assert_same_span(a, b):
    assert len(a) == len(b)
    if a:
        assert span_of_matrices(a).equals(span_of_matrices(b))


def test_solver_fast_and_general_paths_agree():
    """The engine versus the dense reference, exact span equality."""
    cases = [
        single_orbit_pair(SingleOrbitIngredients(1, 1, Z2, TRIV, TRIV))[0],
        single_orbit_pair(SingleOrbitIngredients(1, 1, TRIV, Z2, Z2))[0],
        single_orbit_pair(SingleOrbitIngredients(2, 1, TRIV, Z2, TRIV))[1],
        swap_spec(),
        # a generator that is not a monomial takes the dense kernel
        _dense_involution_spec(),
        # two generators of order 4: the union-find works over the lcm of
        # the generators' and the scalars' orders
        xx_hat_pair(FinAbGroup.cyclic(4))[0],
        xx_hat_pair(FinAbGroup((2, 2)))[1],
    ]
    for target in cases:
        engine = CommutantEngine.from_spec(target)
        cosets = target.generating_cosets()
        moduli = [target.component_group.element(c).order() for c in cosets]
        tuples = [
            list(zip(moduli, exps))
            for exps in itertools.product(*(range(m) for m in moduli))
        ]
        for scalars in tuples:
            assert_same_span(
                engine.solve(scalars),
                _dense_commutant(target.ambient.dim, target.algebra().basis,
                                 [target.operator(c) for c in cosets], scalars),
            )


ROOT_ORDERS = (1, 2, 3, 4, 6)


@st.composite
def root_tuples(draw):
    """A root of unity as (order, exponent), not always in lowest terms."""
    d = draw(st.sampled_from(ROOT_ORDERS))
    return d, draw(st.integers(-d, 2 * d))


@st.composite
def unit_roots(draw):
    return CycNum.root_of_unity(*draw(root_tuples()))


@st.composite
def partial_monomials(draw, n, full=False):
    """At most one nonzero entry per row and column, each a root of unity;
    one in every row and column when full."""
    cols = list(range(n)) if full else draw(
        st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    rows = draw(st.permutations(range(n)))
    return CycMatrix.from_entries(
        n, n, {(r, c): draw(unit_roots()) for r, c in zip(rows, cols)})


@st.composite
def commutant_problems(draw):
    """Partial-monomial algebra elements, unit-monomial generators (as a
    Monomial or a CycMatrix) and root-of-unity scalars; sometimes one
    algebra element that is not a partial monomial, and one generator
    that is not a monomial."""
    n = draw(st.integers(1, 5))
    algebra = draw(st.lists(partial_monomials(n), max_size=3))
    gens = draw(st.lists(partial_monomials(n, full=True), max_size=2))
    scalars = [draw(root_tuples()) for _ in gens]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if n == 1 or draw(st.booleans()):
            cells = {(i, j): 2}
        else:
            cells = {(i, j): ONE, (i, (j + 1) % n): ONE}
        algebra.insert(draw(st.integers(0, len(algebra))), CycMatrix.from_entries(n, n, cells))
    ops = [Monomial.from_matrix(h) if draw(st.booleans()) else h for h in gens]
    if gens and draw(st.booleans()):
        k = draw(st.integers(0, len(gens) - 1))
        h = as_dense(ops[k])
        if n == 1 or draw(st.booleans()):
            ops[k] = h.scale(2)
        else:
            # one more cell in the first row: no longer a partial monomial
            j = next(j for j in range(n) if h.entry(0, j).is_zero())
            ops[k] = h + CycMatrix.from_entries(n, n, {(0, j): ONE})
    return n, algebra, ops, scalars


@settings(max_examples=80, deadline=None)
@given(commutant_problems())
def test_engine_matches_dense_reference_on_partial_monomials(problem):
    """Union-find, then the kernel for what does not qualify (a dense
    algebra element or generator), spans what the dense reference spans."""
    n, algebra, gens, scalars = problem
    assert_same_span(CommutantEngine(Algebra(n, algebra), gens).solve(scalars),
                     _dense_commutant(n, algebra, gens, scalars))


def _solved_cells(basis):
    """Each solved matrix's cells, in basis order and cell order."""
    return [list(x.cells.items()) for x in basis]


@st.composite
def block_problems(draw):
    """A block layout, one or two generators (unit monomials, as a Monomial
    or a CycMatrix, or one that is not monomial) and scalars."""
    n, blocks = draw(block_layouts())
    gens = draw(st.lists(partial_monomials(n, full=True), max_size=2))
    ops = [Monomial.from_matrix(h) if draw(st.booleans()) else h for h in gens]
    if gens and draw(st.booleans()):
        ops[0] = as_dense(ops[0]).scale(2)
    return n, blocks, ops, [draw(root_tuples()) for _ in gens]


@settings(max_examples=80, deadline=None)
@given(block_problems())
def test_engine_from_the_algebra_matches_engine_from_its_units(problem):
    """An engine made from a block spec's Algebra, which reads the root
    pattern off the grids, and one made from an Algebra of its matrix
    units E_rs (x) I, which scans each unit, give the same solve: the
    same classes in the same order, cell for cell, and the same pattern."""
    n, blocks, gens, scalars = problem
    ambient = Ambient.single(TensorShape((("A", n),)))
    spec = GroupSpec(ambient, blocks, TRIV, {(): Monomial.identity(n)})
    from_algebra = CommutantEngine(spec.algebra(), gens).solve(scalars)
    from_units = CommutantEngine(Algebra(n, block_units(blocks, n)), gens).solve(scalars)
    assert type(from_algebra) is type(from_units)
    if isinstance(from_algebra, PatternBasis):
        assert from_algebra == from_units
    assert _solved_cells(from_algebra) == _solved_cells(from_units)


@st.composite
def shuffled_bases(draw):
    """Partial monomials and matrices that are not, each built from its
    cells in a drawn order, so that a root pattern read off them lists
    positions out of row-major order; a unit Monomial and a scalar for
    it."""
    n = draw(st.integers(1, 4))
    basis = []
    for _ in range(draw(st.integers(1, 3))):
        cells = list(draw(partial_monomials(n)).cells.items())
        if draw(st.booleans()):
            cells.append(((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))),
                          draw(unit_roots())))
        basis.append(CycMatrix.from_entries(n, n, dict(draw(st.permutations(cells)))))
    op = Monomial.from_matrix(draw(partial_monomials(n, full=True)))
    return n, basis, op, draw(root_tuples())


@settings(max_examples=120, deadline=None)
@given(shuffled_bases())
def test_unit_patterns_match_the_scan_of_each_element(problem):
    """Algebra.unit_patterns reads each element off the root pattern when
    there is one: the element's unit_pattern, one class with its cells in
    row-major order, with exponents lifted to the pattern's order; and
    exactly the scans when there is none.  Every pattern on the way is in
    the one stored form: the algebra's, each scan (unit_pattern of a
    CycMatrix) and unit_pattern of a Monomial, a solve on the algebra
    and the pattern that normalized_by moves by the Monomial."""
    n, basis, op, scalar = problem
    algebra = Algebra(n, basis)
    scans = [unit_pattern(a) for a in basis]
    found = algebra.unit_patterns()
    assert [p is None for p in found] == [p is None for p in scans]
    order = algebra.pattern.order if algebra.pattern is not None else None
    for p, scan in zip(found, scans):
        if scan is None:
            continue
        assert_one_stored_form(scan)
        assert_one_stored_form(p, least=False)
        assert len(p) == 1
        if order is None:
            assert p == scan
            continue
        lift = order // scan.order
        assert p == PatternBasis(n, order, [[(i, j, k * lift) for i, j, k in scan.classes[0]]])
    assert_one_stored_form(unit_pattern(op))
    solved = CommutantEngine(algebra, [op]).solve([scalar])
    if isinstance(solved, PatternBasis):
        assert_one_stored_form(solved)
    if order is None:
        return
    assert_one_stored_form(algebra.pattern)
    inclusion, moved, inv = matrep._pattern_in_pattern, [], op.inverse()
    matrep._pattern_in_pattern = lambda outer, inner: moved.append(inner) or inclusion(outer, inner)
    try:
        algebra.normalized_by(op, inv)
    finally:
        matrep._pattern_in_pattern = inclusion
    [moved] = moved
    assert_one_stored_form(moved, least=False)
    assert moved.matrices() == [op @ b @ inv for b in algebra.basis]


@pytest.mark.parametrize("target", [
    lambda: cycle_spec(3, (0, 1)), lambda: cycle_spec(4, (0, 1, 2)),
    lambda: cycle_spec(6, (0, 1, 2)), swap_spec, lambda: xx_hat_pair(Z2)[0]],
    ids=["swap-in-PGL3", "3-cycle-in-PGL4", "3-cycle-in-PGL6", "swap", "heis2"])
def test_engine_from_a_computed_algebra_matches_engine_from_its_basis(target):
    """A computed centralizer's algebra is its identity solve's
    PatternBasis, unbuilt, with elements that are not partial monomials
    for the permutations of unequal cycle lengths; the engine built on it
    and one built on its CycMatrix basis solve every tuple of the
    centralizer's own generators alike."""
    z = compute_centralizer(target())
    assert z.algebra().__dict__.get("basis") is None
    n = z.ambient.dim
    gens = [z.operator(c) for c in z.generating_cosets()]
    on_pattern = CommutantEngine(z.algebra(), gens)
    on_basis = CommutantEngine(Algebra(n, z.algebra().basis), gens)
    for t in itertools.product(*(range(d) for d in z.component_group.invariant_factors)):
        scalars = list(zip(z.component_group.invariant_factors, t))
        assert (_solved_cells(on_pattern.solve(scalars))
                == _solved_cells(on_basis.solve(scalars)))


@st.composite
def pattern_problems(draw):
    """Partial-monomial algebra elements, unit-monomial generators and
    scalars: every constraint goes into the union-find."""
    n = draw(st.integers(1, 5))
    algebra = draw(st.lists(partial_monomials(n), max_size=3))
    gens = draw(st.lists(partial_monomials(n, full=True), max_size=2))
    return n, algebra, gens, [draw(root_tuples()) for _ in gens]


@settings(max_examples=80, deadline=None)
@given(pattern_problems())
def test_solve_checks_its_order_against_the_conductor_cap(problem):
    """A solve builds no CycNum, so it checks the least order of its
    pattern against the conductor cap: a cap at that order passes, and
    one below it raises ConductorCapExceeded."""
    n, algebra, gens, scalars = problem
    engine = CommutantEngine(Algebra(n, algebra), gens)
    basis = engine.solve(scalars)
    assert isinstance(basis, PatternBasis)
    if not basis:
        return
    order = basis.order
    old = conductor_cap()
    try:
        set_conductor_cap(order)
        assert engine.solve(scalars) == basis
        if order > 1:
            set_conductor_cap(order - 1)
            with pytest.raises(ConductorCapExceeded):
                engine.solve(scalars)
    finally:
        set_conductor_cap(old)

# -- the per-tuple chase, kept as an oracle ------------------------------------


class _RatioUnionFind:
    """The union-find that each solve once copied from the algebra's and
    chased the generators into, one scalar tuple at a time: value[u] =
    zeta_N^ratio[u] * value[root], inconsistent relations collapsing a
    class to zero."""

    def __init__(self, n, order):
        self.n = n
        self.order = order
        self.parent = list(range(n * n))
        self.ratio = [0] * (n * n)
        self.dead = [False] * (n * n)

    def lifted(self, order):
        out = _RatioUnionFind.__new__(_RatioUnionFind)
        lift = order // self.order
        out.n = self.n
        out.order = order
        out.parent = list(self.parent)
        out.ratio = [r * lift for r in self.ratio]
        out.dead = list(self.dead)
        return out

    def find(self, u):
        parent = self.parent
        root = parent[u]
        if parent[root] == root:
            return root
        chain = []
        while self.parent[u] != u:
            chain.append(u)
            u = self.parent[u]
        acc = 0
        for v in reversed(chain):
            acc = (acc + self.ratio[v]) % self.order
            self.parent[v] = u
            self.ratio[v] = acc
        return u

    def _root_and_ratio(self, u):
        root = self.find(u)
        return (root, 0) if root == u else (root, self.ratio[u])

    def set_zero(self, u):
        root, _ = self._root_and_ratio(u)
        self.dead[root] = True

    def relate(self, u, v, mult):
        ru, qu = self._root_and_ratio(u)
        rv, qv = self._root_and_ratio(v)
        if ru == rv:
            if (qv - mult - qu) % self.order:
                self.dead[ru] = True
            return
        self.parent[rv] = ru
        self.ratio[rv] = (mult + qu - qv) % self.order
        self.dead[ru] = self.dead[ru] or self.dead[rv]

    def pattern(self):
        found = [self._root_and_ratio(u) for u in range(len(self.parent))]
        index = {root: b for b, root in enumerate(sorted(
            {root for root, _ in found if not self.dead[root]}))}
        classes = [[] for _ in index]
        for u, (root, q) in enumerate(found):
            b = index.get(root)
            if b is not None:
                classes[b].append((*divmod(u, self.n), q))
        g = math.gcd(self.order, *(q for cells in classes for _, _, q in cells))
        if g > 1:
            classes = [[(i, j, q // g) for i, j, q in cells] for cells in classes]
        return PatternBasis(self.n, self.order // g, classes)


def _oracle_chase(uf, pattern, c):
    """X a = zeta_N^c a X on the union-find, a given as (order, cells)."""
    n = uf.n
    order_a, cells = pattern
    lift = uf.order // order_a
    rows = {p for p, _, _ in cells}
    cols = {j for _, j, _ in cells}
    for p_k, k, e_k in cells:
        ck = c + e_k * lift
        for p_j, j, e_j in cells:
            uf.relate(k * n + j, p_k * n + p_j, ck - e_j * lift)
        for j in range(n):
            if j not in cols:
                uf.set_zero(k * n + j)
    for i in range(n):
        if i not in rows:
            for p_j, _, _ in cells:
                uf.set_zero(i * n + p_j)


def _oracle_unit_pattern(op):
    """(order, cells): a Monomial's cells by column, a CycMatrix's in
    row-major order; None for a CycMatrix that is not a partial monomial
    with root-of-unity entries."""
    if isinstance(op, Monomial):
        return op.order, [(p, j, e) for j, (p, e) in enumerate(zip(op.perm, op.exps))]
    cells = sorted(op.cells.items())
    if not len({i for (i, _), _ in cells}) == len({j for (_, j), _ in cells}) == len(cells):
        return None
    roots = [(i, j, v.as_root_of_unity()) for (i, j), v in cells]
    if any(root is None for _, _, root in roots):
        return None
    order = math.lcm(*(d for _, _, (d, _) in roots))
    return order, [(i, j, k * (order // d)) for i, j, (d, k) in roots]


class _OracleEngine:
    """The engine as it was: the algebra chased once, and for each tuple a
    lifted copy with every generator chased again."""

    def __init__(self, algebra, gens):
        n = self.n = algebra.n
        self.gens = list(gens)
        self.gen_patterns = [_oracle_unit_pattern(h) for h in self.gens]
        pattern = algebra.pattern
        if pattern is None:
            units = [_oracle_unit_pattern(a) for a in algebra.basis]
        else:
            units = [(pattern.order, c)
                     if len({i for i, _, _ in c}) == len({j for _, j, _ in c}) == len(c) else None
                     for c in pattern.classes]
        self.dense_algebra = [algebra.basis[b] for b, p in enumerate(units) if p is None]
        units = [p for p in units if p is not None]
        self.algebra = _RatioUnionFind(n, math.lcm(*(p[0] for p in units)))
        for unit in units:
            _oracle_chase(self.algebra, unit, 0)

    def solve(self, scalars):
        roots = [lowest_terms(d, k) for d, k in scalars]
        chased = [(p, root) for p, root in zip(self.gen_patterns, roots) if p is not None]
        order = math.lcm(self.algebra.order, *(p[0] for p, _ in chased),
                         *(d for _, (d, _) in chased))
        uf = self.algebra.lifted(order)
        for pattern, (d, k) in chased:
            _oracle_chase(uf, pattern, k * (order // d))
        basis = uf.pattern()
        cuts = [(a, ONE) for a in self.dense_algebra]
        cuts += [(h, CycNum.root_of_unity(d, k))
                 for h, p, (d, k) in zip(self.gens, self.gen_patterns, roots) if p is None]
        if not cuts or not basis:
            return basis
        basis = basis.matrices()
        for h, c in cuts:
            if not basis:
                break
            basis = _apply_twist_constraint(basis, h, c)
        return basis


def _assert_same_solve(got, want):
    """The same basis: a PatternBasis equal field for field, or the same
    CycMatrix list, cell for cell."""
    assert type(got) is type(want)
    if isinstance(want, PatternBasis):
        assert got == want
    assert _solved_cells(got) == _solved_cells(want)


@st.composite
def pattern_algebras(draw, n):
    """An Algebra given by a PatternBasis: disjoint supports with
    root-of-unity cells, some elements with two cells in a row or a
    column, so that they are not partial monomials."""
    positions = draw(st.permutations(range(n * n)))[:draw(st.integers(1, n * n))]
    cuts = sorted(draw(st.sets(st.integers(1, len(positions) - 1), max_size=4))
                  if len(positions) > 1 else [])
    mats = [CycMatrix.from_entries(n, n, {divmod(u, n): draw(unit_roots()) for u in part})
            for part in (positions[a:b] for a, b in
                         zip([0] + cuts, cuts + [len(positions)]))]
    return Algebra(n, PatternBasis.from_matrices(n, mats))


@st.composite
def oracle_problems(draw):
    """A pattern algebra, or partial monomials (with a dense element at
    times); generators that are unit monomials as a Monomial or a
    CycMatrix, partial monomials, or not monomial at all; and several
    scalar tuples, solved on one engine."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        algebra = draw(pattern_algebras(n))
    else:
        basis = draw(st.lists(partial_monomials(n), max_size=3))
        if draw(st.booleans()):
            basis.append(CycMatrix.from_entries(n, n, {(0, 0): ONE, (0, n - 1): ONE})
                         if n > 1 else CycMatrix([[2]]))
        algebra = Algebra(n, basis)
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["monomial", "matrix", "partial", "dense"]))
        h = draw(partial_monomials(n, full=kind != "partial"))
        if kind == "monomial":
            h = Monomial.from_matrix(h)
        elif kind == "dense":
            h = h.scale(2) if n == 1 else h + CycMatrix.from_entries(
                n, n, {(0, next(j for j in range(n) if h.entry(0, j).is_zero())): ONE})
        gens.append(h)
    tuples = draw(st.lists(st.tuples(*[root_tuples() for _ in gens]), min_size=1, max_size=4))
    return algebra, gens, [list(t) for t in tuples]


@settings(max_examples=150, deadline=None)
@given(oracle_problems())
def test_engine_matches_the_per_tuple_chase(problem):
    """One engine, chased once, solves each tuple exactly as the per-tuple
    chase did: the same PatternBasis (classes in root order, the same
    cells and least order), or after a dense cut the same matrices."""
    algebra, gens, tuples = problem
    engine, oracle = CommutantEngine(algebra, gens), _OracleEngine(algebra, gens)
    for scalars in tuples:
        _assert_same_solve(engine.solve(scalars), oracle.solve(scalars))


def _oracle_targets():
    """Targets whose tuples kill classes, a generator of order 4 over
    order-2 scalars, GL blocks, and Z((1 2)) in PGL(3), whose algebra
    takes a dense cut."""
    g4, h4 = xx_hat_pair(FinAbGroup.cyclic(4))
    g22, _ = xx_hat_pair(FinAbGroup((2, 2)))
    so, so_h = single_orbit_pair(SingleOrbitIngredients(2, 1, TRIV, Z2, TRIV))
    return [cycle_spec(3, (0, 1)), cycle_spec(6, (0, 1, 2)), cycle_spec(4, (0, 1, 2, 3)),
            g4, h4, g22, so, so_h, swap_spec(), _dense_involution_spec(),
            compute_centralizer(cycle_spec(3, (0, 1))), *(spec for _, spec in _battery())]


def test_engine_matches_the_per_tuple_chase_on_every_tuple_of_targets():
    """Every tuple of each target's own moduli, on one engine per target:
    the same solve as the per-tuple chase.  Some tuples kill classes that
    the untwisted solve keeps, and Z((1 2)) takes a dense cut."""
    killed = cut = 0
    for target in _oracle_targets():
        algebra = target.algebra()
        gens = [target.operator(c) for c in target.generating_cosets()]
        engine, oracle = CommutantEngine(algebra, gens), _OracleEngine(algebra, gens)
        moduli = list(target.component_group.invariant_factors)
        identity = engine.solve([(1, 0)] * len(moduli))
        for t in itertools.product(*(range(m) for m in moduli)):
            scalars = list(zip(moduli, t))
            got = engine.solve(scalars)
            _assert_same_solve(got, oracle.solve(scalars))
            killed += isinstance(got, PatternBasis) and len(got) < len(identity)
            cut += not isinstance(got, PatternBasis)
    assert killed and cut


def test_one_chase_per_target(monkeypatch):
    """compute_centralizer chases the algebra and the generators once, in
    its one engine: as many relations as building that engine takes, how
    many tuples it solves, and zero forcing runs once."""
    relations, forced, solves = [], _counting(monkeypatch, verify, "_forced_zeros"), []
    chase, solve = verify._PotentialUnionFind.chase, CommutantEngine.solve

    def counted_chase(uf, cells, lift, coefficient):
        relations.append(len(cells) ** 2)
        return chase(uf, cells, lift, coefficient)

    def counted_solve(engine, scalars):
        solves.append(1)
        return solve(engine, scalars)

    monkeypatch.setattr(verify._PotentialUnionFind, "chase", counted_chase)
    monkeypatch.setattr(CommutantEngine, "solve", counted_solve)
    target, _ = single_orbit_pair(SingleOrbitIngredients(2, 1, TRIV, Z2, Z2))
    CommutantEngine.from_spec(target)
    one_engine = sum(relations)
    assert len(forced) == 1
    relations.clear()
    compute_centralizer(target)
    assert len(solves) >= 3
    assert sum(relations) == one_engine
    assert len(forced) == 2


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: partial_monomials(n)), st.booleans())
def test_det_nonzero_matches_rank(mat, extra):
    """The scaled-permutation shortcut agrees with the rank, also on
    partial monomials and on a matrix with a second cell in a row."""
    n = mat.rows
    if extra and n > 1:
        j = next((j for j in range(n) if mat.entry(0, j).is_zero()), None)
        if j is not None:
            mat = mat + CycMatrix.from_entries(n, n, {(0, j): ONE})
    assert _det_nonzero(mat) == (mat.rank() == n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: partial_monomials(n, full=True)))
def test_normalize_projective_rescales_monomials_in_integers(mat):
    """A unit monomial is normalized on its exponents to the Monomial of
    its normalized dense form: first nonzero entry 1, least order."""
    out = _normalize_projective(Monomial.from_matrix(mat))
    assert isinstance(out, Monomial)
    assert out == Monomial.from_matrix(_normalize_projective(mat))


def _algebra_spec(algebra):
    """A spec with the trivial component group whose identity-component
    algebra is the span of the given n x n matrices."""
    n = algebra[0].rows
    return GroupSpec(Ambient.single(TensorShape((("L", n),))), None, TRIV,
                     {(): CycMatrix.identity(n)}, algebra_basis=algebra)


@st.composite
def membership_problems(draw):
    """A span of partial monomials, a unit monomial a, a coset
    representative rep and the candidate rep @ a; a is in the span about
    half of the time.  About half of the time rep is not monomial: a unit
    monomial times I + c E_0,n-1, for a root of unity c."""
    n = draw(st.integers(1, 4))
    algebra = draw(st.lists(partial_monomials(n), max_size=3))
    a = draw(partial_monomials(n, full=True))
    if draw(st.booleans()):
        algebra.append(a)
    rep = draw(partial_monomials(n, full=True))
    if n > 1 and draw(st.booleans()):
        rep = rep @ (CycMatrix.identity(n)
                     + CycMatrix.from_entries(n, n, {(0, n - 1): draw(unit_roots())}))
    return algebra or [CycMatrix.identity(n)], a, rep


@settings(max_examples=80, deadline=None)
@given(membership_problems())
def test_membership_of_monomials_matches_dense(problem):
    """GroupSpec.coset_contains gives the dense answer, rep^-1 x in the
    span, for a coset representative that operator() reads as a Monomial
    or keeps dense, and for a candidate x given as a Monomial or dense:
    x = rep @ a, and x = a itself."""
    algebra, a, rep = problem
    n = rep.rows
    span = span_of_matrices(algebra)
    spec = GroupSpec(Ambient.single(TensorShape((("L", n),))), None, Z2,
                     {(0,): CycMatrix.identity(n), (1,): rep}, algebra_basis=algebra)
    assert isinstance(spec.operator((1,)), Monomial) == (Monomial.from_matrix(rep) is not None)
    for candidate in (rep @ a, a):
        expected = span.contains((rep.inverse() @ candidate).flat_cells())
        assert spec.coset_contains((1,), candidate) == expected
        mono = Monomial.from_matrix(candidate)
        if mono is not None:
            assert spec.coset_contains((1,), mono) == expected


@st.composite
def word_coset_problems(draw):
    """A span of partial monomials, a component group Z4 or Z2 x Z2, one
    generator per generating coset, the first of them dense (a unit
    monomial times I + c E_0,n-1, for a root of unity c), and a unit
    monomial a that the span holds about half of the time.  The spec
    need not satisfy its relations: coset_contains must not assume them."""
    n = draw(st.integers(2, 4))
    algebra = draw(st.lists(partial_monomials(n), max_size=3))
    a = draw(partial_monomials(n, full=True))
    if draw(st.booleans()):
        algebra.append(a)
    group = draw(st.sampled_from((FinAbGroup.cyclic(4), FinAbGroup((2, 2)))))
    gens = [draw(partial_monomials(n, full=True)) for _ in group.invariant_factors]
    gens[0] = gens[0] @ (CycMatrix.identity(n)
                         + CycMatrix.from_entries(n, n, {(0, n - 1): draw(unit_roots())}))
    return algebra or [CycMatrix.identity(n)], a, group, gens


@settings(max_examples=60, deadline=None)
@given(word_coset_problems())
def test_membership_on_word_cosets_matches_dense(problem):
    """On every coset, word cosets included, coset_contains gives the dense
    answer op(c)^-1 x in the span, for candidates x = op(c') @ a from every
    coset c', so most of them lie in another coset, given dense and, when
    they are one, as a Monomial.  Each dense generating coset is inverted
    once, and no other coset operator is."""
    algebra, a, group, gens = problem
    n = a.rows
    span = span_of_matrices(algebra)
    spec = GroupSpec(Ambient.single(TensorShape((("L", n),))), None, group,
                     {(0,) * len(gens): CycMatrix.identity(n),
                      **{g.coords: op for g, op in zip(group.generators(), gens)}},
                     algebra_basis=algebra)
    assert not isinstance(spec.operator(spec.generating_cosets()[0]), Monomial)
    dense = {c: as_dense(spec.operator(c)) for c in spec.cosets()}
    inverses = {c: op.inverse() for c, op in dense.items()}
    inverted = []
    real = CycMatrix.inverse

    def counting(self):
        inverted.append(self)
        return real(self)

    CycMatrix.inverse = counting
    try:
        for other in spec.cosets():
            candidate = dense[other] @ a
            mono = Monomial.from_matrix(candidate)
            for c in spec.cosets():
                expected = span.contains((inverses[c] @ candidate).flat_cells())
                assert spec.coset_contains(c, candidate) == expected
                if mono is not None:
                    assert spec.coset_contains(c, mono) == expected
    finally:
        CycMatrix.inverse = real
    generating = [spec.operator(c) for c in spec.generating_cosets()]
    assert len({id(m) for m in inverted}) == len(inverted)
    assert {id(m) for m in inverted} == {
        id(op) for op in generating if not isinstance(op, Monomial)}


PATTERN_CASES = ("member", "wrong_exponent", "partly_covered", "outside",
                 "overlap", "not_root")


@st.composite
def root_pattern_problems(draw):
    """A unit Monomial m, a basis of root-of-unity matrices built around it
    and the case it was built for.  m's cells are split into groups, each
    group one basis matrix that differs from m by one root of unity, and
    more basis matrices sit on positions off m's support.  Then m is a
    member, or one cell of a group of two gets a wrong exponent, or a
    group's matrix gets one more cell (partly covered by m), or one cell of
    m leaves every support; or the basis stops being a pattern, by a
    matrix overlapping another or a cell that is not a root of unity."""
    n = draw(st.integers(1, 5))
    case = draw(st.sampled_from(PATTERN_CASES))
    order = draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
    perm = draw(st.permutations(range(n)))
    exps = [draw(st.integers(0, order - 1)) for _ in range(n)]
    labels = [draw(st.integers(0, n - 1)) for _ in range(n)]
    if case == "wrong_exponent" and n > 1:
        labels[1] = labels[0]
    shifts = [draw(st.integers(0, order - 1)) for _ in range(n)]
    groups: dict[int, dict] = {}
    for j in range(n):
        cell = CycNum.root_of_unity(order, exps[j] - shifts[labels[j]])
        groups.setdefault(labels[j], {})[(perm[j], j)] = cell
    free = draw(st.permutations([(i, j) for i in range(n) for j in range(n)
                                 if perm[j] != i]))
    if case == "partly_covered" and free:
        groups[labels[0]][free.pop()] = draw(unit_roots())
    if case == "outside":
        del groups[labels[0]][(perm[0], 0)]
    basis = [CycMatrix.from_entries(n, n, cells) for cells in groups.values()]
    while free:
        size = draw(st.integers(1, len(free)))
        basis.append(CycMatrix.from_entries(
            n, n, {free.pop(): draw(unit_roots()) for _ in range(size)}))
    if case == "overlap":
        basis.append(CycMatrix.from_entries(n, n, {(perm[0], 0): draw(unit_roots())}))
    if case == "not_root":
        basis.append(CycMatrix.from_entries(n, n, {(perm[-1], n - 1): 2}))
    basis = draw(st.permutations(basis))
    mono = Monomial.from_exponents(perm, order, exps)
    if case == "wrong_exponent":
        # half a step off in column 0 only
        mono = Monomial.from_exponents(perm, 2 * order,
                                       [2 * e + (j == 0) for j, e in enumerate(exps)])
    return basis, mono, case


@settings(max_examples=150, deadline=None)
@given(root_pattern_problems())
def test_root_pattern_membership_matches_span(problem):
    """Algebra.contains, on a root-of-unity pattern basis an integer test
    of a unit Monomial, gives VectorSpan.contains's answer; a basis that is
    not such a pattern, or that holds a zero matrix (the "outside" case
    can empty a group), gives no pattern, and the algebra falls back to
    the span."""
    basis, mono, case = problem
    n = mono.n
    expected = span_of_matrices(basis).contains(mono.to_matrix().flat_cells())
    if n > 1:
        assert expected == (case in ("member", "overlap", "not_root"))
    algebra = Algebra(n, basis)
    assert algebra.contains(mono) == expected
    if case in ("overlap", "not_root") or any(not m.cells for m in basis):
        assert algebra.pattern is None
    else:
        assert algebra.pattern is not None
        # decided on exponents: the span was never built
        assert "span" not in vars(algebra)
    spec = _algebra_spec(basis)
    assert spec.algebra().contains(mono) == expected
    assert spec.algebra().pattern == algebra.pattern


def test_witness_search_undecided_is_typed():
    """The 21 matrices E_ij - E_ji (i < j) in 7 x 7: every element is
    singular (odd skew-symmetric), so sampling fails, and the grid of
    8^21 points exceeds the search bound."""
    basis = [CycMatrix.from_entries(7, 7, {(i, j): ONE, (j, i): -ONE})
             for i in range(7) for j in range(i + 1, 7)]
    with pytest.raises(WitnessSearchUndecided):
        _invertible_in_span(basis, 7)


def test_centralizer_decided_by_dimension():
    """The centralizer of diag(1, 1, 1, -1, -1, -1, i, -i) in PGL(8).  The
    twist by i maps the 3-dimensional eigenspace of 1 into the
    1-dimensional one of i, so its solution space has dimension 12, not
    the untwisted 20, and holds no invertible element.  Scaling by -1
    swaps the eigenvalues 1 and -1, and i and -i: 2 components over
    GL(3) x GL(3) x GL(1) x GL(1), of dimension 20."""
    n = 8
    d = Monomial.from_exponents(list(range(n)), 4, [0, 0, 0, 2, 2, 2, 1, 3])
    ambient = Ambient.single(TensorShape((("A", n),)))
    target = GroupSpec(ambient, scalar_blocks(n), FinAbGroup((4,)),
                       {(k,): d ** k for k in range(4)})
    z = compute_centralizer(target)
    assert z.component_count() == 2
    assert z.identity_component_dim() == 20


def cycle_spec(n, cycle):
    """The group generated by the permutation matrix of one cycle on
    range(n), over the scalars."""
    perm = list(range(n))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        perm[a] = b
    ambient = Ambient.single(TensorShape((("A", n),)))
    return GroupSpec(ambient, scalar_blocks(n), FinAbGroup.cyclic(len(cycle)),
                     {(0,): Monomial.identity(n), (1,): Monomial.from_exponents(perm, 1, [0] * n)})


@pytest.mark.parametrize("n, cycle, dim", [(6, (0, 1, 2), 18), (8, (0, 1, 2, 3), 28),
                                           (4, (0, 1), 10)],
                         ids=["3-cycle-in-PGL6", "4-cycle-in-PGL8", "swap-in-PGL4"])
def test_permutation_centralizers_are_decided_by_dimension(monkeypatch, n, cycle, dim):
    """A k-cycle in PGL(n) has the eigenvalue 1 with multiplicity n - k + 1
    and every other k-th root of unity once, so its centralizer is
    GL(n - k + 1) x GL(1)^(k - 1), one component, and every nonzero twist
    has a solution space of smaller dimension than the untwisted one.
    Each such tuple dies with no witness search.  A search would need
    them: the samples find no invertible element there, and the grids of
    the 3-cycle (7^9 points) and the 4-cycle (9^12) are over the bound.
    The triple centralizer is the centralizer again."""
    searches = _counting(monkeypatch, verify, "_invertible_in_span")
    z = compute_centralizer(cycle_spec(n, cycle))
    assert (z.component_count(), z.identity_component_dim()) == (1, dim)
    assert searches == []
    z3 = compute_centralizer(compute_centralizer(z))
    assert specs_equal(z3, z) and specs_equal(z, z3)


@pytest.mark.parametrize("b,e,J,K", [(1, 8, Z2, TRIV), (8, 1, TRIV, Z2),
                                     (1, 12, Z2, TRIV), (12, 1, TRIV, Z2)],
                         ids=["1-8-1-Z2-1", "8-1-1-1-Z2", "1-12-1-Z2-1", "12-1-1-1-Z2"])
def test_wide_witness_spans_take_random_samples(b, e, J, K):
    """These rows need a witness in a span of dim 128 or 288 whose unit and
    fixed sample vectors are all singular; with no pseudo-random sample
    beyond them the search was left undecided."""
    g, h = single_orbit_pair(SingleOrbitIngredients(b, e, TRIV, J, K))
    report = verify_dual_pair(g, h)
    assert report.is_dual_pair, report.failure_codes()


def _span_sum(basis, coeffs, n):
    acc = CycMatrix.from_entries(n, n, {})
    for x, c in zip(basis, coeffs):
        acc = acc + x.scale(c)
    return acc


@st.composite
def witness_problems(draw):
    """A span of at most 3 elements in M_n, n <= 3.

    Either integer matrices on a shared support: all cells, all but a
    zero row (about half of the time), or a drawn set of cells, which
    often has no perfect matching, so the grid must say "no"; or integer
    combinations inside the twisted commutant {X : X h = c h X} of a unit
    monomial h."""
    n = draw(st.integers(1, 3))
    size = draw(st.integers(1, 3))
    if draw(st.booleans()):
        cells = [(i, j) for i in range(n) for j in range(n)]
        if draw(st.booleans()):
            support = draw(st.sets(st.sampled_from(cells), min_size=1))
        else:
            zero_row = draw(st.sampled_from([None] + list(range(n))))
            support = {(i, j) for i, j in cells if i != zero_row}
        basis = [CycMatrix.from_entries(n, n, {
            cell: draw(st.integers(-1, 2)) for cell in sorted(support)}) for _ in range(size)]
        return n, basis
    units = [_unit(n, i, j) for i in range(n) for j in range(n)]
    h = draw(partial_monomials(n, full=True))
    d, k = draw(root_tuples())
    space = _apply_twist_constraint(units, h, CycNum.root_of_unity(d, k))
    coeffs = st.lists(st.integers(-1, 2), min_size=len(space), max_size=len(space))
    basis = [_span_sum(space, draw(coeffs), n) for _ in range(size)]
    return n, basis


@settings(max_examples=120, deadline=None)
@given(witness_problems())
def test_witness_search_says_no_only_when_the_grid_has_no_witness(problem):
    """A witness lies in the span and has full rank; None comes back only
    when no point of the grid {0..n}^dim combines to a full-rank matrix,
    which by the degree bound means the span has no invertible element."""
    n, basis = problem
    witness = _invertible_in_span(basis, n)
    if witness is not None:
        witness = as_dense(witness)
        assert span_of_matrices(basis).contains(witness.flat_cells())
        assert witness.rank() == n
    else:
        for coeffs in itertools.product(range(n + 1), repeat=len(basis)):
            assert _span_sum(basis, coeffs, n).rank() < n, coeffs


@st.composite
def overlapping_bases(draw):
    """A list basis of at most 4 matrices in M_n, n <= 4, on drawn and
    overlapping supports, with cells 1, -1, 2 or a root of unity, and
    coefficient vectors with entries in -2..3, so that some sums cancel a
    cell."""
    n = draw(st.integers(1, 4))
    cells = [(i, j) for i in range(n) for j in range(n)]
    values = st.one_of(st.sampled_from([ONE, -ONE, CycNum.from_rational(2)]), unit_roots())
    basis = [CycMatrix.from_entries(n, n, {cell: draw(values) for cell in draw(
        st.sets(st.sampled_from(cells), min_size=1))}) for _ in range(draw(st.integers(1, 4)))]
    coeffs = st.lists(st.integers(-2, 3), min_size=len(basis), max_size=len(basis))
    return n, basis, draw(st.lists(coeffs, min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(overlapping_bases())
@example((2, [CycMatrix([[1, 0], [0, 1]]), CycMatrix([[-1, 1], [1, 0]])], [[1, 1], [2, 1], [0, 1]]))
def test_the_witness_builder_sums_each_covered_candidate(problem):
    """_combiner turns down exactly the candidates whose matrices leave a
    row or a column empty, each of which is singular, and builds each
    other one as the plain sum of c * x, cancelled cells included."""
    n, basis, samples = problem
    combine = verify._combiner(basis, n)
    for coeffs in samples:
        plain = _span_sum(basis, coeffs, n)
        used = [x for x, c in zip(basis, coeffs) if c]
        covered = ({i for x in used for i, _ in x.cells} == set(range(n))
                   and {j for x in used for _, j in x.cells} == set(range(n)))
        cand = combine(coeffs)
        assert (cand is None) == (not covered)
        if cand is None:
            assert plain.rank() < n
        else:
            assert cand == plain


def _plain_witness(basis, n):
    """The witness search with every candidate a dense sum: the first
    sample, then the first point of the grid {0..n}^dim, whose sum is
    invertible."""
    mats, dim = basis.matrices(), len(basis)
    grid = itertools.product(range(n + 1), repeat=dim)
    for coeffs in itertools.chain(verify._sample_vectors(dim, n), grid):
        cand = _span_sum(mats, coeffs, n)
        if _det_nonzero(cand):
            return Monomial.from_matrix(cand) or cand
    return None


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(pattern_algebras))
def test_the_witness_search_on_a_pattern_takes_the_plain_witness(algebra):
    """On a PatternBasis the search tries the samples, then the grid, in
    the same order as a search that sums every candidate densely, and
    returns the same witness; so does the search on its matrices.  With
    n <= 3 and at most 5 elements every grid is within the bound."""
    pattern, n = algebra.pattern, algebra.n
    want = _plain_witness(pattern, n)
    assert _invertible_in_span(pattern, n) == want
    assert _invertible_in_span(pattern.matrices(), n) == want


# -- centralizers ---------------------------------------------------------------


def _unit(n, i, j):
    return CycMatrix.from_entries(n, n, {(i, j): ONE})


def _block_units(sizes):
    """The matrix units of a direct sum of full matrix algebras."""
    n, start, basis = sum(sizes), 0, []
    for d in sizes:
        basis += [_unit(n, start + i, start + j) for i in range(d) for j in range(d)]
        start += d
    return basis


_NOT_SEMISIMPLE = {
    "I and E01": [CycMatrix.identity(2), _unit(2, 0, 1)],
    "E00 and E01": [_unit(2, 0, 0), _unit(2, 0, 1)],
}


@pytest.mark.parametrize("name", sorted(_NOT_SEMISIMPLE))
def test_check_semisimple_rejects_degenerate_trace_form(name):
    """Both spans carry the nilpotent E01, which pairs to zero with the
    whole span under tr(a b), so the Gram matrix is singular."""
    assert not Algebra(2, _NOT_SEMISIMPLE[name]).is_semisimple()


@pytest.mark.parametrize("sizes", [(1,), (2,), (1, 1, 1), (2, 1), (1, 2, 1)])
def test_check_semisimple_accepts_block_units_and_their_conjugates(sizes):
    basis = _block_units(sizes)
    n = sum(sizes)
    assert Algebra(n, basis).is_semisimple()
    z3 = CycNum.root_of_unity(3)
    p = CycMatrix([[(i + 2) ** j + (z3 if i == j else 0) for j in range(n)]
                   for i in range(n)])
    p_inv = p.inverse()
    assert Algebra(n, [p @ x @ p_inv for x in basis]).is_semisimple()


@st.composite
def trace_form_problems(draw):
    """n and a root-of-unity pattern basis of n x n matrices, its supports
    built from transpose orbits of positions: a support closed under
    transpose, or two supports, each the other's mirror.  Sometimes a
    mirror pair of m >= 2 orbits gets roots 1 on one side and the m-th
    roots of unity on the other, so its partner sum is their sum, 0.
    Sometimes one more support on a free position, or one cell moved to a
    free position, can break the closure under transpose."""
    n = draw(st.integers(1, 4))
    orbits = draw(st.permutations(
        [[(i, j)] if i == j else [(i, j), (j, i)] for i in range(n) for j in range(i, n)]))
    taken = draw(st.integers(1, len(orbits)))
    used, free = orbits[:taken], [c for orbit in orbits[taken:] for c in orbit]
    supports = []
    while used:
        size = draw(st.integers(1, len(used)))
        group, used = used[:size], used[size:]
        if all(len(orbit) == 2 for orbit in group) and draw(st.booleans()):
            sides = [orbit if draw(st.booleans()) else orbit[::-1] for orbit in group]
            if len(sides) > 1 and draw(st.booleans()):
                m = len(sides)
                a = {c: ONE for c, _ in sides}
                b = {c: CycNum.root_of_unity(m, t) for t, (_, c) in enumerate(sides)}
            else:
                a = {c: draw(unit_roots()) for c, _ in sides}
                b = {c: draw(unit_roots()) for _, c in sides}
            supports += [a, b]
        else:
            supports.append({c: draw(unit_roots()) for orbit in group for c in orbit})
    free = draw(st.permutations(free))
    if free and draw(st.booleans()):
        supports.append({free.pop(): draw(unit_roots())})
    big = [s for s in supports if len(s) > 1]
    if free and big and draw(st.booleans()):
        support = big[0]
        support[free.pop()] = support.pop(next(iter(support)))
    basis = [CycMatrix.from_entries(n, n, support) for support in supports]
    return n, draw(st.permutations(basis))


@settings(max_examples=200, deadline=None)
@given(trace_form_problems())
@example((3, [CycMatrix.diagonal([1, CycNum.root_of_unity(3), CycNum.root_of_unity(3, 2)])]))
@example((2, [CycMatrix.identity(2), _unit(2, 0, 1)]))
def test_partner_sums_match_gram_rank(problem):
    """On a pattern basis whose supports are closed under transpose, the
    partner sums decide the trace form as the Gram rank does, including
    vanishing sums such as that of diag(1, z3, z3^2); on any other pattern
    they decide nothing and Algebra.is_semisimple takes the Gram rank."""
    n, basis = problem
    algebra = Algebra(n, basis)
    pattern = algebra.pattern
    assert pattern is not None
    supports = {frozenset(m.cells) for m in basis}
    closed = all(frozenset((j, i) for i, j in m.cells) in supports for m in basis)
    semisimple = _gram_nondegenerate(basis)
    decided = _partner_sums_nonzero(pattern)
    assert decided == (semisimple if closed else None)
    assert algebra.is_semisimple() == semisimple


@settings(max_examples=100, deadline=None)
@given(root_pattern_problems())
def test_identity_component_dim_matches_span(problem):
    """Algebra.dim of a raw basis, a root pattern or not, is the dimension
    of its span, and so is the spec's identity_component_dim."""
    basis, _, _ = problem
    spec = _algebra_spec(basis)
    expected = span_of_matrices(basis).dim
    assert Algebra(basis[0].rows, basis).dim == expected
    assert spec.identity_component_dim() == expected


def test_block_algebras_match_their_matrix_units_as_a_raw_basis():
    """For both sides of every row with n <= 6, the block spec's algebra,
    whose pattern is read off its grids, and an algebra given the same
    matrix units as a raw basis, whose pattern is scanned off them, agree
    on dim (the sum of d^2), hold each other and have nondegenerate trace
    forms."""
    sides = 0
    for n in range(1, 7):
        for row in enumerate_multi_orbit(n, min(4, n)):
            for spec in row.build():
                blocks = spec.algebra()
                raw = Algebra(spec.ambient.dim, blocks.basis)
                assert raw.pattern is not None
                assert blocks.dim == raw.dim == sum(b.dim * b.dim for b in spec.blocks)
                assert blocks.contains_algebra(raw) and raw.contains_algebra(blocks)
                assert blocks == raw
                assert blocks.is_semisimple() and raw.is_semisimple()
                sides += 1
    assert sides > 100


def test_zero_matrix_keeps_a_raw_basis_on_the_span_path():
    """A raw basis [I, 0] is no root pattern, so its algebra keeps
    dimension 1 (its basis length is 2) and compares it through the span:
    it lies in the scalars, a torus and GL(2), and holds only the
    scalars."""
    spec = _algebra_spec([CycMatrix.identity(2), CycMatrix.zeros(2, 2)])
    assert spec.algebra().pattern is None
    assert spec.identity_component_dim() == 1
    scalars = _algebra_spec([CycMatrix.identity(2)])
    torus = _algebra_spec([_unit(2, 0, 0), _unit(2, 1, 1)])
    gl2 = connected_pair([(2, 1)])[0]
    for other in (scalars, torus, gl2):
        assert spec_contains(other, spec)
        assert spec_contains(spec, other) == (other is scalars)
        assert specs_equal(spec, other) == (other is scalars)


def test_specs_equal_when_two_labels_name_one_coset():
    """a = <I> declared as Z2 over the scalars of PGL(2) holds one coset
    under both labels; b = <diag(1, -1)> holds two.  a lies in b and both
    count two components, but b does not lie in a, so specs_equal says no
    in both orders, and a, whose placed cosets do not generate Z2, equals
    itself by the reverse scan."""
    ambient = Ambient.single(TensorShape((("A", 2),)))
    a = GroupSpec(ambient, scalar_blocks(2), Z2,
                  {(0,): Monomial.identity(2), (1,): Monomial.identity(2)})
    b = GroupSpec(ambient, scalar_blocks(2), Z2,
                  {(0,): Monomial.identity(2), (1,): Monomial.from_exponents([0, 1], 2, [0, 1])})
    assert spec_contains(b, a) and not spec_contains(a, b)
    assert a.component_count() == b.component_count()
    assert not specs_equal(a, b)
    assert not specs_equal(b, a)
    assert specs_equal(a, a) and specs_equal(b, b)


def test_pattern_specs_take_no_elimination_in_verify(monkeypatch):
    """Every row with n <= 6 verifies with its identity components decided
    on root patterns.  Every computed centralizer's basis is one, and no
    span inclusion (VectorSpan.contains_span), no Algebra.span read for
    Algebra.contains_algebra or for the computed algebras' dim, and no
    Gram rank (_gram_nondegenerate) is taken.  A dense coset operator is
    still tested through the span, by Algebra.contains.  The counters are
    shown to fire on a basis that is not a pattern."""
    inclusions = _counting(monkeypatch, VectorSpan, "contains_span")
    callers = []
    real_span = Algebra.span

    def span(self):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_span.__get__(self, Algebra)

    monkeypatch.setattr(Algebra, "span", property(span))

    def rank(self, real=CycMatrix.rank):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(self)

    monkeypatch.setattr(CycMatrix, "rank", rank)
    patterns = []
    real_centralizer = verify.compute_centralizer

    def centralizer(target):
        spec = real_centralizer(target)
        patterns.append(spec.algebra().pattern is not None)
        # a failing comparison would report this dimension
        spec.identity_component_dim()
        return spec

    monkeypatch.setattr(verify, "compute_centralizer", centralizer)
    fallbacks = {"contains_algebra", "dim", "_gram_nondegenerate"}
    rows = 0
    for n in range(1, 7):
        for row in enumerate_multi_orbit(n, min(4, n)):
            report = verify_dual_pair(*row.build())
            assert report.is_dual_pair
            rows += 1
    assert len(patterns) == 2 * rows and all(patterns)
    assert not inclusions
    assert not fallbacks & set(callers)

    p = CycMatrix([[1, 1], [0, 1]])
    dense = [p @ x @ p.inverse() for x in _block_units((1, 1))]
    assert _algebra_spec(dense).algebra().is_semisimple()
    _algebra_spec(dense).identity_component_dim()
    spec = _algebra_spec(dense)
    assert spec_contains(spec, spec)
    assert inclusions and fallbacks <= set(callers)


def test_centralizer_of_gl_block():
    g, h = connected_pair([(2, 2)])
    z = projective_centralizer(g)
    assert z.component_count() == 1
    assert z.algebra().span.equals(h.algebra().span)
    assert specs_equal(z, h)
    assert specs_equal(projective_centralizer(h), g)


def test_centralizer_of_heisenberg_is_itself():
    g, h = xx_hat_pair(Z2)
    z = projective_centralizer(g)
    assert specs_equal(z, g)
    g3, _ = xx_hat_pair(Z3)
    assert specs_equal(projective_centralizer(g3), g3)


def test_centralizer_of_swap_is_positive_dimensional():
    """A lone involution image has a rank-two torus as centralizer identity
    component (the span of I and the involution), with two components."""
    spec = swap_spec()
    z = projective_centralizer(spec)
    assert z.identity_component_dim() == 2
    assert z.component_count() == 2
    expected = span_of_matrices([CycMatrix.identity(2), CycMatrix([[0, 1], [1, 0]])])
    assert z.algebra().span.equals(expected)
    # the swap image and its centralizer form a dual pair: Z(Z(S)) = S
    z2 = projective_centralizer(z)
    assert specs_equal(z2, spec)


def test_computed_centralizers_store_unit_monomial_witnesses():
    """Over the criterion-7 battery and both sides of xx_hat_pair(Z4), a
    computed centralizer keeps each unit-monomial witness product of a
    generating coset as a Monomial and every other one dense.  Each
    generator has 1 as its first nonzero entry, the spec passes
    validate(), its centralizer is built from those Monomials,
    and Z(Z(Z(S))) = Z(S)."""
    specs = [spec for _, spec in _battery()] + list(xx_hat_pair(FinAbGroup.cyclic(4)))
    monomials = dense = 0
    for spec in specs:
        z1 = projective_centralizer(spec)
        z1.validate()
        for coords in z1.generating_cosets():
            op = z1.operator(coords)
            mat = as_dense(op)
            assert mat.cells[mat.first_nonzero()].is_one()
            if isinstance(op, Monomial):
                monomials += 1
                assert z1.operator(coords) is op
            else:
                dense += 1
                assert Monomial.from_matrix(mat) is None
        z3 = projective_centralizer(projective_centralizer(z1))
        assert specs_equal(z1, z3)
    # 26 generating cosets; those of Z(type2ii_h) and Z(perm6) are dense
    assert (monomials, dense) == (24, 2)


def test_triple_centralizer_idempotence_small():
    specs = [
        swap_spec(),
        connected_pair([(2, 3)])[0],
        xx_hat_pair(Z2)[0],
        single_orbit_pair(SingleOrbitIngredients(1, 1, TRIV, Z2, TRIV))[0],
    ]
    for spec in specs:
        z1 = projective_centralizer(spec)
        z3 = projective_centralizer(projective_centralizer(z1))
        assert specs_equal(z1, z3)


def test_untwisted_commutant_basis():
    g, h = connected_pair([(3, 2)])
    basis = CommutantEngine.from_spec(g).solve([])
    assert span_of_matrices(basis).equals(h.algebra().span)


# -- verification reports --------------------------------------------------------


def test_verify_good_pairs():
    for builder in [
        lambda: connected_pair([(2, 2)]),
        lambda: connected_pair([(1, 1), (1, 1)]),
        lambda: xx_hat_pair(Z2),
        lambda: single_orbit_pair(SingleOrbitIngredients(1, 1, TRIV, Z2, TRIV)),
    ]:
        g, h = builder()
        report = verify_dual_pair(g, h)
        assert report.is_dual_pair, report.failure_codes()
        assert report.failures == []
        assert report.pairing is not None
        assert report.pairing.is_nondegenerate()


def test_verify_negative_control():
    spec = swap_spec()
    report = verify_dual_pair(spec, spec)
    assert not report.is_dual_pair
    assert "CENTRALIZER_LARGER" in report.failure_codes()


def test_verify_detects_missing_generator():
    """Dropping the character generators leaves a subgroup whose centralizer
    is strictly larger."""
    g, h = xx_hat_pair(Z2)
    tau = translation_monomial(Z2, Z2.element((1,))).to_matrix()
    crippled = GroupSpec(
        g.ambient,
        g.blocks,
        Z2,
        {(0,): CycMatrix.identity(2), (1,): tau},
    )
    report = verify_dual_pair(crippled, h)
    assert not report.is_dual_pair
    assert "CENTRALIZER_LARGER" in report.failure_codes()


def test_verify_detects_wrong_side():
    g1, h1 = connected_pair([(2, 2)])
    g2, h2 = connected_pair([(4, 1)])
    report = verify_dual_pair(g2, h1)
    assert not report.is_dual_pair


def test_verify_shape_mismatch():
    g1, _ = connected_pair([(2, 2)])
    g2, _ = connected_pair([(2, 1)])
    with pytest.raises(ShapeMismatch):
        verify_dual_pair(g1, g2)


# -- pairing tables ---------------------------------------------------------------


def test_pairing_table_trivial():
    g, h = connected_pair([(2, 2)])
    table = pairing_table(g, h)
    assert table.values == (((1, 0),),)
    assert table.is_nondegenerate()


def test_pairing_table_klein():
    g, h = xx_hat_pair(Z2)
    table = pairing_table(g, h)
    assert len(table.values) == 4
    assert table.is_nondegenerate()
    assert bicharacter_oracle(table.gamma, table.delta, table.values)
    flat = [v for row in table.values for v in row]
    assert flat.count((1, 0)) == 10 and flat.count((2, 1)) == 6


def test_is_bicharacter_rejects_an_altered_entry():
    """The bicharacter oracle of the tests turns down a table with one
    entry changed, and reads an unreduced entry as its root of unity."""
    g, h = xx_hat_pair(FinAbGroup.cyclic(4))
    table = pairing_table(g, h)
    assert bicharacter_oracle(table.gamma, table.delta, table.values)
    values = [list(row) for row in table.values]
    order, expo = values[1][2]
    values[1][2] = (4, (expo * 4 // order + 1) % 4)
    assert not bicharacter_oracle(table.gamma, table.delta, values)
    # an unreduced (order, exponent) names the same root of unity
    values[1][2] = (2 * order, 2 * expo)
    assert bicharacter_oracle(table.gamma, table.delta, values)


def test_pairing_table_single_orbit_j():
    g, h = single_orbit_pair(SingleOrbitIngredients(1, 1, TRIV, Z2, TRIV))
    table = pairing_table(g, h)
    assert table.values == (((1, 0), (1, 0)), ((1, 0), (2, 1)))


def test_failing_pairs_report_the_full_table():
    """A pair that fails a comparison reports its full table, one
    commutator per coset pair on the constructions' per-coset formulas."""
    g, h = xx_hat_pair(Z2)
    tau = translation_monomial(Z2, Z2.element((1,))).to_matrix()
    crippled = GroupSpec(g.ambient, g.blocks, Z2, {(0,): CycMatrix.identity(2), (1,): tau})
    report = verify_dual_pair(crippled, h)
    assert not report.is_dual_pair
    _, h_op = builder_formulas(single_row(SingleOrbitIngredients(1, 1, Z2, TRIV, TRIV)))
    crippled_op = {(0,): CycMatrix.identity(2), (1,): tau}.get
    assert report.pairing.values == full_pairing_table(crippled, h, crippled_op, h_op)


def test_pairing_table_rejects_noncommuting():
    spec = swap_spec()
    other = GroupSpec(
        spec.ambient,
        scalar_blocks(2),
        Z2,
        {(0,): CycMatrix.identity(2), (1,): CycMatrix.diagonal([1, 2])},
    )
    with pytest.raises(NotProjectivelyCommuting):
        pairing_table(spec, other)


def test_centralizer_component_tuples_form_group():
    """The surviving scalar tuples of Z(h) for the Heisenberg pair of Z2
    form the component group: four components, and a coset table that
    passes the group checks of validate()."""
    g, h = xx_hat_pair(Z2)
    z = compute_centralizer(h)
    assert z.component_count() == 4
    z.validate()


def _tuple_moduli(target):
    """The order of each generator's scalar, as compute_centralizer takes
    it: the projective order modulo the identity component, gcd'd with n."""
    n = target.ambient.dim
    return [math.gcd(projective_order(target.operator(c), target, d), n)
            for c, d in zip(target.generating_cosets(),
                            target.component_group.invariant_factors)]


def _all_tuples_centralizer(target):
    """compute_centralizer without the closure: solve every scalar tuple,
    and witness each one whose solution space has the untwisted dimension
    (the criterion itself is tested on its own, against the search).
    Returns the spec, the moduli and each surviving tuple's canonical
    coordinates."""
    engine = CommutantEngine.from_spec(target)
    moduli = _tuple_moduli(target)
    identity_basis = engine.solve([(1, 0)] * len(moduli))
    surviving = {}
    for t in itertools.product(*(range(m) for m in moduli)):
        scalars = list(zip(moduli, t))
        basis = engine.solve(scalars)
        if len(basis) == len(identity_basis):
            w = engine.witness(basis, scalars)
            assert w is not None
            surviving[t] = w
    group, to_canonical = subgroup_from_elements(moduli, list(surviving))
    assert group.order == len(surviving)
    spec = GroupSpec(target.ambient, None, group,
                     {to_canonical(t): _normalize_projective(w) for t, w in surviving.items()},
                     algebra_basis=identity_basis)
    return spec, moduli, {t: to_canonical(t) for t in surviving}


def _check_closure_against_oracle(target):
    """The closure centralizer equals the all-tuples one, survives on the
    same tuples, and each of its coset generators has one of them as its
    scalar tuple and lies in the oracle's coset of that tuple."""
    z = compute_centralizer(target)
    oracle, moduli, coords = _all_tuples_centralizer(target)
    assert specs_equal(z, oracle) and specs_equal(oracle, z)
    gens = [target.operator(c) for c in target.generating_cosets()]
    tuples = set()
    for c in z.cosets():
        w = z.operator(c)
        t = []
        for h, m in zip(gens, moduli):
            d, k = commutator_scalar(w, h)
            assert m % d == 0
            t.append(k * (m // d))
        t = tuple(t)
        assert t in coords
        assert oracle.coset_contains(coords[t], w)
        tuples.add(t)
    assert tuples == set(coords)


def test_closure_matches_all_tuples_oracle_on_the_battery():
    """On the criterion-7 battery and on each spec's computed centralizer
    (whose generators include dense witnesses, so derived cosets hold
    dense products), the closure gives the all-tuples centralizer.  So it
    does for diag(1, 1, -1, -1, z, z^4) in PGL(6), z = zeta_6: its
    projective order is 6, and the centralizer twists it by -1 but not by
    z or z^2 (the eigenspaces of 1 and z differ in dimension, and z^2 is
    no eigenvalue), so the tuples 1 and 2 fail while their multiple 3
    survives."""
    diag = Monomial(range(6), [CycNum.root_of_unity(6, k) for k in (0, 0, 3, 3, 1, 4)])
    uneven = GroupSpec(Ambient.single(TensorShape((("A", 6),))), scalar_blocks(6),
                       FinAbGroup.cyclic(6), {(k,): diag ** k for k in range(6)})
    assert compute_centralizer(uneven).component_count() == 2
    for spec in [spec for _, spec in _battery()] + [uneven]:
        _check_closure_against_oracle(spec)
        _check_closure_against_oracle(projective_centralizer(spec))


def _subgroup_spec(spec, picks):
    """The subgroup of a spec generated by its identity component and the
    cosets at picks, each coset keeping spec's generator."""
    factors = spec.component_group.invariant_factors
    elements = {tuple(0 for _ in factors)}
    frontier = list(elements)
    while frontier:
        a = frontier.pop()
        for p in picks:
            b = tuple((x + y) % d for x, y, d in zip(a, p, factors))
            if b not in elements:
                elements.add(b)
                frontier.append(b)
    group, to_canonical = subgroup_from_elements(list(factors), list(elements))
    return GroupSpec(spec.ambient, spec.blocks, group,
                     {to_canonical(e): spec.operator(e) for e in elements})


_HEISENBERG = [FinAbGroup.cyclic(2), FinAbGroup.cyclic(3), FinAbGroup.cyclic(4),
               FinAbGroup((2, 2)), FinAbGroup.cyclic(5), FinAbGroup.cyclic(6)]


def _heisenberg_subgroup(data):
    """A random subgroup of a translation-character group, generated by
    its identity component and at most three drawn cosets."""
    g, _ = xx_hat_pair(data.draw(st.sampled_from(_HEISENBERG)))
    factors = g.component_group.invariant_factors
    picks = data.draw(st.lists(st.tuples(*(st.integers(0, d - 1) for d in factors)),
                               max_size=3))
    return _subgroup_spec(g, picks)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_closure_matches_all_tuples_oracle_on_heisenberg_subgroups(data):
    """On random subgroups of the translation-character groups, where the
    surviving tuples form proper, nontrivial subgroups, the closure gives
    the all-tuples centralizer."""
    _check_closure_against_oracle(_heisenberg_subgroup(data))


def monomial_generators(max_n):
    """One or two random n x n monomials, 2 <= n <= max_n, each as its
    permutation and the exponents of i on its entries."""
    return st.integers(2, max_n).flatmap(lambda n: st.lists(
        st.tuples(st.permutations(range(n)), st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        min_size=1, max_size=2))


def _monomial_group(gens):
    """The group generated by monomials with entries in the fourth roots
    of unity, over the scalars, or None when it is scalar."""
    monos = [Monomial(perm, [CycNum.root_of_unity(4, k) for k in exps]) for perm, exps in gens]
    n = monos[0].n
    ambient = Ambient.single(TensorShape((("A", n),)))
    scalars = GroupSpec(ambient, scalar_blocks(n), TRIV, {(): Monomial.identity(n)})
    # m^k is diagonal for k the order of m's permutation, so m^(4k) = I
    d = math.lcm(*(projective_order(m, scalars, 4 * math.factorial(n)) for m in monos))
    if d == 1:
        return None
    group = FinAbGroup((d,) * len(monos))
    table = {}
    for coords in itertools.product(range(d), repeat=len(monos)):
        op = Monomial.identity(n)
        for m, k in zip(monos, coords):
            op = op @ m ** k
        table[coords] = op
    return GroupSpec(ambient, scalar_blocks(n), group, table)


@settings(max_examples=40, deadline=None)
@given(monomial_generators(6))
def test_closure_matches_all_tuples_oracle_on_random_monomials(gens):
    """On the group generated by one or two random monomials with entries
    in the fourth roots of unity, where many tuples fail and some survive
    only as multiples of failed ones, the closure gives the all-tuples
    centralizer."""
    target = _monomial_group(gens)
    if target is None:
        return
    try:
        _check_closure_against_oracle(target)
    except WitnessSearchUndecided:
        # a witness search that sampling leaves to an impractical grid
        # says nothing about the closure
        reject()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dimension_decides_every_scalar_tuple(data):
    """On random monomial groups (n <= 4) and random subgroups of the
    translation-character groups, every scalar tuple's solution space has
    the untwisted dimension exactly when the witness search, samples and
    then the exhaustive grid, finds an invertible element in it; and
    compute_centralizer keeps a component for each such tuple."""
    if data.draw(st.booleans()):
        target = _monomial_group(data.draw(monomial_generators(4)))
        if target is None:
            reject()
    else:
        target = _heisenberg_subgroup(data)
    n = target.ambient.dim
    engine = CommutantEngine.from_spec(target)
    moduli = _tuple_moduli(target)
    untwisted = len(engine.solve([(1, 0)] * len(moduli)))
    found = 0
    for t in itertools.product(*(range(m) for m in moduli)):
        basis = engine.solve(list(zip(moduli, t)))
        try:
            witness = _invertible_in_span(basis, n) if basis else None
        except WitnessSearchUndecided:
            reject()
        assert (len(basis) == untwisted) == (witness is not None), t
        found += witness is not None
    assert compute_centralizer(target).component_count() == found


def _counting(monkeypatch, owner, name):
    """Count the calls of owner.name, and of every projpair module's
    binding of the same function."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("projpair.") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_z12_pair_verifies_on_generators(monkeypatch):
    """The Z12 translation-character pair has 144 components a side.  The
    closure solves a handful of tuples (288 without it), and the pairing
    table takes commutators on the generating cosets only (20,736 over
    all coset pairs)."""
    g, h = xx_hat_pair(FinAbGroup.cyclic(12))
    solves = _counting(monkeypatch, CommutantEngine, "solve")
    commutators = _counting(monkeypatch, sys.modules["projpair.matrep"], "commutator_scalar")
    report = verify_dual_pair(g, h)
    assert report.is_dual_pair
    assert len(solves) <= 10
    assert len(commutators) <= 300


def test_centralizer_labels_components_from_its_solved_survivors(monkeypatch):
    """compute_centralizer names its component group from the tuples it
    solved that survived, each of which grew the known subgroup, not from
    all 144 surviving tuples: on both sides of the Z12 pair the list is no
    longer than the number of solves."""
    g, h = xx_hat_pair(FinAbGroup.cyclic(12))
    solves = _counting(monkeypatch, CommutantEngine, "solve")
    lists = []

    def recorded(moduli, elements):
        lists.append(list(elements))
        return subgroup_from_elements(moduli, elements)

    monkeypatch.setattr(verify, "subgroup_from_elements", recorded)
    for side in (g, h):
        solves.clear()
        lists.clear()
        assert compute_centralizer(side).component_count() == 144
        assert len(lists) == 1
        assert len(lists[0]) <= len(solves)


@pytest.mark.parametrize("factors", [(2, 6), (3, 3), (2, 4)])
def test_generator_table_expands_in_coset_order(factors):
    """The table expanded from the generating cosets equals the full one,
    one commutator per coset pair on the per-coset formulas, on
    translation-character pairs with unequal invariant factors and rank
    4, so its mixed-radix order is GroupSpec.cosets() order."""
    group = FinAbGroup(factors)
    g, h = xx_hat_pair(group)
    g_op, h_op = builder_formulas(single_row(SingleOrbitIngredients(1, 1, group, TRIV, TRIV)))
    assert pairing_table(g, h).values == full_pairing_table(g, h, g_op, h_op)
    assert pairing_table(h, g).values == full_pairing_table(h, g, h_op, g_op)


def _nondegenerate_oracle(values):
    """Every two rows differ in some entry, and so do every two columns."""
    rows, cols = len(values), len(values[0])
    return (all(any(values[i][k] != values[j][k] for k in range(cols))
                for i in range(rows) for j in range(i))
            and all(any(values[k][i] != values[k][j] for k in range(rows))
                    for i in range(cols) for j in range(i)))


_FACTOR_LISTS = st.sampled_from([(), (2,), (3,), (4,), (6,), (2, 2), (2, 4), (3, 3), (2, 2, 2)])


@st.composite
def generator_tables(draw):
    """A PairingTable on random invariant factors with a random generator
    matrix over a random order: degenerate tables and tables that are no
    bicharacter (an entry times its factor is not 0 mod the order) among
    them."""
    gamma, delta = FinAbGroup(draw(_FACTOR_LISTS)), FinAbGroup(draw(_FACTOR_LISTS))
    order = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    generators = tuple(tuple(draw(st.integers(0, order - 1)) for _ in range(delta.rank))
                       for _ in range(gamma.rank))
    return PairingTable(gamma, delta, order, generators)


@settings(max_examples=300, deadline=None)
@given(generator_tables())
# distinct rows, but two equal columns: (0, 0) and (0, 1) of Z2 x Z2
@example(PairingTable(Z2, FinAbGroup((2, 2)), 2, ((1, 0),)))
@example(PairingTable(FinAbGroup((2, 2)), Z2, 2, ((1,), (0,))))
# the Z4 pairing, and the same matrix over Z2 x Z4, where it is no bicharacter
@example(PairingTable(FinAbGroup((4,)), FinAbGroup((4,)), 4, ((1,),)))
@example(PairingTable(FinAbGroup((2, 4)), FinAbGroup((2, 4)), 4, ((1, 0), (0, 1))))
def test_is_nondegenerate_matches_elementwise_oracle(table):
    """Label nondegeneracy (distinct row labels and distinct column
    labels) agrees with the elementwise oracle on the full table."""
    assert table.is_nondegenerate() == _nondegenerate_oracle(table.values)


def _conjugated_klein(shear):
    """The translation-character group of Z2 conjugated by a 2 x 2 shear:
    every non-identity coset generator is dense and not monomial."""
    return conjugated(xx_hat_pair(Z2)[0], shear)


def _report_answers(report):
    """What conjugating a pair keeps: the verdict, the failure codes, both
    identity dimensions and component counts, and the pairing table's
    generator matrix, since every coset keeps its label."""
    pairing = report.pairing
    return (report.is_dual_pair, report.failure_codes(), report.g_dim, report.h_dim,
            report.g_components, report.h_components,
            None if pairing is None else (pairing.order, pairing.generators))


def _conjugated_listed_pairs(sample):
    """The 54 listed rows with n <= 5, each as its pair and that pair
    conjugated by P = sample(n, rng), the RNG seeded by the row's place."""
    rows = [row for n in range(1, 6) for row in enumerate_multi_orbit(n)]
    assert len(rows) == 54
    out = []
    for seed, row in enumerate(rows):
        g, h = row.build()
        p = sample(g.ambient.dim, random.Random(seed))
        out.append(((g, h), (conjugated(g, p), conjugated(h, p))))
    return out


@pytest.mark.parametrize("sample", [random_shear, random_unit_monomial])
def test_conjugated_pairs_keep_every_answer(monkeypatch, sample):
    """P g P^-1, P h P^-1 is the pair (g, h) in another basis, so verifying
    it gives the same answers, on every listed row with n <= 5.  Under a
    product of integer shears the pair is dense and the solves take dense
    cuts; under a unit monomial it keeps the monomial path, with no cut."""
    pairs = _conjugated_listed_pairs(sample)
    expected = [_report_answers(verify_dual_pair(*pair)) for pair, _ in pairs]
    cuts = _counting(monkeypatch, verify, "_apply_twist_constraint")
    assert [_report_answers(verify_dual_pair(*pair)) for _, pair in pairs] == expected
    assert (len(cuts) > 0) == (sample is random_shear)


def test_dense_cuts_read_cells_and_build_no_grid(monkeypatch):
    """Verifying the shear-conjugated listed pairs builds no matrix from a
    dense grid, and no dense cut reads a cell through CycMatrix.entry: the
    constraint rows come from the images' cells, and the kernel comes back
    as coefficient dicts."""
    pairs = [pair for _, pair in _conjugated_listed_pairs(random_shear)]
    grids = _counting(monkeypatch, CycMatrix, "__init__")
    cuts, in_cut, cut_reads = [], [], []
    cut, entry = verify._apply_twist_constraint, CycMatrix.entry

    def counted_cut(*args):
        cuts.append(1)
        in_cut.append(1)
        try:
            return cut(*args)
        finally:
            in_cut.pop()

    def counted_entry(self, i, j):
        if in_cut:
            cut_reads.append((i, j))
        return entry(self, i, j)

    monkeypatch.setattr(verify, "_apply_twist_constraint", counted_cut)
    monkeypatch.setattr(CycMatrix, "entry", counted_entry)
    for pair in pairs:
        verify_dual_pair(*pair)
    assert (len(cuts) > 0, grids, cut_reads) == (True, [], [])


def test_specs_equal_inverts_each_dense_coset_once(monkeypatch):
    """specs_equal inverts each dense coset generator of the second spec at
    most once, however many cosets of the first spec it tests, and a second
    call inverts none."""
    a = _conjugated_klein(CycMatrix([[1, 1], [0, 1]]))
    b = _conjugated_klein(CycMatrix([[1, 1], [0, 1]]))
    dense = [c for c in b.cosets() if not isinstance(b.operator(c), Monomial)]
    assert len(dense) == 3
    calls = []
    real = CycMatrix.inverse

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(CycMatrix, "inverse", counting)
    assert specs_equal(a, b)
    inverted = [id(m) for m in calls]
    assert inverted and len(set(inverted)) == len(inverted)
    assert set(inverted) <= {id(b.operator(c)) for c in dense}
    assert specs_equal(a, b)
    assert len(calls) == len(inverted)
    assert not specs_equal(a, _conjugated_klein(CycMatrix([[1, 0], [1, 1]])))


def test_gl2_against_a_diagonal_involution_is_smaller_both_ways():
    """GL(2) and the image of diag(1, -1) in PGL(2) are no dual pair.  Each
    computed centralizer (the normalizer of the torus, and the scalars)
    lies strictly inside the other side, in either argument order."""
    g = connected_pair([(2, 1)])[0]
    h = GroupSpec(g.ambient, scalar_blocks(2), Z2,
                  {(0,): CycMatrix.identity(2), (1,): CycMatrix.diagonal([1, -1])})
    expected = ["CENTRALIZER_SMALLER", "CENTRALIZER_SMALLER", "PAIRING_DEGENERATE"]
    assert verify_dual_pair(g, h).failure_codes() == expected
    assert verify_dual_pair(h, g).failure_codes() == expected


def _contains_exhaustive(outer, inner):
    """inner <= outer tested on every coset of inner against every coset
    of outer: the oracle of spec_contains's generating-coset shortcut."""
    if not outer.algebra().span.contains_span(inner.algebra().span):
        return False
    return all(
        any(outer.coset_contains(oc, inner.operator(ic)) for oc in outer.cosets())
        for ic in inner.cosets()
    )


def test_spec_contains_matches_exhaustive_oracle():
    """On every ordered pair of equal ambient dimension among S, Z(S) and
    Z(Z(S)), over the criterion-7 battery and four specs with n <= 8
    beyond it, testing the generating cosets decides containment as
    testing every coset does."""
    z4 = FinAbGroup.cyclic(4)
    shift = Monomial((1, 2, 3, 0, 5, 6, 7, 4), [ONE] * 8)
    shift4x2 = GroupSpec(Ambient.single(TensorShape((("A", 8),))), scalar_blocks(8), z4,
                         {(k,): shift ** k for k in range(4)})
    battery = [spec for _, spec in _battery()] + [
        xx_hat_pair(FinAbGroup.cyclic(5))[0],
        xx_hat_pair(FinAbGroup.cyclic(6))[0],
        shift4x2,
        connected_pair([(2, 2), (2, 2)])[0],
    ]
    specs = []
    for spec in battery:
        z1 = projective_centralizer(spec)
        specs += [spec, z1, projective_centralizer(z1)]
    pairs = contained = 0
    for outer in specs:
        for inner in specs:
            if outer.ambient.dim != inner.ambient.dim:
                continue
            pairs += 1
            expected = _contains_exhaustive(outer, inner)
            assert spec_contains(outer, inner) == expected
            contained += expected
    assert (pairs, contained) == (1494, 454)


def _compare_oracle(claimed, computed):
    """The comparison of a claimed side with the computed centralizer of
    the other side as two spec_contains scans, one per direction."""
    claimed_in_computed = spec_contains(computed, claimed)
    computed_in_claimed = spec_contains(claimed, computed)
    if claimed_in_computed and computed_in_claimed:
        return []
    if claimed_in_computed:
        return [VerificationFailure(
            FAIL_CENTRALIZER_LARGER,
            f"computed centralizer strictly contains the claimed group "
            f"(identity dims {computed.identity_component_dim()} vs "
            f"{claimed.identity_component_dim()}, components "
            f"{computed.component_count()} vs {claimed.component_count()})",
        )]
    if computed_in_claimed:
        return [VerificationFailure(
            FAIL_CENTRALIZER_SMALLER,
            "claimed group is strictly larger than the computed centralizer",
        )]
    return [VerificationFailure(
        FAIL_IDENTITY_COMPONENT_MISMATCH,
        "claimed group and computed centralizer are incomparable",
    )]


def _failures_oracle(g, h):
    """verify_dual_pair's failures with both containments of each side
    scanned on their own, and the pairing table checked after them."""
    failures = _compare_oracle(g, compute_centralizer(h))
    for fail in _compare_oracle(h, compute_centralizer(g)):
        failures.append(VerificationFailure(fail.code, "mirror check: " + fail.detail))
    try:
        table = pairing_table(g, h)
        if (g.component_count() != h.component_count()
                or not _nondegenerate_oracle(table.values)):
            failures.append(VerificationFailure(
                FAIL_PAIRING_DEGENERATE,
                f"pairing table degenerate or size mismatch "
                f"({g.component_count()} vs {h.component_count()})",
            ))
    except NotProjectivelyCommuting as exc:
        failures.append(VerificationFailure(FAIL_PAIRING_DEGENERATE, f"pairing not defined: {exc}"))
    return failures


def _rows_up_to(max_dim):
    return [row.build() for n in range(1, max_dim + 1)
            for row in enumerate_multi_orbit(n, min(4, n))]


def _failing_pairs():
    """The failing pairs of the report tests above, in both orders."""
    g, h = xx_hat_pair(Z2)
    tau = translation_monomial(Z2, Z2.element((1,))).to_matrix()
    crippled = GroupSpec(g.ambient, g.blocks, Z2, {(0,): CycMatrix.identity(2), (1,): tau})
    gl2 = connected_pair([(2, 1)])[0]
    diagonal = GroupSpec(gl2.ambient, scalar_blocks(2), Z2,
                         {(0,): CycMatrix.identity(2), (1,): CycMatrix.diagonal([1, -1])})
    pairs = [(swap_spec(), swap_spec()), (crippled, h),
             (connected_pair([(4, 1)])[0], connected_pair([(2, 2)])[1]),
             (gl2, diagonal), (swap_spec(), _dense_involution_spec()),
             (_dense_involution_spec(), _dense_involution_spec())]
    return pairs + [(b, a) for a, b in pairs]


def test_commutation_test_matches_two_scans_on_rows_and_failing_pairs():
    """Deciding claimed <= centralizer once per pair, by commutation, gives
    the failures of two spec_contains scans per side, details and order
    included: on every row with n <= 6 and on the failing pairs, which
    reach every failure code."""
    codes = set()
    for g, h in _rows_up_to(6) + _failing_pairs():
        failures = verify_dual_pair(g, h).failures
        assert failures == _failures_oracle(g, h)
        codes.update(f.code for f in failures)
    assert codes == {FAIL_CENTRALIZER_LARGER, FAIL_CENTRALIZER_SMALLER,
                     FAIL_IDENTITY_COMPONENT_MISMATCH, FAIL_PAIRING_DEGENERATE}


def _monomial_pair_sides(max_n):
    """Generators of two monomial groups on one n."""
    def gens(n):
        return st.lists(st.tuples(st.permutations(range(n)),
                                  st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                        min_size=1, max_size=2)
    return st.integers(2, max_n).flatmap(lambda n: st.tuples(gens(n), gens(n)))


@settings(max_examples=40, deadline=None)
@given(_monomial_pair_sides(4), st.sampled_from(["other", "centralizer", "other's centralizer"]),
       st.booleans())
def test_commutation_test_matches_two_scans_on_random_monomial_pairs(sides, kind, swap):
    """On a random monomial group against another, which mostly does not
    commute with it, against its own centralizer, or against the
    centralizer of the other, the failures match two scans per side."""
    a, b = (_monomial_group(gens) for gens in sides)
    if a is None or b is None:
        reject()
    try:
        if kind == "centralizer":
            b = compute_centralizer(a)
        elif kind == "other's centralizer":
            b = compute_centralizer(b)
        g, h = (b, a) if swap else (a, b)
        expected = _failures_oracle(g, h)
    except WitnessSearchUndecided:
        reject()
    assert verify_dual_pair(g, h).failures == expected


def test_verify_scans_no_computed_centralizer(monkeypatch):
    """verify_dual_pair makes no coset_contains call on a commuting pair:
    that each side lies in the other's centralizer is the commutation
    test, and that each centralizer lies in the other side is read off the
    pairing table's labels.  Checked on every row with n <= 6 and on the
    Z12 and Z2 x Z6 translation-character pairs, where a scan of the
    centralizers' cosets made 50 and 318 calls."""
    computed, scanned = [], []
    real_centralizer, real_contains = verify.compute_centralizer, GroupSpec.coset_contains

    def recorded_centralizer(target, *args, **kwargs):
        spec = real_centralizer(target, *args, **kwargs)
        computed.append(spec)
        return spec

    def recorded_contains(self, coords, op):
        scanned.append(self)
        return real_contains(self, coords, op)

    monkeypatch.setattr(verify, "compute_centralizer", recorded_centralizer)
    monkeypatch.setattr(GroupSpec, "coset_contains", recorded_contains)
    pairs = _rows_up_to(6) + [xx_hat_pair(FinAbGroup(f)) for f in [(12,), (2, 6)]]
    for g, h in pairs:
        computed.clear()
        assert verify_dual_pair(g, h).is_dual_pair
        assert len(computed) == 2
    assert len(pairs) > 100
    assert scanned == []


def test_verify_builds_no_full_table(monkeypatch):
    """verify_dual_pair on the 256-component pair of Z2^4 (n = 16) reads
    the pairing table through its labels alone: it builds no values, and
    its _mixed_radix_sums lists hold |Gamma| rank + |Delta| rank sums in
    all, where the full table holds |Gamma| |Delta|.  values, when read,
    is the full table."""
    sizes = []
    real = verify._mixed_radix_sums

    def recorded(xs, factors, order):
        sums = real(xs, factors, order)
        sizes.append(len(sums))
        return sums

    monkeypatch.setattr(verify, "_mixed_radix_sums", recorded)
    group = FinAbGroup((2, 2, 2, 2))
    g, h = xx_hat_pair(group)
    report = verify_dual_pair(g, h)
    assert report.is_dual_pair
    table = report.pairing
    assert (table.gamma.order, table.gamma.rank) == (256, 8)
    assert "values" not in vars(table)
    assert sum(sizes) == 2 * 256 * 8
    g_op, h_op = builder_formulas(single_row(SingleOrbitIngredients(1, 1, group, TRIV, TRIV)))
    assert table.values == full_pairing_table(g, h, g_op, h_op)


@settings(max_examples=40, deadline=None)
@given(monomial_generators(4), st.sampled_from(["centralizer", "bicentralizer"]), st.booleans())
def test_label_containment_matches_scan_on_random_commuting_monomial_pairs(gens, kind, swap):
    """On a random monomial group S with Z(S), or Z(Z(S)) with Z(S), in
    either order (all commuting pairs), each centralizer Z lies in the
    claimed side by the table's labels exactly when spec_contains finds
    it there."""
    s = _monomial_group(gens)
    if s is None:
        reject()
    try:
        s.validate()
    except ValueError:
        reject()
    try:
        z = compute_centralizer(s)
        a = compute_centralizer(z) if kind == "bicentralizer" else s
        g, h = (z, a) if swap else (a, z)
        zh, zg = compute_centralizer(h), compute_centralizer(g)
    except WitnessSearchUndecided:
        reject()
    table = pairing_table(g, h)
    assert zh.algebra().contains_algebra(g.algebra())
    assert zg.algebra().contains_algebra(h.algebra())
    for claimed, computed, labels in [(g, zh, table.distinct_rows),
                                      (h, zg, table.distinct_columns)]:
        by_labels = verify._compare_with_centralizer(claimed, computed, labels) == []
        assert by_labels == spec_contains(claimed, computed)
