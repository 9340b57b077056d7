"""Structural checks on the pair constructions."""

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projpair.abelian import FinAbGroup, identity_matrix
from projpair import construct, serialize
from projpair.classify import enumerate_single_orbit
from projpair.construct import (
    Ambient,
    Block,
    GroupSpec,
    MultiOrbitSpec,
    SingleOrbitIngredients,
    connected_pair,
    general_xx_hat_pair,
    multi_orbit_glue,
    pairing_coset_matrix,
    scalar_blocks,
    single_orbit_pair,
    type2_pair,
    xx_hat_pair,
)
from projpair.cyclo import ONE, CycMatrix, span_of_matrices
from projpair.errors import (
    EmptyDecomposition,
    IncompatibleGluing,
    InputNotDualPair,
    NotIsomorphism,
    PreconditionViolated,
)
from projpair.matrep import Monomial, PatternBasis, TensorShape, as_dense, projective_equal

TRIV = FinAbGroup.trivial()
Z2 = FinAbGroup.cyclic(2)
Z3 = FinAbGroup.cyclic(3)


def test_connected_pair_shapes():
    g, h = connected_pair([(3, 1)])
    assert g.ambient.dim == 3
    assert g.identity_component_dim() == 9
    assert h.identity_component_dim() == 1
    assert g.component_count() == 1 == h.component_count()
    g, h = connected_pair([(2, 2)])
    assert g.identity_component_dim() == 4 == h.identity_component_dim()
    g, h = connected_pair([(1, 1), (1, 1)])
    assert g.ambient.dim == 2
    assert g.identity_component_dim() == 2
    with pytest.raises(EmptyDecomposition):
        connected_pair([])


def test_connected_pair_blocks_commute():
    g, h = connected_pair([(2, 3), (1, 2)])
    n = g.ambient.dim
    for bg in g.algebra().basis:
        for bh in h.algebra().basis:
            assert bg @ bh == bh @ bg


def test_xx_hat_pair_structure():
    g, h = xx_hat_pair(Z2)
    assert g.component_group == FinAbGroup((2, 2))
    assert g.identity_component_dim() == 1
    # both sides have identical generator sets
    assert g.cosets() == h.cosets()
    for coords in g.cosets():
        assert g.operator(coords) == h.operator(coords)
    g3, _ = xx_hat_pair(Z3)
    assert g3.component_group.order == 9
    gt, ht = xx_hat_pair(TRIV)
    assert gt.ambient.dim == 1 and gt.component_group.is_trivial()


def test_spec_validation():
    g, h = xx_hat_pair(Z2)
    g.validate()
    h.validate()
    for ing in [
        SingleOrbitIngredients(2, 1, Z2, TRIV, Z2),
        SingleOrbitIngredients(1, 1, Z2, Z2, TRIV),
        SingleOrbitIngredients(1, 2, TRIV, Z3, TRIV),
    ]:
        a, b = single_orbit_pair(ing)
        a.validate()
        b.validate()


def test_operator_picks_monomial_or_dense_form():
    """GroupSpec.operator returns a Monomial for a monomial generator and
    the stored dense matrix itself otherwise."""
    ambient = Ambient.single(TensorShape((("A", 2),)))
    swap = CycMatrix([[0, 1], [1, 0]])
    spec = GroupSpec(ambient, scalar_blocks(2), Z2,
                     {(0,): CycMatrix.identity(2), (1,): swap})
    op = spec.operator((1,))
    assert isinstance(op, Monomial)
    assert op.to_matrix() == swap
    assert spec.operator([1]) is op
    hadamard = CycMatrix([[1, 1], [1, -1]])
    spec = GroupSpec(ambient, scalar_blocks(2), Z2,
                     {(0,): CycMatrix.identity(2), (1,): hadamard})
    assert spec.operator((1,)) is hadamard
    spec.validate()
    singular = GroupSpec(ambient, scalar_blocks(2), Z2,
                         {(0,): CycMatrix.identity(2), (1,): CycMatrix([[1, 1], [1, 1]])})
    with pytest.raises(ValueError):
        singular.validate()


def test_single_orbit_dimensions_and_components():
    ing = SingleOrbitIngredients(2, 3, Z2, Z2, Z3)
    assert ing.ambient_dim == 2 * 3 * 2 * 2 * 3
    g, h = single_orbit_pair(ing)
    assert g.ambient.dim == 72
    # component groups: L x L-hat x J-hat x K and L x L-hat x J x K-hat
    assert g.component_group == FinAbGroup.from_factors([2, 2, 2, 3])
    assert h.component_group == FinAbGroup.from_factors([2, 2, 2, 3])
    assert g.component_group.order == (
        ing.L_group.order ** 2 * ing.J_group.order * ing.K_group.order
    )
    # identity components: GL(b) per K index, GL(e) per J index
    assert g.identity_component_dim() == ing.K_group.order * ing.b ** 2
    assert h.identity_component_dim() == ing.J_group.order * ing.e ** 2


def test_single_orbit_trivial_groups_is_connected():
    g, h = single_orbit_pair(SingleOrbitIngredients(2, 2, TRIV, TRIV, TRIV))
    gc, hc = connected_pair([(2, 2)])
    assert g.component_group.is_trivial()
    assert g.algebra().span.equals(gc.algebra().span)
    assert h.algebra().span.equals(hc.algebra().span)


def test_generator_extension_closure():
    """Products of generators land in the coset-sum component projectively."""
    ing = SingleOrbitIngredients(1, 1, Z2, Z2, TRIV)
    g, _ = single_orbit_pair(ing)
    group = g.component_group
    span = g.algebra().span
    for a in group.elements():
        for b in group.elements():
            prod = as_dense(g.operator(a.coords)) @ as_dense(g.operator(b.coords))
            target = as_dense(g.operator((a + b).coords))
            shifted = prod @ target.inverse()
            assert span.contains(shifted.flatten())


def test_generators_scalars_are_roots_of_unity():
    for ing in [
        SingleOrbitIngredients(1, 1, Z2, TRIV, TRIV),
        SingleOrbitIngredients(1, 1, TRIV, Z3, Z2),
    ]:
        g, h = single_orbit_pair(ing)
        for spec in (g, h):
            for mat in map(as_dense, map(spec.operator, spec.cosets())):
                first = next(
                    mat.entry(i, j)
                    for i in range(mat.rows)
                    for j in range(mat.cols)
                    if not mat.entry(i, j).is_zero()
                )
                assert first.as_root_of_unity() is not None


def test_general_xx_hat_requires_dual_pair():
    g, _ = connected_pair([(2, 2)])
    bad = g  # (g, g) is not a dual pair
    with pytest.raises(InputNotDualPair):
        general_xx_hat_pair(bad, bad, Z2)


def test_general_xx_hat_component_groups():
    h1, h2 = connected_pair([(2, 2)])
    g, h = general_xx_hat_pair(h1, h2, Z2)
    assert g.ambient.dim == 8
    assert g.component_group == FinAbGroup((2, 2))
    assert h.component_group == FinAbGroup((2, 2))
    # trivial X: same pair up to the appended trivial slot
    g0, h0 = general_xx_hat_pair(h1, h2, TRIV)
    assert g0.ambient.dim == 4
    assert g0.component_group.is_trivial()


def test_general_xx_hat_of_its_own_output_takes_a_fresh_label():
    """The second application finds the factor label X taken and names
    its new factor X2; the result is still a dual pair."""
    from projpair.verify import verify_dual_pair

    g, h = connected_pair([(1, 1)])
    for _ in range(2):
        g, h = general_xx_hat_pair(g, h, Z2)
    assert g.ambient.summands[0].labels == ("V", "W", "X", "X2")
    assert verify_dual_pair(g, h).is_dual_pair


def test_general_xx_hat_degenerate_case_is_heisenberg():
    """Starting from the trivial pair in PGL(1), the tensor construction
    reduces to the plain translation-character pair."""
    h1, h2 = connected_pair([(1, 1)])
    g, h = general_xx_hat_pair(h1, h2, Z2)
    ref_g, ref_h = xx_hat_pair(Z2)
    assert g.ambient.dim == 2
    assert g.component_group == ref_g.component_group
    assert g.algebra().span.equals(ref_g.algebra().span)
    matched = 0
    ref_mats = [as_dense(ref_g.operator(c)) for c in ref_g.cosets()]
    for mat in map(as_dense, map(g.operator, g.cosets())):
        if any(projective_equal(mat, other) for other in ref_mats):
            matched += 1
    assert matched == 4


def test_glue_two_heisenberg_summands_diagonal():
    ing = SingleOrbitIngredients(1, 1, Z2, TRIV, TRIV)
    gamma = FinAbGroup((2, 2))
    q = tuple(tuple(r) for r in identity_matrix(gamma))
    g, h = multi_orbit_glue(MultiOrbitSpec(gamma, ((ing, q), (ing, q))))
    assert g.ambient.dim == 4
    assert g.component_group == gamma
    # generators are the same operator on both summands
    for mat in map(as_dense, map(g.operator, g.cosets())):
        top = [[mat.entry(i, j) for j in range(2)] for i in range(2)]
        bottom = [[mat.entry(i + 2, j + 2) for j in range(2)] for i in range(2)]
        assert top == bottom
        for i in range(2):
            for j in range(2):
                assert mat.entry(i, j + 2).is_zero()
                assert mat.entry(i + 2, j).is_zero()


def test_type2_preconditions():
    a, b = connected_pair([(2, 1)])
    with pytest.raises(PreconditionViolated):
        type2_pair(a, b, Z2, "i")  # identity component is GL(2), not scalars
    xa, xb = xx_hat_pair(Z2)
    with pytest.raises(PreconditionViolated):
        type2_pair(xa, xb, Z2, "ii")  # not a connected mutual-commutant pair
    with pytest.raises(ValueError):
        type2_pair(a, b, Z2, "iii")


def test_type2_component_groups():
    a, b = connected_pair([(2, 1)])
    g, h = type2_pair(a, b, Z2, "ii")
    assert g.component_group == Z2 and h.component_group == Z2
    assert g.identity_component_dim() == 8  # GL(2) x GL(2)
    assert h.identity_component_dim() == 1
    xa, xb = xx_hat_pair(Z2)
    g, h = type2_pair(xa, xb, Z2, "i")
    assert g.component_group.order == 8
    assert g.identity_component_dim() == 2  # torus on the appended slot
    assert h.component_group.order == 8


def test_glue_requires_isomorphism():
    ing = SingleOrbitIngredients(1, 1, Z2, TRIV, TRIV)
    gamma = FinAbGroup((2, 2))
    bad_q = ((1, 0), (1, 0))  # not invertible
    spec = MultiOrbitSpec(gamma, ((ing, tuple(tuple(r) for r in identity_matrix(gamma))),
                                  (ing, bad_q)))
    with pytest.raises(NotIsomorphism):
        multi_orbit_glue(spec)


def test_glue_single_summand_matches_single_orbit():
    ing = SingleOrbitIngredients(1, 1, Z2, TRIV, TRIV)
    gamma = FinAbGroup((2, 2))
    q = tuple(tuple(r) for r in identity_matrix(gamma))
    g1, h1 = multi_orbit_glue(MultiOrbitSpec(gamma, ((ing, q),)))
    g2, h2 = single_orbit_pair(ing)
    assert g1.algebra().span.equals(g2.algebra().span)
    assert g1.cosets() == g2.cosets()
    for coords in g1.cosets():
        assert projective_equal(as_dense(g1.operator(coords)), as_dense(g2.operator(coords)))


def test_glue_with_nonidentity_isomorphism_verifies():
    from projpair.verify import verify_dual_pair

    ing = SingleOrbitIngredients(1, 1, Z2, TRIV, TRIV)
    gamma = FinAbGroup((2, 2))
    ident = tuple(tuple(r) for r in identity_matrix(gamma))
    swap_q = ((0, 1), (1, 0))
    g, h = multi_orbit_glue(MultiOrbitSpec(gamma, ((ing, ident), (ing, swap_q))))
    report = verify_dual_pair(g, h)
    assert report.is_dual_pair, report.failure_codes()


def test_glued_h_cosets_match_pairing_table_oracle():
    """Every glued h coset of the multi-orbit rows with n <= 8 holds the
    direct sum of the summand cosets the pairing table picks (the oracle
    looks each transported character up in a table of every summand
    coset's pairing character)."""
    from projpair.classify import enumerate_multi_orbit
    from test_acceptance import builder_formulas

    summands = 0
    for n in range(2, 9):
        for row in enumerate_multi_orbit(n, min(4, n)):
            if row.kind != "multi":
                continue
            _, h = multi_orbit_glue(row.multi)
            _, expected = builder_formulas(row)
            for delta in row.multi.gamma.characters():
                assert h.coset_contains(delta.coords, expected(delta.coords)), (
                    row.multi, delta.coords)
            summands += len(row.multi.summands)
    assert summands > 300


def test_degenerate_pairing_raises_incompatible_gluing():
    g, _ = xx_hat_pair(Z2)
    flat = GroupSpec(g.ambient, g.blocks, g.component_group,
                     dict.fromkeys(g.cosets(), CycMatrix.identity(2)))
    assert pairing_coset_matrix(g, g) == ((0, 1), (1, 0))
    with pytest.raises(IncompatibleGluing, match="degenerate"):
        pairing_coset_matrix(g, flat)


def test_gluing_with_disagreeing_pairings_raises(monkeypatch):
    """The README glue pair with the second summand's pairing
    identification composed with the swap of Z2 x Z2: its h cosets pair
    with g through another character, so the two summands' pairings
    disagree on a generating pair and the gluing is refused."""
    from projpair.verify import verify_dual_pair

    spec = MultiOrbitSpec(FinAbGroup((2, 2)), (
        (SingleOrbitIngredients(1, 1, Z2, TRIV, TRIV), ((1, 0), (0, 1))),
        (SingleOrbitIngredients(1, 1, Z2, TRIV, TRIV), ((1, 0), (0, 1)))))
    g, h = multi_orbit_glue(spec)
    assert verify_dual_pair(g, h).is_dual_pair
    real = construct.summand_pair
    calls = []

    def twisted(ing):
        g_i, h_i, coset_of_char = real(ing)
        calls.append(ing)
        if len(calls) == 2:
            assert coset_of_char == ((0, 1), (1, 0))
            coset_of_char = ((1, 0), (0, 1))
        return g_i, h_i, coset_of_char

    monkeypatch.setattr(construct, "summand_pair", twisted)
    with pytest.raises(IncompatibleGluing, match="pairings disagree"):
        multi_orbit_glue(spec)
    assert len(calls) == 2


def _pairing_outcome(g, h):
    try:
        return pairing_coset_matrix(g, h)
    except IncompatibleGluing:
        return IncompatibleGluing


def test_pairing_identification_does_not_depend_on_b_and_e():
    """The generators of the pair (b, e, L, J, K) are I_b (x) I_e (x) X, so
    the identification read once at b = e = 1 serves every b and e.  For
    each tuple with n <= 16 and b e > 1, the full pair's pairing matrix
    equals the (1, 1, L, J, K) one, and a degenerate pairing (a side paired
    with itself, when J or K is nontrivial) raises IncompatibleGluing at
    both."""
    checked = degenerate = 0
    for n in range(1, 17):
        for row in enumerate_single_orbit(n):
            ing = row.single
            if ing.b * ing.e == 1:
                continue
            g, h = single_orbit_pair(ing)
            g1, h1, coset_of_char = construct.pairing_identification(
                ing.L_group, ing.J_group, ing.K_group)
            assert pairing_coset_matrix(g, h) == coset_of_char, ing
            outcome = _pairing_outcome(g, g)
            assert outcome == _pairing_outcome(g1, g1), ing
            degenerate += outcome is IncompatibleGluing
            checked += 1
    assert checked == 276
    assert 0 < degenerate < checked


def test_glue_blocks_are_block_diagonal():
    triv_ing = SingleOrbitIngredients(1, 1, TRIV, TRIV, TRIV)
    spec = MultiOrbitSpec(TRIV, ((triv_ing, ()), (triv_ing, ())))
    g, h = multi_orbit_glue(spec)
    assert g.ambient.dim == 2
    assert len(g.blocks) == 2
    assert g.identity_component_dim() == 2


def block_units(blocks, n):
    """The embedded matrix units E_rs (x) I of each block, r slowest."""
    return [CycMatrix.from_entries(n, n, {(i, j): ONE for i, j in zip(row_r, row_s)})
            for b in blocks for row_r in b.grid for row_s in b.grid]


def assert_one_stored_form(p, least=True):
    """A PatternBasis keeps each element's cells in row-major order, and
    where and sizes agree with them.  Scanning its matrices gives it back:
    itself when its order is the least one (least), else the same cells
    over a divisor of its order.  A class with no cell is not a matrix of
    a basis, so such a pattern is not scanned."""
    n = p.n
    for cells in p.classes:
        positions = [(i, j) for i, j, _ in cells]
        assert positions == sorted(set(positions))
    assert p.sizes == tuple(len(cells) for cells in p.classes)
    assert len(p.where) == sum(p.sizes)
    for pos, (b, k) in p.where.items():
        assert (*divmod(pos, n), k) in p.classes[b]
    if not all(p.classes):
        return
    scan = PatternBasis.from_matrices(n, p.matrices())
    if least:
        assert scan == p
    else:
        lift = p.order // scan.order
        assert scan.order * lift == p.order
        assert [[(i, j, k * lift) for i, j, k in cells] for cells in scan.classes] == p.classes


def _block_spec(n, blocks):
    ambient = Ambient.single(TensorShape((("A", n),)))
    return GroupSpec(ambient, blocks, TRIV, {(): Monomial.identity(n)})


def test_block_matrix_units():
    units = _block_spec(4, [Block(2, ((0, 2), (1, 3)))]).algebra().basis
    assert len(units) == 4
    total = units[0] + units[3]
    assert total.is_identity()  # E_00 + E_11 with multiplicity = identity
    assert span_of_matrices(units).dim == 4


@st.composite
def block_layouts(draw):
    """Blocks whose grids partition range(n), n <= 6, carved from a
    permutation of it."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    blocks, start = [], 0
    while start < n:
        dim = draw(st.integers(1, min(3, n - start)))
        mult = draw(st.integers(1, min(3, (n - start) // dim)))
        cells = order[start:start + dim * mult]
        blocks.append(Block(dim, tuple(tuple(cells[r * mult:(r + 1) * mult])
                                       for r in range(dim))))
        start += dim * mult
    return n, blocks


@settings(max_examples=150, deadline=None)
@given(block_layouts())
@example((2, [Block(1, ((0, 1),))]))
@example((2, [Block(1, ((1,),)), Block(1, ((0,),))]))
@example((3, [Block(2, ((2,), (0,))), Block(1, ((1,),))]))
def test_block_pattern_matches_the_scan_of_its_matrix_units(layout):
    """The root pattern read off partitioning grids is the scan of the
    matrix units E_rs (x) I: order 1, one class per unit with one cell per
    copy, in block order with r slowest.  Both are in the one stored
    form."""
    n, blocks = layout
    expected = PatternBasis.from_matrices(n, block_units(blocks, n))
    from_grids = PatternBasis.from_grids(n, [b.grid for b in blocks])
    assert from_grids == expected
    assert _block_spec(n, blocks).algebra().pattern == expected
    assert_one_stored_form(expected)
    assert_one_stored_form(from_grids)


@pytest.mark.parametrize("n, blocks", [
    (2, [Block(1, ((0, 0),))]),
    (2, [Block(1, ((0, 1),)), Block(1, ((1, 0),))]),
    (3, [Block(2, ((0,), (1,))), Block(1, ((1,),))]),
    (2, [Block(1, ((0,),))]),
    (2, [Block(1, ((0, -1),))]),
    (2, [Block(1, ((0, 2),))]),
], ids=["repeated index", "shared by two blocks", "shared, one missed", "missed",
        "negative", "past n"])
def test_grids_that_do_not_partition_are_refused_at_construction(n, blocks):
    with pytest.raises(ValueError, match="partition"):
        _block_spec(n, blocks)


def test_scalar_blocks_span():
    blocks = scalar_blocks(3)
    assert len(blocks) == 1
    basis = block_units(blocks, 3)
    assert len(basis) == 1
    assert basis[0].is_identity()


# -- generators built at construction ---------------------------------------


def test_enumeration_reads_build_only_generating_cosets(monkeypatch):
    """A construction builds each side's identity and generating cosets,
    which the mirrored gluing matrix reads, and no other coset."""
    built = []
    real = construct._single_orbit_generator

    def counting(b, e, L, J, K, side, coords):
        built.append((side, coords))
        return real(b, e, L, J, K, side, coords)

    monkeypatch.setattr(construct, "_single_orbit_generator", counting)
    g, h = single_orbit_pair(SingleOrbitIngredients(1, 2, Z2, Z2, Z3))
    assert g.component_group.order == 24
    pairing_coset_matrix(g, h)
    ident = g.component_group.identity().coords
    expected = {(side, c) for side in "gh" for c in [ident] + g.generating_cosets()}
    assert sorted(built) == sorted(expected)


def test_generator_of_wrong_shape_raises_at_construction():
    """Every generator a dict holds is shape-checked when the spec is
    built, an extra coset's as well as a generating coset's."""
    ambient = Ambient.single(TensorShape((("A", 2),)))
    with pytest.raises(ValueError, match="wrong shape"):
        GroupSpec(ambient, scalar_blocks(2), Z2,
                  {(0,): CycMatrix.identity(2), (1,): CycMatrix.identity(3)})
    with pytest.raises(ValueError, match="wrong shape"):
        GroupSpec(ambient, scalar_blocks(2), FinAbGroup.cyclic(3),
                  {(0,): CycMatrix.identity(2), (1,): CycMatrix.identity(2),
                   (2,): CycMatrix.identity(3)})


def test_generator_table_holds_monomials():
    """A generator dict may hold Monomials: each is shape-checked by n,
    returned by operator() as is, and made dense where cells are needed."""
    ambient = Ambient.single(TensorShape((("A", 2),)))
    swap = Monomial([1, 0], [1, 1])
    spec = GroupSpec(ambient, scalar_blocks(2), Z2,
                     {(0,): Monomial.identity(2), (1,): swap})
    assert spec.operator((1,)) is swap
    spec.validate()
    assert serialize.spec_to_json(spec) == serialize.spec_to_json(GroupSpec(
        ambient, scalar_blocks(2), Z2,
        {(0,): CycMatrix.identity(2), (1,): swap.to_matrix()}))
    with pytest.raises(ValueError, match="wrong shape"):
        GroupSpec(ambient, scalar_blocks(2), Z2,
                  {(0,): Monomial.identity(2), (1,): Monomial.identity(3)})
    with pytest.raises(ValueError, match="wrong shape"):
        GroupSpec(ambient, scalar_blocks(2), Z2,
                  {(0,): Monomial.identity(3), (1,): swap})


def test_non_identity_generator_at_identity_coset_raises_at_construction():
    ambient = Ambient.single(TensorShape((("A", 2),)))
    swap = CycMatrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="identity matrix"):
        GroupSpec(ambient, scalar_blocks(2), Z2, {(0,): Monomial([1, 0], [1, 1]), (1,): swap})
    with pytest.raises(ValueError, match="identity matrix"):
        GroupSpec(ambient, scalar_blocks(2), Z2, {(0,): swap, (1,): swap})


def _all_generators(spec):
    return {coords: spec.operator(coords) for coords in spec.cosets()}


@pytest.mark.parametrize("build", [
    lambda: single_orbit_pair(SingleOrbitIngredients(1, 1, Z2, Z2, TRIV)),
    lambda: general_xx_hat_pair(*connected_pair([(1, 2)]), Z2, check=False),
    lambda: type2_pair(*xx_hat_pair(Z2), Z2, "i"),
    lambda: type2_pair(*connected_pair([(2, 1)]), Z2, "ii"),
    lambda: multi_orbit_glue(MultiOrbitSpec(FinAbGroup((2, 2)), (
        (SingleOrbitIngredients(1, 1, Z2, TRIV, TRIV), ((1, 0), (0, 1))),
        (SingleOrbitIngredients(1, 1, Z2, TRIV, TRIV), ((0, 1), (1, 0)))))),
])
def test_constructed_spec_pickles_before_and_after_its_cosets_are_built(build):
    for spec in build():
        before = pickle.loads(pickle.dumps(spec))
        reference = _all_generators(spec)
        after = pickle.loads(pickle.dumps(spec))
        for copy in (before, after):
            assert copy.cosets() == spec.cosets()
            assert _all_generators(copy) == reference


_GLUE = MultiOrbitSpec(FinAbGroup((2, 2)), (
    (SingleOrbitIngredients(1, 1, Z2, TRIV, TRIV), ((1, 0), (0, 1))),
    (SingleOrbitIngredients(1, 1, Z2, TRIV, TRIV), ((0, 1), (1, 0)))))


@pytest.mark.parametrize("inputs, build", [
    (lambda: xx_hat_pair(Z2), lambda a, b: general_xx_hat_pair(a, b, Z2, check=False)),
    (lambda: connected_pair([(1, 2)]), lambda a, b: general_xx_hat_pair(a, b, Z2, check=False)),
    (lambda: xx_hat_pair(Z2), lambda a, b: type2_pair(a, b, Z2, "i")),
    (lambda: connected_pair([(2, 1)]), lambda a, b: type2_pair(a, b, Z2, "ii")),
    (lambda: construct.summand_pair(_GLUE.summands[0][0])[:2],
     lambda a, b: multi_orbit_glue(_GLUE)),
], ids=["xx_hat", "xx_hat_of_connected", "type2_i", "type2_ii", "glue"])
def test_builders_keep_monomials(monkeypatch, inputs, build):
    """Once the input pair's cosets are built, building every coset of the
    xx-hat, type 2 and glue constructions expands no Monomial to a dense
    matrix and scans no dense matrix back: each builder hands GroupSpec the
    Monomial it made."""
    sides = inputs()
    for side in sides:
        _all_generators(side)
    g, h = build(*sides)
    calls = []
    to_matrix, from_matrix = Monomial.to_matrix, Monomial.from_matrix

    def counting_to_matrix(self):
        calls.append("to_matrix")
        return to_matrix(self)

    def counting_from_matrix(mat):
        calls.append("from_matrix")
        return from_matrix(mat)

    monkeypatch.setattr(Monomial, "to_matrix", counting_to_matrix)
    monkeypatch.setattr(Monomial, "from_matrix", staticmethod(counting_from_matrix))
    for spec in (g, h):
        assert all(isinstance(op, Monomial) for op in _all_generators(spec).values())
    assert calls == []


# -- one coset table ---------------------------------------------------------


def test_builder_runs_once_per_coset_whatever_reads_it(monkeypatch):
    """Reading every coset through operator(), serializing, validating,
    the pairing table and a full verify run the builder of each side once
    for the identity coset and once for each generating coset, all at
    construction, and for no other coset: every other one is its word.
    The identity coset is stored as the identity Monomial."""
    from projpair.verify import pairing_table, verify_dual_pair

    built = []
    real = construct._single_orbit_generator

    def counting(b, e, L, J, K, side, coords):
        built.append((side, coords))
        return real(b, e, L, J, K, side, coords)

    monkeypatch.setattr(construct, "_single_orbit_generator", counting)
    g, h = single_orbit_pair(SingleOrbitIngredients(1, 1, Z2, Z2, TRIV))
    ident = g.cosets()[0]
    assert g.operator(ident) == Monomial.identity(g.ambient.dim)
    for spec in (g, h):
        spec.operator(spec.generating_cosets()[0])
        serialize.spec_to_json(spec)
        spec.validate()
        for coords in spec.cosets():
            spec.operator(coords)
    pairing_table(g, h)
    assert verify_dual_pair(g, h).is_dual_pair
    expected = [(side, c) for side, spec in (("g", g), ("h", h))
                for c in [spec.cosets()[0]] + spec.generating_cosets()]
    assert sorted(built) == sorted(expected)
    assert len(built) == 2 * (1 + 3) < 2 * g.component_count()


def test_block_matrix_units_built_once_per_block(monkeypatch):
    """A block spec's root pattern comes from its grids, so the commutant
    engine and a full verify build no matrix from any pattern; an explicit
    algebra().basis read builds the block spec's units once, however many
    readers (span, pattern, engine) ask after it."""
    from projpair.verify import CommutantEngine, verify_dual_pair

    calls = []
    real = PatternBasis.matrices

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(PatternBasis, "matrices", counting)
    g, h = connected_pair([(2, 3), (1, 2)])
    CommutantEngine.from_spec(g)
    assert verify_dual_pair(g, h).is_dual_pair
    assert calls == []
    first = g.algebra().basis
    assert g.algebra().basis is first
    g.algebra().span
    g.algebra().pattern
    CommutantEngine.from_spec(g)
    assert verify_dual_pair(g, h).is_dual_pair
    assert len(calls) == 1 and calls[0] is g.algebra().pattern
    assert len(first) == sum(b.dim ** 2 for b in g.blocks)
