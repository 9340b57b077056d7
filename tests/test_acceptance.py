"""Acceptance suite: the end-to-end guarantees of the package.

Each test prints one PASS/FAIL line.  Everything is exact arithmetic;
there are no tolerances anywhere.  The full pipeline fixture enumerates
every classification row for dimensions 1 through 8 (multi-part rows up
to four summands), constructs each pair, and verifies it from first
principles; several criteria then interrogate the collected reports.
"""

import hashlib
import math
import random
import time
from functools import partial

import pytest

from projpair import construct, serialize
from projpair.abelian import (
    FinAbGroup,
    SymplecticPairing,
    apply_matrix,
    dual_isomorphism_transport,
    enumerate_abelian_groups,
    symplectic_decompose,
    transport_character,
)
from projpair.classify import (
    component_group_of,
    enumerate_multi_orbit,
    enumerate_single_orbit,
    single_row,
)
from projpair.construct import (
    Ambient,
    GroupSpec,
    SingleOrbitIngredients,
    connected_pair,
    monomial_direct_sum,
    pairing_character,
    scalar_blocks,
    single_orbit_pair,
    type2_pair,
    xx_hat_pair,
)
from projpair.cyclo import CycMatrix, ONE, prime_factors
from projpair.matrep import (
    Monomial,
    TensorShape,
    character_monomial,
    commutator_scalar,
    translation_monomial,
)
from projpair.abelian import char_eval
from projpair.verify import (
    pairing_table,
    projective_centralizer,
    specs_equal,
    verify_dual_pair,
)

from sampling import random_automorphism

TRIV = FinAbGroup.trivial()
Z2 = FinAbGroup.cyclic(2)
Z3 = FinAbGroup.cyclic(3)

MAX_DIM = 8
MAX_PARTS = 4


def _report(label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{label}] {status}{suffix}")


@pytest.fixture(scope="module")
def pipeline():
    """Construct and verify every enumerated row for n = 1..8."""
    results = []
    start = time.time()
    for n in range(1, MAX_DIM + 1):
        for row in enumerate_multi_orbit(n, min(MAX_PARTS, n)):
            g, h = row.build()
            report = verify_dual_pair(g, h)
            results.append((row, g, h, report))
    elapsed = time.time() - start
    return results, elapsed


def builder_formulas(row):
    """(g, h) for a row's pair: functions from a coset's coordinates to
    the operator the constructions' per-coset formulas give it, as a
    Monomial, where GroupSpec builds the coset as its word in the
    generating cosets.  A single-orbit side is _single_orbit_generator at
    the coset.  A glued side is the direct sum of its summands' formulas
    at the cosets the gluing picks: q on the g side, and on the h side the
    coset whose pairing character with g_i is the transported one, looked
    up in a table of every coset's pairing character."""
    if row.kind == "single":
        ing = row.single
        return tuple(
            partial(_single_orbit_formula, ing, side) for side in ("g", "h"))
    parts = [_summand_formulas(row.multi.gamma, ing, q) for ing, q in row.multi.summands]
    return tuple(
        lambda coords, k=k: monomial_direct_sum([part[k](coords) for part in parts])
        for k in (0, 1))


def _single_orbit_formula(ing, side, coords):
    return Monomial.from_matrix(construct._single_orbit_generator(
        ing.b, ing.e, ing.L_group, ing.J_group, ing.K_group, side, coords))


def _summand_formulas(gamma, ing, q):
    g_i, h_i = single_orbit_pair(ing)
    g_op, h_op = builder_formulas(single_row(ing))
    gamma_i = g_i.component_group
    u = dual_isomorphism_transport([list(r) for r in q], gamma, gamma_i)
    coset_of = {pairing_character(g_i, h_op(c)): c for c in h_i.cosets()}
    assert len(coset_of) == h_i.component_count()
    return (
        lambda c: g_op(apply_matrix(q, c, gamma_i).coords),
        lambda c: h_op(coset_of[transport_character(u, gamma.character(c), gamma_i).coords]),
    )


def full_pairing_table(g, h, g_op, h_op):
    """The values of the pairing table of g and h with one commutator per
    coset pair, on the operators g_op and h_op give the cosets."""
    h_ops = [h_op(c) for c in h.cosets()]
    return tuple(tuple(commutator_scalar(x, y) for y in h_ops) for x in map(g_op, g.cosets()))


def bicharacter_oracle(gamma, delta, values):
    """Is the table of (order, exponent) values, rows over gamma's elements
    and columns over delta's in enumeration order, additive in each
    argument?  Every pair of elements of each group is tried."""
    gamma_elems = list(gamma.elements())
    delta_elems = list(delta.elements())
    idx_g = {e.coords: i for i, e in enumerate(gamma_elems)}
    idx_d = {e.coords: i for i, e in enumerate(delta_elems)}
    # every value as an exponent mod the lcm of the orders
    order = math.lcm(*(d for row in values for d, _ in row))
    expo = [[k * (order // d) for d, k in row] for row in values]
    for a in gamma_elems:
        for b in gamma_elems:
            s, ia, ib = idx_g[(a + b).coords], idx_g[a.coords], idx_g[b.coords]
            if any(expo[s][j] != (expo[ia][j] + expo[ib][j]) % order
                   for j in range(len(delta_elems))):
                return False
    for a in delta_elems:
        for b in delta_elems:
            s, ja, jb = idx_d[(a + b).coords], idx_d[a.coords], idx_d[b.coords]
            if any(row[s] != (row[ja] + row[jb]) % order for row in expo):
                return False
    return True


def test_criterion_1_heisenberg_self_duality():
    """Translation-character pairs verify as self-dual with component
    groups of order |X|^2, for the six listed groups, within ten seconds."""
    groups = [(2,), (3,), (4,), (2, 2), (5,), (6,)]
    start = time.time()
    ok = True
    for factors in groups:
        x_group = FinAbGroup(factors)
        g, h = xx_hat_pair(x_group)
        report = verify_dual_pair(g, h)
        if not report.is_dual_pair:
            ok = False
        if report.g_components != x_group.order ** 2:
            ok = False
        if report.h_components != x_group.order ** 2:
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    _report("criterion 1", ok, f"{elapsed:.2f}s for {len(groups)} groups")
    assert ok


def test_criterion_2_commutation_relation():
    """sigma_xi tau_x sigma_xi^-1 = xi(x) tau_x and the mirrored relation,
    exactly, for all (x, xi) over every abelian group of order <= 12."""
    checked = 0
    ok = True
    for n in range(1, 13):
        for group in enumerate_abelian_groups(n):
            for x in group.elements():
                tx = translation_monomial(group, x)
                tx_inv = tx.inverse()
                for xi in group.characters():
                    sx = character_monomial(group, xi)
                    lhs1 = sx @ tx @ sx.inverse()
                    if lhs1 != tx.scale_by(char_eval(xi, x)):
                        ok = False
                    lhs2 = tx @ sx @ tx_inv
                    if lhs2 != sx.scale_by(char_eval(xi, -x)):
                        ok = False
                    checked += 1
    _report("criterion 2", ok, f"{checked} pairs, zero tolerance")
    assert ok


def test_criterion_3_full_pipeline(pipeline):
    """Every enumerated row for n = 1..8 (multi-orbit rows up to four
    parts) constructs and verifies, well under the time budget."""
    results, elapsed = pipeline
    failures = [
        (row.sort_key(), report.failure_codes())
        for row, _, _, report in results
        if not report.is_dual_pair
    ]
    ok = not failures and elapsed < 15 * 60
    _report(
        "criterion 3",
        ok,
        f"{len(results)} rows, {len(failures)} failures, {elapsed:.1f}s",
    )
    assert ok, failures[:5]


def test_pipeline_reports_keep_their_digest(pipeline):
    """The 280 reports for n = 1..8, in enumeration order, keep the sha256
    of their canonical JSON: a change to how pairs are verified may change
    its speed, never its answers.  A change to the rows re-records it."""
    results, _ = pipeline
    digest = hashlib.sha256()
    for _, _, _, report in results:
        digest.update(serialize.report_text(report).encode())
    assert (len(results), digest.hexdigest()) == (
        280, "898234985ad77825e119240601d8fa62d7c683aa1342eb388aceff62a843bca3")


def test_criterion_4_component_group_duality(pipeline):
    """For every verified pair: the pairing table is a nondegenerate
    bicharacter, both component groups have the same order, and the
    component group of a single-orbit row is L x L-hat x J-hat x K in
    canonical form."""
    results, _ = pipeline
    ok = True
    checked = 0
    for row, g, h, report in results:
        table = report.pairing
        if table is None or not table.is_nondegenerate():
            ok = False
            continue
        if g.component_count() != h.component_count():
            ok = False
        if not bicharacter_oracle(table.gamma, table.delta, table.values):
            ok = False
        if row.kind == "single":
            expected = component_group_of(row.single)
            if g.component_group != expected:
                ok = False
        checked += 1
    _report("criterion 4", ok, f"{checked} pairing tables")
    assert ok


def test_expanded_pairing_tables_match_full_tables(pipeline):
    """A verified pair reports the pairing table expanded from its
    generating cosets.  On every row for n = 1..8 (a superset of the
    benchmark's pipeline8 rows) its values equal the full table, one
    commutator per coset pair on the constructions' per-coset formulas,
    and the full table is a bicharacter."""
    results, _ = pipeline
    for row, g, h, report in results:
        full = full_pairing_table(g, h, *builder_formulas(row))
        assert report.pairing == pairing_table(g, h)
        assert report.pairing.values == full, row.sort_key()
        assert bicharacter_oracle(g.component_group, h.component_group, full), row.sort_key()


def test_builder_formulas_lie_in_the_cosets_of_their_words(pipeline):
    """On every row for n <= 6, each coset's operator by the
    constructions' per-coset formula lies in the coset of its word in the
    generating cosets, on both sides."""
    results, _ = pipeline
    checked = 0
    for row, g, h, _ in results:
        if row.ambient_dim > 6:
            continue
        for spec, formula in zip((g, h), builder_formulas(row)):
            for coords in spec.cosets():
                assert spec.coset_contains(coords, formula(coords)), (row.sort_key(), coords)
                checked += 1
    assert checked > 800


def test_criterion_5_root_of_unity_scalars(pipeline):
    """Every commutator scalar across every pairing table is an exact
    n-th root of unity for the ambient dimension n.  (The scalar
    extraction itself also rejects any non-root internally.)"""
    results, _ = pipeline
    ok = True
    total = 0
    for row, g, h, report in results:
        n = g.ambient.dim
        for table_row in report.pairing.values:
            for order, expo in table_row:
                total += 1
                if n % order:
                    ok = False
    _report("criterion 5", ok, f"{total} scalars checked")
    assert ok


def _random_pairing(rng):
    lagrangians = [
        FinAbGroup.cyclic(2), FinAbGroup.cyclic(3), FinAbGroup.cyclic(4),
        FinAbGroup((2, 2)), FinAbGroup.cyclic(5), FinAbGroup.cyclic(6),
        FinAbGroup.cyclic(7), FinAbGroup.cyclic(8), FinAbGroup((2, 4)),
        FinAbGroup((2, 2, 2)),
    ]
    lag = rng.choice(lagrangians)
    pairing = SymplecticPairing.standard_hyperbolic(lag)
    alpha = random_automorphism(pairing.group, rng)
    return pairing.conjugate(alpha)


def test_criterion_6_symplectic_decomposition():
    """Fifty seeded nondegenerate alternating pairings on groups of order
    at most 64 decompose into hyperbolic pairs whose bilinear extension
    reconstructs the input exactly, with |L|^2 = |Omega|."""
    rng = random.Random(20250811)
    ok = True
    cases = 0
    for _ in range(50):
        pairing = _random_pairing(rng)
        if pairing.group.order > 64:
            ok = False
            continue
        dec = symplectic_decompose(pairing)
        if dec.lagrangian.order ** 2 != pairing.group.order:
            ok = False
        if not dec.reconstructs_pairing():
            ok = False
        cases += 1
    ok = ok and cases >= 50
    _report("criterion 6", ok, f"{cases} pairings")
    assert ok


def _involution_spec(n, matrix):
    ambient = Ambient.single(TensorShape((("A", n),)))
    return GroupSpec(
        ambient, scalar_blocks(n), Z2,
        {(0,): CycMatrix.identity(n), (1,): matrix},
    )


def _battery():
    """Twenty-plus deterministic specs in PGL(n), n <= 6, including
    specs that are not members of any dual pair."""
    specs = []
    specs.append(("swap2", _involution_spec(2, CycMatrix([[0, 1], [1, 0]]))))
    specs.append(("diag2", _involution_spec(2, CycMatrix.diagonal([1, -1]))))
    specs.append(("diag3", _involution_spec(3, CycMatrix.diagonal([1, -1, 1]))))
    g, h = connected_pair([(2, 3)])
    specs.append(("gl2x3_g", g))
    specs.append(("gl2x3_h", h))
    g, h = connected_pair([(1, 1), (1, 1)])
    specs.append(("torus2", g))
    g, h = connected_pair([(2, 2)])
    specs.append(("gl2sq_g", g))
    g, h = connected_pair([(2, 1), (1, 2)])
    specs.append(("mixed_sum_g", g))
    specs.append(("mixed_sum_h", h))
    g, h = xx_hat_pair(Z2)
    specs.append(("heis2", g))
    g, h = xx_hat_pair(Z3)
    specs.append(("heis3", g))
    g, h = xx_hat_pair(FinAbGroup.cyclic(4))
    specs.append(("heis4", g))
    g, h = xx_hat_pair(FinAbGroup((2, 2)))
    specs.append(("heis22", g))
    g, h = single_orbit_pair(SingleOrbitIngredients(1, 1, TRIV, Z2, TRIV))
    specs.append(("so_j2_g", g))
    specs.append(("so_j2_h", h))
    g, h = single_orbit_pair(SingleOrbitIngredients(1, 1, TRIV, Z2, Z2))
    specs.append(("so_j2k2_g", g))
    g, h = single_orbit_pair(SingleOrbitIngredients(1, 1, TRIV, Z3, TRIV))
    specs.append(("so_j3_g", g))
    g, h = single_orbit_pair(SingleOrbitIngredients(2, 1, TRIV, Z2, TRIV))
    specs.append(("so_b2j2_g", g))
    a, b = connected_pair([(2, 1)])
    g, h = type2_pair(a, b, Z2, "ii")
    specs.append(("type2ii_g", g))
    specs.append(("type2ii_h", h))
    # cyclic shift of order 4 in PGL(4): strictly smaller than its double
    # centralizer's centralizer
    z4 = FinAbGroup.cyclic(4)
    shift = translation_monomial(z4, z4.element((1,))).to_matrix()
    ambient = Ambient.single(TensorShape((("A", 4),)))
    gens = {}
    for k in range(4):
        power = CycMatrix.identity(4)
        for _ in range(k):
            power = power @ shift
        gens[(k,)] = power
    specs.append(("shift4", GroupSpec(ambient, scalar_blocks(4), z4, gens)))
    # order-3 permutation pair in PGL(6)
    perm = Monomial((1, 2, 0, 4, 5, 3), [ONE] * 6).to_matrix()
    ambient6 = Ambient.single(TensorShape((("A", 6),)))
    gens6 = {(0,): CycMatrix.identity(6), (1,): perm, (2,): perm @ perm}
    specs.append(("perm6", GroupSpec(ambient6, scalar_blocks(6), Z3, gens6)))
    return specs


def test_criterion_7_triple_centralizer_idempotence():
    """Z(Z(Z(S))) = Z(S) as computed spec equality, for a battery of at
    least twenty specs in PGL(n), n <= 6, dual-pair members or not."""
    battery = _battery()
    ok = len(battery) >= 20
    for name, spec in battery:
        z1 = projective_centralizer(spec)
        z2 = projective_centralizer(z1)
        z3 = projective_centralizer(z2)
        if not specs_equal(z1, z3):
            ok = False
            print(f"  triple centralizer failed for {name}")
    _report("criterion 7", ok, f"{len(battery)} specs")
    assert ok


def test_triple_centralizer_inverts_each_dense_generating_coset_once(monkeypatch):
    """Over the chains S, Z1, Z2, Z3 of the criterion-7 battery and
    specs_equal(Z1, Z3), CycMatrix.inverse runs only on the dense
    operator of a generating coset, and at most once on each: every other
    coset's inverse is read off its word."""
    battery = _battery()
    inverted = []
    real = CycMatrix.inverse

    def counting(self):
        inverted.append(self)
        return real(self)

    monkeypatch.setattr(CycMatrix, "inverse", counting)
    generating = set()
    for name, spec in battery:
        chain = [spec]
        for _ in range(3):
            chain.append(projective_centralizer(chain[-1]))
        assert specs_equal(chain[1], chain[3]), name
        generating |= {id(op) for s in chain for op in map(s.operator, s.generating_cosets())
                       if not isinstance(op, Monomial)}
    ids = [id(m) for m in inverted]
    assert inverted and len(set(ids)) == len(ids)
    assert set(ids) <= generating


def test_criterion_8_negative_control_failure_code():
    """The pair (swap image, swap image) in PGL(2) fails verification and
    the mismatch is reported as a strictly larger centralizer."""
    spec = _involution_spec(2, CycMatrix([[0, 1], [1, 0]]))
    report = verify_dual_pair(spec, spec)
    ok = (not report.is_dual_pair) and (
        "CENTRALIZER_LARGER" in report.failure_codes()
    )
    _report("criterion 8a", ok, ",".join(report.failure_codes()))
    assert ok


def test_criterion_8_centralizer_equals_heisenberg_spec_as_stated():
    """Pins the centralizer in PGL(2) of the lone swap image s = [[0, 1],
    [1, 0]] to one fully stated group, and places the translation-character
    (Heisenberg) group of Z/2, {I, X, Z, XZ} over the scalars, properly
    inside it.

    Take g = [[p, q], [r, t]] with g s g^-1 = lambda s; then lambda^2 = 1.
    lambda = 1 forces q = r and p = t, so g = pI + qs: the torus
    span{I, s}, of algebra dimension 2.  lambda = -1 forces r = -q and
    t = -p, so g = diag(1, -1)(pI + qs): the second coset.  So Z(s) is the
    normalizer of that torus: identity-component algebra span{I, s} and
    component group Z/2 generated by diag(1, -1).  The Heisenberg group has
    identity dimension 1 and 4 components, so it is a proper subgroup of
    Z(s) rather than equal to it.
    """
    swap = CycMatrix([[0, 1], [1, 0]])
    ident = CycMatrix.identity(2)
    expected = GroupSpec(
        Ambient.single(TensorShape((("A", 2),))), None, Z2,
        {(0,): ident, (1,): CycMatrix.diagonal([1, -1])},
        algebra_basis=[ident, swap],
    )
    computed = projective_centralizer(_involution_spec(2, swap))
    klein, _ = xx_hat_pair(Z2)
    span = computed.algebra().span
    # every Heisenberg element lies in some coset of the centralizer
    klein_inside = span.contains_span(klein.algebra().span) and all(
        any(computed.coset_contains(c, klein.operator(k)) for c in computed.cosets())
        for k in klein.cosets()
    )
    proper = klein_inside and not specs_equal(computed, klein)
    ok = (
        specs_equal(computed, expected)
        and specs_equal(expected, computed)
        and proper
    )
    _report(
        "criterion 8b",
        ok,
        f"computed identity dim {computed.identity_component_dim()}, "
        f"components {computed.component_count()}; expected identity dim "
        f"{expected.identity_component_dim()}, components "
        f"{expected.component_count()}; the Heisenberg group of Z/2 is "
        f"{'' if proper else 'not '}a proper subgroup",
    )
    assert ok


def test_criterion_9_enumeration_cross_check():
    """Single-orbit row counts match the independent factorization /
    partition-product oracle for every n <= 30."""

    def abelian_count(n):
        c = 1
        m = n
        for p in prime_factors(n):
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            parts = _partition_count(e)
            c *= parts
        return c

    def _partition_count(k):
        table = [1] + [0] * k
        for part in range(1, k + 1):
            for s in range(part, k + 1):
                table[s] += table[s - part]
        return table[k]

    def oracle(n):
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
                        total += (
                            abelian_count(lo)
                            * abelian_count(jo)
                            * abelian_count(rest2 // jo)
                        )
        return total

    ok = True
    for n in range(1, 31):
        if len(enumerate_single_orbit(n)) != oracle(n):
            ok = False
    _report("criterion 9", ok, "n <= 30 against the independent oracle")
    assert ok
