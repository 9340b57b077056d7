"""First-principles verification of the mutual-centralizer axioms.

The centralizer of a specified subgroup, taken in PGL(U), is computed
exactly: a matrix centralizes the image projectively iff it commutes with
the identity-component algebra on the nose and commutes with each
component generator up to a root-of-unity scalar.  For each admissible
scalar tuple the twisted commutant is an exact linear solve; a tuple
contributes one component of the centralizer iff its solution space
contains an invertible element.

The form of each generator, a Monomial or a dense matrix, is decided
once, by GroupSpec.operator; everything here takes those operators and
chooses no form itself, and a product of two forms is matrep's @.
CommutantEngine takes an algebra basis and the generators, nothing else,
and every solve takes one scalar per generator as an integer root of
unity (order, exponent), the form in which compute_centralizer
enumerates them.  A constraint X a = c a X in which a
is a partial monomial with root-of-unity entries ties the entries of X
together one or two at a time, so it goes into a ratio union-find over
the n^2 positions of X, on integer exponents of one root of unity.  The
translation and character operators of the constructions, the matrix
units of their block algebras and the pattern matrices of computed
centralizers are all of this kind.  Whatever is not (a dense algebra
element or generator) then cuts the union-find's pattern basis with the
dense kernel.  CycNum appears only at that boundary, in the cells of a
returned basis and in the witness search over them.  A witness that is
a unit monomial comes back as a Monomial and is normalized on its
exponents, so a computed centralizer stores it as one.  A witness
candidate with an empty row or column is turned down without a rank.
The scalar tuples of the solves and the commutator scalars of the
pairing table are integer pairs (order, exponent) throughout.

Work is done on generators where the group structure allows it.  The
surviving scalar tuples form a subgroup, so compute_centralizer solves
only tuples that neither a known subgroup of survivors nor the tuples
already known to fail decide, and gives each derived coset a product of
witnesses.  Once both comparisons pass, the pairing is a bicharacter,
so verify_dual_pair expands its table from the commutators of the
generating cosets.  Everything runs in one process.  Both
directions of the comparison and specs_equal are one subgroup test,
spec_contains: one spec lies in another when its algebra span does and
each of its generating cosets lies in some coset of the other, tested
with GroupSpec.coset_contains.  That inverts each coset's generator
once per spec and tests the product with GroupSpec.algebra_contains: a
unit Monomial against a basis of roots of unity on disjoint supports
(block matrix units, or a union-find basis that no dense cut touched) is
an integer test on exponents, and only a dense operand or another basis
reduces cells through the VectorSpan.  The tests cross-check the engine
against a purely dense solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .abelian import FinAbGroup, subgroup_from_elements
from .construct import GroupSpec
from .cyclo import (
    ONE,
    ZERO,
    CycMatrix,
    CycNum,
    VectorSpan,
)
from .errors import (
    IdentityComponentNotSemisimpleBlocks,
    NotProjectivelyCommuting,
    ShapeMismatch,
    WitnessSearchUndecided,
)
from .matrep import Monomial, commutator_scalar, lowest_terms, unit_pattern


# ---------------------------------------------------------------------------
# ratio union-find over solution unknowns
# ---------------------------------------------------------------------------


class _RatioUnionFind:
    """Union-find where each element carries value[u] = zeta_N^ratio[u] *
    value[root], the ratio an integer mod N; inconsistent relations
    collapse a class to zero."""

    def __init__(self, n: int, order: int):
        self.order = order
        self.parent = list(range(n))
        self.ratio = [0] * n
        self.dead = [False] * n

    def lifted(self, order: int) -> "_RatioUnionFind":
        """A copy over a multiple of this order."""
        out = _RatioUnionFind.__new__(_RatioUnionFind)
        lift = order // self.order
        out.order = order
        out.parent = list(self.parent)
        out.ratio = [r * lift for r in self.ratio]
        out.dead = list(self.dead)
        return out

    def find(self, u: int) -> int:
        parent = self.parent
        root = parent[u]
        if parent[root] == root:
            # u is a root or hangs from one: no path to compress
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

    def _root_and_ratio(self, u: int):
        root = self.find(u)
        return (root, 0) if root == u else (root, self.ratio[u])

    def set_zero(self, u: int):
        root, _ = self._root_and_ratio(u)
        self.dead[root] = True

    def relate(self, u: int, v: int, mult: int):
        """Impose value[v] = zeta_N^mult * value[u]."""
        ru, qu = self._root_and_ratio(u)
        rv, qv = self._root_and_ratio(v)
        if ru == rv:
            if (qv - mult - qu) % self.order:
                self.dead[ru] = True
            return
        # attach rv below ru: value[rv] = zeta_N^(mult+qu-qv) * value[ru]
        self.parent[rv] = ru
        self.ratio[rv] = (mult + qu - qv) % self.order
        self.dead[ru] = self.dead[ru] or self.dead[rv]

    def classes(self):
        """root -> list of (member, ratio); dead roots omitted."""
        out: dict[int, list] = {}
        for u in range(len(self.parent)):
            root, q = self._root_and_ratio(u)
            if self.dead[root]:
                continue
            out.setdefault(root, []).append((u, q))
        return out


def _chase(uf: _RatioUnionFind, n: int, pattern, c: int) -> None:
    """Impose X a = zeta_N^c a X on the union-find over the positions
    i * n + j of X, for a given by its unit pattern and N = uf.order.

    With a[p_k, k] = zeta^e_k: X[p_k, p_j] = zeta^(c + e_k - e_j) X[k, j]
    for every two cells; a row outside the image or a column outside the
    domain of a forces X to vanish on the matching positions."""
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


# ---------------------------------------------------------------------------
# the commutant engine
# ---------------------------------------------------------------------------


class CommutantEngine:
    """Solves {X : X a = a X for a in the algebra basis, X h_i = c_i h_i X
    for the generators} for many scalar tuples against one fixed target.

    gens are operators, each a Monomial or a CycMatrix, and each scalar
    c_i = zeta_d^k is given as the integer pair (d, k).  Every solve runs
    the same two steps.  A constraint X a = c a X with a a partial
    monomial with root-of-unity entries relates the n^2 entries of X one
    or two at a time, so it goes into a ratio union-find over those
    positions, on integer exponents; the algebra's constraints are chased
    once, here, and each scalar tuple adds the generators' to a copy.
    Each union-find class is one pattern matrix.  Every other constraint
    (a dense or non-unit algebra element, a dense generator) then cuts
    that pattern basis with the dense kernel.
    """

    def __init__(self, n: int, algebra_basis, gens):
        self.n = n
        self.gens = list(gens)
        self._gen_patterns = [unit_pattern(h) for h in self.gens]
        patterns = []
        self._dense_algebra = []
        for a in algebra_basis:
            pattern = unit_pattern(a)
            if pattern is None:
                self._dense_algebra.append(a)
            else:
                patterns.append(pattern)
        self._algebra = _RatioUnionFind(n * n, math.lcm(*(p[0] for p in patterns)))
        for pattern in patterns:
            _chase(self._algebra, n, pattern, 0)
        # flatten every path once, so that each solve copies a flat forest
        for u in range(n * n):
            self._algebra.find(u)

    @staticmethod
    def from_spec(target: GroupSpec):
        return CommutantEngine(target.ambient.dim, target.algebra_basis(),
                               [target.operator(c) for c in target.generating_cosets()])

    def solve(self, scalars) -> list[CycMatrix]:
        """Exact basis of the twisted commutant for one scalar tuple, each
        scalar an integer root of unity (order, exponent)."""
        n = self.n
        if len(scalars) != len(self.gens):
            raise ValueError("need one scalar per generator")
        roots = [lowest_terms(d, k) for d, k in scalars]
        chased = [(pattern, root) for pattern, root in zip(self._gen_patterns, roots)
                  if pattern is not None]
        order = math.lcm(self._algebra.order, *(p[0] for p, _ in chased),
                         *(d for _, (d, _) in chased))
        uf = self._algebra.lifted(order)
        for pattern, (d, k) in chased:
            _chase(uf, n, pattern, k * (order // d))
        classes = uf.classes()
        basis = [
            CycMatrix.from_entries(n, n, {
                divmod(u, n): CycNum.root_of_unity(order, ratio)
                for u, ratio in classes[root]
            })
            for root in sorted(classes)
        ]
        cuts = [(a, ONE) for a in self._dense_algebra]
        cuts += [(h, CycNum.root_of_unity(d, k))
                 for h, pattern, (d, k) in zip(self.gens, self._gen_patterns, roots)
                 if pattern is None]
        for h, c in cuts:
            if not basis:
                break
            basis = _apply_twist_constraint(basis, h, c)
        return basis

    # -- invertible witnesses ------------------------------------------------

    def witness(self, basis, scalars) -> Monomial | CycMatrix | None:
        """A deterministic invertible element of the span, or None (exact);
        a Monomial when it is a unit monomial."""
        if not basis:
            return None
        if all(k % d == 0 for d, k in scalars):
            return Monomial.identity(self.n)
        conjugate = [(d, -k) for d, k in scalars]
        return _invertible_in_span(basis, self.n, fallback=lambda: self.solve(conjugate))


def _apply_twist_constraint(basis, h: CycMatrix, c: CycNum) -> list[CycMatrix]:
    """Cut a solution basis down by X h = c h X."""
    images = [(x @ h) - (h @ x).scale(c) for x in basis]
    rows = sorted({cell for img in images for cell in img.cells})
    if not rows:
        return list(basis)
    mat = CycMatrix(
        [[img.entry(i, j) for img in images] for (i, j) in rows]
    )
    kern = mat.kernel()
    out = []
    for vec in kern:
        acc = None
        for k, x in enumerate(basis):
            coeff = vec.entry(k, 0)
            if coeff.is_zero():
                continue
            term = x.scale(coeff)
            acc = term if acc is None else acc + term
        if acc is not None:
            out.append(acc)
    return out


# -- invertible-element search ------------------------------------------------


def _det_nonzero(mat: CycMatrix) -> bool:
    n = mat.rows
    if len({i for i, _ in mat.cells}) < n or len({j for _, j in mat.cells}) < n:
        # an empty row or column: singular
        return False
    if len(mat.cells) == n:
        # one nonzero cell in every row and every column: a scaled permutation
        return True
    return mat.rank() == n


def _combine(cells, coeffs, n: int) -> CycMatrix | None:
    """The n x n sum of c * x over the nonzero coefficients, each x given
    by its nonzero cells; None when no coefficient is nonzero."""
    acc = {}
    for x, c in zip(cells, coeffs):
        if c == 0:
            continue
        c = CycNum.from_rational(c)
        for cell, v in x.items():
            w = acc.get(cell)
            acc[cell] = c * v if w is None else w + c * v
    if not acc:
        return None
    return CycMatrix.from_entries(n, n, acc)


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
           67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
           139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
           211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277,
           281, 283, 293, 307, 311]


def _sample_vectors(dim: int, n: int):
    """Deterministic coefficient samples; the fast path of the witness search."""
    for k in range(dim):
        yield tuple(1 if i == k else 0 for i in range(dim))
    yield (1,) * dim
    yield tuple(_PRIMES[i % len(_PRIMES)] for i in range(dim))
    yield tuple(pow(2, i, n * dim + 3) for i in range(dim))
    state = dim * 2654435761 % (2 ** 32)
    produced = dim + 3
    while produced < 64:
        vec = []
        for _ in range(dim):
            state = (1103515245 * state + 12345) % (2 ** 31)
            vec.append(state % (dim * n + 1))
        produced += 1
        yield tuple(vec)


def _invertible_in_span(basis, n: int, fallback=None) -> Monomial | CycMatrix | None:
    """Exact search for an invertible element of a matrix span, returned
    as a Monomial when it is a unit monomial.

    Deterministic samples first; if they all fail, a product grid of size
    n+1 per coordinate decides existence exactly (the determinant has
    degree at most n in each coordinate, so it cannot vanish on the whole
    grid unless it is identically zero).  A cheap necessary condition via
    the conjugate space prunes the common no-witness case first.
    """
    dim = len(basis)
    cells = [x.cells for x in basis]
    tried = set()
    for coeffs in _sample_vectors(dim, n):
        if coeffs in tried:
            continue
        tried.add(coeffs)
        cand = _combine(cells, coeffs, n)
        if cand is not None and _det_nonzero(cand):
            return Monomial.from_matrix(cand) or cand
    if fallback is not None:
        conj = fallback()
        if conj is not None:
            products = VectorSpan(n * n)
            ident = CycMatrix.identity(n).flat_cells()
            found = False
            for x in basis:
                for y in conj:
                    products.add((x @ y).flat_cells())
                    if products.contains(ident):
                        found = True
                        break
                if found:
                    break
            if not found:
                # an invertible w in the span would put I = w w^{-1} here
                return None
    if (n + 1) ** dim > 2_000_000:
        raise WitnessSearchUndecided(
            "invertibility undecided by sampling and the grid bound is "
            f"impractical (dim {dim}, ambient {n})"
        )
    for coeffs in itertools.product(range(n + 1), repeat=dim):
        if coeffs in tried:
            continue
        cand = _combine(cells, coeffs, n)
        if cand is not None and _det_nonzero(cand):
            return Monomial.from_matrix(cand) or cand
    return None


# ---------------------------------------------------------------------------
# projective centralizers
# ---------------------------------------------------------------------------


def projective_order(op, spec: GroupSpec, bound: int) -> int:
    """Least m in 1..bound with op^m inside the identity-component algebra
    of spec (up to scalar), for an operator given as a Monomial or a
    CycMatrix."""
    power = op
    for m in range(1, bound + 1):
        if spec.algebra_contains(power):
            return m
        power = power @ op
    raise ValueError(
        f"generator power does not enter the identity component within {bound} steps"
    )


def _normalize_projective(op):
    """The multiple of an operator whose row-major first nonzero value is
    1; a Monomial is rescaled on its integer exponents."""
    if isinstance(op, Monomial):
        # the first nonzero value sits in row 0
        first = op.exps[op.perm.index(0)]
        return Monomial.from_exponents(op.perm, op.order,
                                       [(e - first) % op.order for e in op.exps])
    pos = op.first_nonzero()
    return op if pos is None else op.scale(op.cells[pos].inverse())


def compute_centralizer(target: GroupSpec, workers: int = 1) -> GroupSpec:
    """The full preimage in GL(U) of the centralizer of the target's image.

    Scalar tuples run over roots of unity whose order divides both the
    generator's projective order modulo the identity component and the
    ambient dimension (an invertible solution forces c^n = 1 by taking
    determinants); each surviving tuple contributes one component.

    The surviving tuples form a subgroup S (x y has tuple t + t'), so most
    of them need no solve.  The tuples are walked in order with a known
    subgroup S0 of S, each element with its witness, and a set of tuples
    known to lie outside S, a union of cosets of S0.  A tuple in neither
    is solved.  When it survives, S0 grows by its multiples; the witness
    of each new coset is a product of witnesses, and the dead set is
    translated by the new multiples.  When it fails, so does every tuple
    of t + S0, since S0 lies in S.  The zero tuple is the identity
    component, solved once on its own.

    workers has no effect: the closure leaves a handful of solves, each
    depending on the ones before.  It stays for callers that still pass
    it.
    """
    n = target.ambient.dim
    engine = CommutantEngine.from_spec(target)
    moduli = []
    for coords, d in zip(target.generating_cosets(), target.component_group.invariant_factors):
        m = projective_order(target.operator(coords), target, d)
        moduli.append(math.gcd(m, n))

    def add(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, moduli))

    zero = tuple(0 for _ in moduli)
    known = {zero: Monomial.identity(n)}
    dead = set()
    for t in itertools.product(*(range(m) for m in moduli)):
        if t in known or t in dead:
            continue
        scalars = list(zip(moduli, t))
        basis = engine.solve(scalars)
        w = engine.witness(basis, scalars) if basis else None
        if w is None:
            dead.update(add(t, s) for s in known)
            continue
        old = list(known.items())
        shifts = []
        step, power = t, w
        while step not in known:
            shifts.append(step)
            for s, ws in old:
                known[add(s, step)] = power if s == zero else ws @ power
            step = add(step, t)
            if step not in known:
                power = power @ w
        dead.update([add(d, u) for d in dead for u in shifts])

    identity_basis = engine.solve([(1, 0)] * len(moduli))
    if not identity_basis:
        raise IdentityComponentNotSemisimpleBlocks("untwisted commutant is empty")
    _check_semisimple(identity_basis)

    comp_group, to_canonical = subgroup_from_elements(moduli, list(known))
    if comp_group.order != len(known):
        raise AssertionError("surviving scalar tuples do not form a group")
    generators = {to_canonical(exps): _normalize_projective(w) for exps, w in known.items()}
    return GroupSpec(target.ambient, None, comp_group, generators, algebra_basis=identity_basis)


def projective_centralizer(target: GroupSpec) -> GroupSpec:
    return compute_centralizer(target)


def _check_semisimple(basis) -> None:
    """Trace-form nondegeneracy: exact criterion for a direct sum of full
    matrix algebras over an algebraically closed field."""
    dim = len(basis)
    cells = [a.cells for a in basis]
    gram = []
    for a in cells:
        row = []
        for b in cells:
            # tr(a b) = sum over a's cells of a[i, j] * b[j, i]
            acc = ZERO
            for (i, j), va in a.items():
                vb = b.get((j, i))
                if vb is not None:
                    acc = acc + va * vb
            row.append(acc)
        gram.append(row)
    if CycMatrix(gram).rank() != dim:
        raise IdentityComponentNotSemisimpleBlocks(
            "untwisted commutant is not a direct sum of full matrix algebras"
        )


# ---------------------------------------------------------------------------
# pairing tables and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingTable:
    """Commutator scalars on component pairs as (order, exponent) roots of
    unity, rows and columns in element-enumeration order."""

    gamma: FinAbGroup
    delta: FinAbGroup
    values: tuple[tuple[tuple[int, int], ...], ...]

    def is_nondegenerate(self) -> bool:
        rows = set(self.values)
        if len(rows) != len(self.values):
            return False
        cols = set()
        for j in range(len(self.values[0])):
            cols.add(tuple(self.values[i][j] for i in range(len(self.values))))
        return len(cols) == len(self.values[0])

    def is_bicharacter(self) -> bool:
        gamma_elems = list(self.gamma.elements())
        delta_elems = list(self.delta.elements())
        idx_g = {e.coords: i for i, e in enumerate(gamma_elems)}
        idx_d = {e.coords: i for i, e in enumerate(delta_elems)}
        # every value as an exponent mod the lcm of the orders
        order = math.lcm(*(d for row in self.values for d, _ in row))
        expo = [[k * (order // d) for d, k in row] for row in self.values]

        for a in gamma_elems:
            ia = idx_g[a.coords]
            for b in gamma_elems:
                s, ib = idx_g[(a + b).coords], idx_g[b.coords]
                for j in range(len(delta_elems)):
                    if expo[s][j] != (expo[ia][j] + expo[ib][j]) % order:
                        return False
        for a in delta_elems:
            ja = idx_d[a.coords]
            for b in delta_elems:
                s, jb = idx_d[(a + b).coords], idx_d[b.coords]
                for row in expo:
                    if row[s] != (row[ja] + row[jb]) % order:
                        return False
        return True

    def to_json_dict(self):
        return {
            "gamma": {"invariant_factors": list(self.gamma.invariant_factors)},
            "delta": {"invariant_factors": list(self.delta.invariant_factors)},
            "values": [[list(v) for v in row] for row in self.values],
        }


def pairing_table(g: GroupSpec, h: GroupSpec, *, from_generators: bool = False) -> PairingTable:
    """The table of commutator scalars over all component pairs.

    Well-defined on components: scalars cancel in commutators, so the
    choice of generator representatives does not matter.  Each value is
    commutator_scalar's reduced (order, exponent), whose order divides
    the ambient dimension.  By default every pair of cosets takes one
    commutator; h's operators are read once.

    from_generators=True takes commutators on the generating cosets only,
    as exponents T_ij over N, the lcm of their orders, and expands coset
    pair (c, c') as lowest_terms(N, sum c_i c'_j T_ij).  That is the same
    table only when the pairing is a bicharacter on the coset labels:
    verify_dual_pair asks for it once both comparisons have passed, and
    says why that suffices.
    """
    if from_generators:
        gen_rows = [[commutator_scalar(g.operator(a), h.operator(b))
                     for b in h.generating_cosets()] for a in g.generating_cosets()]
        order = math.lcm(*(d for row in gen_rows for d, _ in row))
        expo = [[k * (order // d) for d, k in row] for row in gen_rows]
        reduced = [lowest_terms(order, k) for k in range(order)]
        h_cosets = h.cosets()
        rows = []
        for c in g.cosets():
            # coset c's exponent against each generating coset of h
            against = [sum(ci * row[j] for ci, row in zip(c, expo))
                       for j in range(h.component_group.rank)]
            rows.append(tuple([reduced[sum(a * b for a, b in zip(against, c2)) % order]
                               for c2 in h_cosets]))
        return PairingTable(g.component_group, h.component_group, tuple(rows))
    h_ops = [h.operator(c) for c in h.cosets()]
    rows = []
    for c in g.cosets():
        g_op = g.operator(c)
        rows.append(tuple([commutator_scalar(g_op, h_op) for h_op in h_ops]))
    return PairingTable(g.component_group, h.component_group, tuple(rows))


FAIL_CENTRALIZER_LARGER = "CENTRALIZER_LARGER"
FAIL_CENTRALIZER_SMALLER = "CENTRALIZER_SMALLER"
FAIL_PAIRING_DEGENERATE = "PAIRING_DEGENERATE"
FAIL_IDENTITY_COMPONENT_MISMATCH = "IDENTITY_COMPONENT_MISMATCH"


@dataclass(frozen=True)
class VerificationFailure:
    code: str
    detail: str

    def to_json_dict(self):
        return {"code": self.code, "detail": self.detail}


@dataclass
class VerificationReport:
    is_dual_pair: bool
    g_dim: int
    h_dim: int
    g_components: int
    h_components: int
    pairing: PairingTable | None
    failures: list[VerificationFailure] = field(default_factory=list)

    def failure_codes(self):
        return [f.code for f in self.failures]

    def to_json_dict(self):
        return {
            "is_dual_pair": self.is_dual_pair,
            "g_dim": self.g_dim,
            "h_dim": self.h_dim,
            "g_components": self.g_components,
            "h_components": self.h_components,
            "pairing": self.pairing.to_json_dict() if self.pairing else None,
            "failures": [f.to_json_dict() for f in self.failures],
        }


def spec_contains(outer: GroupSpec, inner: GroupSpec) -> bool:
    """Is inner a subgroup of outer, up to scalars?

    Precondition: each spec's coset table is a group, that is, each coset
    holds its word in the generating cosets.  The constructions and
    compute_centralizer build such tables, and pair_from_json checks it
    through GroupSpec.validate.  Then inner is generated by its identity
    component and its generating cosets, so it lies in the group outer
    when outer's algebra holds inner's and each generating coset of inner
    lies in some coset of outer.
    """
    if not outer.algebra_span().contains_span(inner.algebra_span()):
        return False
    return all(
        any(outer.coset_contains(oc, inner.operator(ic)) for oc in outer.cosets())
        for ic in inner.generating_cosets()
    )


def _compare_with_centralizer(claimed: GroupSpec, computed: GroupSpec):
    """Failures from comparing a claimed side against the computed
    centralizer of the other side, as the two containments."""
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


def verify_dual_pair(g: GroupSpec, h: GroupSpec) -> VerificationReport:
    """Check the mutual-centralizer axioms from first principles.

    Computes the projective centralizer of each side and decides both
    containments between it and the other side with spec_contains (both
    hold: no failure; only claimed <= centralizer: CENTRALIZER_LARGER; only
    centralizer <= claimed: CENTRALIZER_SMALLER; neither:
    IDENTITY_COMPONENT_MISMATCH); fills the
    component pairing table and checks that it is nondegenerate with
    matching component counts.  Precondition, as for spec_contains: each
    side's coset table is a group.

    Once both comparisons pass, the table is a bicharacter and is expanded
    from the generating cosets (pairing_table(from_generators=True)):
    commutator scalars are central, so [g1 g2, h] = [g1, h] [g2, h], and
    likewise in the second argument; each side then centralizes the
    other's identity-component algebra on the nose, so a value depends
    only on the two components; and each coset holds its word in the
    generating cosets.  A pair that fails a comparison gets the full
    table, one commutator per coset pair, so its report shows every
    value that is defined.
    """
    if not g.ambient.compatible_with(h.ambient):
        raise ShapeMismatch(
            f"ambient spaces differ: {g.ambient.summand_dims()} vs {h.ambient.summand_dims()}"
        )
    failures = _compare_with_centralizer(g, compute_centralizer(h))
    for fail in _compare_with_centralizer(h, compute_centralizer(g)):
        failures.append(VerificationFailure(fail.code, "mirror check: " + fail.detail))

    table = None
    try:
        table = pairing_table(g, h, from_generators=not failures)
        if g.component_count() != h.component_count() or not table.is_nondegenerate():
            failures.append(VerificationFailure(
                FAIL_PAIRING_DEGENERATE,
                f"pairing table degenerate or size mismatch "
                f"({g.component_count()} vs {h.component_count()})",
            ))
    except NotProjectivelyCommuting as exc:
        failures.append(VerificationFailure(
            FAIL_PAIRING_DEGENERATE, f"pairing not defined: {exc}"
        ))

    return VerificationReport(
        is_dual_pair=not failures,
        g_dim=g.identity_component_dim(),
        h_dim=h.identity_component_dim(),
        g_components=g.component_count(),
        h_components=h.component_count(),
        pairing=table,
        failures=failures,
    )


def specs_equal(a: GroupSpec, b: GroupSpec) -> bool:
    """Equality of two specified subgroups of the same GL(U), up to scalars.

    Precondition, as for spec_contains: each spec's coset table is a group.
    a lies in b by spec_contains; with equal identity dimensions the
    algebras are then equal, and with equal component counts each coset of
    a fills one coset of b (distinct cosets are disjoint), so a = b.
    """
    return (a.ambient.dim == b.ambient.dim
            and a.component_count() == b.component_count()
            and a.identity_component_dim() == b.identity_component_dim()
            and spec_contains(b, a))
