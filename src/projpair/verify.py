"""First-principles verification of the mutual-centralizer axioms.

The centralizer of a specified subgroup, taken in PGL(U), is computed
exactly: a matrix centralizes the image projectively iff it commutes with
the identity-component algebra on the nose and commutes with each
component generator up to a root-of-unity scalar.  For each admissible
scalar tuple the twisted commutant B is an exact linear solve; a tuple
contributes one component of the centralizer iff B contains an
invertible element, and dimension decides that:
- if X in B is invertible, then B = X A', A' the untwisted commutant;
- for a reductive target, dim B = sum m_pi m_(pi (x) chi) <= sum m_pi^2
  = dim A', with equality iff rho = rho (x) chi (Schur's lemma and
  Cauchy-Schwarz; Serre, Linear Representations of Finite Groups, ch. 2).
A tuple of another dimension is dead, and the witness search runs only
on the rest.  For a raw algebra basis that is not semisimple (no
construction makes one) an equal dimension may hold no invertible
element; the exhaustive grid then says so, or hits its bound.

The form of each generator, a Monomial or a dense matrix, is decided
once, by GroupSpec.operator; everything here takes those operators and
chooses no form itself, and a product of two forms is matrep's @.
CommutantEngine takes an identity-component Algebra and the generators,
nothing else, and every solve takes one scalar per generator as an
integer root of unity (order, exponent), the form in which
compute_centralizer enumerates them.  A constraint X a = c a X in
which a is a partial monomial with root-of-unity entries ties the
entries of X together one or two at a time, so it goes into a ratio
union-find over the n^2 positions of X, on integer exponents of one
root of unity.  The translation and character operators of the
constructions, the matrix units of their block algebras and the pattern
matrices of computed centralizers are all of this kind, and the engine
reads the algebra's elements off the classes of its matrep.PatternBasis,
so a block spec builds no matrix unit.  The union-find's classes come
back as a PatternBasis, and a computed centralizer keeps its identity
basis in that form.  Whatever is not a partial monomial (a dense
algebra element or generator) then cuts the pattern basis with the
dense kernel.  CycNum appears only at that boundary, in a witness
candidate and when something reads a basis as matrices.  The witness
search reads a candidate's row and column cover off the classes'
supports, turns down one with an empty row or column without building
it, and writes each cell of the rest as one root of unity times its
coefficient.  A witness that is a unit monomial comes back as a
Monomial and is normalized on its exponents, so a computed centralizer
stores it as one.  The scalar tuples of the solves and the commutator
scalars of the pairing table are integer pairs (order, exponent)
throughout.

Work is done on generators where the group structure allows it.  The
surviving scalar tuples form a subgroup, so compute_centralizer solves
only tuples outside the subgroup its survivors so far generate, names
the component group from the solved survivors, which generate it, and
multiplies out witnesses for its generating cosets alone.  Every coset
of a GroupSpec is its word in those, so pairing_table takes commutators
of the generating cosets only and keeps them as a generator matrix T.
Everything runs in one process.  Each side lies in the other's
centralizer iff the pair commutes, one symmetric fact that
verify_dual_pair decides once, from the pairing table and two algebra
inclusions.

The rest of a verification reads labels.  Each coset c of a side has
the label v(c) = sum_i c_i T_i mod N, its commutator tuple against the
other side's generating cosets, and the labels of all |Gamma| cosets
take O(|Gamma| rank) integer sums.  Two rows of the table are equal iff
their labels are (every invariant factor is at least 2, so the unit
vectors are among the columns), so the table is nondegenerate iff the
row labels are distinct and so are the column labels.  On a commuting
pair, a coset of g lies in the component of Z(h) that its label names,
so Z(h) lies in g iff g's algebra holds Z(h)'s and g's cosets carry as
many distinct labels as Z(h) has components.  No coset_contains call is
left on a commuting pair, and the full table is built only when read.
A pair that does not commute still takes the subgroup test
spec_contains: one spec lies in another when its algebra does and each
of its generating cosets lies in some coset of the other, tested with
GroupSpec.coset_contains.  specs_equal runs that scan once, and a
second time only when the cosets it finds do not generate the other
spec's component group.  Every question about an identity-component
algebra (membership, inclusion, dimension, the trace form) goes to its
matrep.Algebra.  The tests cross-check the engine against a purely dense
solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from operator import matmul

from .abelian import FinAbGroup, generator_coefficients, subgroup_from_elements
from .construct import GroupSpec
from .cyclo import ONE, CycMatrix, CycNum, check_conductor
from .errors import (
    IdentityComponentNotSemisimpleBlocks,
    NotProjectivelyCommuting,
    ShapeMismatch,
    WitnessSearchUndecided,
)
from .matrep import (
    Algebra,
    Monomial,
    PatternBasis,
    commutator_scalar,
    lowest_terms,
    unit_pattern,
)


# ---------------------------------------------------------------------------
# ratio union-find over solution unknowns
# ---------------------------------------------------------------------------


class _RatioUnionFind:
    """Union-find over the positions u = i * n + j of an n x n matrix,
    where each position carries value[u] = zeta_N^ratio[u] * value[root],
    the ratio an integer mod N; inconsistent relations collapse a class to
    zero."""

    def __init__(self, n: int, order: int):
        self.n = n
        self.order = order
        self.parent = list(range(n * n))
        self.ratio = [0] * (n * n)
        self.dead = [False] * (n * n)

    def lifted(self, order: int) -> "_RatioUnionFind":
        """A copy over a multiple of this order."""
        out = _RatioUnionFind.__new__(_RatioUnionFind)
        lift = order // self.order
        out.n = self.n
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

    def pattern(self) -> PatternBasis:
        """The live classes as a root pattern over the least order N: class
        b, numbered in root order, holds zeta_N^k at each member u with
        where[u] == (b, k), k its ratio to the root."""
        found = [self._root_and_ratio(u) for u in range(len(self.parent))]
        index = {root: b for b, root in enumerate(sorted(
            {root for root, _ in found if not self.dead[root]}))}
        sizes = [0] * len(index)
        where = {}
        for u, (root, q) in enumerate(found):
            b = index.get(root)
            if b is not None:
                where[u] = (b, q)
                sizes[b] += 1
        g = math.gcd(self.order, *(q for _, q in where.values()))
        if g > 1:
            where = {u: (b, q // g) for u, (b, q) in where.items()}
        return PatternBasis(self.n, self.order // g, where, tuple(sizes))


def _chase(uf: _RatioUnionFind, pattern, c: int) -> None:
    """Impose X a = zeta_N^c a X on the union-find over the positions
    i * n + j of X, for a given by its unit pattern, n = uf.n and
    N = uf.order.

    With a[p_k, k] = zeta^e_k: X[p_k, p_j] = zeta^(c + e_k - e_j) X[k, j]
    for every two cells; a row outside the image or a column outside the
    domain of a forces X to vanish on the matching positions."""
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


# ---------------------------------------------------------------------------
# the commutant engine
# ---------------------------------------------------------------------------


class CommutantEngine:
    """Solves {X : X a = a X for a in the algebra basis, X h_i = c_i h_i X
    for the generators} for many scalar tuples against one fixed target.

    The algebra is the target's matrep.Algebra, and n its size.  gens are
    operators, each a Monomial or a CycMatrix, and each scalar
    c_i = zeta_d^k is given as the integer pair (d, k).  Every solve runs
    the same two steps.  A constraint X a = c a X with a a partial
    monomial with root-of-unity entries relates the n^2 entries of X one
    or two at a time, so it goes into a ratio union-find over those
    positions, on integer exponents; the algebra's constraints are chased
    once, here, and each scalar tuple adds the generators' to a copy.
    The algebra's elements are read off the classes of its PatternBasis
    (Algebra.unit_patterns), so a block spec builds no matrix unit.
    The union-find's classes come back as a PatternBasis, whose CycMatrix
    cells are built only when it is iterated.  Every other constraint (a
    dense or non-unit algebra element, a dense generator) then cuts that
    basis with the dense kernel, and the solve returns the cut basis as a
    list of CycMatrix.
    """

    def __init__(self, algebra: Algebra, gens):
        n = self.n = algebra.n
        self.gens = list(gens)
        self._gen_patterns = [unit_pattern(h) for h in self.gens]
        unit_patterns = algebra.unit_patterns()
        patterns = [p for p in unit_patterns if p is not None]
        self._dense_algebra = [algebra.basis[b] for b, p in enumerate(unit_patterns)
                               if p is None]
        self._algebra = _RatioUnionFind(n, math.lcm(*(p[0] for p in patterns)))
        for pattern in patterns:
            _chase(self._algebra, pattern, 0)
        # flatten every path once, so that each solve copies a flat forest
        for u in range(n * n):
            self._algebra.find(u)

    @staticmethod
    def from_spec(target: GroupSpec):
        return CommutantEngine(
            target.algebra(), [target.operator(c) for c in target.generating_cosets()])

    def solve(self, scalars) -> PatternBasis | list[CycMatrix]:
        """Exact basis of the twisted commutant for one scalar tuple, each
        scalar an integer root of unity (order, exponent): a PatternBasis,
        or a list of CycMatrix after a dense cut.  The basis's order is
        checked against the conductor cap."""
        if len(scalars) != len(self.gens):
            raise ValueError("need one scalar per generator")
        roots = [lowest_terms(d, k) for d, k in scalars]
        chased = [(pattern, root) for pattern, root in zip(self._gen_patterns, roots)
                  if pattern is not None]
        order = math.lcm(self._algebra.order, *(p[0] for p, _ in chased),
                         *(d for _, (d, _) in chased))
        uf = self._algebra.lifted(order)
        for pattern, (d, k) in chased:
            _chase(uf, pattern, k * (order // d))
        basis = uf.pattern()
        if basis:
            check_conductor(basis.order)
        cuts = [(a, ONE) for a in self._dense_algebra]
        cuts += [(h, CycNum.root_of_unity(d, k))
                 for h, pattern, (d, k) in zip(self.gens, self._gen_patterns, roots)
                 if pattern is None]
        if not cuts or not basis:
            return basis
        basis = basis.matrices()
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
        return _invertible_in_span(basis, self.n)


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


def _pattern_combiner(basis: PatternBasis):
    """The candidate builder of the witness search on a PatternBasis:
    coeffs -> the n x n sum of c * x over the nonzero coefficients, or None
    when those matrices leave a row or a column empty (so the sum is
    singular).  The supports are disjoint, so the cover is read off the
    classes as bit masks and each cell is one root of unity, times c when
    c is not 1, with no sum."""
    n, order = basis.n, basis.order
    cells, row_masks, col_masks = [], [], []
    for members in basis.classes:
        rows = cols = 0
        for i, j, _ in members:
            rows |= 1 << i
            cols |= 1 << j
        cells.append([((i, j), CycNum.root_of_unity(order, k)) for i, j, k in members])
        row_masks.append(rows)
        col_masks.append(cols)
    full = (1 << n) - 1

    def combine(coeffs) -> CycMatrix | None:
        rows = cols = 0
        for c, row_mask, col_mask in zip(coeffs, row_masks, col_masks):
            if c:
                rows |= row_mask
                cols |= col_mask
        if rows != full or cols != full:
            return None
        acc = {}
        for x, c in zip(cells, coeffs):
            if c == 1:
                acc.update(x)
            elif c:
                c = CycNum.from_rational(c)
                for cell, v in x:
                    acc[cell] = c * v
        return CycMatrix.from_entries(n, n, acc)

    return combine


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
           67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
           139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
           211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277,
           281, 283, 293, 307, 311]


def _sample_vectors(dim: int, n: int):
    """Deterministic coefficient samples; the fast path of the witness search.

    The dim unit vectors and three fixed vectors, then pseudo-random ones:
    up to 64 samples in all, and never fewer than 8 pseudo-random ones.
    The floor is for spans of dim 61 or more: the (8, 1, 1, 1, Z2) row at
    n = 16 spans 128 single-cell matrices, so every unit and fixed vector
    is singular, and its grid is far over the bound.  The extra samples
    come after those of the 64 limit, where every grid is over the bound,
    so they can only turn an undecided search into a witness."""
    for k in range(dim):
        yield tuple(1 if i == k else 0 for i in range(dim))
    yield (1,) * dim
    yield tuple(_PRIMES[i % len(_PRIMES)] for i in range(dim))
    yield tuple(pow(2, i, n * dim + 3) for i in range(dim))
    state = dim * 2654435761 % (2 ** 32)
    produced = dim + 3
    while produced < max(64, dim + 11):
        vec = []
        for _ in range(dim):
            state = (1103515245 * state + 12345) % (2 ** 31)
            vec.append(state % (dim * n + 1))
        produced += 1
        yield tuple(vec)


def _invertible_in_span(basis, n: int) -> Monomial | CycMatrix | None:
    """Exact search for an invertible element of a matrix span, returned
    as a Monomial when it is a unit monomial.

    Deterministic samples first.  If they all fail, a product grid of size
    n+1 per coordinate decides existence exactly (the determinant has
    degree at most n in each coordinate, so it cannot vanish on the whole
    grid unless it is identically zero); a grid over the bound raises
    WitnessSearchUndecided.

    compute_centralizer asks only about a twisted commutant B whose
    dimension equals that of the untwisted commutant A':
    - if X in B is invertible, then B = X A';
    - for a reductive target, dim B = sum m_pi m_(pi (x) chi) <= sum
      m_pi^2 = dim A', with equality iff rho = rho (x) chi.
    So B holds an invertible element and the search only has to find it.
    For a target given by a raw algebra basis that is not semisimple (no
    construction makes one), B may hold none; then the grid says "no", or
    hits its bound.
    """
    dim = len(basis)
    if isinstance(basis, PatternBasis):
        combine = _pattern_combiner(basis)
    else:
        cells = [x.cells for x in basis]
        combine = partial(_combine, cells, n=n)
    for coeffs in _sample_vectors(dim, n):
        cand = combine(coeffs)
        if cand is not None and _det_nonzero(cand):
            return Monomial.from_matrix(cand) or cand
    if (n + 1) ** dim > 2_000_000:
        raise WitnessSearchUndecided(
            "invertibility undecided by sampling and the grid bound is "
            f"impractical (dim {dim}, ambient {n})"
        )
    for coeffs in itertools.product(range(n + 1), repeat=dim):
        cand = combine(coeffs)
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
        if spec.algebra().contains(power):
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
    subgroup S0 of S, each element with its word over the solved
    survivors, and a tuple outside S0 is solved.  When it survives, S0
    grows by its multiples, each new word one survivor's power longer.
    A failing tuple costs that one solve, and its dimension decides it
    (below).  The zero tuple is the identity component, solved once on
    its own, before the walk.

    A solved tuple survives iff its twisted commutant B holds an
    invertible element, and its dimension decides that:
    - if X in B is invertible, then B = X A', A' the untwisted commutant;
    - for a reductive target, dim B = sum m_pi m_(pi (x) chi) <= sum
      m_pi^2 = dim A', with equality iff rho = rho (x) chi (Schur's lemma
      and Cauchy-Schwarz).
    So a tuple with dim B != dim A' is dead with no witness search: sound
    for every target, and complete for a reductive one (block specs, and
    computed centralizers, whose algebra is checked semisimple), where the
    search on the rest only has to find a witness.  A target given by a
    raw algebra basis that is not semisimple can have dim B = dim A' and
    no invertible element; the grid of _invertible_in_span then says "no"
    exactly, or hits its bound and raises WitnessSearchUndecided.

    The component group and its coset labels come from
    subgroup_from_elements on the solved survivors alone.  Each of them
    grows S0 when it is solved, so they generate S, and there are at most
    log2 |S| of them; the order of the group they name is still checked
    against the number of known tuples.  Each generating coset's tuple is
    an integer combination of the survivors (generator_coefficients on
    their canonical coordinates), so no other tuple is mapped, and only
    those words are multiplied out (witness powers in survivor order) and
    normalized.

    The returned spec's algebra is the identity solve's basis, a
    PatternBasis unless a dense cut made it a list, so the trace form is
    checked on its pattern, and its matrices are built only when
    something reads them (the Gram fallback of that check included).

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
    identity_basis = engine.solve([(1, 0)] * len(moduli))
    if not identity_basis:
        raise IdentityComponentNotSemisimpleBlocks("untwisted commutant is empty")
    # each known tuple's word: (witness, power) pairs in survivor order
    known = {zero: ()}
    # the solved survivors: each one grows known, so they generate it
    survivors = []
    for t in itertools.product(*(range(m) for m in moduli)):
        if t in known:
            continue
        scalars = list(zip(moduli, t))
        basis = engine.solve(scalars)
        # an invertible X gives B = X A', so any other dimension is dead
        w = engine.witness(basis, scalars) if len(basis) == len(identity_basis) else None
        if w is None:
            continue
        survivors.append(t)
        old = list(known.items())
        step, power = t, 1
        while step not in known:
            for s, word in old:
                known[add(s, step)] = word + ((w, power),)
            step, power = add(step, t), power + 1

    comp_group, to_canonical = subgroup_from_elements(moduli, survivors)
    if comp_group.order != len(known):
        raise AssertionError("surviving scalar tuples do not form a group")
    generators = {(0,) * comp_group.rank: Monomial.identity(n)}
    # each generating coset's tuple, as a combination of the survivors
    images = [to_canonical(s) for s in survivors]
    for g, coeffs in zip(comp_group.generators(), generator_coefficients(images, comp_group)):
        t = tuple(sum(a * s[i] for a, s in zip(coeffs, survivors)) % m
                  for i, m in enumerate(moduli))
        op = reduce(matmul, [w ** power for w, power in known[t]])
        generators[g.coords] = _normalize_projective(op)
    spec = GroupSpec(target.ambient, None, comp_group, generators,
                     algebra_basis=Algebra(n, identity_basis))
    if not spec.algebra().is_semisimple():
        raise IdentityComponentNotSemisimpleBlocks(
            "untwisted commutant is not a direct sum of full matrix algebras")
    return spec


def projective_centralizer(target: GroupSpec) -> GroupSpec:
    return compute_centralizer(target)


# ---------------------------------------------------------------------------
# pairing tables and reports
# ---------------------------------------------------------------------------


def _mixed_radix_sums(xs, factors, order: int) -> list[int]:
    """sum_i c_i xs[i] mod order for every c in itertools.product order
    over range(factors[i]): one added step per coordinate."""
    sums = [0]
    for x, d in zip(xs, factors):
        steps = [k * x % order for k in range(d)]
        sums = [(s + step) % order for s in sums for step in steps]
    return sums


def _labels(coefficients, factors, order: int) -> list[tuple[int, ...]]:
    """For every c in itertools.product order over range(factors[i]), the
    label whose k-th entry is sum_i c_i coefficients[k][i] mod order: one
    _mixed_radix_sums list per entry."""
    entries = [_mixed_radix_sums(xs, factors, order) for xs in coefficients]
    return list(zip(*entries)) if entries else [()] * math.prod(factors)


@dataclass(frozen=True)
class PairingTable:
    """The commutator pairing of two component groups, kept as its
    generator matrix: generators[i][j] is the exponent, over order, of the
    commutator of gamma's i-th generating coset with delta's j-th, and
    order is the lcm of those commutators' orders.  The value at a coset
    pair (c, c') is zeta_order^(sum_ij c_i c'_j generators[i][j]).

    Each coset c of gamma has a row label, v(c) = sum_i c_i generators[i]
    mod order: its commutator tuple against delta's generating cosets.
    Row c is the list of sums sum_j c'_j v(c)_j over delta's cosets c'.
    Every invariant factor is at least 2, so the unit vectors are among
    the c', and two rows are equal iff their labels are.  Columns carry
    labels the same way.  So is_nondegenerate asks only that the labels
    be distinct, in O(|gamma| rank + |delta| rank), exactly for every
    table, and values (reduced (order, exponent) pairs, rows and columns
    in element-enumeration order) is built only when something reads it.
    """

    gamma: FinAbGroup
    delta: FinAbGroup
    order: int
    generators: tuple[tuple[int, ...], ...]

    @cached_property
    def row_labels(self) -> list[tuple[int, ...]]:
        columns = [[row[j] for row in self.generators] for j in range(self.delta.rank)]
        return _labels(columns, self.gamma.invariant_factors, self.order)

    @cached_property
    def column_labels(self) -> list[tuple[int, ...]]:
        return _labels(self.generators, self.delta.invariant_factors, self.order)

    @cached_property
    def distinct_rows(self) -> int:
        return len(set(self.row_labels))

    @cached_property
    def distinct_columns(self) -> int:
        return len(set(self.column_labels))

    def is_nondegenerate(self) -> bool:
        """No two rows are equal and no two columns are: the labels are
        distinct."""
        return (self.distinct_rows == self.gamma.order
                and self.distinct_columns == self.delta.order)

    def row_sums(self):
        """Each row's exponents over order, rows in element-enumeration
        order."""
        factors = self.delta.invariant_factors
        for label in self.row_labels:
            yield _mixed_radix_sums(label, factors, self.order)

    @cached_property
    def values(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        reduced = [lowest_terms(self.order, k) for k in range(self.order)]
        return tuple(tuple([reduced[v] for v in sums]) for sums in self.row_sums())

    def to_json_dict(self):
        return {
            "gamma": {"invariant_factors": list(self.gamma.invariant_factors)},
            "delta": {"invariant_factors": list(self.delta.invariant_factors)},
            # json writes the (order, exponent) tuples as arrays
            "values": self.values,
        }


def pairing_table(g: GroupSpec, h: GroupSpec) -> PairingTable:
    """The commutator pairing of g's and h's component groups, from the
    generating cosets alone.

    Every coset of a GroupSpec is its word in the generating cosets, and
    scalars are central, so [g1 g2, h] = [g1, h] [g2, h] once the
    generators' commutators are scalars (else NotProjectivelyCommuting),
    and likewise in h.  So commutators are taken on the generating cosets
    only, as exponents T_ij over N, the lcm of their orders, and coset pair
    (c, c') has the value lowest_terms(N, sum c_i c'_j T_ij), whose order
    divides the ambient dimension.  The table keeps T and N; PairingTable
    says what it builds from them, and when.
    """
    gen_rows = [[commutator_scalar(g.operator(a), h.operator(b))
                 for b in h.generating_cosets()] for a in g.generating_cosets()]
    order = math.lcm(*(d for row in gen_rows for d, _ in row))
    generators = tuple(tuple(k * (order // d) for d, k in row) for row in gen_rows)
    return PairingTable(g.component_group, h.component_group, order, generators)


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


def _places(outer: GroupSpec, inner: GroupSpec):
    """For each generating coset of inner, the first coset of outer that
    holds its operator, in outer.cosets() order; None as soon as one has
    no place."""
    places = []
    for ic in inner.generating_cosets():
        op = inner.operator(ic)
        place = next((oc for oc in outer.cosets() if outer.coset_contains(oc, op)), None)
        if place is None:
            return None
        places.append(place)
    return places


def spec_contains(outer: GroupSpec, inner: GroupSpec) -> bool:
    """Is inner a subgroup of outer, up to scalars?

    Each coset of a GroupSpec is its word in the generating cosets, so
    inner is generated by its identity component and its generating
    cosets, and it lies in the group outer when outer's algebra holds
    inner's and each generating coset of inner lies in some coset of
    outer.
    """
    return (outer.algebra().contains_algebra(inner.algebra())
            and _places(outer, inner) is not None)


def _compare_with_centralizer(claimed: GroupSpec, computed: GroupSpec, labels: int | None):
    """Failures from comparing a claimed side against the computed
    centralizer Z of the other side.

    labels is None when the pair does not commute; then claimed <= Z
    fails, and Z <= claimed is a spec_contains scan.  On a commuting pair
    claimed <= Z holds, and labels is the number of distinct labels of
    claimed's cosets, their commutator tuples against the other side's
    generating cosets (PairingTable's row or column labels).  Z's
    components are one-to-one with the commutator tuples of its elements,
    as compute_centralizer builds it, and claimed's coset c lies in the
    component of Z with tuple v(c).  So claimed meets exactly labels
    components of Z, and Z <= claimed iff claimed's algebra holds Z's
    (Z's identity component is then in claimed's) and labels is Z's
    component count.  A commuting pair makes no coset_contains call."""
    if labels is not None:
        if (claimed.algebra().contains_algebra(computed.algebra())
                and labels == computed.component_count()):
            return []
        return [VerificationFailure(
            FAIL_CENTRALIZER_LARGER,
            f"computed centralizer strictly contains the claimed group "
            f"(identity dims {computed.identity_component_dim()} vs "
            f"{claimed.identity_component_dim()}, components "
            f"{computed.component_count()} vs {claimed.component_count()})",
        )]
    if spec_contains(claimed, computed):
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

    Computes the projective centralizer Z of each side, decides once
    whether the pair commutes, and compares each side with the other's
    centralizer (both containments: no failure; only claimed <= Z:
    CENTRALIZER_LARGER; only Z <= claimed: CENTRALIZER_SMALLER; neither:
    IDENTITY_COMPONENT_MISMATCH); then checks that the component pairing
    table is nondegenerate with matching component counts.

    g <= Z(h) and h <= Z(g) are one fact, that the pair commutes, and it
    holds iff pairing_table finds a scalar commutator for every two
    generating cosets and each centralizer's algebra holds the other
    side's.  Z(h) is built from h's algebra and generating cosets: its
    algebra is the commutant of both, and an operator lies in one of its
    cosets iff it commutes with h's algebra and with each generating
    coset up to a scalar, whose order then divides h's projective order
    and n.  So g's algebra and generating cosets lie in Z(h) exactly when
    those three conditions hold, and likewise h in Z(g).

    On a commuting pair the table's labels decide the rest: g's row
    labels name the components of Z(h) that g meets, and h's column
    labels those of Z(g) (_compare_with_centralizer), and the table is
    nondegenerate iff both sets of labels are distinct
    (PairingTable.is_nondegenerate).  That is O(|Gamma| rank) work, and
    the full table is never built.  Only a pair that does not commute
    takes a spec_contains scan, one per side.

    The table is expanded from the generating cosets (pairing_table),
    which is exact for every pair, failing or not: each coset is its word
    in the generating cosets.  Once the pair commutes, each side also
    centralizes the other's identity-component algebra on the nose, so a
    value depends only on the two components, whichever operators stand
    for them.
    """
    if not g.ambient.compatible_with(h.ambient):
        raise ShapeMismatch(
            f"ambient spaces differ: {g.ambient.summand_dims()} vs {h.ambient.summand_dims()}"
        )
    zh, zg = compute_centralizer(h), compute_centralizer(g)
    table = pairing_failure = None
    try:
        table = pairing_table(g, h)
    except NotProjectivelyCommuting as exc:
        pairing_failure = VerificationFailure(
            FAIL_PAIRING_DEGENERATE, f"pairing not defined: {exc}")
    commute = (table is not None
               and zh.algebra().contains_algebra(g.algebra())
               and zg.algebra().contains_algebra(h.algebra()))
    rows, columns = (table.distinct_rows, table.distinct_columns) if commute else (None, None)
    failures = _compare_with_centralizer(g, zh, rows)
    for fail in _compare_with_centralizer(h, zg, columns):
        failures.append(VerificationFailure(fail.code, "mirror check: " + fail.detail))

    if table is None:
        failures.append(pairing_failure)
    elif g.component_count() != h.component_count() or not table.is_nondegenerate():
        failures.append(VerificationFailure(
            FAIL_PAIRING_DEGENERATE,
            f"pairing table degenerate or size mismatch "
            f"({g.component_count()} vs {h.component_count()})",
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

    a lies in b as in spec_contains, and with equal identity dimensions the
    algebras are then equal.  b lies in a when the cosets of b that hold
    a's generating cosets generate b's component group, since every coset
    of b is their word; otherwise the reverse scan decides it.  Counting
    components would not do: two labels of a may name one coset.
    """
    if (a.ambient.dim != b.ambient.dim
            or a.identity_component_dim() != b.identity_component_dim()
            or not b.algebra().contains_algebra(a.algebra())):
        return False
    places = _places(b, a)
    if places is None:
        return False
    placed, _ = subgroup_from_elements(list(b.component_group.invariant_factors), places)
    return placed.order == b.component_count() or _places(a, b) is not None
