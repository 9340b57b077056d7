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
entries of X together one or two at a time, and the ties do not depend
on c, only the root of unity on each.  So the engine chases the algebra
and the generators once per target, into a union-find over the n^2
positions of X whose potentials are integer exponents affine in the
scalars: a constant plus one coefficient per generator.  The
translation and character operators of the constructions, the matrix
units of their block algebras and the pattern matrices of computed
centralizers are all of this kind, and the engine reads each of them as
a matrep.PatternBasis of one element (the algebra's elements off the
classes of its own pattern, so a block spec builds no matrix unit).  A
solve checks each class's cycle conditions for its tuple and reads the
exponents off the potentials; the live classes come back as a
PatternBasis, and a computed centralizer keeps its identity basis in
that form.  Whatever is not a partial monomial (a dense algebra element
or generator) then cuts the pattern basis with the dense kernel of the
images X h - c h X, each built in one pass (CycMatrix.twisted_commutator),
whose cells are the constraint rows; each kernel vector, a dict of its
nonzero coefficients, recombines the basis over its own keys.
CycNum appears only at that boundary, in a witness candidate and when
something reads a basis as matrices.  The witness search has one
candidate builder for either kind of basis: it reads each element once
as its cells and its row and column masks, turns down a candidate whose
elements leave a row or a column empty without building it, and sums
the cells of the rest, each times its coefficient.  A witness that is a
unit monomial comes back as a Monomial and is normalized on its
exponents, so a computed centralizer stores it as one.  The scalar
tuples of the solves and the commutator scalars of the pairing table
are integer pairs (order, exponent) throughout.

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
solve.  A VerificationReport and its PairingTable are plain values; their
JSON is written by serialize.report_text and nowhere else.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add, matmul, mul

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
    common_order,
    lowest_terms,
    unit_pattern,
)


# ---------------------------------------------------------------------------
# union-find with potentials over solution unknowns
# ---------------------------------------------------------------------------


class _PotentialUnionFind:
    """Union-find over the positions u = i * n + j of an n x n matrix, where
    each position carries value[u] = zeta^potential[u] * value[root].

    A potential is affine in the scalar exponents of the chased
    generators: a constant exponent over order plus one integer
    coefficient per generator, fields in all, packed into one integer
    with a signed field of width bits each, the constant lowest.  Adding
    and subtracting packed potentials adds the fields, so a relation
    costs what it costs on one exponent.  Potentials are exact integers
    and no field leaves its width: a potential is a signed sum of at most
    n^2 relations, each with a constant below order and a coefficient of
    at most 1.  A relation inside one class closes a cycle, the condition
    'this potential is 0 mod N'.  A class keeps each cycle with a nonzero
    coefficient (cycles, by root), and one whose constant alone is not 0
    mod order kills it for every tuple (dead, roots at the time of each
    kill, moved along with each union)."""

    def __init__(self, n: int, order: int, fields: int):
        self.n = n
        self.order = order
        self.width = width = (3 * n * n * order).bit_length() + 1
        self._half = half = 1 << (width - 1)
        self._shifts = [width * f for f in range(fields)]
        self._bias = sum(half << shift for shift in self._shifts)
        self.parent = list(range(n * n))
        self.potential = [0] * (n * n)
        self.cycles = {}
        self.dead = set()

    def find(self, u: int) -> int:
        parent = self.parent
        root = parent[u]
        if parent[root] == root:
            # u is a root or hangs from one: no path to compress
            return root
        chain = []
        while parent[u] != u:
            chain.append(u)
            u = parent[u]
        acc = 0
        potential = self.potential
        for v in reversed(chain):
            acc += potential[v]
            parent[v] = u
            potential[v] = acc
        return u

    def chase(self, cells, lift: int, coefficient: int) -> None:
        """Impose X a = zeta^c a X for the scalar c that the packed
        coefficient stands for (0 for an algebra element), a given by its
        unit pattern's cells with exponents over order / lift: value[v] =
        zeta^mult value[u] for u = k * n + j, v = p_k * n + p_j and
        mult = c + e_k - e_j, for every two cells.  A root's potential is
        0, so each potential read after a find is to the root."""
        n, parent, potential, find = self.n, self.parent, self.potential, self.find
        cycles, dead, order, half = self.cycles, self.dead, self.order, self._half
        for p_k, k, e_k in cells:
            ck = coefficient + e_k * lift
            for p_j, j, e_j in cells:
                u, v = k * n + j, p_k * n + p_j
                ru, rv = parent[u], parent[v]
                if parent[ru] != ru:
                    ru = find(u)
                if parent[rv] != rv:
                    rv = find(v)
                mult = ck - e_j * lift
                if ru == rv:
                    cycle = potential[v] - mult - potential[u]
                    if cycle <= -half or cycle >= half:
                        # a coefficient field is nonzero
                        if ru in cycles:
                            cycles[ru].add(cycle)
                        else:
                            cycles[ru] = {cycle}
                    elif cycle % order:
                        # the constant field alone: no tuple satisfies it
                        dead.add(ru)
                    continue
                # attach rv below ru: value[rv] = zeta^(mult+qu-qv) * value[ru]
                parent[rv] = ru
                potential[rv] = mult + potential[u] - potential[v]
                if rv in dead:
                    dead.add(ru)
                if rv in cycles:
                    moved = cycles.pop(rv)
                    if ru in cycles:
                        cycles[ru] |= moved
                    else:
                        cycles[ru] = moved

    def live_classes(self, forced):
        """The classes that some tuple may keep, once every relation is in:
        those with no position in forced (positions forced to zero) and no
        cycle that fails for every tuple.  Returns (potentials,
        condition_sets, classes): potentials holds each distinct potential
        once, unpacked, condition_sets each distinct set of unpacked cycle
        conditions once, and classes each class in root order as (its
        condition set's index, its members (i, j, potential index) in
        row-major order).  Classes share few condition sets, so each set of
        packed cycles is unpacked once."""
        n, parent, find, potential = self.n, self.parent, self.find, self.potential
        roots = [r if parent[r] == r else find(u) for u, r in enumerate(parent)]
        dead = self.dead | {roots[u] for u in forced}
        index, members = {}, {}
        for u, root in enumerate(roots):
            if root not in dead:
                members.setdefault(root, []).append(
                    (*divmod(u, n), index.setdefault(potential[u], len(index))))
        sets, seen, classes = {}, {}, []
        for root, cells in sorted(members.items()):
            packed = frozenset(self.cycles.get(root, ()))
            if packed not in seen:
                seen[packed] = sets.setdefault(frozenset(map(self.unpack, packed)), len(sets))
            classes.append((seen[packed], cells))
        return [self.unpack(packed) for packed in index], list(sets), classes

    def coefficient(self, field: int) -> int:
        """The packed potential with a 1 in one coefficient field."""
        return 1 << (self.width * field)

    def unpack(self, packed: int) -> tuple[int, ...]:
        """A packed potential's fields, the constant reduced mod order."""
        half, mask = self._half, (self._half << 1) - 1
        biased = packed + self._bias
        out = [(biased >> shift & mask) - half for shift in self._shifts]
        out[0] %= self.order
        return tuple(out)


def _forced_zeros(n: int, row_masks, col_masks):
    """The positions where X a = c a X forces X to vanish, for partial
    monomials a given by their row and column masks: X[k, j] for k a
    column of a and j not one, and X[i, p] for p a row of a and i not
    one.  Each position once, row by row."""
    full = (1 << n) - 1
    zero_cols = [0] * n
    for cols in col_masks:
        for k in range(n):
            if cols >> k & 1:
                zero_cols[k] |= full & ~cols
    for rows in row_masks:
        for i in range(n):
            if not rows >> i & 1:
                zero_cols[i] |= rows
    return [i * n + j for i in range(n) for j in range(n) if zero_cols[i] >> j & 1]


def _chase_form(op):
    """A generator's unit-pattern cells in the order they are chased, with
    their least order, or None when it is no unit pattern: a Monomial's by
    column, as it stores them, and a CycMatrix's row-major, as unit_pattern
    scans them.  The order of the unions fixes each class's root, and so
    the class order."""
    if isinstance(op, Monomial):
        return [(p, j, e) for j, (p, e) in enumerate(zip(op.perm, op.exps))], op.order
    pattern = unit_pattern(op)
    return None if pattern is None else (pattern.classes[0], pattern.order)


# ---------------------------------------------------------------------------
# the commutant engine
# ---------------------------------------------------------------------------


class CommutantEngine:
    """Solves {X : X a = a X for a in the algebra basis, X h_i = c_i h_i X
    for the generators} for many scalar tuples against one fixed target.

    The algebra is the target's matrep.Algebra, and n its size.  gens are
    operators, each a Monomial or a CycMatrix, and each scalar
    c_i = zeta_d^k is given as the integer pair (d, k).  A constraint
    X a = c a X with a a partial monomial with root-of-unity entries ties
    the n^2 entries of X together one or two at a time, and which entries
    it ties does not depend on c: only the root of unity on each tie
    does.  So the engine chases every such constraint once, here: the
    algebra's elements in basis order (read off the classes of its
    PatternBasis, so a block spec builds no matrix unit), then the
    generators', into a union-find whose potentials carry one integer
    coefficient per generator (union-find with group-valued potentials;
    Galil and Italiano, ACM Computing Surveys 23, 1991).  The positions
    such a constraint forces to zero depend only on a's row and column
    masks, and are forced once.  A class keeps its cycle conditions,
    const (N / N0) + sum_i c_i t_i (N / d_i) = 0 mod N for scalars
    zeta_(d_i)^(t_i), N0 the order of the chased patterns and N the lcm
    of N0 and the d_i, deduplicated.

    A solve checks those conditions for its tuple and reads each live
    position's exponent off its potential; the live classes, in root
    order and each in row-major order as it stands, come back as a
    PatternBasis over the least order carrying them.  Every other
    constraint (a dense or non-unit algebra element, a dense generator)
    then cuts that basis with the dense kernel, and the solve returns the
    cut basis as a list of CycMatrix.
    """

    def __init__(self, algebra: Algebra, gens):
        n = self.n = algebra.n
        self.gens = list(gens)
        gen_forms = [_chase_form(h) for h in self.gens]
        unit_patterns = algebra.unit_patterns()
        self._dense_algebra = [algebra.basis[b] for b, p in enumerate(unit_patterns)
                               if p is None]
        self._dense_gens = [i for i, form in enumerate(gen_forms) if form is None]
        self._chased = [i for i, form in enumerate(gen_forms) if form is not None]
        # (cells, order, coefficient field) in chase order: the algebra, then the generators
        chases = [(p.classes[0], p.order, 0) for p in unit_patterns if p is not None]
        chases += [(*gen_forms[i], f) for f, i in enumerate(self._chased, 1)]
        order = self._order = math.lcm(*(d for _, d, _ in chases))
        uf = _PotentialUnionFind(n, order, len(self._chased) + 1)
        row_masks, col_masks = set(), set()
        for cells, d, f in chases:
            uf.chase(cells, order // d, uf.coefficient(f) if f else 0)
            if len(cells) < n:
                # only a pattern that misses a row and a column forces zeros
                row_masks.add(sum(1 << p for p, _, _ in cells))
                col_masks.add(sum(1 << k for _, k, _ in cells))
        self._potentials, self._condition_sets, self._classes = uf.live_classes(
            _forced_zeros(n, row_masks, col_masks))

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
        chased = [roots[i] for i in self._chased]
        # the constant field is zeta_(N0)^1
        order, weights = common_order([(self._order, 1), *chased])

        def exponent(fields):
            return sum(map(mul, fields, weights)) % order

        holds = [not any(exponent(c) for c in conditions) for conditions in self._condition_sets]
        live = [cells for k, cells in self._classes if holds[k]]
        values = [exponent(p) for p in self._potentials]
        # the least order is the one the live classes' exponents need
        used = values if len(live) == len(self._classes) else [
            values[p] for cells in live for _, _, p in cells]
        g = math.gcd(order, *used)
        if g > 1:
            values = [v // g for v in values]
        basis = PatternBasis(self.n, order // g,
                             [[(i, j, values[p]) for i, j, p in cells] for cells in live])
        if basis:
            check_conductor(basis.order)
        cuts = [(a, ONE) for a in self._dense_algebra]
        cuts += [(self.gens[i], CycNum.root_of_unity(*roots[i])) for i in self._dense_gens]
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
    images = [x.twisted_commutator(h, c) for x in basis]
    # one constraint row per cell that some image fills, in row-major order
    row_of = {cell: r for r, cell in enumerate(sorted({cell for img in images
                                                        for cell in img.cells}))}
    if not row_of:
        return list(basis)
    mat = CycMatrix.from_entries(len(row_of), len(images), {
        (row_of[cell], k): v for k, img in enumerate(images) for cell, v in img.cells.items()})
    return [reduce(add, (basis[k].scale(coeff) for k, coeff in vec.items()))
            for vec in mat.kernel()]


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


def _combiner(basis, n: int):
    """The candidate builder of the witness search, for a PatternBasis or
    a list of CycMatrix: coeffs -> the n x n sum of c * x over the nonzero
    coefficients, or None when those matrices leave a row or a column
    empty (so the sum is singular).  Each element is read once, as its
    ((i, j), value) cells (a pattern's are roots of unity) and its row
    and column bit masks.  A coefficient 1 takes the cells as they are,
    and cells that overlap add."""
    if isinstance(basis, PatternBasis):
        order = basis.order
        elements = [[((i, j), CycNum.root_of_unity(order, k)) for i, j, k in cells]
                    for cells in basis.classes]
    else:
        elements = [list(x.cells.items()) for x in basis]
    row_masks, col_masks = [], []
    for cells in elements:
        rows = cols = 0
        for (i, j), _ in cells:
            rows |= 1 << i
            cols |= 1 << j
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
        for cells, c in zip(elements, coeffs):
            if not c:
                continue
            if c != 1:
                c = CycNum.from_rational(c)
                cells = [(cell, c * v) for cell, v in cells]
            for cell, v in cells:
                w = acc.get(cell)
                acc[cell] = v if w is None else w + v
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

    The basis is a PatternBasis or a list of CycMatrix, and _combiner
    builds every candidate from either.  Deterministic samples first.  If
    they all fail, a product grid of size n+1 per coordinate decides
    existence exactly (the determinant has degree at most n in each
    coordinate, so it cannot vanish on the whole grid unless it is
    identically zero); a grid over the bound raises
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
    combine = _combiner(basis, n)
    for coeffs in _search_vectors(len(basis), n):
        cand = combine(coeffs)
        if cand is not None and _det_nonzero(cand):
            return Monomial.from_matrix(cand) or cand
    return None


def _search_vectors(dim: int, n: int):
    """The samples, then the grid range(n + 1)^dim; once the samples are
    spent, WitnessSearchUndecided when the grid has over 2,000,000 points."""
    yield from _sample_vectors(dim, n)
    if (n + 1) ** dim > 2_000_000:
        raise WitnessSearchUndecided(
            "invertibility undecided by sampling and the grid bound is "
            f"impractical (dim {dim}, ambient {n})"
        )
    yield from itertools.product(range(n + 1), repeat=dim)


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
    normalized.  Both lattice computations are memoized in abelian per
    integer key, (moduli, survivors) and (images, group), since the same
    survivor lattices come up row after row; their Smith forms run once
    per key.

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
    g_gens, h_gens = g.generating_cosets(), h.generating_cosets()
    order, flat = common_order(commutator_scalar(g.operator(a), h.operator(b))
                               for a in g_gens for b in h_gens)
    r = len(h_gens)
    generators = tuple(flat[i * r:(i + 1) * r] for i in range(len(g_gens)))
    return PairingTable(g.component_group, h.component_group, order, generators)


FAIL_CENTRALIZER_LARGER = "CENTRALIZER_LARGER"
FAIL_CENTRALIZER_SMALLER = "CENTRALIZER_SMALLER"
FAIL_PAIRING_DEGENERATE = "PAIRING_DEGENERATE"
FAIL_IDENTITY_COMPONENT_MISMATCH = "IDENTITY_COMPONENT_MISMATCH"


@dataclass(frozen=True)
class VerificationFailure:
    code: str
    detail: str


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
