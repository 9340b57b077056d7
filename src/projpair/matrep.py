"""Concrete operators on L^2 of a finite abelian group, tensor shapes,
commutator scalars, and projective equality.

The basis of L^2(X, C) is indexed by the lexicographically ordered group
elements with the identity first, so every matrix here is pinned down
exactly.  Translation and character operators are monomial (one nonzero
entry per column, a root of unity) and are built only as Monomials: a
permutation with integer exponents of one root of unity, so products,
inverses, Kronecker products and commutator scalars are O(n) integer
arithmetic instead of O(n^3) field arithmetic; Monomial.to_matrix is the
one way to a dense matrix.  @ and kron take either form in either
position, so no caller switches forms: a Monomial times a CycMatrix
moves and scales the matrix's cells in linear time.  A commutator scalar
is returned as the integer root of unity (order, exponent) whichever
form its arguments take.  CycNum appears only where a Monomial meets a
CycMatrix, in its scales and entries, and in the dense commutator.  One
step, _root_exponents, reads roots of unity as a least order and integer
exponents, for Monomial, unit_pattern and PatternBasis.from_matrices;
its last step, common_order, also lifts verify's (order, exponent) pairs.
unit_pattern reads a CycMatrix with at most one cell per row and column
by that step, as a PatternBasis of one element, the form a Monomial's
pattern takes too; Monomial.from_matrix is that scan at full coverage,
so the conversion to and from CycMatrix is lossless.
Which form a stored generator takes is decided by GroupSpec.operator.
A PatternBasis is the one value that holds a root pattern, the integer
form of a span of matrices on disjoint supports with root-of-unity
cells: it is read off matrices or off the index grids of GL blocks, or
written by the commutant solve, and it builds its CycMatrix cells only
when asked.  It stores each element's cells and nothing else; every
reader takes them as they stand, and a position index is built only
where a membership test looks positions up.  Algebra is an identity
component's algebra, given by a PatternBasis or by matrices and nothing
else, and the one place that chooses between integer exponents and the
VectorSpan for it.  On exponents, one routine, _pattern_in_pattern,
answers every membership: a unit Monomial is a one-element root
pattern, so whether the algebra holds it is the inclusion of that
pattern in the algebra's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .abelian import Character, FinAbGroup, GroupElement
from .cyclo import ZERO, CycMatrix, CycNum, VectorSpan, as_cyc, span_of_matrices
from .errors import DimensionMismatch, GroupMismatch, NotProjectivelyCommuting


@dataclass(frozen=True)
class TensorShape:
    """An ordered tensor decomposition of an ambient space.

    Factor order is the Kronecker slot order: the first factor's index
    varies slowest in the flattened basis.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        factors = tuple((str(lbl), int(dim)) for lbl, dim in self.factors)
        object.__setattr__(self, "factors", factors)
        labels = [lbl for lbl, _ in factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {labels}")
        for lbl, dim in factors:
            if dim < 1:
                raise ValueError(f"factor {lbl} has nonpositive dimension {dim}")

    @property
    def dim(self) -> int:
        total = 1
        for _, d in self.factors:
            total *= d
        return total

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.factors)

    def flatten(self, multi_index) -> int:
        idx = 0
        for (lbl, d), k in zip(self.factors, multi_index):
            if not 0 <= k < d:
                raise ValueError(f"index {k} out of range for factor {lbl}")
            idx = idx * d + k
        return idx


class Monomial:
    """An invertible matrix with one nonzero entry per row and column, each
    entry a root of unity.

    Column j holds zeta_order^exps[j] at row perm[j], and order is the
    least one that carries every entry, so equal matrices store equal
    (perm, order, exps).  The translation and character operators are of this form, as
    are their products and Kronecker products, so all of these are O(n)
    integer operations; CycNum cells are built only for a dense value.
    """

    __slots__ = ("perm", "order", "exps")

    def __init__(self, perm, scales):
        """From a permutation and one scale per column; ValueError when a
        scale is not a root of unity."""
        perm = tuple(perm)
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError("perm is not a permutation")
        scales = list(scales)
        if len(scales) != n:
            raise ValueError("need one scale per column")
        lifted = _root_exponents(map(as_cyc, scales))
        if lifted is None:
            raise ValueError("monomial scales must be roots of unity")
        self.perm = perm
        self.order, self.exps = lifted

    @staticmethod
    def from_exponents(perm, order: int, exps) -> "Monomial":
        """Column j holds zeta_order^exps[j] at row perm[j], for a
        permutation perm and exponents in range(order); the order is
        reduced to the least one."""
        g = math.gcd(order, *exps)
        out = object.__new__(Monomial)
        out.perm = tuple(perm)
        out.order = order // g
        out.exps = tuple(e // g for e in exps)
        return out

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, self.n

    @property
    def scales(self) -> tuple[CycNum, ...]:
        return tuple(CycNum.root_of_unity(self.order, e) for e in self.exps)

    @staticmethod
    def identity(n: int) -> "Monomial":
        return Monomial.from_exponents(range(n), 1, (0,) * n)

    def is_identity(self) -> bool:
        return self.order == 1 and all(p == j for j, p in enumerate(self.perm))

    def __matmul__(self, other: "Monomial | CycMatrix"):
        """The product with a Monomial, or with a CycMatrix in time linear
        in its nonzero cells: the rows of other permuted and scaled."""
        if isinstance(other, CycMatrix):
            if other.rows != self.n:
                raise DimensionMismatch(f"cannot multiply {self.n}x{self.n} by {other.shape}")
            perm, scales = self.perm, self.scales
            return CycMatrix.from_entries(self.n, other.cols, {
                (perm[j], k): scales[j] * v for (j, k), v in other.cells.items()})
        if self.n != other.n:
            raise DimensionMismatch("monomial sizes differ")
        # column j: other sends it to row other.perm[j], which self sends on
        order = math.lcm(self.order, other.order)
        lift_s, lift_o = order // self.order, order // other.order
        perm, exps = self.perm, self.exps
        return Monomial.from_exponents(
            [perm[p] for p in other.perm], order,
            [(e * lift_o + exps[p] * lift_s) % order for p, e in zip(other.perm, other.exps)])

    def __rmatmul__(self, other: CycMatrix) -> CycMatrix:
        """other @ self for a CycMatrix, in time linear in its nonzero
        cells: column perm[j] of other, scaled, lands in column j."""
        if other.cols != self.n:
            raise DimensionMismatch(f"cannot multiply {other.shape} by {self.n}x{self.n}")
        col, scales = self.inverse().perm, self.scales
        return CycMatrix.from_entries(other.rows, self.n, {
            (i, col[k]): v * scales[col[k]] for (i, k), v in other.cells.items()})

    def inverse(self) -> "Monomial":
        n = self.n
        perm = [0] * n
        exps = [0] * n
        for j, (p, e) in enumerate(zip(self.perm, self.exps)):
            perm[p] = j
            exps[p] = -e % self.order
        return Monomial.from_exponents(perm, self.order, exps)

    def __pow__(self, e: int) -> "Monomial":
        if e < 0:
            return self.inverse() ** (-e)
        out = Monomial.identity(self.n)
        base = self
        while e:
            if e & 1:
                out = out @ base
            e >>= 1
            if e:
                base = base @ base
        return out

    def scale_by(self, c) -> "Monomial":
        """c times this monomial, for a root of unity c."""
        root = as_cyc(c).as_root_of_unity()
        if root is None:
            raise ValueError("monomial scales must be roots of unity")
        d, k = root
        order = math.lcm(self.order, d)
        lift, shift = order // self.order, k * (order // d)
        return Monomial.from_exponents(
            self.perm, order, [(e * lift + shift) % order for e in self.exps])

    def kron(self, other: "Monomial | CycMatrix"):
        """Row-major Kronecker product; this factor's indices vary slowest.
        With a CycMatrix factor this one is expanded."""
        if isinstance(other, CycMatrix):
            return self.to_matrix().kron(other)
        n2 = other.n
        order = math.lcm(self.order, other.order)
        lift_s, lift_o = order // self.order, order // other.order
        exps2 = [e * lift_o for e in other.exps]
        return Monomial.from_exponents(
            [p1 * n2 + p2 for p1 in self.perm for p2 in other.perm], order,
            [(e1 * lift_s + e2) % order for e1 in self.exps for e2 in exps2])

    def entry(self, i: int, j: int) -> CycNum:
        if self.perm[j] != i:
            return ZERO
        return CycNum.root_of_unity(self.order, self.exps[j])

    def to_matrix(self) -> CycMatrix:
        cells = {(p, j): s for j, (p, s) in enumerate(zip(self.perm, self.scales))}
        return CycMatrix.from_entries(self.n, self.n, cells)

    @staticmethod
    def from_matrix(mat: CycMatrix):
        """The Monomial of a CycMatrix, or None when the matrix is not
        monomial or an entry is not a root of unity.  Only a square matrix
        with one cell per row can be one, so no other is scanned."""
        one_per_row = mat.is_square() and len(mat.cells) == mat.rows
        pattern = unit_pattern(mat) if one_per_row else None
        if pattern is None:
            return None
        perm = [0] * mat.rows
        exps = [0] * mat.rows
        for i, j, k in pattern.classes[0]:
            perm[j], exps[j] = i, k
        return Monomial.from_exponents(perm, pattern.order, exps)

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return (self.perm, self.order, self.exps) == (other.perm, other.order, other.exps)

    __hash__ = None

    def __repr__(self):
        return f"Monomial(perm={self.perm}, order={self.order}, exps={self.exps})"


def _root_exponents(values) -> tuple[int, tuple[int, ...]] | None:
    """Roots of unity as zeta_order^k: the least order carrying them all and
    each one's exponent k, in order; None at the first value that is not
    a root of unity."""
    roots = []
    for v in values:
        if (root := v.as_root_of_unity()) is None:
            return None
        roots.append(root)
    return common_order(roots)


def common_order(roots) -> tuple[int, tuple[int, ...]]:
    """Reduced roots of unity (order, exponent) as their least common order,
    the lcm of theirs, and each one's exponent over it, in order."""
    roots = list(roots)
    order = math.lcm(*(d for d, _ in roots))
    return order, tuple(k * (order // d) for d, k in roots)


def unit_pattern(op) -> "PatternBasis | None":
    """The PatternBasis of one element for an n x n operator, a Monomial or
    a CycMatrix, that is a partial monomial whose nonzero entries are
    roots of unity: op[i][j] = zeta_order^k for each (i, j, k) in its one
    class, at most one cell per row and per column, zero elsewhere, and
    order the least one carrying them (the zero matrix is the class with
    no cell).  None for any other CycMatrix."""
    if isinstance(op, Monomial):
        return PatternBasis(op.n, op.order, [sorted(zip(op.perm, range(op.n), op.exps))])
    cells = sorted(op.cells.items())
    if not len(cells) == len({i for (i, _), _ in cells}) == len({j for (_, j), _ in cells}):
        return None
    lifted = _root_exponents(v for _, v in cells)
    if lifted is None:
        return None
    order, exps = lifted
    return PatternBasis(op.rows, order, [[(i, j, k) for ((i, j), _), k in zip(cells, exps)]])


@dataclass
class PatternBasis:
    """A root pattern: n x n matrices on disjoint nonempty supports, every
    cell a root of unity, the one value that holds one.  classes[b] holds
    matrix b's cells (i, j, k), zeta_order^k at (i, j), in row-major
    order; sizes are the class lengths, and len is the number of
    matrices.  where, the position index i * n + j -> (b, k), is built
    on first read, for the membership tests that look positions up;
    matrices() builds the CycMatrix basis.

    The constructors read one off the matrices of a basis (from_matrices)
    or off the index grids of GL blocks (from_grids); unit_pattern,
    Algebra.unit_patterns and the commutant solve
    (verify.CommutantEngine.solve) write their classes directly."""

    n: int
    order: int
    classes: list

    @staticmethod
    def from_matrices(n: int, basis) -> "PatternBasis | None":
        """The pattern of n x n matrices, or None when one of them is zero, a
        cell is not a root of unity or two matrices share a position; the
        order is the least one carrying every cell."""
        classes = [sorted(mat.cells.items()) for mat in basis]
        positions = [p for cells in classes for p, _ in cells]
        if not all(classes) or len(set(positions)) < len(positions):
            return None
        lifted = _root_exponents(v for cells in classes for _, v in cells)
        if lifted is None:
            return None
        order, exps = lifted
        exps = iter(exps)
        return PatternBasis(n, order, [[(i, j, next(exps)) for (i, j), _ in cells]
                                       for cells in classes])

    @staticmethod
    def from_grids(n: int, grids) -> "PatternBasis":
        """The matrix units E_rs (x) I of GL blocks given by index grids
        that partition range(n), block by block with r slowest: the unit
        has a cell 1 at (grid[r][c], grid[s][c]) for each copy c."""
        return PatternBasis(n, 1, [sorted((i, j, 0) for i, j in zip(row_r, row_s))
                                   for grid in grids for row_r in grid for row_s in grid])

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.classes))

    @cached_property
    def where(self) -> dict[int, tuple[int, int]]:
        n = self.n
        return {i * n + j: (b, k) for b, cells in enumerate(self.classes) for i, j, k in cells}

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.matrices())

    def matrices(self) -> list[CycMatrix]:
        n, order = self.n, self.order
        return [CycMatrix.from_entries(n, n, {(i, j): CycNum.root_of_unity(order, k)
                                              for i, j, k in cells})
                for cells in self.classes]


class Algebra:
    """The algebra spanned by n x n matrices (an identity component's), and
    the one place that chooses how a question about it is answered.

    Algebra(n, basis) takes a PatternBasis or a sequence of n x n
    matrices.  It keeps the basis, its root pattern (a PatternBasis, or
    None when the basis is not one) and its VectorSpan, each built on
    first use: a PatternBasis is its pattern and builds the matrices only
    when something reads them, and matrices are scanned for a pattern.
    Where there is a pattern, its integer exponents decide:
    contains(op) for a unit Monomial, as the inclusion of the Monomial's
    one-element pattern, contains_algebra(other) when both are patterns,
    normalized_by(op, inv) for a unit Monomial, on the conjugated pattern,
    dim as the pattern's length (nonzero matrices on disjoint supports are
    independent), is_semisimple() by one partner sum per basis element
    when the supports are closed under transpose, and unit_patterns()
    element by element.  Anything else goes through the span, or for the
    trace form the Gram rank.  Algebras are equal when their sizes and
    dimensions are and one holds the other.
    """

    def __init__(self, n: int, basis):
        self.n = n
        if isinstance(basis, PatternBasis):
            self.pattern = basis
        else:
            self.basis = tuple(basis)

    @cached_property
    def basis(self) -> tuple[CycMatrix, ...]:
        return tuple(self.pattern.matrices())

    @cached_property
    def span(self) -> VectorSpan:
        return span_of_matrices(self.basis)

    @cached_property
    def pattern(self) -> PatternBasis | None:
        return PatternBasis.from_matrices(self.n, self.basis)

    @cached_property
    def dim(self) -> int:
        pattern = self.pattern
        return len(pattern) if pattern is not None else self.span.dim

    def unit_patterns(self) -> list:
        """unit_pattern of each basis element, in basis order: a
        PatternBasis of one element, or None for an element that is not a
        partial monomial with root-of-unity entries.  With a root pattern
        each is one of its classes as it stands, over its order, and the
        basis is not built."""
        pattern = self.pattern
        if pattern is None:
            return [unit_pattern(a) for a in self.basis]
        n, order = self.n, pattern.order
        return [PatternBasis(n, order, [c])
                if len({i for i, _, _ in c}) == len({j for _, j, _ in c}) == len(c) else None
                for c in pattern.classes]

    def contains(self, op) -> bool:
        """Does the algebra hold the operator op, a Monomial or a CycMatrix?"""
        if isinstance(op, Monomial) and self.pattern is not None:
            # a unit monomial is a one-element root pattern
            return _pattern_in_pattern(self.pattern, unit_pattern(op))
        return self.span.contains(as_dense(op).flat_cells())

    def contains_algebra(self, other: "Algebra") -> bool:
        """Does this algebra hold the other?"""
        outer, inner = self.pattern, other.pattern
        if outer is not None and inner is not None:
            return _pattern_in_pattern(outer, inner)
        return self.span.contains_span(other.span)

    def normalized_by(self, op, inv) -> bool:
        """Does op A op^-1 lie in this algebra A, for an operator op (a
        Monomial or a CycMatrix) with inverse inv?  A unit Monomial maps a
        root pattern to a root pattern: zeta_N^k at (i, j) goes to
        zeta_N^(k + e_i - e_j) at (perm[i], perm[j]), on exponents over the
        lcm of the two orders, so then only integers are compared."""
        pattern = self.pattern
        if not isinstance(op, Monomial) or pattern is None:
            return self.contains_algebra(Algebra(self.n, [op @ b @ inv for b in self.basis]))
        lcm = math.lcm(pattern.order, op.order)
        lift, lift_op = lcm // pattern.order, lcm // op.order
        perm, exps = op.perm, op.exps
        moved = [sorted((perm[i], perm[j], (k * lift + (exps[i] - exps[j]) * lift_op) % lcm)
                        for i, j, k in cells) for cells in pattern.classes]
        return _pattern_in_pattern(pattern, PatternBasis(self.n, lcm, moved))

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return self.n == other.n and self.dim == other.dim and self.contains_algebra(other)

    __hash__ = None

    def is_closed(self) -> bool:
        """Is the span closed under products, that is, an algebra?  Each of
        the dim^2 products of two basis elements must lie in it."""
        return all(self.contains(a @ b) for a in self.basis for b in self.basis)

    def is_semisimple(self) -> bool:
        """Is the trace form tr(a b) nondegenerate?  That is the exact
        criterion for a direct sum of full matrix algebras over an
        algebraically closed field."""
        decided = None
        if self.pattern is not None:
            decided = _partner_sums_nonzero(self.pattern)
        return _gram_nondegenerate(self.basis) if decided is None else decided


def _pattern_in_pattern(outer: PatternBasis, inner: PatternBasis) -> bool:
    """Does the span of the outer pattern hold that of inner?

    The outer supports are disjoint, so an inner basis matrix a lies in
    the outer span iff every cell of a lies on some outer support, a
    differs from each outer matrix b it touches by one exponent shift, and
    a covers each such b whole.  Every cell of a lies in exactly one b, so
    the last holds iff the sizes of the b it touches sum to a's own size."""
    n, where_o, sizes_o = outer.n, outer.where, outer.sizes
    lcm = math.lcm(outer.order, inner.order)
    lift_o, lift_i = lcm // outer.order, lcm // inner.order
    for cells in inner.classes:
        shifts = {}
        covered = 0
        for i, j, k in cells:
            hit = where_o.get(i * n + j)
            if hit is None:
                return False
            b, l = hit
            shift = (k * lift_i - l * lift_o) % lcm
            seen = shifts.get(b)
            if seen is None:
                shifts[b] = shift
                covered += sizes_o[b]
            elif seen != shift:
                return False
        if covered != len(cells):
            return False
    return True


def _partner_sums_nonzero(pattern: PatternBasis):
    """Is the trace form of a pattern nondegenerate?  None when its
    supports are not closed under transpose.

    They are closed when the mirror (j, i) of every cell (i, j) of each
    basis element a lies in one element b, the partner of a.  Then a is
    b's partner too, so the two supports are each other's transpose and
    of equal size.  Supports are disjoint and nonempty, so tr(a x)
    vanishes for every basis element x but b, and the partner map is a
    bijection.  The Gram matrix is then a permutation matrix times the
    diagonal of partner sums tr(a b) = sum zeta_N^(e_a(i, j) + e_b(j, i)),
    so it is nondegenerate iff no partner sum vanishes.  A sum with one
    distinct exponent is a nonzero multiple of a root of unity; only the
    others are summed in CycNum."""
    n, order, where = pattern.n, pattern.order, pattern.where
    exps = []
    for cells in pattern.classes:
        partner = None
        counts = {}
        for i, j, k in cells:
            mirror = where.get(j * n + i)
            if mirror is None:
                return None
            b, l = mirror
            if partner is None:
                partner = b
            elif partner != b:
                return None
            e = (k + l) % order
            counts[e] = counts.get(e, 0) + 1
        exps.append(counts)
    return all(len(counts) == 1
               or not sum(CycNum.root_of_unity(order, e) * c for e, c in counts.items()).is_zero()
               for counts in exps)


def _gram_nondegenerate(basis) -> bool:
    """Is the Gram matrix tr(a b) of the basis of full rank?"""
    cells = [a.cells for a in basis]
    # tr(a b) = sum over a's cells of a[i, j] * b[j, i]; from_entries keeps the nonzero ones
    gram = {(r, s): sum((va * b[j, i] for (i, j), va in a.items() if (j, i) in b), ZERO)
            for r, a in enumerate(cells) for s, b in enumerate(cells)}
    return CycMatrix.from_entries(len(cells), len(cells), gram).rank() == len(cells)


def translation_monomial(group: FinAbGroup, x: GroupElement) -> Monomial:
    """Column index(e) holds 1 at row index(e + x).

    Both indices are mixed-radix over the invariant factors, first factor
    slowest, so the permutation is built one factor at a time."""
    if x.group != group:
        raise GroupMismatch("element of a different group")
    perm = [0]
    for d, s in zip(group.invariant_factors, x.coords):
        shifted = [(c + s) % d for c in range(d)]
        perm = [p * d + c for p in perm for c in shifted]
    return Monomial.from_exponents(perm, 1, (0,) * len(perm))


def character_monomial(group: FinAbGroup, xi: Character) -> Monomial:
    """The diagonal of xi in the basis of group elements, index order."""
    if xi.group != group:
        raise GroupMismatch("character of a different group")
    # xi(e) = zeta_N^(sum_i c_i e_i N / d_i) for N the group's exponent,
    # accumulated one factor at a time in the same mixed-radix order
    order = group.exponent
    exps = [0]
    for c, d in zip(xi.coords, group.invariant_factors):
        steps = [c * (order // d) * v for v in range(d)]
        exps = [(a + w) % order for a in exps for w in steps]
    return Monomial.from_exponents(range(group.order), order, exps)


def heisenberg_monomial(group: FinAbGroup, x: GroupElement, xi: Character) -> Monomial:
    """The canonical section tau_x sigma_xi of a translation-character coset."""
    return translation_monomial(group, x) @ character_monomial(group, xi)


def as_dense(op) -> CycMatrix:
    """The dense matrix of an operator given as a Monomial or a CycMatrix."""
    return op.to_matrix() if isinstance(op, Monomial) else op


def lowest_terms(order: int, exponent: int) -> tuple[int, int]:
    """The root of unity zeta_order^exponent as (d, k) with gcd(d, k) = 1
    and k in range(d); (1, 0) for 1."""
    exponent %= order
    g = math.gcd(order, exponent)
    return order // g, exponent // g


def commutator_scalar(g, h) -> tuple[int, int]:
    """The scalar c with g h g^-1 h^-1 = c I as the reduced root of unity
    (order, exponent), c = zeta_order^exponent in lowest terms; else
    NotProjectivelyCommuting.

    Two Monomials take the O(n) integer path: on exponents over N = lcm of
    the two orders, column j of g h carries e_h[j] + e_g[h.perm[j]] and
    column j of h g carries e_g[j] + e_h[g.perm[j]], so the commutator is
    zeta_N^k when the permutations commute and the difference is k at
    every j.  Any other pair is multiplied out, in the forms given, and
    its scalar read by as_root_of_unity.  Either way c^n = 1 is checked
    (take determinants of g h = c h g), so the order divides n.
    """
    if isinstance(g, Monomial) and isinstance(h, Monomial):
        n = g.n
        if h.n != n:
            raise DimensionMismatch("sizes differ")
        pg, ph, e_g, e_h = g.perm, h.perm, g.exps, h.exps
        order = math.lcm(g.order, h.order)
        lift_g, lift_h = order // g.order, order // h.order
        k = None
        for j in range(n):
            a, b = pg[j], ph[j]
            if pg[b] != ph[a]:
                raise NotProjectivelyCommuting("commutator permutes the basis nontrivially")
            kj = ((e_h[j] - e_h[a]) * lift_h + (e_g[b] - e_g[j]) * lift_g) % order
            if k is None:
                k = kj
            elif kj != k:
                raise NotProjectivelyCommuting("commutator is not scalar")
        if (k * n) % order:
            raise NotProjectivelyCommuting("scalar is not an n-th root of unity")
        return lowest_terms(order, k)
    n, cols = g.shape
    if h.shape != g.shape or n != cols:
        raise DimensionMismatch("need square matrices of equal size")
    gh = g @ h
    hg = h @ g
    pos = hg.first_nonzero()
    if pos is None:
        raise NotProjectivelyCommuting("singular product")
    c = _ratio_at(gh, hg, pos)
    if c is None:
        raise NotProjectivelyCommuting("commutator is not scalar")
    root = c.as_root_of_unity()
    if root is None or n % root[0]:
        raise NotProjectivelyCommuting("scalar is not an n-th root of unity")
    return root


def _ratio_at(g: CycMatrix, h: CycMatrix, pos):
    """The scalar c with g = c h, read off the cell pos where h is nonzero,
    or None when g is no multiple of h."""
    c = g.entry(*pos) / h.entry(*pos)
    return c if g == h.scale(c) else None


def projective_equal(g: CycMatrix, h: CycMatrix) -> bool:
    """True iff g = c h for some nonzero scalar c (exact, zero tolerance)."""
    if g.shape != h.shape:
        return False
    pos = h.first_nonzero()
    pos_g = g.first_nonzero()
    if pos is None or pos_g is None:
        return pos == pos_g
    return _ratio_at(g, h, pos) is not None
