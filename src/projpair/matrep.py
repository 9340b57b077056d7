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
scan, unit_pattern, reads a CycMatrix's cells as a partial monomial with
root-of-unity entries; Monomial.from_matrix is that scan at full
coverage, so the conversion to and from CycMatrix is lossless.
root_pattern reads an algebra basis whose cells are roots of unity on
disjoint supports, and in_root_pattern tests a Monomial against it on
integer exponents.  Which form a stored generator takes is decided by
GroupSpec.operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .abelian import Character, FinAbGroup, GroupElement
from .cyclo import ZERO, CycMatrix, CycNum, as_cyc
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
        roots = [as_cyc(s).as_root_of_unity() for s in scales]
        if len(roots) != n:
            raise ValueError("need one scale per column")
        if None in roots:
            raise ValueError("monomial scales must be roots of unity")
        # the roots are reduced, so the lcm of their orders is the least
        self.perm = perm
        self.order = math.lcm(*(d for d, _ in roots))
        self.exps = tuple(k * (self.order // d) for d, k in roots)

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
        order, cells = pattern
        perm = [0] * mat.rows
        exps = [0] * mat.rows
        for i, j, k in cells:
            perm[j], exps[j] = i, k
        return Monomial.from_exponents(perm, order, exps)

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return (self.perm, self.order, self.exps) == (other.perm, other.order, other.exps)

    __hash__ = None

    def __repr__(self):
        return f"Monomial(perm={self.perm}, order={self.order}, exps={self.exps})"


def unit_pattern(op):
    """(N, cells) when the operator, a Monomial or a CycMatrix, is a partial
    monomial whose nonzero entries are roots of unity: op[i][j] = zeta_N^k
    for each (i, j, k) in cells, at most one cell per row and per column,
    zero elsewhere, and N the least order carrying them.  None for any
    other CycMatrix."""
    if isinstance(op, Monomial):
        return op.order, [(p, j, e) for j, (p, e) in enumerate(zip(op.perm, op.exps))]
    # in row-major order, so that a matrix that is not a pattern is turned
    # down after the same root-of-unity tests as a scan of its rows makes
    cells = sorted(op.cells.items())
    roots = []
    used_cols = set()
    for k, ((i, j), v) in enumerate(cells):
        if (k + 1 < len(cells) and cells[k + 1][0][0] == i) or j in used_cols:
            return None
        root = v.as_root_of_unity()
        if root is None:
            return None
        used_cols.add(j)
        roots.append((i, j, root))
    order = math.lcm(*(d for _, _, (d, _) in roots))
    return order, [(i, j, k * (order // d)) for i, j, (d, k) in roots]


def root_pattern(basis, n: int):
    """(N, where, sizes) when the n x n matrices of basis form a
    root-of-unity pattern: every nonzero cell a root of unity and no two
    matrices sharing a position.  where[i * n + j] is (b, k) when basis[b]
    holds zeta_N^k at (i, j) and None off every support, sizes[b] is the
    number of cells of basis[b], and N the least order carrying every
    cell.  None for any other basis."""
    where = [None] * (n * n)
    roots = []
    sizes = []
    for b, mat in enumerate(basis):
        for (i, j), v in mat.cells.items():
            root = v.as_root_of_unity()
            pos = i * n + j
            if root is None or where[pos] is not None:
                return None
            where[pos] = b
            roots.append((pos, b, root))
        sizes.append(len(mat.cells))
    order = math.lcm(*(d for _, _, (d, _) in roots))
    for pos, b, (d, k) in roots:
        where[pos] = (b, k * (order // d))
    return order, where, tuple(sizes)


def in_root_pattern(pattern, mono: Monomial) -> bool:
    """Does the span of a root_pattern basis hold the unit monomial mono?

    The supports are disjoint, so a matrix lies in the span iff on each
    support it is a multiple of that basis matrix and it is zero off their
    union.  mono has no zero cell, so it must lie in the supports, differ
    from each basis matrix it touches by one exponent, and cover those
    matrices whole: their cell counts sum to n."""
    order, where, sizes = pattern
    n = mono.n
    lcm = math.lcm(order, mono.order)
    lift_p, lift_m = lcm // order, lcm // mono.order
    shifts = {}
    covered = 0
    for j, (i, e) in enumerate(zip(mono.perm, mono.exps)):
        hit = where[i * n + j]
        if hit is None:
            return False
        b, k = hit
        shift = (e * lift_m - k * lift_p) % lcm
        seen = shifts.get(b)
        if seen is None:
            shifts[b] = shift
            covered += sizes[b]
        elif seen != shift:
            return False
    return covered == n


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
    c = gh.entry(*pos) / hg.entry(*pos)
    if gh != hg.scale(c):
        raise NotProjectivelyCommuting("commutator is not scalar")
    root = c.as_root_of_unity()
    if root is None or n % root[0]:
        raise NotProjectivelyCommuting("scalar is not an n-th root of unity")
    return root


def projective_equal(g: CycMatrix, h: CycMatrix) -> bool:
    """True iff g = c h for some scalar c (exact, zero tolerance)."""
    if g.shape != h.shape:
        return False
    pos = h.first_nonzero()
    pos_g = g.first_nonzero()
    if pos is None or pos_g is None:
        return pos == pos_g
    if g.entry(*pos).is_zero():
        return False
    c = g.entry(*pos) / h.entry(*pos)
    return g == h.scale(c)
