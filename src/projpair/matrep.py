"""Concrete operators on L^2 of a finite abelian group, tensor-slot
embeddings, commutator scalars, and projective equality.

The basis of L^2(X, C) is indexed by the lexicographically ordered group
elements with the identity first, so every matrix here is pinned down
exactly.  Translation and character operators are monomial (one nonzero
entry per column); the Monomial class keeps that structure explicit so
that products, inverses and commutator scalars cost O(n) instead of
O(n^3).  Their scales are roots of unity, and Monomial.unit_exponents
carries them as integer exponents over one common order, so the
commutator of two such operators is integer arithmetic; CycNum appears
only where a result leaves as a field element or meets a dense matrix.
Conversion to and from dense CycMatrix is lossless; which form a stored
generator takes is decided by GroupSpec.operator, and the helpers here
accept either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .abelian import Character, FinAbGroup, GroupElement, char_eval
from .cyclo import ONE, ZERO, CycMatrix, CycNum, as_cyc
from .errors import (
    DimensionMismatch,
    GroupMismatch,
    NotProjectivelyCommuting,
    UnknownLabel,
)


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

    def position(self, label: str) -> int:
        for i, (lbl, _) in enumerate(self.factors):
            if lbl == label:
                return i
        raise UnknownLabel(f"no factor labeled {label!r} in {self.labels}")

    def flatten(self, multi_index) -> int:
        idx = 0
        for (lbl, d), k in zip(self.factors, multi_index):
            if not 0 <= k < d:
                raise ValueError(f"index {k} out of range for factor {lbl}")
            idx = idx * d + k
        return idx

    def unflatten(self, index: int) -> tuple[int, ...]:
        out = []
        for _, d in reversed(self.factors):
            out.append(index % d)
            index //= d
        return tuple(reversed(out))


class Monomial:
    """An invertible matrix with one nonzero entry per row and column.

    Column j holds scale[j] at row perm[j].  All the operators built from
    translations and characters are of this form, as are their Kronecker
    products, so the verification pipeline works at O(n) per product.
    """

    __slots__ = ("perm", "scales", "_units")

    def __init__(self, perm, scales):
        perm = tuple(perm)
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError("perm is not a permutation")
        scales = tuple(as_cyc(s) for s in scales)
        if len(scales) != n:
            raise ValueError("need one scale per column")
        if any(s.is_zero() for s in scales):
            raise ValueError("monomial scales must be nonzero")
        self.perm = perm
        self.scales = scales
        self._units = None

    @property
    def n(self) -> int:
        return len(self.perm)

    def unit_exponents(self):
        """(N, exps) with scales[j] == zeta_N^exps[j] and N the lcm of the
        scales' orders, or None when some scale is not a root of unity.
        Computed on first use and cached."""
        if self._units is None:
            roots = [s.as_root_of_unity() for s in self.scales]
            if any(r is None for r in roots):
                self._units = False
            else:
                order = math.lcm(*(d for d, _ in roots))
                self._units = (order, tuple(k * (order // d) for d, k in roots))
        return self._units or None

    @staticmethod
    def identity(n: int) -> "Monomial":
        return Monomial(range(n), [ONE] * n)

    def is_identity(self) -> bool:
        return all(p == j for j, p in enumerate(self.perm)) and all(
            s.is_one() for s in self.scales
        )

    def __matmul__(self, other: "Monomial | CycMatrix"):
        """The product with a Monomial, or with a CycMatrix in O(n^2): the
        rows of other permuted and scaled."""
        if isinstance(other, CycMatrix):
            if other.rows != self.n:
                raise DimensionMismatch(f"cannot multiply {self.n}x{self.n} by {other.shape}")
            rows = [None] * self.n
            for j, (p, s) in enumerate(zip(self.perm, self.scales)):
                rows[p] = [s * v if v else ZERO for v in other.data[j]]
            return CycMatrix(rows)
        if self.n != other.n:
            raise DimensionMismatch("monomial sizes differ")
        # (self @ other): column j -> other sends j to (other.perm[j], other.scales[j]),
        # then self sends that row index as a column
        perm = tuple(self.perm[other.perm[j]] for j in range(self.n))
        scales = tuple(other.scales[j] * self.scales[other.perm[j]] for j in range(self.n))
        return Monomial(perm, scales)

    def inverse(self) -> "Monomial":
        n = self.n
        perm = [0] * n
        scales: list[CycNum] = [ONE] * n
        for j in range(n):
            perm[self.perm[j]] = j
            scales[self.perm[j]] = self.scales[j].inverse()
        return Monomial(perm, scales)

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
        c = as_cyc(c)
        return Monomial(self.perm, tuple(c * s for s in self.scales))

    def kron(self, other: "Monomial") -> "Monomial":
        """Row-major Kronecker product; this factor's indices vary slowest."""
        n2 = other.n
        perm = []
        scales = []
        for j1 in range(self.n):
            for j2 in range(n2):
                perm.append(self.perm[j1] * n2 + other.perm[j2])
                scales.append(self.scales[j1] * other.scales[j2])
        return Monomial(perm, scales)

    def entry(self, i: int, j: int) -> CycNum:
        return self.scales[j] if self.perm[j] == i else ZERO

    def to_matrix(self) -> CycMatrix:
        cells = {(self.perm[j], j): self.scales[j] for j in range(self.n)}
        return CycMatrix.from_entries(self.n, self.n, cells)

    @staticmethod
    def from_matrix(mat: CycMatrix):
        """Detect monomial structure; returns None when the matrix is not monomial."""
        if not mat.is_square():
            return None
        n = mat.rows
        perm = [-1] * n
        scales = [None] * n
        for j in range(n):
            hit = None
            for i in range(n):
                v = mat.entry(i, j)
                if not v.is_zero():
                    if hit is not None:
                        return None
                    hit = (i, v)
            if hit is None:
                return None
            perm[j], scales[j] = hit
        if sorted(perm) != list(range(n)):
            return None
        return Monomial(perm, scales)

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.perm == other.perm and self.scales == other.scales

    __hash__ = None

    def __repr__(self):
        return f"Monomial(perm={self.perm}, scales={list(map(repr, self.scales))})"


def translation_monomial(group: FinAbGroup, x: GroupElement) -> Monomial:
    if x.group != group:
        raise GroupMismatch("element of a different group")
    order = list(group.elements())
    perm = [group.index_of(e + x) for e in order]
    return Monomial(perm, [ONE] * len(order))


def character_monomial(group: FinAbGroup, xi: Character) -> Monomial:
    if xi.group != group:
        raise GroupMismatch("character of a different group")
    return Monomial(range(group.order), [char_eval(xi, e) for e in group.elements()])


def translation_matrix(group: FinAbGroup, x: GroupElement) -> CycMatrix:
    """The permutation matrix sending the basis vector at g to the one at g + x."""
    return translation_monomial(group, x).to_matrix()


def character_matrix(group: FinAbGroup, xi: Character) -> CycMatrix:
    """diag(xi(g)) over the lexicographically ordered group elements."""
    return character_monomial(group, xi).to_matrix()


def heisenberg_monomial(group: FinAbGroup, x: GroupElement, xi: Character) -> Monomial:
    """The canonical section tau_x sigma_xi of a translation-character coset."""
    return translation_monomial(group, x) @ character_monomial(group, xi)


def embed_factor(mat: CycMatrix, shape: TensorShape, label: str) -> CycMatrix:
    """Place a square matrix at one tensor slot, identity elsewhere."""
    pos = shape.position(label)
    d = shape.factors[pos][1]
    if not mat.is_square() or mat.rows != d:
        raise DimensionMismatch(
            f"matrix is {mat.shape}, factor {label!r} has dimension {d}"
        )
    pre = 1
    for _, dd in shape.factors[:pos]:
        pre *= dd
    post = 1
    for _, dd in shape.factors[pos + 1:]:
        post *= dd
    out = mat
    if pre > 1:
        out = CycMatrix.identity(pre).kron(out)
    if post > 1:
        out = out.kron(CycMatrix.identity(post))
    return out


def embed_factor_monomial(mono: Monomial, shape: TensorShape, label: str) -> Monomial:
    pos = shape.position(label)
    d = shape.factors[pos][1]
    if mono.n != d:
        raise DimensionMismatch(f"monomial is {mono.n}, factor {label!r} has dimension {d}")
    pre = 1
    for _, dd in shape.factors[:pos]:
        pre *= dd
    post = 1
    for _, dd in shape.factors[pos + 1:]:
        post *= dd
    out = mono
    if pre > 1:
        out = Monomial.identity(pre).kron(out)
    if post > 1:
        out = out.kron(Monomial.identity(post))
    return out


def _first_nonzero(mat: CycMatrix):
    for i in range(mat.rows):
        for j in range(mat.cols):
            if not mat.entry(i, j).is_zero():
                return i, j
    return None


def commutator_scalar_monomial(g: Monomial, h: Monomial) -> CycNum:
    """Exact scalar c with g h g^-1 h^-1 = c, for monomial matrices whose
    scales are roots of unity (both have a unit view).

    On exponents over N = lcm of the two orders, column j of g h carries
    e_h[j] + e_g[h.perm[j]] and column j of h g carries
    e_g[j] + e_h[g.perm[j]]; the commutator is the scalar zeta_N^k when
    the permutations commute and their difference is k at every j.
    """
    if g.n != h.n:
        raise DimensionMismatch("sizes differ")
    (n_g, e_g), (n_h, e_h) = g.unit_exponents(), h.unit_exponents()
    order = math.lcm(n_g, n_h)
    lift_g, lift_h = order // n_g, order // n_h
    pg, ph = g.perm, h.perm
    k = None
    for j in range(g.n):
        if pg[ph[j]] != ph[pg[j]]:
            raise NotProjectivelyCommuting("commutator permutes the basis nontrivially")
        kj = ((e_h[j] - e_h[pg[j]]) * lift_h + (e_g[ph[j]] - e_g[j]) * lift_g) % order
        if k is None:
            k = kj
        elif kj != k:
            raise NotProjectivelyCommuting("commutator is not scalar")
    if (k * g.n) % order:
        raise NotProjectivelyCommuting("scalar is not an n-th root of unity")
    return CycNum.root_of_unity(order, k)


def as_dense(op) -> CycMatrix:
    """The dense matrix of an operator given as a Monomial or a CycMatrix."""
    return op.to_matrix() if isinstance(op, Monomial) else op


def commutator_scalar(g, h) -> CycNum:
    """Exact scalar c with g h g^-1 h^-1 = c I, else NotProjectivelyCommuting.

    Two Monomials whose scales are roots of unity take the O(n) integer
    path; any other pair is multiplied out densely.  The result always
    satisfies c^n = 1 (take determinants of g h = c h g).
    """
    if (isinstance(g, Monomial) and isinstance(h, Monomial)
            and g.unit_exponents() and h.unit_exponents()):
        return commutator_scalar_monomial(g, h)
    gm, hm = as_dense(g), as_dense(h)
    if gm.shape != hm.shape or not gm.is_square():
        raise DimensionMismatch("need square matrices of equal size")
    gh = gm @ hm
    hg = hm @ gm
    pos = _first_nonzero(hg)
    if pos is None:
        raise NotProjectivelyCommuting("singular product")
    c = gh.entry(*pos) / hg.entry(*pos)
    if gh != hg.scale(c):
        raise NotProjectivelyCommuting("commutator is not scalar")
    if (c ** gm.rows) != ONE:
        raise NotProjectivelyCommuting("scalar is not an n-th root of unity")
    return c


def commutator_exponent(g, h) -> Fraction:
    """The commutator scalar of g and h as k/N in [0, 1), meaning zeta_N^k
    in lowest terms (so the pair (N, k) is the reduced root of unity)."""
    root = commutator_scalar(g, h).as_root_of_unity()
    if root is None:
        raise NotProjectivelyCommuting("commutator scalar is not a root of unity")
    order, expo = root
    return Fraction(expo, order)


def projective_equal(g: CycMatrix, h: CycMatrix) -> bool:
    """True iff g = c h for some scalar c (exact, zero tolerance)."""
    if g.shape != h.shape:
        return False
    pos = _first_nonzero(h)
    pos_g = _first_nonzero(g)
    if pos is None or pos_g is None:
        return pos == pos_g
    if g.entry(*pos).is_zero():
        return False
    c = g.entry(*pos) / h.entry(*pos)
    return g == h.scale(c)
