"""Finite abelian groups in invariant-factor form, characters, and
hyperbolic decomposition of alternating pairings.

A group is a divisibility chain d_1 | d_2 | ... | d_r (each >= 2, the
empty chain is the trivial group).  Elements and characters are integer
coordinate vectors against the canonical generators; element enumeration
is lexicographic on coordinates, which fixes the basis order of every
matrix built on a group.  Pairing values are kept as exponents in Q/Z so
that group-theoretic computations stay conductor-free.

A homomorphism is an integer matrix on coordinates, handed out in one
form, a tuple of int tuples (Matrix).  Inverses are memoized once per map
and pair of groups, and invert_isomorphism returns the memo's own tuple:
it cannot be mutated, so no caller can change the memo.  The subgroup
lattices of subgroup_from_elements and generator_coefficients are
memoized the same way, per integer key, as tuples and a pure function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .cyclo import CycNum, prime_factors
from .errors import DegeneratePairing, GroupMismatch, NotAlternating, NotIsomorphism

# a homomorphism between groups: the integer matrix on coordinates, one
# tuple of ints per target coordinate
Matrix = tuple[tuple[int, ...], ...]


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime p dividing n exactly e times, p increasing."""
    out = []
    for p in prime_factors(n):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def _primary_decomposition(factors) -> tuple[tuple[int, ...], list[list[tuple[int, int]]]]:
    """Invariant factors of a direct product of cyclic groups, and for each
    cyclic factor the (slot, p**e) of each of its primary parts.

    For each prime, the primary parts of all factors are merged largest with
    largest: the i-th largest p-part lands in slot depth - 1 - i, where
    depth is the longest such list, and equal parts keep their input order.
    The invariant factor of a slot is the product of the parts it receives.
    """
    primary: dict[int, list[tuple[int, int]]] = {}
    for k, f in enumerate(factors):
        if f < 1:
            raise ValueError(f"cyclic factor must be positive, got {f}")
        for p, e in _prime_powers(f):
            primary.setdefault(p, []).append((p ** e, k))
    depth = max((len(v) for v in primary.values()), default=0)
    invariant = [1] * depth
    slots: list[list[tuple[int, int]]] = [[] for _ in factors]
    for parts in primary.values():
        parts.sort(key=lambda part: -part[0])
        for i, (pe, k) in enumerate(parts):
            invariant[depth - 1 - i] *= pe
            slots[k].append((depth - 1 - i, pe))
    return tuple(invariant), slots


def canonical_factors(factors) -> tuple[int, ...]:
    """Canonical invariant-factor chain of a direct product of cyclic groups."""
    return _primary_decomposition(factors)[0]


@dataclass(frozen=True)
class FinAbGroup:
    """A finite abelian group given by its invariant factors d_1 | ... | d_r."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = tuple(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        for d in fs:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a divisibility chain: {fs}")

    @staticmethod
    def trivial() -> "FinAbGroup":
        return FinAbGroup(())

    @staticmethod
    def cyclic(n: int) -> "FinAbGroup":
        return FinAbGroup(() if n == 1 else (n,))

    @staticmethod
    def from_factors(factors) -> "FinAbGroup":
        return FinAbGroup(canonical_factors(factors))

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def elements(self):
        """All elements in lexicographic coordinate order (identity first)."""
        for coords in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield GroupElement(self, coords)

    def index_of(self, x: "GroupElement") -> int:
        if x.group != self:
            raise GroupMismatch("element of a different group")
        idx = 0
        for c, d in zip(x.coords, self.invariant_factors):
            idx = idx * d + c
        return idx

    def generators(self):
        return [
            GroupElement(self, tuple(1 if j == i else 0 for j in range(self.rank)))
            for i in range(self.rank)
        ]

    def characters(self):
        for coords in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield Character(self, coords)

    def character(self, coords) -> "Character":
        return Character(self, tuple(coords))

    def trivial_character(self) -> "Character":
        return Character(self, (0,) * self.rank)

    def __str__(self):
        if not self.invariant_factors:
            return "1"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


def _check_coords(group: FinAbGroup, coords: tuple[int, ...]) -> tuple[int, ...]:
    if len(coords) != group.rank:
        raise ValueError(f"need {group.rank} coordinates, got {len(coords)}")
    return tuple(c % d for c, d in zip(coords, group.invariant_factors))


@dataclass(frozen=True)
class GroupElement:
    group: FinAbGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", _check_coords(self.group, tuple(self.coords)))

    def _same(self, other):
        if not isinstance(other, GroupElement) or other.group != self.group:
            raise GroupMismatch("elements of different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._same(other)
        return GroupElement(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-c for c in self.coords))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scale(self, k: int) -> "GroupElement":
        return GroupElement(self.group, tuple(k * c for c in self.coords))

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        o = 1
        for c, d in zip(self.coords, self.group.invariant_factors):
            o = math.lcm(o, d // math.gcd(c, d))
        return o


@dataclass(frozen=True)
class Character:
    """A character in the self-dual coordinates of the group.

    Coordinates (c_1, ..., c_r) send the i-th canonical generator to
    zeta_{d_i}^{c_i}; every character arises exactly once this way.
    """

    group: FinAbGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", _check_coords(self.group, tuple(self.coords)))

    def __add__(self, other: "Character") -> "Character":
        if other.group != self.group:
            raise GroupMismatch("characters of different groups")
        return Character(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Character":
        return Character(self.group, tuple(-c for c in self.coords))

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)

    def exponent_at(self, x: GroupElement) -> Fraction:
        """The value of the character as an exponent in Q/Z."""
        if x.group != self.group:
            raise GroupMismatch("character applied to element of a different group")
        total = Fraction(0)
        for c, v, d in zip(self.coords, x.coords, self.group.invariant_factors):
            total += Fraction(c * v, d)
        return total % 1

    def order(self) -> int:
        return GroupElement(self.group, self.coords).order()


def char_eval(xi: Character, x: GroupElement) -> CycNum:
    """Evaluate a character, exactly, as a root of unity."""
    q = xi.exponent_at(x)
    return CycNum.root_of_unity(q.denominator, q.numerator)


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, parts weakly decreasing, in reverse
    lexicographic order."""
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, maximum, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, maximum), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    return tuple(out)


def enumerate_abelian_groups(n: int) -> list[FinAbGroup]:
    """All isomorphism classes of abelian groups of order n.

    Canonical invariant-factor form, sorted lexicographically on the
    factor tuples, so the order is deterministic.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return [FinAbGroup.trivial()]
    choices = [[[p ** part for part in parts] for parts in partitions(e)]
               for p, e in _prime_powers(n)]
    groups = set()
    for combo in itertools.product(*choices):
        factors = [f for block in combo for f in block]
        groups.add(canonical_factors(factors))
    return [FinAbGroup(fs) for fs in sorted(groups)]


# ---------------------------------------------------------------------------
# direct products with explicit embeddings
# ---------------------------------------------------------------------------


def direct_product(groups) -> tuple[FinAbGroup, tuple[Matrix, ...]]:
    """Canonical form of a direct product, with one embedding matrix per factor.

    The j-th matrix has a column per canonical generator of the j-th factor;
    the column holds that generator's coordinates inside the product group.
    """
    groups = list(groups)
    invariant, slots = _primary_decomposition(
        [d for g in groups for d in g.invariant_factors])
    cols = []
    for parts in slots:
        col = [0] * len(invariant)
        for slot, pe in parts:
            col[slot] = (col[slot] + invariant[slot] // pe) % invariant[slot]
        cols.append(col)
    embeds = []
    start = 0
    for g in groups:
        own = cols[start:start + g.rank]
        start += g.rank
        embeds.append(tuple(tuple(col[i] for col in own) for i in range(len(invariant))))
    return FinAbGroup(invariant), tuple(embeds)


def apply_matrix(matrix: Matrix, coords, target: FinAbGroup) -> GroupElement:
    """Apply an integer matrix to coordinates, landing in the target group."""
    out = []
    for i in range(target.rank):
        acc = 0
        for j, c in enumerate(coords):
            acc += matrix[i][j] * c
        out.append(acc)
    return GroupElement(target, tuple(out))


def product_embedding(groups):
    """Return (product group, combine, split) where combine maps a tuple of
    per-factor elements to a product element and split inverts it.

    Memoized per tuple of factor groups: both sides of a single-orbit pair,
    and every ingredient tuple with the same (L, J, K), share one pair of
    maps."""
    return _product_embedding(tuple(groups))


@lru_cache(maxsize=None)
def _product_embedding(groups):
    product, embeds = direct_product(groups)
    factors = [d for g in groups for d in g.invariant_factors]
    invariant, slots = _primary_decomposition(factors)
    # split is an integer matrix too.  A factor's p-part is alone in the
    # p-part of its slot, embedded as x -> x (d / p^e) with d the slot's
    # invariant factor, so x = x_slot (d / p^e)^-1 mod p^e; the p-parts of
    # one factor are then joined by the Chinese remainder theorem.
    split_rows = []
    for f, parts in zip(factors, slots):
        row = [0] * len(invariant)
        for slot, pe in parts:
            unit = pow(invariant[slot] // pe, -1, pe)
            crt = f // pe * pow(f // pe, -1, pe)
            row[slot] = (row[slot] + unit * crt) % f
        split_rows.append(tuple(row))
    split_mats = []
    start = 0
    for g in groups:
        split_mats.append(tuple(split_rows[start:start + g.rank]))
        start += g.rank

    def combine(parts):
        total = product.identity()
        for x, emb in zip(parts, embeds):
            total = total + apply_matrix(emb, x.coords, product)
        return total

    def split(x: GroupElement):
        parts = tuple(apply_matrix(mat, x.coords, g) for mat, g in zip(split_mats, groups))
        if combine(parts) != x:
            raise AssertionError("direct product split does not invert combine")
        return parts

    return product, combine, split


# ---------------------------------------------------------------------------
# homomorphisms given by integer matrices on coordinates
# ---------------------------------------------------------------------------


def is_homomorphism_matrix(q, source: FinAbGroup, target: FinAbGroup) -> bool:
    if len(q) != target.rank or any(len(row) != source.rank for row in q):
        return False
    for j, d in enumerate(source.invariant_factors):
        for i, e in enumerate(target.invariant_factors):
            if (d * q[i][j]) % e:
                return False
    return True


def matrix_product(a, b, moduli) -> Matrix:
    """The product a b of homomorphism matrices, row i reduced modulo
    moduli[i], the invariant factors of a's target."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % d for col in cols)
                 for row, d in zip(a, moduli))


def _smith_inverse(q, source: FinAbGroup, target: FinAbGroup):
    """The inverse of q: source -> target as a tuple of rows reduced modulo
    the source factors, or None when q is not an isomorphism.

    One Smith form U [q | diag(e)] V = D decides it.  With equal orders and
    q a homomorphism matrix, q is bijective iff it is onto, iff every
    invariant of D is 1.  Then [q | diag(e)] V [U; 0] = 1, so the first
    source.rank rows of V [U; 0] send each target generator to a preimage.
    The result is checked exactly on generators: p is a homomorphism
    matrix, p q = 1 on the source and q p = 1 on the target.
    """
    if source.order != target.order or not is_homomorphism_matrix(q, source, target):
        return None
    ds, es = source.invariant_factors, target.invariant_factors
    r, s = len(ds), len(es)
    mat = [list(q[i]) + [es[i] if j == i else 0 for j in range(s)] for i in range(s)]
    d_mat, u, v = smith_normal_form(mat)
    if any(d_mat[k][k] != 1 for k in range(s)):
        return None
    p = matrix_product([row[:s] for row in v[:r]], u, ds)
    if not (is_homomorphism_matrix(p, target, source)
            and matrix_product(p, q, ds) == identity_matrix(source)
            and matrix_product(q, p, es) == identity_matrix(target)):
        raise AssertionError("Smith-form inverse is not a two-sided inverse")
    return p


# every inverse computed, keyed by q as a tuple of rows and the invariant
# factors of source and target; None marks a matrix that is no isomorphism
_INVERSES: dict = {}


def _inverse(q, source: FinAbGroup, target: FinAbGroup):
    """_smith_inverse of q (or None), once per distinct matrix and pair of
    groups."""
    key = (tuple(map(tuple, q)), source.invariant_factors, target.invariant_factors)
    try:
        return _INVERSES[key]
    except KeyError:
        p = _INVERSES[key] = _smith_inverse(q, source, target)
        return p


def is_isomorphism_matrix(q, source: FinAbGroup, target: FinAbGroup) -> bool:
    """Bijectivity of the homomorphism q, decided from one Smith form."""
    return _inverse(q, source, target) is not None


def invert_isomorphism(q, source: FinAbGroup, target: FinAbGroup) -> Matrix:
    """The inverse of q as the memo's own tuple of rows.

    A q the memo already holds is read as it is, with no second check.  Any
    other is first reduced modulo the target's factors, so that the memo
    keys one form of each map, and then decided by its Smith form, once per
    distinct map, source and target.  Raises NotIsomorphism when q is not
    an isomorphism."""
    try:
        p = _INVERSES[q, source.invariant_factors, target.invariant_factors]
    except (KeyError, TypeError):
        es = target.invariant_factors
        if len(q) == len(es):
            q = tuple(tuple(x % e for x in row) for row, e in zip(q, es))
        p = _inverse(q, source, target)
    if p is None:
        raise NotIsomorphism("matrix is not an isomorphism")
    return p


@lru_cache(maxsize=None)
def automorphisms(group: FinAbGroup) -> tuple[Matrix, ...]:
    """All automorphisms as integer matrices (cached; desk-scale groups only).

    The Smith form that accepts a candidate also gives its inverse, which
    joins the inverse memo; a rejected candidate is not asked for again, so
    it is not kept."""
    r = group.rank
    if r == 0:
        return ((),)
    fs = group.invariant_factors
    candidate_images = []
    for d in fs:
        candidate_images.append([x for x in group.elements() if d % x.order() == 0])
    out = []
    for combo in itertools.product(*candidate_images):
        q = tuple(tuple(combo[j].coords[i] for j in range(r)) for i in range(r))
        key = (q, fs, fs)
        p = _INVERSES[key] if key in _INVERSES else _smith_inverse(q, group, group)
        if p is not None:
            _INVERSES[key] = p
            out.append(q)
    return tuple(out)


@lru_cache(maxsize=None)
def identity_matrix(group: FinAbGroup) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(group.rank)) for i in range(group.rank))


def transport_character(u: Matrix, delta: Character, target: FinAbGroup) -> Character:
    """Apply a character-space matrix to a character's coordinates."""
    coords = tuple(
        sum(u[i][j] * delta.coords[j] for j in range(len(delta.coords)))
        for i in range(target.rank)
    )
    return Character(target, coords)


def dual_isomorphism_transport(q, source: FinAbGroup, target: FinAbGroup) -> Matrix:
    """Given an isomorphism q: source -> target, return the character-space
    isomorphism u with u(delta)(q(gamma)) = delta(gamma) for all gamma, delta.

    Both character spaces use the self-dual coordinates, so u is again an
    integer matrix, in closed form u[j][k] = p[k][j] e_j / d_k with p the
    inverse of q.  The defining relation is checked in integers on every
    pair of generators before returning.
    """
    p = invert_isomorphism(q, source, target)
    ds, es = source.invariant_factors, target.invariant_factors
    # delta_k(q^{-1} f_j) = p[k][j] / d_k must be a multiple of 1/e_j
    if any(p[k][j] * e % d for j, e in enumerate(es) for k, d in enumerate(ds)):
        raise NotIsomorphism("transport does not land in the character lattice")
    u = tuple(tuple(p[k][j] * e // d % e for k, d in enumerate(ds)) for j, e in enumerate(es))
    # u(delta_k)(q(g_i)) = delta_k(g_i), as exponents times big = lcm(d, e)
    big = math.lcm(*ds, *es)
    for k, d in enumerate(ds):
        for i in range(len(ds)):
            lhs = sum(u[j][k] * q[j][i] * (big // e) for j, e in enumerate(es))
            if (lhs - (big // d if i == k else 0)) % big:
                raise NotIsomorphism("transported map fails the defining relation")
    return u


# ---------------------------------------------------------------------------
# alternating pairings and hyperbolic decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymplecticPairing:
    """A bicharacter on a finite abelian group, stored as exponents in Q/Z
    on the canonical generators and extended bilinearly."""

    group: FinAbGroup
    gen_table: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        r = self.group.rank
        table = tuple(tuple(Fraction(v) % 1 for v in row) for row in self.gen_table)
        object.__setattr__(self, "gen_table", table)
        if len(table) != r or any(len(row) != r for row in table):
            raise ValueError("generator table must be rank x rank")
        fs = self.group.invariant_factors
        for i in range(r):
            for j in range(r):
                if (table[i][j] * fs[i]) % 1 or (table[i][j] * fs[j]) % 1:
                    raise ValueError("pairing value not compatible with generator orders")

    @staticmethod
    def standard_hyperbolic(lagrangian: FinAbGroup) -> "SymplecticPairing":
        """The pairing on L x L-hat with <(x,xi),(y,eta)> = eta(x) - xi(y)."""
        fs = lagrangian.invariant_factors
        omega = FinAbGroup.from_factors(list(fs) + list(fs))
        product, combine, split = product_embedding([lagrangian, lagrangian])
        if product != omega:
            raise AssertionError("product group mismatch")
        r = omega.rank
        table = [[Fraction(0)] * r for _ in range(r)]
        gens = omega.generators()
        for i in range(r):
            xi_part_i = split(gens[i])
            for j in range(r):
                xi_part_j = split(gens[j])
                x1, c1 = xi_part_i
                x2, c2 = xi_part_j
                val = Character(lagrangian, c2.coords).exponent_at(x1) - \
                    Character(lagrangian, c1.coords).exponent_at(x2)
                table[i][j] = val % 1
        return SymplecticPairing(omega, tuple(tuple(row) for row in table))

    def value(self, x: GroupElement, y: GroupElement) -> Fraction:
        if x.group != self.group or y.group != self.group:
            raise GroupMismatch("pairing applied across groups")
        total = Fraction(0)
        for i, a in enumerate(x.coords):
            if not a:
                continue
            row = self.gen_table[i]
            for j, b in enumerate(y.coords):
                if b and row[j]:
                    total += a * b * row[j]
        return total % 1

    def is_alternating(self) -> bool:
        fs = self.group.invariant_factors
        r = self.group.rank
        for i in range(r):
            if self.gen_table[i][i] % 1:
                return False
        for i in range(r):
            for j in range(i + 1, r):
                if (self.gen_table[i][j] + self.gen_table[j][i]) % 1:
                    return False
        return True

    def is_nondegenerate(self) -> bool:
        """The map omega -> characters, x -> <x, .>, is bijective.  On
        self-dual coordinates it is the matrix m[j][i] = table[i][j] d_j."""
        fs = self.group.invariant_factors
        m = [[int(self.gen_table[i][j] * d) for i in range(len(fs))]
             for j, d in enumerate(fs)]
        return is_isomorphism_matrix(m, self.group, self.group)

    def conjugate(self, alpha) -> "SymplecticPairing":
        """Pull the pairing back along an automorphism matrix."""
        gens = self.group.generators()
        imgs = [apply_matrix(alpha, g.coords, self.group) for g in gens]
        table = [[self.value(imgs[i], imgs[j]) for j in range(len(gens))]
                 for i in range(len(gens))]
        return SymplecticPairing(self.group, tuple(tuple(row) for row in table))


@dataclass(frozen=True)
class HyperbolicDecomposition:
    """Hyperbolic pairs extracted from an alternating nondegenerate pairing.

    Each pair (lam, lam_prime, r) satisfies: both have order r, their pairing
    value is a primitive r-th root of unity, and distinct pairs pair trivially.
    The extracted group has the pair orders as its cyclic decomposition.
    """

    pairing: SymplecticPairing
    pairs: tuple[tuple[GroupElement, GroupElement, int], ...]
    lagrangian: FinAbGroup

    def coordinates(self, x: GroupElement) -> list[tuple[int, int]]:
        """(a_i, b_i) with x = sum a_i lam_i + b_i lam'_i; checked exactly."""
        coords = []
        total = self.pairing.group.identity()
        for lam, lam_p, r in self.pairs:
            s = self.pairing.value(lam, lam_p)  # primitive, denominator r
            k = s.numerator * (r // s.denominator)
            k_inv = pow(k, -1, r)
            a = (self.pairing.value(x, lam_p) * r)
            b = (self.pairing.value(lam, x) * r)
            if a.denominator != 1 or b.denominator != 1:
                raise DegeneratePairing("element does not decompose over the pairs")
            a_i = (int(a) * k_inv) % r
            b_i = (int(b) * k_inv) % r
            coords.append((a_i, b_i))
            total = total + lam.scale(a_i) + lam_p.scale(b_i)
        if total != x:
            raise DegeneratePairing("hyperbolic pairs do not span the group")
        return coords

    def reconstructs_pairing(self) -> bool:
        """Exhaustive check that the bilinear extension of the pairs equals
        the input pairing pointwise (coordinates computed once per element)."""
        elems = list(self.pairing.group.elements())
        coords = {e.coords: self.coordinates(e) for e in elems}
        values = [self.pairing.value(lam, lam_p) for lam, lam_p, _ in self.pairs]
        for x in elems:
            cx = coords[x.coords]
            for y in elems:
                cy = coords[y.coords]
                total = Fraction(0)
                for (a, b), (c, d), s in zip(cx, cy, values):
                    total += (a * d - b * c) * s
                if total % 1 != self.pairing.value(x, y):
                    return False
        return True


def symplectic_decompose(pairing: SymplecticPairing) -> HyperbolicDecomposition:
    """Iterated extraction of hyperbolic pairs.

    Pick a maximal-order element lam, find lam' whose pairing value with lam
    is a primitive root of unity of that order, pass to the orthogonal
    complement of the pair, and recurse.  Ties are broken lexicographically
    on coordinates so the output is deterministic.
    """
    if not pairing.is_alternating():
        raise NotAlternating("pairing is not alternating")
    group = pairing.group
    if not group.is_trivial() and not pairing.is_nondegenerate():
        raise DegeneratePairing("pairing has a nontrivial radical")
    current = sorted(group.elements(), key=lambda e: e.coords)
    pairs = []
    while len(current) > 1:
        max_order = max(e.order() for e in current)
        lam = next(e for e in current if e.order() == max_order)
        r = max_order
        lam_p = None
        for cand in current:
            v = pairing.value(lam, cand)
            if v.denominator == r:
                lam_p = cand
                break
        if lam_p is None:
            raise DegeneratePairing(
                "no partner with primitive pairing value; restriction is degenerate"
            )
        pairs.append((lam, lam_p, r))
        nxt = [
            w
            for w in current
            if pairing.value(lam, w) == 0 and pairing.value(lam_p, w) == 0
        ]
        if len(nxt) * r * r != len(current):
            raise DegeneratePairing("orthogonal complement has the wrong size")
        current = nxt
    lagrangian = FinAbGroup.from_factors([r for _, _, r in pairs])
    if lagrangian.order ** 2 != group.order:
        raise DegeneratePairing("extracted group does not square to the input order")
    return HyperbolicDecomposition(pairing, tuple(pairs), lagrangian)


# ---------------------------------------------------------------------------
# subgroups presented by explicit element lists
# ---------------------------------------------------------------------------


def smith_normal_form(mat: list[list[int]]):
    """U @ mat @ V = D diagonal with d_1 | d_2 | ...; returns (D, U, V)."""
    a = [row[:] for row in mat]
    n = len(a)
    m = len(a[0]) if n else 0
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, k):
        for row in a:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    t = 0
    while t < min(n, m):
        pivot = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # Euclid on the pivot row and column until both are clear
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    k = a[i][t] // a[t][t]
                    add_row(t, i, -k)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if a[t][j]:
                    k = a[t][j] // a[t][t]
                    add_col(t, j, -k)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            if any(a[i][t] for i in range(t + 1, n)):
                continue
            # the pivot must divide every remaining entry
            bad = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if a[i][j] % a[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, t, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


def generator_coefficients(elements, group: FinAbGroup) -> Matrix:
    """For each generator e_k of group, integers a with sum_i a_i
    elements[i] = e_k, for coordinate tuples that generate the group.

    The columns of M = [elements | diag(invariant factors)] then span
    Z^rank, so the Smith form is U M V = [I | 0], and M V' U = I for V'
    the first rank columns of V: column k of V' U, cut to its first
    len(elements) entries, is a.  Memoized per element tuple and group
    (_coefficients); the answer is a tuple of tuples, so a caller cannot
    change the memo."""
    return _coefficients(tuple(map(tuple, elements)), group)


@lru_cache(maxsize=None)
def _coefficients(elements: tuple[tuple[int, ...], ...], group: FinAbGroup) -> Matrix:
    r = group.rank
    mat = [[e[k] for e in elements] + [d if j == k else 0 for j in range(r)]
           for k, d in enumerate(group.invariant_factors)]
    d_mat, u, v = smith_normal_form(mat)
    if any(d_mat[k][k] != 1 for k in range(r)):
        raise ValueError("the elements do not generate the group")
    return tuple(tuple(sum(v[i][t] * u[t][k] for t in range(r)) for i in range(len(elements)))
                 for k in range(r))


def subgroup_from_elements(moduli, elements):
    """Identify the subgroup of prod Z/moduli generated by a list of
    elements: any generating list works, the whole subgroup or a few
    generators.

    Returns (group, to_canonical) where group is the canonical form of the
    subgroup and to_canonical, an isomorphism onto group, maps an ambient
    coordinate tuple (which must lie in the subgroup) to canonical
    coordinates.  The group does not depend on the list, but the labels
    can: with moduli [12, 2], (1, 0) is labelled (1, 1) from the
    generators (1, 1), (11, 0) and (0, 1) from the subgroup's element list.

    Memoized per moduli and element tuple (_subgroup): verify asks for the
    same survivor lattices row after row.  to_canonical reads only tuples
    and ints, so one function serves every caller.
    """
    return _subgroup(tuple(moduli), tuple(map(tuple, elements)))


@lru_cache(maxsize=None)
def _subgroup(moduli: tuple[int, ...], elements: tuple[tuple[int, ...], ...]):
    r = len(moduli)
    if r == 0 or all(all(c == 0 for c in e) for e in elements):
        return FinAbGroup.trivial(), lambda coords: ()
    # the lattice L spanned by the lifted elements and diag(moduli) has
    # U [elements | diag(moduli)] V = [diag(d) | 0], so the columns of
    # U^-1 diag(d) are a basis of L, and x in L has coordinates (U x)_k / d_k
    mat = [[e[i] for e in elements] + [moduli[i] if j == i else 0 for j in range(r)]
           for i in range(r)]
    d_mat, u, _ = smith_normal_form(mat)
    u = tuple(map(tuple, u))
    divisors = tuple(d_mat[k][k] for k in range(r))
    if any(dk == 0 for dk in divisors):
        raise AssertionError("lattice is not full rank")

    def lattice_coords(x):
        out = []
        for row, dk in zip(u, divisors):
            q, rem = divmod(sum(a * b for a, b in zip(row, x)), dk)
            if rem:
                raise AssertionError("vector is not in the lattice")
            out.append(q)
        return out

    # the subgroup is L / diag(moduli), read off from the relation matrix
    # of the moduli in the basis of L
    rel_cols = [lattice_coords([moduli[i] if k == i else 0 for k in range(r)])
                for i in range(r)]
    rel_mat = [[rel_cols[j][i] for j in range(r)] for i in range(r)]
    diag_mat, u_left, _ = smith_normal_form(rel_mat)
    u_left = tuple(map(tuple, u_left))
    diag = tuple(diag_mat[i][i] for i in range(r))
    if any(d == 0 for d in diag):
        raise AssertionError("relation lattice should have full rank")
    keep = tuple(i for i in range(r) if diag[i] > 1)
    group = FinAbGroup(tuple(diag[i] for i in keep))

    def to_canonical(coords):
        y = lattice_coords(coords)
        z = [sum(u_left[i][j] * y[j] for j in range(r)) for i in range(r)]
        return tuple(z[i] % diag[i] for i in keep)

    return group, to_canonical
