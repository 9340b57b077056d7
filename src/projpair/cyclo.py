"""Exact arithmetic in cyclotomic fields Q(zeta_m) and exact linear algebra.

A value is represented by its coordinates in the power basis
1, zeta, ..., zeta^(phi(m)-1) of Q(zeta_m), reduced modulo the m-th
cyclotomic polynomial.  Coordinates are stored as a tuple of integers
over a single positive denominator, normalized so that the gcd of all
numerators and the denominator is 1.  Values are immutable; mixed
conductors are lifted lazily to the lcm.

A matrix keeps only its nonzero cells, all on one conductor, so building,
adding and multiplying matrices costs work in proportion to their
nonzeros.  Rank, kernels, determinants and inverses all come from one
Gauss-Jordan step: inserting a row into a VectorSpan kept in reduced
echelon form, whose rows keep only their nonzero entries, so the step
costs work in proportion to the nonzeros it touches.

Matrix products and the row updates of that step share one kernel, _dot:
the products of a cell (or of an update w - c*v) accumulate as one
integer polynomial over a common denominator, which is reduced mod Phi_m
and normalized once per cell, not once per term.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from functools import lru_cache

from .errors import ConductorCapExceeded, DimensionMismatch, SingularMatrix

DEFAULT_CONDUCTOR_CAP = 10080

_conductor_cap = DEFAULT_CONDUCTOR_CAP


def conductor_cap() -> int:
    return _conductor_cap


def set_conductor_cap(cap: int) -> None:
    """Set the largest conductor the library will compute in."""
    global _conductor_cap
    if cap < 1:
        raise ValueError("conductor cap must be positive")
    _conductor_cap = cap


def check_conductor(m: int) -> None:
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    if m > _conductor_cap:
        raise ConductorCapExceeded(
            f"conductor {m} exceeds cap {_conductor_cap} "
            "(raise it with --conductor-cap or set_conductor_cap)"
        )


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    phi = m
    for p in prime_factors(m):
        phi -= phi // p
    return phi


def prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials, used to build cyclotomics."""
    num = list(num)
    deg_n, deg_d = len(num) - 1, len(den) - 1
    lead = den[-1]
    quot = [0] * (deg_n - deg_d + 1)
    for k in range(deg_n - deg_d, -1, -1):
        c = num[k + deg_d]
        if c % lead:
            raise ArithmeticError("non-exact polynomial division")
        q = c // lead
        quot[k] = q
        if q:
            for i, d in enumerate(den):
                num[k + i] -= q * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low to high, monic) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divide_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row j holds the coordinates of x^(phi(m)+j) mod Phi_m, up to degree m-1
    (enough for products of reduced values and for raw powers below m)."""
    phi = euler_phi(m)
    top = max(2 * phi - 2, m - 1)
    poly = cyclotomic_polynomial(m)
    base = tuple(-c for c in poly[:phi])  # x^phi = base
    rows = [base]
    for _ in range(phi, top):
        prev = rows[-1]
        shifted = [0] + list(prev[: phi - 1])
        carry = prev[phi - 1]
        if carry:
            shifted = [s + carry * b for s, b in zip(shifted, base)]
        rows.append(tuple(shifted))
    return tuple(rows)


def _reduce_int_poly(coeffs: list[int], m: int) -> list[int]:
    """Reduce integer coordinates of degree < max(2*phi-1, m) mod Phi_m."""
    phi = euler_phi(m)
    if len(coeffs) <= phi:
        return coeffs + [0] * (phi - len(coeffs))
    rows = _reduction_rows(m)
    out = list(coeffs[:phi])
    for k in range(phi, len(coeffs)):
        c = coeffs[k]
        if c:
            row = rows[k - phi]
            for i in range(phi):
                if row[i]:
                    out[i] += c * row[i]
    return out


def _normalize(m: int, num: list[int], den: int):
    if den < 0:
        den = -den
        num = [-v for v in num]
    g = den
    for v in num:
        if v:
            g = math.gcd(g, v)
        if g == 1:
            break
    if g > 1:
        num = [v // g for v in num]
        den //= g
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if all(v == 0 for v in num):
        den = 1
    return tuple(num), den


@lru_cache(maxsize=None)
def _lift_rows(m: int, target: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds the coordinates of zeta_m^i inside Q(zeta_target)."""
    step = target // m
    phi_m = euler_phi(m)
    rows = []
    for i in range(phi_m):
        k = i * step
        poly = [0] * k + [1]
        rows.append(tuple(_reduce_int_poly(poly, target)))
    return tuple(rows)


class CycNum:
    """An element of Q(zeta_m), immutable and in reduced power-basis form."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, num, den: int = 1):
        check_conductor(m)
        phi = euler_phi(m)
        num = list(num)
        if len(num) != phi:
            raise ValueError(f"need {phi} coordinates for conductor {m}, got {len(num)}")
        self.m = m
        self.num, self.den = _normalize(m, num, den)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "CycNum":
        return CycNum(1, [0])

    @staticmethod
    def one() -> "CycNum":
        return CycNum(1, [1])

    @staticmethod
    def from_rational(q) -> "CycNum":
        q = Fraction(q)
        return CycNum(1, [q.numerator], q.denominator)

    @staticmethod
    def root_of_unity(m: int, k: int = 1) -> "CycNum":
        """zeta_m^k, built in the smallest conductor containing it."""
        if m < 1:
            raise ValueError("order must be positive")
        k %= m
        g = math.gcd(k, m)
        m2, k2 = m // g, k // g
        if m2 == 1:
            return ONE
        # checked before the lookup, so that a lowered cap still raises
        check_conductor(m2)
        root = _ROOTS.get((m2, k2))
        if root is None:
            poly = [0] * k2 + [1]
            root = _ROOTS[(m2, k2)] = CycNum(m2, _reduce_int_poly(poly, m2))
        return root

    # -- views ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and all(v == 0 for v in self.num[1:])

    def is_rational(self) -> bool:
        return all(v == 0 for v in self.num[1:])

    def coefficients(self) -> list[Fraction]:
        return [Fraction(v, self.den) for v in self.num]

    def lift(self, target: int) -> "CycNum":
        """Rewrite in the field Q(zeta_target); target must be a multiple of m."""
        if target == self.m:
            return self
        if target % self.m:
            raise ValueError(f"cannot lift conductor {self.m} into {target}")
        check_conductor(target)
        if self.is_zero():
            zero = _ZEROS.get(target)
            if zero is None:
                zero = _ZEROS[target] = CycNum(target, [0] * euler_phi(target))
            return zero
        rows = _lift_rows(self.m, target)
        phi = euler_phi(target)
        out = [0] * phi
        for i, c in enumerate(self.num):
            if c:
                row = rows[i]
                for j in range(phi):
                    if row[j]:
                        out[j] += c * row[j]
        return CycNum(target, out, self.den)

    # -- arithmetic -----------------------------------------------------

    def _pair(self, other: "CycNum"):
        if self.m == other.m:
            return self, other
        m = self.m * other.m // math.gcd(self.m, other.m)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        other = as_cyc(other)
        a, b = self._pair(other)
        da, db = a.den, b.den
        num = [va * db + vb * da for va, vb in zip(a.num, b.num)]
        return CycNum(a.m, num, da * db)

    __radd__ = __add__

    def __neg__(self):
        out = CycNum.__new__(CycNum)
        out.m, out.num, out.den = self.m, tuple(-v for v in self.num), self.den
        return out

    def __sub__(self, other):
        return self + (-as_cyc(other))

    def __rsub__(self, other):
        return as_cyc(other) - self

    def __mul__(self, other):
        other = as_cyc(other)
        a, b = self._pair(other)
        if a.is_rational():
            q = a.num[0]
            return CycNum(b.m, [q * v for v in b.num], a.den * b.den)
        if b.is_rational():
            q = b.num[0]
            return CycNum(a.m, [q * v for v in a.num], a.den * b.den)
        phi = len(a.num)
        prod = [0] * (2 * phi - 1)
        for i, va in enumerate(a.num):
            if va:
                for j, vb in enumerate(b.num):
                    if vb:
                        prod[i + j] += va * vb
        return CycNum(a.m, _reduce_int_poly(prod, a.m), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return CycNum(1, [self.den], self.num[0])
        k = self._as_unit_power()
        if k is not None:
            return CycNum.root_of_unity(self.m, -k)
        # extended Euclid for gcd(value, Phi_m) = 1 in Q[x]
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.m)]
        a = [Fraction(v, self.den) for v in self.num]
        inv = _poly_modular_inverse(a, phi_poly)
        den = 1
        for c in inv:
            den = den * c.denominator // math.gcd(den, c.denominator)
        num = [int(c * den) for c in inv]
        return CycNum(self.m, num, den)

    def _as_unit_power(self):
        """If the value is exactly zeta_m^k for some k, return k, else None."""
        if self.den != 1:
            return None
        nz = [i for i, v in enumerate(self.num) if v]
        if len(nz) == 1 and self.num[nz[0]] == 1:
            return nz[0]
        return None

    def __truediv__(self, other):
        other = as_cyc(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return as_cyc(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = CycNum.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, (CycNum, int, Fraction)):
            return NotImplemented
        other = as_cyc(other)
        if self.m == other.m:
            return self.num == other.num and self.den == other.den
        a, b = self._pair(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.m, self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.is_rational():
            return str(Fraction(self.num[0], self.den))
        terms = []
        for i, v in enumerate(self.num):
            if v:
                coeff = str(Fraction(v, self.den))
                terms.append(coeff if i == 0 else f"{coeff}*z{self.m}^{i}")
        return " + ".join(terms)

    # -- roots of unity ---------------------------------------------------

    def as_root_of_unity(self):
        """Return (order, exponent) with value == zeta_order^exponent, or None."""
        if self.den != 1:
            return None
        key = (self.m, self.num)
        root = _ROOT_EXPONENTS.get(key)
        if root is None:
            root = self._find_root_of_unity()
            if root is not None:
                _ROOT_EXPONENTS[key] = root
        return root

    def _find_root_of_unity(self):
        k = self._as_unit_power()
        if k is not None:
            g = math.gcd(k, self.m) if k else self.m
            return (self.m // g, (k // g) % (self.m // g)) if k else (1, 0)
        cap = self.m if self.m % 2 == 0 else 2 * self.m
        if self ** cap != ONE:
            return None
        order = cap
        for p in prime_factors(cap):
            while order % p == 0 and self ** (order // p) == ONE:
                order //= p
        for j in range(order):
            if math.gcd(j, order) == 1 or order == 1:
                if self == CycNum.root_of_unity(order, j):
                    return (order, j)
        return None


def _poly_modular_inverse(a: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    """Inverse of a modulo an irreducible rational polynomial."""

    def deg(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i]:
                return i
        return -1

    def trim(p):
        d = deg(p)
        return p[: d + 1] if d >= 0 else []

    def divmod_poly(p, q):
        p = list(p)
        dq = deg(q)
        lead = q[dq]
        quot = [Fraction(0)] * max(deg(p) - dq + 1, 0)
        while deg(p) >= dq:
            dp = deg(p)
            c = p[dp] / lead
            quot[dp - dq] = c
            for i in range(dq + 1):
                p[dp - dq + i] -= c * q[i]
        return quot, trim(p)

    r0, r1 = list(modulus), trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while deg(r1) > 0:
        q, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        new_s = list(s0)
        prod_len = len(q) + len(s1) - 1 if q and s1 else 0
        prod = [Fraction(0)] * max(prod_len, len(new_s))
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    prod[i + j] += qc * sc
        new_s += [Fraction(0)] * (len(prod) - len(new_s))
        s0, s1 = s1, trim([u - v for u, v in zip(new_s, prod)] + new_s[len(prod):])
    if deg(r1) != 0:
        raise ZeroDivisionError("value shares a factor with the modulus")
    c = r1[0]
    inv = [v / c for v in s1]
    _, rem = divmod_poly(inv, modulus)
    rem += [Fraction(0)] * (len(modulus) - 1 - len(rem))
    return rem[: len(modulus) - 1]


# Memos of the root-of-unity conversions: zeta_m^k keyed on the reduced
# (m, k), and the (order, exponent) of an integral value keyed on (m, num).
# Both hold roots of unity only (a value that is not one is not stored),
# so neither outgrows the roots of unity below the conductor cap; values
# are immutable, so sharing them is safe.  _ZEROS holds the zero of each
# conductor that a value was lifted into.
_ROOTS: dict = {}
_ROOT_EXPONENTS: dict = {}
_ZEROS: dict = {}

ZERO = CycNum.zero()
ONE = CycNum.one()
MINUS_ONE = CycNum.from_rational(-1)


def as_cyc(x) -> CycNum:
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum.from_rational(x)
    raise TypeError(f"cannot interpret {x!r} as a cyclotomic number")


class CycMatrix:
    """A matrix over Q(zeta_m) that keeps only its nonzero cells.

    cells maps (i, j) to the nonzero value there, every value lifted to the
    matrix's one conductor m.  m follows the rule of a dense grid whose
    every entry is lifted to the lcm of the conductors: a constructor takes
    the lcm over all the values it is given, zeros included, and each
    operation takes the conductor its dense counterpart would have.  data
    is a read-only dense view, zeros on conductor m.
    """

    __slots__ = ("rows", "cols", "m", "cells")

    def __init__(self, data):
        """From a dense grid of values."""
        grid = [[as_cyc(v) for v in row] for row in data]
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one row and column")
        cols = len(grid[0])
        if any(len(row) != cols for row in grid):
            raise ValueError("ragged rows")
        out = CycMatrix.from_entries(len(grid), cols, {
            (i, j): v for i, row in enumerate(grid) for j, v in enumerate(row)})
        self.rows, self.cols, self.m, self.cells = out.rows, out.cols, out.m, out.cells

    @staticmethod
    def _of(rows: int, cols: int, cells: dict, m: int) -> "CycMatrix":
        """From nonzero cells already on conductor m."""
        if rows < 1 or cols < 1:
            raise ValueError("matrix needs at least one row and column")
        check_conductor(m)
        out = object.__new__(CycMatrix)
        out.rows, out.cols, out.m, out.cells = rows, cols, m, cells
        return out

    # -- constructors ----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "CycMatrix":
        return CycMatrix._of(n, n, {(i, i): ONE for i in range(n)}, 1)

    @staticmethod
    def zeros(rows: int, cols: int) -> "CycMatrix":
        return CycMatrix._of(rows, cols, {}, 1)

    @staticmethod
    def diagonal(values) -> "CycMatrix":
        values = list(values)
        n = len(values)
        return CycMatrix.from_entries(n, n, {(i, i): v for i, v in enumerate(values)})

    @staticmethod
    def from_entries(rows: int, cols: int, entries: dict) -> "CycMatrix":
        """From values by (i, j), zero elsewhere.  The conductor is the lcm
        over all the given values, zeros included."""
        if any(not (0 <= i < rows and 0 <= j < cols) for i, j in entries):
            raise IndexError(f"entry outside a {rows} x {cols} matrix")
        values = {k: as_cyc(v) for k, v in entries.items()}
        m = math.lcm(*(v.m for v in values.values()))
        return CycMatrix._of(rows, cols, {
            k: v.lift(m) for k, v in values.items() if not v.is_zero()}, m)

    # -- views -----------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> CycNum:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.rows} x {self.cols} matrix")
        v = self.cells.get((i, j))
        return ZERO.lift(self.m) if v is None else v

    @property
    def data(self) -> tuple:
        zero = ZERO.lift(self.m)
        return tuple(tuple(self.cells.get((i, j), zero) for j in range(self.cols))
                     for i in range(self.rows))

    def flatten(self) -> list[CycNum]:
        return [v for row in self.data for v in row]

    def flat_cells(self) -> dict[int, CycNum]:
        """The nonzero cells by row-major position i * cols + j, the form
        VectorSpan.add and contains take."""
        cols = self.cols
        return {i * cols + j: v for (i, j), v in self.cells.items()}

    def first_nonzero(self):
        """The row-major first position with a nonzero value, or None."""
        return min(self.cells, default=None)

    def transpose(self) -> "CycMatrix":
        return CycMatrix._of(self.cols, self.rows,
                             {(j, i): v for (i, j), v in self.cells.items()}, self.m)

    def is_identity(self) -> bool:
        return (self.is_square() and len(self.cells) == self.rows
                and all(i == j and v.is_one() for (i, j), v in self.cells.items()))

    def is_zero(self) -> bool:
        return not self.cells

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "CycMatrix") -> "CycMatrix":
        """The sum, on lcm(self.m, other.m)."""
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        m = math.lcm(self.m, other.m)
        zero = ZERO.lift(m)
        cells = {k: v.lift(m) for k, v in self.cells.items()}
        for k, v in other.cells.items():
            w = cells.pop(k, zero) + v
            if not w.is_zero():
                cells[k] = w
        return CycMatrix._of(self.rows, self.cols, cells, m)

    def __neg__(self) -> "CycMatrix":
        return CycMatrix._of(self.rows, self.cols,
                             {k: -v for k, v in self.cells.items()}, self.m)

    def __sub__(self, other: "CycMatrix") -> "CycMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot subtract {self.shape} and {other.shape}")
        return self + (-other)

    def scale(self, c) -> "CycMatrix":
        """c times this matrix, on lcm(m, c.m) unless the matrix is zero."""
        c = as_cyc(c)
        if not self.cells:
            return CycMatrix._of(self.rows, self.cols, {}, self.m)
        m = math.lcm(self.m, c.m)
        cells = {} if c.is_zero() else {k: c * v for k, v in self.cells.items()}
        return CycMatrix._of(self.rows, self.cols, cells, m)

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        """The product, on lcm(self.m, other.m) when two nonzero factors
        meet, else on 1.  A Monomial on the right multiplies itself."""
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        m = math.lcm(self.m, other.m)
        acc = _product_terms({}, self, other, m)
        cells = {key: v for key, terms in acc.items() if (v := _dot(m, terms)) is not None}
        return CycMatrix._of(self.rows, other.cols, cells, m if acc else 1)

    __mul__ = __matmul__

    def twisted_commutator(self, h: "CycMatrix", c) -> "CycMatrix":
        """self @ h - c (h @ self) for n x n matrices, with the cells and
        the conductor of (self @ h) - (h @ self).scale(c), in one pass:
        each output cell is one _dot over the terms of both products, with
        -c folded into this matrix's cells."""
        n = self.rows
        if not self.cols == h.rows == h.cols == n:
            raise DimensionMismatch(f"cannot twist {self.shape} by {h.shape}")
        c = as_cyc(c)
        m = math.lcm(self.m, h.m)
        twisted = _meets(h, self)
        if not twisted and not _meets(self, h):
            m = 1
        elif twisted and m % c.m:
            # c's conductor joins only when h @ self is not zero
            twisted = any(_dot(m, terms) is not None
                          for terms in _product_terms({}, h, self, m).values())
            if twisted:
                m = math.lcm(m, c.m)
        acc = _product_terms({}, self, h, m)
        if twisted:
            _product_terms(acc, h, self, m, -c.lift(m))
        cells = {key: v for key, terms in acc.items() if (v := _dot(m, terms)) is not None}
        return CycMatrix._of(n, n, cells, m)

    def __pow__(self, e: int) -> "CycMatrix":
        if not self.is_square():
            raise DimensionMismatch("powers need a square matrix")
        if e < 0:
            return self.inverse() ** (-e)
        result = CycMatrix.identity(self.rows)
        base = self
        while e:
            if e & 1:
                result = result @ base
            e >>= 1
            if e:
                base = base @ base
        return result

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.shape != other.shape or self.cells.keys() != other.cells.keys():
            return False
        return all(v == other.cells[k] for k, v in self.cells.items())

    __hash__ = None

    def __repr__(self):
        body = "\n ".join("[" + ", ".join(map(repr, row)) + "]" for row in self.data)
        return f"CycMatrix({self.rows}x{self.cols}, m={self.m})\n [{body}]"

    def kron(self, other) -> "CycMatrix":
        """Kronecker product, row-major blocks: this matrix's indices vary
        slowest.  On lcm(self.m, other.m) unless this matrix is zero; a
        Monomial factor is expanded."""
        if not isinstance(other, CycMatrix):
            other = other.to_matrix()
        rows, cols = self.rows * other.rows, self.cols * other.cols
        if not self.cells:
            return CycMatrix._of(rows, cols, {}, 1)
        r2, c2 = other.rows, other.cols
        m = math.lcm(self.m, other.m)
        cells = {
            (i * r2 + k, j * c2 + l): a * b
            for (i, j), a in self.cells.items()
            for (k, l), b in other.cells.items()
        }
        return CycMatrix._of(rows, cols, cells, m)

    # -- elimination-based operations ---------------------------------------

    def _row_dicts(self) -> list[dict[int, CycNum]]:
        """Each row's nonzero cells by column, the form VectorSpan takes."""
        out: list[dict[int, CycNum]] = [{} for _ in range(self.rows)]
        for (i, j), v in self.cells.items():
            out[i][j] = v
        return out

    def _echelon(self) -> "VectorSpan":
        """The row span in reduced echelon form."""
        span = VectorSpan(self.cols)
        for row in self._row_dicts():
            if span.dim == self.cols:
                break
            span._insert(row)
        return span

    def rank(self) -> int:
        return self._echelon().dim

    def det(self) -> CycNum:
        """The product of the leading values of the rows, each reduced
        against the earlier ones, signed by the parity of their pivots.

        Reducing a row by earlier rows keeps the determinant, and in pivot
        order the reduced rows are triangular.
        """
        if not self.is_square():
            raise DimensionMismatch("determinant needs a square matrix")
        span = VectorSpan(self.cols)
        pivots = []
        d = ONE
        for row in self._row_dicts():
            step = span._insert(row)
            if step is None:
                return ZERO
            pivots.append(step[0])
            d = d * step[1]
        inversions = sum(1 for i, p in enumerate(pivots) for q in pivots[:i] if q > p)
        return -d if inversions % 2 else d

    def inverse(self) -> "CycMatrix":
        """The right half of the reduced echelon form of [A | I]."""
        if not self.is_square():
            raise DimensionMismatch("inverse needs a square matrix")
        n = self.rows
        span = VectorSpan(2 * n)
        for i, vec in enumerate(self._row_dicts()):
            vec[n + i] = ONE
            pivot, _ = span._insert(vec)
            if pivot >= n:
                raise SingularMatrix("matrix is singular")
        return CycMatrix.from_entries(n, n, {
            (i, j - n): v for i, row in enumerate(span.rows) for j, v in row.items() if j >= n})

    def kernel(self) -> list["CycMatrix"]:
        """Exact basis of the right null space, as n x 1 column matrices.

        Each basis vector is normalized so its first nonzero coordinate is 1;
        the basis is ordered by free column.
        """
        span = self._echelon()
        pivot_set = set(span.pivots)
        basis = []
        for fc in range(self.cols):
            if fc in pivot_set:
                continue
            vec = [ZERO] * self.cols
            vec[fc] = ONE
            for row, p in zip(span.rows, span.pivots):
                # zero entries stay the conductor-1 ZERO, so a unit vector keeps conductor 1
                v = row.get(fc)
                if v is not None:
                    vec[p] = -v
            lead_inv = next(v for v in vec if not v.is_zero()).inverse()
            basis.append(CycMatrix([[lead_inv * v] for v in vec]))
        return basis


class VectorSpan:
    """A linear subspace of C^N over Q(zeta), kept in reduced echelon form.

    Each row keeps only its nonzero entries, as a dict from column to
    value, with value 1 at its pivot; a dense vector is read into that
    form once, on the way in.  Supports exact membership, incremental
    growth, and span equality; used for matrix-algebra spans via
    flattening.  Its insertion step is the one elimination behind
    CycMatrix's rank, kernel, det and inverse.
    """

    def __init__(self, length: int):
        self.length = length
        self.rows: list[dict[int, CycNum]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict[int, CycNum]) -> dict[int, CycNum]:
        """Subtract from vec, in place, its part along the stored rows."""
        for row, p in zip(self.rows, self.pivots):
            c = vec.pop(p, None)
            if c is not None:
                _subtract_multiple(vec, c, row, p)
        return vec

    def _insert(self, vec: dict[int, CycNum]):
        """Reduce vec against the rows; if anything is left, scale it to
        pivot 1 at its least column, clear that column from the other rows
        and store it.

        Returns (pivot column, leading value before scaling), or None when
        vec lies in the span.
        """
        vec = self._reduce(vec)
        if not vec:
            return None
        pivot = min(vec)
        lead = vec[pivot]
        inv = lead.inverse()
        for j, v in vec.items():
            vec[j] = inv * v
        vec[pivot] = ONE
        for row in self.rows:
            c = row.pop(pivot, None)
            if c is not None:
                _subtract_multiple(row, c, vec, pivot)
        k = bisect.bisect(self.pivots, pivot)
        self.rows.insert(k, vec)
        self.pivots.insert(k, pivot)
        return pivot, lead

    def add(self, vec) -> bool:
        """Insert a vector; returns True when the dimension grew."""
        return self._insert(_sparse(vec)) is not None

    def contains(self, vec) -> bool:
        """Membership of a dense vector, or of one given as a dict of its
        nonzero entries."""
        return not self._reduce(_sparse(vec))

    def contains_span(self, other: "VectorSpan") -> bool:
        return all(self.contains(row) for row in other.rows)

    def equals(self, other: "VectorSpan") -> bool:
        return self.dim == other.dim and self.contains_span(other)


def _sparse(vec) -> dict[int, CycNum]:
    """The nonzero entries of a vector, given densely or as a dict, by
    column."""
    items = vec.items() if isinstance(vec, dict) else enumerate(map(as_cyc, vec))
    return {j: v for j, v in items if not v.is_zero()}


def _coords(x: CycNum):
    """x's nonzero power-basis coordinates as (power, numerator) pairs,
    with its denominator: the form of a factor of _dot."""
    return [(i, v) for i, v in enumerate(x.num) if v], x.den


def _dot(m: int, pairs, base: CycNum | None = None) -> CycNum | None:
    """base + the sum of a * b over the pairs (a, b) of factors given by
    _coords, everything on conductor m; None when the sum is zero.

    The products accumulate as one integer polynomial of degree below
    2 phi(m) - 1 over a common denominator, reduced mod Phi_m and
    normalized once, so the sum builds one CycNum however many terms it
    has."""
    phi = euler_phi(m)
    acc = [0] * (2 * phi - 1)
    den = None  # until the first value
    if base is not None:
        acc[:phi] = base.num
        den = base.den
    for (a, da), (b, db) in pairs:
        d = da * db
        scale = 1
        if den is None:
            den = d
        elif d != den:
            up = d // math.gcd(den, d)
            if up > 1:
                acc = [v * up for v in acc]
                den *= up
            scale = den // d
        for i, va in a:
            va *= scale
            for j, vb in b:
                acc[i + j] += va * vb
    num = _reduce_int_poly(acc, m)
    if not any(num):
        return None
    out = object.__new__(CycNum)
    out.m = m
    out.num, out.den = _normalize(m, num, den)
    return out


def _meets(a: CycMatrix, b: CycMatrix) -> bool:
    """Does some column of a's cells meet a row of b's, so that a @ b
    has a term?"""
    return not {k for _, k in a.cells}.isdisjoint({k for k, _ in b.cells})


def _product_terms(acc: dict, a: CycMatrix, b: CycMatrix, m: int, f: CycNum | None = None):
    """Add to acc, by output cell, the term pairs of a @ b as _dot takes
    them, on conductor m, each cell of b first multiplied by f (a value on
    m) when f is given; returns acc.  Only cells that meet are lifted, so
    a product in which none meet does not trip the conductor cap."""
    meet = {k for _, k in a.cells}
    by_row: dict[int, list] = {}
    for (k, j), v in b.cells.items():
        if k in meet:
            v = v.lift(m)
            by_row.setdefault(k, []).append((j, _coords(v if f is None else f * v)))
    for (i, k), u in a.cells.items():
        row = by_row.get(k)
        if row is not None:
            cu = _coords(u.lift(m))
            for j, cv in row:
                terms = acc.get((i, j))
                if terms is None:
                    acc[i, j] = [(cu, cv)]
                else:
                    terms.append((cu, cv))
    return acc


def _subtract_multiple(vec: dict, c: CycNum, row: dict, pivot: int) -> None:
    """vec -= c * row over the nonzeros of row, leaving out its pivot
    column, which the caller has already taken out of vec.  Each new
    entry w - c*v is one _dot on the lcm of the conductors of w, c and v."""
    minus_c = {}  # -c on each conductor it is lifted to
    for j, v in row.items():
        if j != pivot:
            w = vec.get(j)
            m = math.lcm(v.m, c.m) if w is None else math.lcm(v.m, c.m, w.m)
            f = minus_c.get(m)
            if f is None:
                a, da = _coords(c.lift(m))
                f = minus_c[m] = ([(i, -u) for i, u in a], da)
            out = _dot(m, [(f, _coords(v.lift(m)))], None if w is None else w.lift(m))
            if out is None:
                del vec[j]
            else:
                vec[j] = out


def span_of_matrices(mats) -> VectorSpan:
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].rows * mats[0].cols
    span = VectorSpan(n)
    for m in mats:
        span.add(m.flat_cells())
    return span
