"""Enumeration of classification ingredients for a given ambient dimension.

Single-orbit rows are the ordered tuples (b, e, L, J, K) with
b * e * |L| * |J| * |K| = n, groups running over all isomorphism classes
of each order.  Multi-orbit rows glue single-orbit rows with isomorphic
component groups along a diagonal; gluing maps are reduced to canonical
representatives (simultaneous composition with a common automorphism,
plus permutation of identical summands), and such rows are flagged as
gluing-class representatives rather than asserted to be pairwise
non-conjugate.

A multi-orbit row takes the orientation, direct or mirrored, whose normal
form has the least sequence of (ingredient key, gluing map) pairs.  Every
normal form has the identity map in slots 0 and 1, and in every slot when
the row has two summands or Gamma is trivial, so the sorted ingredient
keys decide whenever they differ: in any slot in that case, and in one of
the three smallest otherwise.  Only on a tie are both normal forms built.

The mirror's gluing maps need each summand's pairing identification,
which depends only on (L, J, K): it is read once per (L, J, K) from the
pair at b = e = 1 (construct.pairing_identification), and only for a row
of three or more parts over a nontrivial Gamma whose mirror wins or ties
on keys.
Gluing maps are integer matrices on the shared group; their products are
memoized and their inverses come from abelian's inverse memo.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from .abelian import (
    FinAbGroup,
    automorphisms,
    dual_isomorphism_transport,
    enumerate_abelian_groups,
    identity_matrix,
    invert_isomorphism,
    is_isomorphism_matrix,
    partitions,
)
from .construct import (
    MultiOrbitSpec,
    SingleOrbitIngredients,
    multi_orbit_glue,
    pairing_identification,
    single_orbit_pair,
)
from .errors import NotIsomorphism

GLUING_CLASS_FLAG = "gluing-class-representative"


def component_group_of(ing: SingleOrbitIngredients) -> FinAbGroup:
    """The canonical component group L x L-hat x J-hat x K."""
    fs = (
        list(ing.L_group.invariant_factors) * 2
        + list(ing.J_group.invariant_factors)
        + list(ing.K_group.invariant_factors)
    )
    return FinAbGroup.from_factors(fs)


@dataclass(frozen=True)
class ClassificationRow:
    """One enumerated pair, either a single ingredient tuple or a glued
    multi-orbit specification."""

    kind: str  # "single" | "multi"
    single: SingleOrbitIngredients | None
    multi: MultiOrbitSpec | None
    gamma: FinAbGroup
    ambient_dim: int
    flags: tuple[str, ...] = ()

    @property
    def parts(self) -> int:
        return 1 if self.kind == "single" else len(self.multi.summands)

    def sort_key(self):
        if self.kind == "single":
            return (self.ambient_dim, 0, self.single.sort_key(), ())
        summand_keys = tuple(ing.sort_key() for ing, _ in self.multi.summands)
        q_keys = tuple(q for _, q in self.multi.summands)
        return (self.ambient_dim, self.parts, summand_keys, q_keys)

    def build(self):
        """Construct the (G, H) pair this row describes."""
        if self.kind == "single":
            return single_orbit_pair(self.single)
        return multi_orbit_glue(self.multi)


def single_row(ing: SingleOrbitIngredients, flags=()) -> ClassificationRow:
    return ClassificationRow(
        kind="single",
        single=ing,
        multi=None,
        gamma=component_group_of(ing),
        ambient_dim=ing.ambient_dim,
        flags=tuple(flags),
    )


def multi_row(spec: MultiOrbitSpec, flags=(GLUING_CLASS_FLAG,)) -> ClassificationRow:
    return ClassificationRow(
        kind="multi",
        single=None,
        multi=spec,
        gamma=spec.gamma,
        ambient_dim=spec.ambient_dim,
        flags=tuple(flags),
    )


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def enumerate_single_orbit(n: int) -> list[ClassificationRow]:
    """All ordered ingredient tuples with product n, in lexicographic order.

    Both orientations of a pair appear; orientation normalization happens
    only in canonicalize_row.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    rows = []
    for b in _divisors(n):
        rest_b = n // b
        for e in _divisors(rest_b):
            rest_e = rest_b // e
            for l_ord in _divisors(rest_e):
                rest_l = rest_e // l_ord
                for j_ord in _divisors(rest_l):
                    k_ord = rest_l // j_ord
                    for L in enumerate_abelian_groups(l_ord):
                        for J in enumerate_abelian_groups(j_ord):
                            for K in enumerate_abelian_groups(k_ord):
                                rows.append(
                                    single_row(SingleOrbitIngredients(b, e, L, J, K))
                                )
    return rows


@lru_cache(maxsize=4096)
def _mat_mod(a, b, factors):
    """Product of coordinate matrices (tuples of rows), reduced modulo the
    invariant factors.  The candidates of one component group repeat their
    products, so a bounded memo keeps most of the gain: on the three-part
    rows of n = 12, 4096 entries answer 73% of the calls, and an unbounded
    one 87% at twice the peak memory."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) % d for col in cols)
                 for row, d in zip(a, factors))


def _reduce_matrix(mat, gamma: FinAbGroup):
    return tuple(
        tuple(x % gamma.invariant_factors[i] for x in row)
        for i, row in enumerate(mat)
    )


def _aut_inverse(mat, gamma: FinAbGroup):
    """The inverse of an automorphism, as a tuple of rows, from abelian's
    inverse memo."""
    return tuple(map(tuple, invert_isomorphism(mat, gamma, gamma)))


def _canonical_gluing(summand_keys, qs, gamma: FinAbGroup):
    """Lexicographically least representative of a gluing tuple.

    Equivalences applied: reparameterization of the shared group (pins the
    first map to the identity), simultaneous composition of the remaining
    maps with one automorphism (pins the second map too), and permutation
    of summands with equal ingredient keys.
    """
    r = len(qs)
    ident = tuple(tuple(row) for row in identity_matrix(gamma))
    if gamma.is_trivial():
        return tuple([ident] * r)
    fs = gamma.invariant_factors
    qs = [_reduce_matrix(q, gamma) for q in qs]
    # pinning inverts only the first two maps of a permutation, so every map
    # is checked against abelian's inverse memo first
    if not all(is_isomorphism_matrix(q, gamma, gamma) for q in qs):
        raise NotIsomorphism("gluing map is not an automorphism")
    if r == 1:
        return (ident,)
    blocks = []
    start = 0
    for i in range(1, r + 1):
        if i == r or summand_keys[i] != summand_keys[start]:
            blocks.append(list(range(start, i)))
            start = i
    perms_per_block = [list(itertools.permutations(b)) for b in blocks]
    best = None
    for combo in itertools.product(*perms_per_block):
        perm = [i for block in combo for i in block]
        permuted = [qs[p] for p in perm]
        # pinning sends the first map to q0 q0^-1 and the second to
        # alpha q1 q0^-1, both the identity; only later slots are multiplied
        # out.
        pin = _aut_inverse(permuted[0], gamma)
        alpha = _aut_inverse(_mat_mod(permuted[1], pin, fs), gamma)
        cand = (ident, ident) + tuple(
            _mat_mod(alpha, _mat_mod(q, pin, fs), fs) for q in permuted[2:])
        if best is None or cand < best:
            best = cand
    return best


def _mirror_key(key):
    """The sort key of the swapped ingredient tuple, read off the key
    (dim, b, e, L, J, K) as (dim, e, b, L, K, J)."""
    dim, b, e, L, J, K = key
    return (dim, e, b, L, K, J)


def canonicalize_row(row: ClassificationRow) -> ClassificationRow:
    """Normal form of a row: orientation, summand order, gluing maps.

    The orientation is the one whose normal form has the least data key,
    the sequence of (ingredient key, gluing map) pairs.  Every normal form
    has the identity map in slots 0 and 1, and in every slot when there
    are two summands or Gamma is trivial; so the sorted ingredient keys
    decide whenever they differ, in any slot in that case and in one of
    the first three otherwise.  Only the winning orientation is built:
    the dual gluing maps only when the mirror wins on keys or ties, and
    both normal forms only on a tie.  A singular map raises NotIsomorphism
    on every path.

    Not idempotent on every multi-orbit row: re-canonicalizing some rows
    with Gamma = Z2 x Z2 gives another enumerated row, because left
    composition on slots 2.. and the summand permutations do not close
    into one group action (see the gluing-classes item of ROADMAP.md)."""
    if row.kind == "single":
        ing = row.single
        swapped = ing.swapped()
        if swapped.sort_key() < ing.sort_key():
            ing = swapped
        return single_row(ing, row.flags)

    flags = tuple(sorted(set(row.flags) | {GLUING_CLASS_FLAG}))
    gamma = row.multi.gamma
    summands = row.multi.summands

    def normal_form(summands):
        order = sorted(range(len(summands)), key=lambda i: summands[i][0].sort_key())
        ings = [summands[i][0] for i in order]
        qs = [summands[i][1] for i in order]
        keys = [ing.sort_key() for ing in ings]
        canon_qs = _canonical_gluing(keys, qs, gamma)
        return tuple(zip(ings, canon_qs))

    maps_fixed = len(summands) <= 2 or gamma.is_trivial()

    def mirrored():
        # with the identity in every slot no map is transported; the
        # canonical gluing still checks the row's own maps
        return normal_form(tuple(
            (ing.swapped(), q if maps_fixed else _dual_gluing_matrix(ing, q, gamma))
            for ing, q in summands
        ))

    keys = [ing.sort_key() for ing, _ in summands]
    direct_keys = sorted(keys)
    mirror_keys = sorted(map(_mirror_key, keys))
    if not maps_fixed:
        direct_keys, mirror_keys = direct_keys[:3], mirror_keys[:3]
    if mirror_keys < direct_keys:
        chosen = mirrored()
    elif mirror_keys > direct_keys or maps_fixed:
        # a tie with fixed maps leaves both normal forms equal
        chosen = normal_form(summands)
    else:
        chosen = min(normal_form(summands), mirrored(),
                     key=lambda form: tuple((ing.sort_key(), q) for ing, q in form))
    return multi_row(MultiOrbitSpec(gamma, chosen), flags)


_PHI_INV_CACHE: dict = {}


def _dual_gluing_matrix(ing: SingleOrbitIngredients, q, gamma: FinAbGroup):
    """The gluing map of the mirrored row: transport q to character space
    and identify the mirrored summand's component group through the
    commutator pairing.  The identification is the one gluing shares
    (construct.pairing_identification), read at b = e = 1 because the
    commutator scalars of I_b (x) I_e (x) X do not depend on b and e; so
    the result is memoized per (L, J, K) and q."""
    key = (ing.sort_key()[3:], q)
    if key not in _PHI_INV_CACHE:
        g_i, _, phi_inv = pairing_identification(ing.L_group, ing.J_group, ing.K_group)
        u = dual_isomorphism_transport(q, gamma, g_i.component_group)
        _PHI_INV_CACHE[key] = _mat_mod(phi_inv, tuple(map(tuple, u)),
                                       gamma.invariant_factors)
    return _PHI_INV_CACHE[key]


def enumerate_multi_orbit(n: int, max_parts: int | None = None) -> list[ClassificationRow]:
    """Single-orbit rows plus glued multisets with matching component groups.

    Multi-part rows are deduplicated through canonicalize_row.  They are
    gluing-class representatives, not yet claimed complete or irredundant:
    some conjugacy classes are missed and some are listed twice (see the
    gluing-classes item of ROADMAP.md).
    """
    if max_parts is None:
        max_parts = n
    if max_parts < 1:
        raise ValueError("max_parts must be positive")
    rows = list(enumerate_single_orbit(n))
    singles_by_dim = {d: enumerate_single_orbit(d) for d in range(1, n)}
    seen = set()
    out = list(rows)
    for partition in partitions(n):
        if not 2 <= len(partition) <= max_parts:
            continue
        # group candidate summands by their component group
        by_gamma: dict[tuple, dict[int, list[SingleOrbitIngredients]]] = {}
        for d in set(partition):
            for srow in singles_by_dim[d]:
                key = srow.gamma.invariant_factors
                by_gamma.setdefault(key, {}).setdefault(d, []).append(srow.single)
        counts: dict[int, int] = {}
        for d in partition:
            counts[d] = counts.get(d, 0) + 1
        for gamma_key, per_dim in by_gamma.items():
            if any(d not in per_dim for d in counts):
                continue
            gamma = FinAbGroup(gamma_key)
            ident = tuple(tuple(r) for r in identity_matrix(gamma))
            r = len(partition)
            # common reparameterization pins the first map; simultaneous
            # composition with one automorphism pins the second, so orbit
            # representatives have identity maps in the first two slots
            if r <= 2:
                tails = [()]
            else:
                autos = [tuple(tuple(int(x) for x in row) for row in a)
                         for a in automorphisms(gamma)]
                tails = list(itertools.product(autos, repeat=r - 2))
            choices = []
            for d in sorted(counts, reverse=True):
                choices.append(
                    list(
                        itertools.combinations_with_replacement(per_dim[d], counts[d])
                    )
                )
            for combo in itertools.product(*choices):
                ings = [ing for block in combo for ing in block]
                for tail in tails:
                    q_tuple = (ident,) * min(2, r) + tail
                    if len(q_tuple) != r:
                        raise AssertionError("gluing tuple length mismatch")
                    spec = MultiOrbitSpec(gamma, tuple(zip(ings, q_tuple)))
                    canon = canonicalize_row(multi_row(spec))
                    key = _row_key(canon)
                    if key not in seen:
                        seen.add(key)
                        out.append(canon)
    out.sort(key=lambda r: r.sort_key())
    return out


def _row_key(row: ClassificationRow):
    if row.kind == "single":
        return ("single", row.single.sort_key())
    return (
        "multi",
        row.gamma.invariant_factors,
        tuple((ing.sort_key(), q) for ing, q in row.multi.summands),
    )
