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
form has the least sequence of (ingredient key, gluing map) pairs.  The
normal form is a plan applied to the row's maps.  The plan depends only on
Gamma and the ingredient keys, so it is worked out once per (invariant
factors, ingredient keys): which orientations can win, each one's
ingredients in summand order, and the orders of the summands whose gluing
maps are compared.  Every normal form has the identity map in slots 0 and
1, and in every slot when the row has two summands or Gamma is trivial, so
the sorted ingredient keys decide whenever they differ: in any slot in
that case, and in one of the three smallest otherwise.  Only on a tie does
the plan hold both orientations.

The mirror's gluing maps need each summand's pairing identification,
which depends only on (L, J, K): it is read once per (L, J, K) from the
pair at b = e = 1 (construct.pairing_identification), and only for a row
of three or more parts over a nontrivial Gamma whose mirror wins or ties
on keys.
Gluing maps are integer matrices on the shared group, in abelian's one
form (tuples of int tuples); their products are abelian.matrix_product,
memoized, and the identity map and the inverses are read straight from
abelian (identity_matrix, invert_isomorphism), with no copy.  The group lists per order and the
component group per (L, J, K) are memoized too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .abelian import (
    FinAbGroup,
    automorphisms,
    dual_isomorphism_transport,
    enumerate_abelian_groups,
    identity_matrix,
    invert_isomorphism,
    matrix_product,
    partitions,
)
from .construct import (
    MultiOrbitSpec,
    SingleOrbitIngredients,
    multi_orbit_glue,
    pairing_identification,
    single_orbit_pair,
)

GLUING_CLASS_FLAG = "gluing-class-representative"


def component_group_of(ing: SingleOrbitIngredients) -> FinAbGroup:
    """The canonical component group L x L-hat x J-hat x K."""
    return _component_group(ing.L_group, ing.J_group, ing.K_group)


@lru_cache(maxsize=None)
def _component_group(L: FinAbGroup, J: FinAbGroup, K: FinAbGroup) -> FinAbGroup:
    return FinAbGroup.from_factors(
        L.invariant_factors * 2 + J.invariant_factors + K.invariant_factors)


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


@lru_cache(maxsize=None)
def _groups(order: int) -> tuple[FinAbGroup, ...]:
    """enumerate_abelian_groups(order), listed once per order."""
    return tuple(enumerate_abelian_groups(order))


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
                    for L in _groups(l_ord):
                        for J in _groups(j_ord):
                            for K in _groups(k_ord):
                                rows.append(
                                    single_row(SingleOrbitIngredients(b, e, L, J, K))
                                )
    return rows


# matrix_product of gluing maps (tuples of rows) modulo the invariant
# factors.  The candidates of one component group repeat their products, so
# a bounded memo keeps most of the gain: on the three-part rows of n = 12,
# 4096 entries answer 73% of the calls, and an unbounded one 87% at twice
# the peak memory.
_mat_mod = lru_cache(maxsize=4096)(matrix_product)


def _orders(keys):
    """Every order of the summands that a normal form compares, as tuples
    of indices into keys: the sort by key, then each permutation of the
    summands with equal keys.  The first order is the sort itself."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    blocks = [tuple(block) for _, block in itertools.groupby(order, key=keys.__getitem__)]
    return tuple(tuple(i for block in combo for i in block)
                 for combo in itertools.product(*map(itertools.permutations, blocks)))


def _canonical_gluing(qs, orders, gamma: FinAbGroup):
    """Lexicographically least representative of a gluing tuple.

    Equivalences applied: reparameterization of the shared group (pins the
    first map to the identity), simultaneous composition of the remaining
    maps with one automorphism (pins the second map too), and permutation
    of summands with equal ingredient keys, given as the orders of qs to
    compare (_orders).  Every map is checked: a singular one raises
    NotIsomorphism.
    """
    r = len(qs)
    ident = identity_matrix(gamma)
    if gamma.is_trivial():
        return (ident,) * r
    # the inverses check every map, and pinning reads each order's first
    inverses = [invert_isomorphism(q, gamma, gamma) for q in qs]
    if r <= 2:
        return (ident,) * r
    fs = gamma.invariant_factors
    best = None
    for order in orders:
        # pinning sends the first map to q0 q0^-1 and the second to
        # alpha q1 q0^-1, both the identity; only later slots are multiplied
        # out.
        pin = inverses[order[0]]
        alpha = invert_isomorphism(_mat_mod(qs[order[1]], pin, fs), gamma, gamma)
        cand = (ident, ident) + tuple(
            _mat_mod(alpha, _mat_mod(qs[i], pin, fs), fs) for i in order[2:])
        if best is None or cand < best:
            best = cand
    return best


@lru_cache(maxsize=None)
def _plan(gamma: FinAbGroup, ings):
    """The normal-form plan of a multi-orbit row, which depends only on
    Gamma and the ingredient keys: one (dual, ingredients, orders) per
    orientation that can win.  The ingredients are that orientation's, in
    the normal form's summand order; orders index the row's summands
    (_orders); dual is set when the orientation is the mirror and its maps
    are transported.  Which orientations can win is read off the sorted
    keys, as the module docstring sets out.  Memoized per (gamma, ings):
    groups compare by their invariant factors and ingredients by their
    keys, so each plan is built once per Gamma and key tuple.
    """
    swapped = [ing.swapped() for ing in ings]
    maps_fixed = len(ings) <= 2 or gamma.is_trivial()
    direct_keys = sorted(ing.sort_key() for ing in ings)
    mirror_keys = sorted(ing.sort_key() for ing in swapped)
    if not maps_fixed:
        direct_keys, mirror_keys = direct_keys[:3], mirror_keys[:3]
    if mirror_keys < direct_keys:
        sides = (True,)
    elif mirror_keys > direct_keys or maps_fixed:
        # a tie with fixed maps leaves both normal forms equal
        sides = (False,)
    else:
        sides = (False, True)
    plan = []
    for mirrored in sides:
        side = swapped if mirrored else ings
        orders = _orders([ing.sort_key() for ing in side])
        # with the identity in every slot no map is transported; the
        # canonical gluing still checks the row's own maps
        plan.append((mirrored and not maps_fixed,
                     tuple(side[i] for i in orders[0]), orders))
    return tuple(plan)


def canonicalize_row(row: ClassificationRow) -> ClassificationRow:
    """Normal form of a row: orientation, summand order, gluing maps.

    The orientation is the one whose normal form has the least data key,
    the sequence of (ingredient key, gluing map) pairs.  A multi-orbit row
    reads its plan (_plan), memoized per Gamma and ingredient keys: which
    orientations can win, each one's ingredients in summand order and the
    orders of the summands its gluing maps are compared in.  Only the
    maps are worked per row: through the dual gluing maps when the plan
    says so, then pinned and minimized by _canonical_gluing, which checks
    every map, so a singular one raises NotIsomorphism on every path.

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
    ings, qs = zip(*row.multi.summands)
    forms = []
    for dual, normal_ings, orders in _plan(gamma, ings):
        maps = ([_dual_gluing_matrix(ing.L_group, ing.J_group, ing.K_group, q, gamma)
                 for ing, q in zip(ings, qs)] if dual else qs)
        forms.append(tuple(zip(normal_ings, _canonical_gluing(maps, orders, gamma))))
    chosen = forms[0] if len(forms) == 1 else min(
        forms, key=lambda form: tuple((ing.sort_key(), q) for ing, q in form))
    return multi_row(MultiOrbitSpec(gamma, chosen), flags)


@lru_cache(maxsize=None)
def _dual_gluing_matrix(L: FinAbGroup, J: FinAbGroup, K: FinAbGroup, q, gamma: FinAbGroup):
    """The gluing map q of a summand (b, e, L, J, K) in the mirrored row:
    transport q to character space and identify the mirrored summand's
    component group through the commutator pairing.  The identification is
    the one gluing shares (construct.pairing_identification), read at
    b = e = 1 because the commutator scalars of I_b (x) I_e (x) X do not
    depend on b and e; so the result is memoized per (L, J, K) and q
    (Gamma is fixed by L, J and K)."""
    g_i, _, phi_inv = pairing_identification(L, J, K)
    u = dual_isomorphism_transport(q, gamma, g_i.component_group)
    return _mat_mod(phi_inv, u, gamma.invariant_factors)


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
    # the candidate summands of each dimension, by component group
    by_dim: dict[int, dict[tuple, list[SingleOrbitIngredients]]] = {}
    for d in range(1, n):
        for srow in enumerate_single_orbit(d):
            by_dim.setdefault(d, {}).setdefault(
                srow.gamma.invariant_factors, []).append(srow.single)
    seen = set()
    out = enumerate_single_orbit(n)
    for partition in partitions(n):
        r = len(partition)
        if not 2 <= r <= max_parts:
            continue
        counts = {d: partition.count(d) for d in sorted(set(partition), reverse=True)}
        for gamma_key in by_dim[partition[0]]:
            if any(gamma_key not in by_dim[d] for d in counts):
                continue
            gamma = FinAbGroup(gamma_key)
            # common reparameterization pins the first map; simultaneous
            # composition with one automorphism pins the second, so orbit
            # representatives have identity maps in the first two slots
            head = (identity_matrix(gamma),) * 2
            # a two-part row has one tail, the empty one, and lists no Aut(Gamma)
            autos = automorphisms(gamma) if r > 2 else ()
            choices = [list(itertools.combinations_with_replacement(by_dim[d][gamma_key], c))
                       for d, c in counts.items()]
            for combo in itertools.product(*choices):
                ings = [ing for block in combo for ing in block]
                for tail in itertools.product(autos, repeat=r - 2):
                    spec = MultiOrbitSpec(gamma, tuple(zip(ings, head + tail)))
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
