"""Explicit subgroup specifications and every pair construction.

A GroupSpec pins down a reductive subgroup of GL(U) up to scalars: the
ambient space (a direct sum of labeled tensor products), the identity
component (a product of GL blocks, each given by an explicit index grid,
or a raw spanning set for computed centralizers), a finite abelian
component group, and one generator per generating coset, a Monomial or a
CycMatrix.  Each construction here builds those generators when it is
called (_built_spec); every one but the single-orbit construction
builds the Monomial it stores.

The canonical generator section multiplies per-factor operators with
translations before characters, slots in shape order, so every spec is
bit-reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial

from .abelian import (
    Character,
    FinAbGroup,
    Matrix,
    apply_matrix,
    dual_isomorphism_transport,
    invert_isomorphism,
    product_embedding,
    transport_character,
)
from .cyclo import CycMatrix, prime_factors
from .errors import (
    EmptyDecomposition,
    IncompatibleGluing,
    InputNotDualPair,
    NotIsomorphism,
    PreconditionViolated,
    SingularMatrix,
)
from .matrep import (
    Algebra,
    Monomial,
    PatternBasis,
    TensorShape,
    commutator_scalar,
    heisenberg_monomial,
    character_monomial,
    translation_monomial,
)


@dataclass(frozen=True)
class Block:
    """One GL factor of an identity component, as an explicit index grid.

    grid[r][c] is the ambient basis index carrying row r of the block in
    its c-th multiplicity copy.  The algebra spanned by the block is
    {A (x) I_mult} under this identification.
    """

    dim: int
    grid: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        grid = tuple(tuple(int(i) for i in row) for row in self.grid)
        object.__setattr__(self, "grid", grid)
        if self.dim < 1 or len(grid) != self.dim:
            raise ValueError("grid must have one row per block dimension, at least one")
        width = len(grid[0])
        if not width or any(len(row) != width for row in grid):
            raise ValueError("block grid rows must be nonempty and of one width")

    @property
    def mult(self) -> int:
        return len(self.grid[0])

    def indices(self):
        return [i for row in self.grid for i in row]

    def shift(self, offset: int) -> "Block":
        return Block(self.dim, tuple(tuple(i + offset for i in row) for row in self.grid))

    def tensor_extend(self, n_x: int) -> "Block":
        """Diagonal extension to U (x) X: multiplicity grows by a factor n_x."""
        return Block(
            self.dim,
            tuple(
                tuple(g * n_x + x for g in row for x in range(n_x)) for row in self.grid
            ),
        )

    def replicate(self, n_x: int) -> list["Block"]:
        """Independent copies on U (x) X, one per basis vector of X."""
        return [
            Block(self.dim, tuple(tuple(g * n_x + x for g in row) for row in self.grid))
            for x in range(n_x)
        ]


def scalar_blocks(n: int) -> tuple[Block, ...]:
    """The identity component of a group whose connected part is scalars."""
    return (Block(1, (tuple(range(n)),)),)


@dataclass(frozen=True)
class Ambient:
    """A direct sum of labeled tensor products; the home of every matrix."""

    summands: tuple[TensorShape, ...]

    def __post_init__(self):
        if not self.summands:
            raise EmptyDecomposition("ambient space needs at least one summand")
        object.__setattr__(self, "summands", tuple(self.summands))

    @staticmethod
    def single(shape: TensorShape) -> "Ambient":
        return Ambient((shape,))

    @property
    def dim(self) -> int:
        return sum(s.dim for s in self.summands)

    def offsets(self) -> list[int]:
        out = [0]
        for s in self.summands[:-1]:
            out.append(out[-1] + s.dim)
        return out

    def summand_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.summands)

    def compatible_with(self, other: "Ambient") -> bool:
        return self.summand_dims() == other.summand_dims()


def _check_shape(op, n: int):
    if op.shape != (n, n):
        raise ValueError(f"a {op.shape} matrix has the wrong shape for n = {n}")
    return op


def _scanned(op):
    """op, scanned into a Monomial when it is one: the one form a coset's
    operator or inverse is stored in."""
    if isinstance(op, CycMatrix):
        return Monomial.from_matrix(op) or op
    return op


def _inverted(coords, op):
    """The inverse of the operator op given at coords, a Monomial exactly
    when op is one; ValueError when op is singular."""
    try:
        return _scanned(op).inverse()
    except SingularMatrix:
        raise ValueError(f"generator at {coords} is singular") from None


class GroupSpec:
    """A reductive subgroup of GL(U) up to scalars: its identity component
    and one generator per generating coset (a unit coordinate vector).

    generators is a dict from coset coordinates to generators, each a
    CycMatrix or a Monomial.  It must hold the identity and the generating
    cosets, and each is shape-checked here; any other coset it holds, as
    old pair files do, must be an invertible operator in the coset of its
    word, is checked once here and is then dropped.  The identity component
    is given by blocks or by a raw algebra basis of one n x n matrix or
    more (or its matrep.Algebra), never both, since the two could describe
    different algebras.  Block grids must partition the indices 0..n-1,
    checked here (ValueError otherwise), so their matrix units lie on
    disjoint supports.

    operator(coords) is the one way to read a coset.  The identity coset is
    stored as Monomial.identity(n) and each generating coset as its
    generator; any other coset is its word, the word of the coset one step
    lower in its last nonzero coordinate times that coordinate's generator,
    multiplied out on first read, so the cosets form a group by
    construction.  Each is scanned into a Monomial when it is one and
    cached in that single form.  cosets() lists the coordinates in the
    component group's element order.

    algebra() is the identity-component algebra, a matrep.Algebra.  A
    block spec builds it on first read from the root pattern of its grids
    (PatternBasis.from_grids), so its dimension is sum d^2 and its matrix
    units are built only when something reads its basis.
    coset_contains(coords, op) tests op against one coset, through the
    coset operator's inverse, cached per coset: each generating coset's
    generator is inverted once (a Monomial on its exponents), and every
    other coset's inverse is its word's inverse, multiplied out as the
    word is, so no coset operator but a generator is ever eliminated.
    """

    def __init__(self, ambient, blocks, component_group, generators, algebra_basis=None):
        self.ambient = ambient
        self.blocks = tuple(blocks) if blocks is not None else None
        self.component_group = component_group
        if (blocks is None) == (algebra_basis is None):
            raise ValueError("need either blocks or an algebra basis, not both")
        n = self.ambient.dim
        if algebra_basis is None:
            if sorted(i for b in self.blocks for i in b.indices()) != list(range(n)):
                raise ValueError(f"block grids do not partition the indices 0..{n - 1}")
            # built on first read
            self._algebra = None
        elif isinstance(algebra_basis, Algebra):
            if algebra_basis.n != n:
                raise ValueError(f"an algebra of {algebra_basis.n} x {algebra_basis.n} "
                                 f"matrices has the wrong size for n = {n}")
            self._algebra = algebra_basis
        else:
            basis = tuple(_check_shape(a, n) for a in algebra_basis)
            if not basis:
                raise ValueError("the algebra basis is empty")
            self._algebra = Algebra(n, basis)
        self._cosets = tuple(itertools.product(
            *(range(d) for d in component_group.invariant_factors)))
        self._index = frozenset(self._cosets)
        self._gens = [g.coords for g in component_group.generators()]
        ident = self._cosets[0]
        given = dict(generators)
        if not {ident, *self._gens} <= set(given) <= self._index:
            raise ValueError("need a generator for the identity and each generating "
                             "coset, and none outside the component group")
        for op in given.values():
            _check_shape(op, n)
        if not given.pop(ident).is_identity():
            raise ValueError("identity-coset generator must be the identity matrix")
        self._operators = {ident: Monomial.identity(n)}
        self._inverses = {ident: self._operators[ident]}
        for coords in self._gens:
            self._operators[coords] = _scanned(given.pop(coords))
        for coords, op in given.items():
            # op is in word A exactly when op^-1 word is in A, as an algebra
            # holds the inverse of each of its invertible elements
            if not self.algebra().contains(_inverted(coords, op) @ self.operator(coords)):
                raise ValueError(
                    f"generator at {coords} is not its word in the generating cosets")

    # -- identity component ------------------------------------------------

    def algebra(self) -> Algebra:
        if self._algebra is None:
            self._algebra = Algebra(self.ambient.dim, PatternBasis.from_grids(
                self.ambient.dim, [b.grid for b in self.blocks]))
        return self._algebra

    def identity_component_dim(self) -> int:
        return self.algebra().dim

    def block_dims(self):
        return sorted((b.dim, b.mult) for b in self.blocks) if self.blocks else None

    # -- cosets --------------------------------------------------------------

    def cosets(self) -> tuple[tuple[int, ...], ...]:
        """The coset coordinates in the component group's element order."""
        return self._cosets

    def operator(self, coords):
        """The stored generator of a coset, or its word, multiplied out and
        cached on first read."""
        coords = tuple(coords)
        op = self._operators.get(coords)
        if op is not None:
            return op
        if coords not in self._index:
            raise KeyError(coords)
        # lower the last nonzero coordinate down to a stored coset
        steps = []
        while coords not in self._operators:
            a = max(i for i, c in enumerate(coords) if c)
            steps.append((coords, a))
            coords = coords[:a] + (coords[a] - 1,) + coords[a + 1:]
        op = self._operators[coords]
        for coords, a in reversed(steps):
            op = self._operators[coords] = _scanned(op @ self._operators[self._gens[a]])
        return op

    def _inverse(self, coords):
        """The inverse of operator(coords), cached per coset and stored as
        an operator is.  A generating coset's generator is inverted once;
        any other coset's inverse is read off its word, lowered as
        operator() lowers it: op(c) = op(c - e_a) @ g_a, so
        inv(c) = inv(g_a) @ inv(c - e_a).  This holds for every spec,
        whether or not its relations do, so validate() can rely on it."""
        inv = self._inverses.get(coords)
        if inv is not None:
            return inv
        if coords not in self._index:
            raise KeyError(coords)
        steps = []
        while coords not in self._inverses and coords not in self._gens:
            a = max(i for i, c in enumerate(coords) if c)
            steps.append((coords, a))
            coords = coords[:a] + (coords[a] - 1,) + coords[a + 1:]
        inv = self._inverses.get(coords)
        if inv is None:
            inv = self._inverses[coords] = _inverted(coords, self._operators[coords])
        for coords, a in reversed(steps):
            inv = self._inverses[coords] = _scanned(self._inverse(self._gens[a]) @ inv)
        return inv

    def coset_contains(self, coords, op) -> bool:
        """Does the coset at coords hold the operator op, that is, is op in
        operator(coords) times the identity-component algebra?  The coset's
        inverse is built once per spec (_inverse), a Monomial pair
        multiplies in integers, and the algebra tests the product."""
        return self.algebra().contains(self._inverse(coords) @ op)

    def generating_cosets(self) -> list[tuple[int, ...]]:
        """The generating cosets' coordinates, one unit vector per
        invariant factor; the spec's own list, not a copy."""
        return self._gens

    def component_count(self) -> int:
        return self.component_group.order

    def validate(self) -> None:
        """Check that the spec is a reductive group with one coset per
        label: a raw algebra basis spans an algebra (closed under products)
        with a nondegenerate trace form (a block spec's grids partition the
        indices, checked at construction, so its algebra is semisimple and
        neither is checked), the algebra holds the identity, and each
        generator is invertible, normalizes the identity component and has
        its power by its invariant factor in it.  The generators must
        commute modulo the identity component, so the labels map onto the
        cosets as a homomorphism, and no label of prime order may map to
        the identity component, so no two labels share a coset (a
        nontrivial kernel holds an element of prime order)."""
        n = self.ambient.dim
        algebra = self.algebra()
        if self.blocks is None:
            if not algebra.is_closed():
                raise ValueError("the identity-component basis is not closed under products")
            if not algebra.is_semisimple():
                raise ValueError("the identity-component algebra is not semisimple")
        if not algebra.contains(Monomial.identity(n)):
            raise ValueError("the identity-component algebra does not hold the identity")
        for coords, d in zip(self._gens, self.component_group.invariant_factors):
            op, inv = self.operator(coords), self._inverse(coords)
            if not algebra.contains(op ** d):
                raise ValueError(
                    f"generator at {coords} to the power {d} leaves the identity component")
            if not algebra.normalized_by(op, inv):
                raise ValueError(f"generator at {coords} does not normalize the blocks")
        for b, y in enumerate(self._gens):
            for x in self._gens[:b]:
                # the word of x + y is x y; y x must lie in its coset
                s = tuple(i + j for i, j in zip(x, y))
                if not self.coset_contains(s, self.operator(y) @ self.operator(x)):
                    raise ValueError("generator products leave the extension")
        factors = self.component_group.invariant_factors
        for p in prime_factors(self.component_group.exponent):
            # the elements of order p: multiples of d / p in each factor d
            steps = [range(0, d, d // p) if d % p == 0 else (0,) for d in factors]
            for coords in itertools.product(*steps):
                if any(coords) and algebra.contains(self.operator(coords)):
                    raise ValueError(f"the label {coords} of order {p} names the "
                                     "identity component")

    def __repr__(self):
        blocks = self.block_dims()
        return (
            f"GroupSpec(dim={self.ambient.dim}, blocks={blocks}, "
            f"components={self.component_group})"
        )


# ---------------------------------------------------------------------------
# ingredients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingleOrbitIngredients:
    """The data determining one single-orbit pair: two multiplicity
    dimensions and three finite abelian groups."""

    b: int
    e: int
    L_group: FinAbGroup
    J_group: FinAbGroup
    K_group: FinAbGroup

    def __post_init__(self):
        if self.b < 1 or self.e < 1:
            raise ValueError("multiplicity dimensions must be positive")
        # the sort key is read for every candidate row, so it is built once
        dim = self.b * self.e * self.L_group.order * self.J_group.order * self.K_group.order
        object.__setattr__(self, "_key", (
            dim, self.b, self.e, self.L_group.invariant_factors,
            self.J_group.invariant_factors, self.K_group.invariant_factors))

    @property
    def ambient_dim(self) -> int:
        return self._key[0]

    def swapped(self) -> "SingleOrbitIngredients":
        """The mirror-image ingredient tuple describing the pair in the
        opposite order."""
        return SingleOrbitIngredients(self.e, self.b, self.L_group, self.K_group, self.J_group)

    def sort_key(self):
        return self._key


@dataclass(frozen=True)
class MultiOrbitSpec:
    """A shared component group plus per-summand ingredients and gluing maps.

    Each q_i is an integer matrix on coordinates giving an isomorphism from
    gamma onto the i-th summand's component group.
    """

    gamma: FinAbGroup
    summands: tuple[tuple[SingleOrbitIngredients, Matrix], ...]

    def __post_init__(self):
        summands = tuple(
            (ing, tuple(map(tuple, q)))
            for ing, q in self.summands
        )
        object.__setattr__(self, "summands", summands)
        if not summands:
            raise EmptyDecomposition("need at least one summand")

    @property
    def ambient_dim(self) -> int:
        return sum(ing.ambient_dim for ing, _ in self.summands)


# ---------------------------------------------------------------------------
# basic constructions
# ---------------------------------------------------------------------------


def connected_pair(decomposition) -> tuple[GroupSpec, GroupSpec]:
    """The product-of-GL pair attached to a decomposition U = sum V_i (x) W_i."""
    decomposition = [(int(v), int(w)) for v, w in decomposition]
    if not decomposition:
        raise EmptyDecomposition("decomposition must be nonempty")
    if any(v < 1 or w < 1 for v, w in decomposition):
        raise ValueError("summand dimensions must be positive")
    shapes = [TensorShape((("V", v), ("W", w))) for v, w in decomposition]
    ambient = Ambient(tuple(shapes))
    offsets = ambient.offsets()
    g_blocks = []
    h_blocks = []
    for (v, w), off in zip(decomposition, offsets):
        g_blocks.append(
            Block(v, tuple(tuple(off + r * w + c for c in range(w)) for r in range(v)))
        )
        h_blocks.append(
            Block(w, tuple(tuple(off + r * w + c for r in range(v)) for c in range(w)))
        )
    trivial = FinAbGroup.trivial()
    g = GroupSpec(ambient, g_blocks, trivial, {(): Monomial.identity(ambient.dim)})
    h = GroupSpec(ambient, h_blocks, trivial, {(): Monomial.identity(ambient.dim)})
    return g, h


def _built_spec(ambient, blocks, group: FinAbGroup, build) -> GroupSpec:
    """The spec whose identity and generating cosets hold build(coords),
    the operators a GroupSpec stores."""
    stored = (group.identity(), *group.generators())
    return GroupSpec(ambient, blocks, group, {x.coords: build(x.coords) for x in stored})


def _split_coset(parts, coords):
    """The per-factor elements of a coset of the direct product of parts."""
    product, _, split = product_embedding(parts)
    return split(product.element(coords))


def _single_orbit_generator(b, e, L, J, K, side, coords):
    """The generator of one side of a single-orbit pair at the product
    coordinates (lambda, xi, eta-or-j, k-or-chi)."""
    lam, xi, third, fourth = _split_coset((L, L, J, K), coords)
    l_op = heisenberg_monomial(L, lam, Character(L, xi.coords))
    if side == "g":
        j_op = character_monomial(J, Character(J, third.coords))
        k_op = translation_monomial(K, fourth)
    else:
        j_op = translation_monomial(J, third)
        k_op = character_monomial(K, Character(K, fourth.coords))
    mono = Monomial.identity(b).kron(Monomial.identity(e)).kron(l_op).kron(j_op).kron(k_op)
    # kept dense: this is the one matrep.to_matrix span the enumerate benchmark requires
    return mono.to_matrix()


def single_orbit_pair(ing: SingleOrbitIngredients) -> tuple[GroupSpec, GroupSpec]:
    """The pair in PGL(B x E x L x J x K) built from one ingredient tuple.

    The first spec has blocks GL(B) per K-index, Heisenberg operators on the
    L slot, character operators on J and translations on K; the second is
    the mirror image with E and J in place of B and K.
    """
    b, e = ing.b, ing.e
    L, J, K = ing.L_group, ing.J_group, ing.K_group
    l, j, k = L.order, J.order, K.order
    shape = TensorShape((("B", b), ("E", e), ("L", l), ("J", j), ("K", k)))
    ambient = Ambient.single(shape)

    g_blocks = []
    for k0 in range(k):
        grid = []
        for r in range(b):
            row = []
            for e0 in range(e):
                for l0 in range(l):
                    for j0 in range(j):
                        row.append(shape.flatten((r, e0, l0, j0, k0)))
            grid.append(tuple(row))
        g_blocks.append(Block(b, tuple(grid)))
    h_blocks = []
    for j0 in range(j):
        grid = []
        for r in range(e):
            row = []
            for b0 in range(b):
                for l0 in range(l):
                    for k0 in range(k):
                        row.append(shape.flatten((b0, r, l0, j0, k0)))
            grid.append(tuple(row))
        h_blocks.append(Block(e, tuple(grid)))

    gamma = product_embedding((L, L, J, K))[0]
    build = partial(_single_orbit_generator, b, e, L, J, K)
    g = _built_spec(ambient, g_blocks, gamma, partial(build, "g"))
    h = _built_spec(ambient, h_blocks, gamma, partial(build, "h"))
    return g, h


def xx_hat_pair(x_group: FinAbGroup) -> tuple[GroupSpec, GroupSpec]:
    """The self-dual translation-character pair on L^2 of a finite abelian
    group: both sides coincide, with component group of order |X|^2."""
    ing = SingleOrbitIngredients(
        1, 1, x_group, FinAbGroup.trivial(), FinAbGroup.trivial()
    )
    return single_orbit_pair(ing)


# ---------------------------------------------------------------------------
# tensor-with-X constructions on top of an existing pair
# ---------------------------------------------------------------------------


def _fresh_label(shape: TensorShape, base: str) -> str:
    if base not in shape.labels:
        return base
    i = 2
    while f"{base}{i}" in shape.labels:
        i += 1
    return f"{base}{i}"


def _extend_ambient(ambient: Ambient, n_x: int, base_label: str):
    shapes = []
    for s in ambient.summands:
        lbl = _fresh_label(s, base_label)
        shapes.append(TensorShape(s.factors + ((lbl, n_x),)))
    return Ambient(tuple(shapes))


def _xx_hat_generator(side: GroupSpec, x_group: FinAbGroup, coords):
    """side's generator tensored with tau_lambda sigma_xi, at the coset
    (gamma, lambda, xi) of Gamma x X x X-hat."""
    gamma1, lam, xi = _split_coset((side.component_group, x_group, x_group), coords)
    op = heisenberg_monomial(x_group, lam, Character(x_group, xi.coords))
    return side.operator(gamma1.coords).kron(op)


def _type2_generator(side: GroupSpec, x_group: FinAbGroup, twist: str, coords):
    """side's generator tensored with a translation (twist "tau") or a
    character (twist "sigma") of X, at the coset (gamma, x) of Gamma x X."""
    gamma1, x = _split_coset((side.component_group, x_group), coords)
    if twist == "tau":
        op = translation_monomial(x_group, x)
    else:
        op = character_monomial(x_group, Character(x_group, x.coords))
    return side.operator(gamma1.coords).kron(op)


def _connected_type2_generator(dim_w: int, x_group: FinAbGroup, twist: str, coords):
    """I_W tensored with a translation or a character of X, at coords."""
    if twist == "tau":
        op = translation_monomial(x_group, x_group.element(coords))
    else:
        op = character_monomial(x_group, x_group.character(coords))
    return Monomial.identity(dim_w).kron(op)


def general_xx_hat_pair(h1: GroupSpec, h2: GroupSpec, x_group: FinAbGroup,
                        check: bool = True) -> tuple[GroupSpec, GroupSpec]:
    """Tensor a verified pair with the self-dual translation-character pair.

    Component groups multiply by X x X-hat on both sides.
    """
    if check:
        from .verify import verify_dual_pair

        report = verify_dual_pair(h1, h2)
        if not report.is_dual_pair:
            raise InputNotDualPair(f"input pair fails verification: {report.failures}")
    n_x = x_group.order
    ambient = _extend_ambient(h1.ambient, n_x, "X")

    def build_side(side: GroupSpec) -> GroupSpec:
        blocks = tuple(b.tensor_extend(n_x) for b in side.blocks)
        comp = product_embedding((side.component_group, x_group, x_group))[0]
        return _built_spec(ambient, blocks, comp, partial(_xx_hat_generator, side, x_group))

    return build_side(h1), build_side(h2)


def _is_connected_gl_pair(h1: GroupSpec, h2: GroupSpec) -> bool:
    if not (h1.component_group.is_trivial() and h2.component_group.is_trivial()):
        return False
    from .verify import CommutantEngine

    basis = CommutantEngine.from_spec(h1).solve([])
    return Algebra(h1.ambient.dim, basis) == h2.algebra()


def type2_pair(h1: GroupSpec, h2: GroupSpec, x_group: FinAbGroup,
               variant: str) -> tuple[GroupSpec, GroupSpec]:
    """The two semidirect constructions on W (x) X.

    Variant "i" requires the first input's identity component to be the
    scalars; it contributes the full diagonal torus on the X slot and the
    component group grows by X.  Variant "ii" takes a connected mutual
    commutant pair in GL(W); the first side is replicated per X basis
    vector and twisted by translations, the second is tensored diagonally
    and twisted by characters.
    """
    if variant not in ("i", "ii"):
        raise ValueError("variant must be 'i' or 'ii'")
    n_x = x_group.order
    ambient = _extend_ambient(h1.ambient, n_x, "X")
    dim_w = h1.ambient.dim
    if variant == "i":
        if h1.identity_component_dim() != 1:
            raise PreconditionViolated(
                "variant i needs the first group's identity component to be scalars"
            )
        torus = tuple(
            Block(1, (tuple(g * n_x + x for g in range(dim_w)),)) for x in range(n_x)
        )
        comp_g = product_embedding((h1.component_group, x_group))[0]
        g_spec = _built_spec(ambient, torus, comp_g, partial(_type2_generator, h1, x_group, "tau"))
        comp_h = product_embedding((h2.component_group, x_group))[0]
        h_blocks = tuple(b.tensor_extend(n_x) for b in h2.blocks)
        h_spec = _built_spec(ambient, h_blocks, comp_h,
                             partial(_type2_generator, h2, x_group, "sigma"))
        return g_spec, h_spec

    if not _is_connected_gl_pair(h1, h2):
        raise PreconditionViolated(
            "variant ii needs a connected mutual-commutant pair in GL(W)"
        )
    g_blocks = tuple(nb for b in h1.blocks for nb in b.replicate(n_x))
    g_spec = _built_spec(ambient, g_blocks, x_group,
                         partial(_connected_type2_generator, dim_w, x_group, "tau"))
    h_blocks = tuple(b.tensor_extend(n_x) for b in h2.blocks)
    h_spec = _built_spec(ambient, h_blocks, x_group,
                         partial(_connected_type2_generator, dim_w, x_group, "sigma"))
    return g_spec, h_spec


# ---------------------------------------------------------------------------
# gluing across a direct sum
# ---------------------------------------------------------------------------


def pairing_character(g_spec: GroupSpec, h_op) -> tuple[int, ...]:
    """The character of the first side's component group cut out by
    pairing against the operator h_op, on canonical coordinates: the
    commutator scalar zeta_order^k with each canonical generator, as the
    exponent k d / order mod its invariant factor d.  Raises
    IncompatibleGluing when order does not divide d."""
    gamma = g_spec.component_group
    coords = []
    for a, d in enumerate(gamma.invariant_factors):
        e_a = tuple(1 if t == a else 0 for t in range(gamma.rank))
        order, k = commutator_scalar(g_spec.operator(e_a), h_op)
        if d % order:
            raise IncompatibleGluing("pairing value incompatible with the coset order")
        coords.append(k * (d // order) % d)
    return tuple(coords)


def pairing_coset_matrix(g: GroupSpec, h: GroupSpec) -> Matrix:
    """Inverse of the pairing identification of h's component group with
    the characters of g's: the integer matrix sending a character (self-dual
    coordinates) to the coset of h that pairs with g through it.  Read off
    h's generating cosets; raises IncompatibleGluing when the pairing is
    degenerate."""
    cols = [pairing_character(g, h.operator(c)) for c in h.generating_cosets()]
    phi = [[col[i] for col in cols] for i in range(g.component_group.rank)]
    char_space = FinAbGroup(g.component_group.invariant_factors)
    try:
        return invert_isomorphism(phi, h.component_group, char_space)
    except NotIsomorphism as err:
        raise IncompatibleGluing("summand pairing is degenerate") from err


@lru_cache(maxsize=None)
def pairing_identification(L: FinAbGroup, J: FinAbGroup, K: FinAbGroup):
    """(g, h, coset_of_char) for the single-orbit pair (1, 1, L, J, K): the
    pair and its pairing_coset_matrix.

    The matrix serves every b and e.  The generators of the pair (b, e, L,
    J, K) are I_b (x) I_e (x) X, with X the generators at b = e = 1, and the
    commutator scalar of I (x) X and I (x) Y is that of X and Y, so the
    pairing characters, and the matrix read off them, do not depend on b
    and e.  Built once per (L, J, K)."""
    g, h = single_orbit_pair(SingleOrbitIngredients(1, 1, L, J, K))
    return g, h, pairing_coset_matrix(g, h)


@lru_cache(maxsize=None)
def summand_pair(ing: SingleOrbitIngredients):
    """(g, h, coset_of_char) for one ingredient tuple: single_orbit_pair(ing)
    and the pairing identification of its (L, J, K), read at b = e = 1 (see
    pairing_identification).  Built once per tuple and shared by every
    gluing that uses it; a tuple with b = e = 1 is the identification's own
    pair."""
    g, h, coset_of_char = pairing_identification(ing.L_group, ing.J_group, ing.K_group)
    if (ing.b, ing.e) != (1, 1):
        g, h = single_orbit_pair(ing)
    return g, h, coset_of_char


def monomial_direct_sum(monos) -> Monomial:
    order = math.lcm(*(m.order for m in monos))
    perm = []
    exps = []
    offset = 0
    for m in monos:
        perm.extend(p + offset for p in m.perm)
        exps.extend(e * (order // m.order) for e in m.exps)
        offset += m.n
    return Monomial.from_exponents(perm, order, exps)


def _glued_generator(summands, coords):
    """The block-diagonal generator at coords of the shared group, from
    (summand spec, coset map) pairs."""
    return monomial_direct_sum(
        [side.operator(coset_of[coords]) for side, coset_of in summands])


def multi_orbit_glue(spec: MultiOrbitSpec) -> tuple[GroupSpec, GroupSpec]:
    """Glue single-orbit pairs diagonally across their component groups.

    Each summand's component group is identified with the shared group via
    its gluing map; the dual maps are derived from the duality transport
    and the compatibility of the commutator pairings is checked on the
    generating cosets before assembling block-diagonal generators.  Each
    summand's pair and pairing identification come from summand_pair: the
    pair is built once per ingredient tuple and the identification once
    per (L, J, K).
    """
    gamma = spec.gamma
    # the glued specs read only these cosets, the identity and the generating ones
    stored = [x.coords for x in (gamma.identity(), *gamma.generators())]
    sides = []
    for ing, q in spec.summands:
        g_i, h_i, coset_of_char = summand_pair(ing)
        gamma_i = g_i.component_group
        try:
            u = dual_isomorphism_transport(q, gamma, gamma_i)
        except NotIsomorphism as err:
            raise NotIsomorphism(f"gluing map is not an isomorphism onto {gamma_i}") from err
        # the summand's coset under each stored coset of the shared group and of its dual
        g_coset = {c: apply_matrix(q, c, gamma_i).coords for c in stored}
        h_coset = {
            c: apply_matrix(
                coset_of_char, transport_character(u, gamma.character(c), gamma_i).coords,
                h_i.component_group).coords
            for c in stored
        }
        sides.append((g_i, h_i, g_coset, h_coset))

    # pairing compatibility across summands, on generating pairs: each
    # summand's pairing is a bicharacter in the shared labels, since its
    # cosets are words and q and the transported maps are homomorphisms
    for a in stored[1:]:
        for b in stored[1:]:
            values = [
                commutator_scalar(g_i.operator(g_coset[a]), h_i.operator(h_coset[b]))
                for g_i, h_i, g_coset, h_coset in sides
            ]
            if any(v != values[0] for v in values[1:]):
                raise IncompatibleGluing(f"pairings disagree at {a}, {b}: {values}")

    ambient = Ambient(tuple(g_i.ambient.summands[0] for g_i, *_ in sides))
    offsets = ambient.offsets()

    g_blocks = []
    h_blocks = []
    for (g_i, h_i, *_), off in zip(sides, offsets):
        g_blocks.extend(b.shift(off) for b in g_i.blocks)
        h_blocks.extend(b.shift(off) for b in h_i.blocks)

    g_parts = [(g_i, g_coset) for g_i, _, g_coset, _ in sides]
    h_parts = [(h_i, h_coset) for _, h_i, _, h_coset in sides]
    g = _built_spec(ambient, tuple(g_blocks), gamma, partial(_glued_generator, g_parts))
    h = _built_spec(ambient, tuple(h_blocks), gamma, partial(_glued_generator, h_parts))
    return g, h
