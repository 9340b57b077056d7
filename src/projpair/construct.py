"""Explicit subgroup specifications and every pair construction.

A GroupSpec pins down a reductive subgroup of GL(U) up to scalars: the
ambient space (a direct sum of labeled tensor products), the identity
component (a product of GL blocks, each given by an explicit index grid,
or a raw spanning set for computed centralizers), a finite abelian
component group, and one generator per component, a Monomial or a
CycMatrix.  The constructions here hand each spec a per-coset builder,
so a coset's generator is built only when something reads it; every
builder but the single-orbit one returns the Monomial it made.

The canonical generator section multiplies per-factor operators with
translations before characters, slots in shape order, so every spec is
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

from .abelian import (
    Character,
    FinAbGroup,
    apply_matrix,
    dual_isomorphism_transport,
    invert_isomorphism,
    product_embedding,
    transport_character,
)
from .cyclo import ONE, CycMatrix, VectorSpan, span_of_matrices
from .errors import (
    EmptyDecomposition,
    IncompatibleGluing,
    InputNotDualPair,
    NotIsomorphism,
    PreconditionViolated,
    SingularMatrix,
)
from .matrep import (
    Monomial,
    TensorShape,
    as_dense,
    commutator_scalar,
    heisenberg_monomial,
    character_monomial,
    in_root_pattern,
    root_pattern,
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
        if len(grid) != self.dim:
            raise ValueError("grid must have one row per block dimension")
        width = len(grid[0]) if grid else 0
        if any(len(row) != width for row in grid):
            raise ValueError("ragged block grid")

    @property
    def mult(self) -> int:
        return len(self.grid[0])

    def indices(self):
        return [i for row in self.grid for i in row]

    def unit_matrix(self, r: int, s: int, n: int) -> CycMatrix:
        """The embedded matrix unit E_rs (x) I_mult."""
        cells = {}
        for c in range(self.mult):
            cells[(self.grid[r][c], self.grid[s][c])] = ONE
        return CycMatrix.from_entries(n, n, cells)

    def matrix_units(self, n: int) -> list[CycMatrix]:
        return [
            self.unit_matrix(r, s, n) for r in range(self.dim) for s in range(self.dim)
        ]

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


class GroupSpec:
    """A reductive subgroup of GL(U) up to scalars, with explicit generators.

    generators is either a dict from coset coordinates to generators, each
    a CycMatrix or a Monomial (decoded and computed specs; a computed
    centralizer stores its unit-monomial witnesses as Monomials), or a
    picklable function from a coset's coordinates to its generator, in
    either form (the constructions, for example a module-level function
    bound with functools.partial).  A dict must hold one generator of the
    right shape per coset of the component group, and a raw algebra basis
    one n x n matrix or more.

    operator(coords) is the one way to read a coset.  Its first read builds
    the generator (a dict hands each one over once), checks its shape,
    scans a CycMatrix into a Monomial when it is one and caches that single
    form, so callers that read only the generating cosets, as the
    enumeration does, build no others.  The identity coset is checked here
    and stored as Monomial.identity(n).  cosets() lists the coordinates in
    the component group's element order.

    Membership goes through two methods.  algebra_contains tests an
    operator against the identity-component algebra: a Monomial on integer
    exponents against algebra_pattern, the basis read as roots of unity on
    disjoint supports, anything else through algebra_span.
    coset_contains(coords, op) tests op against one coset, through the
    coset generator's inverse, built once per coset.  The algebra basis,
    its span and its pattern are each built on first use and cached.
    """

    def __init__(self, ambient, blocks, component_group, generators, algebra_basis=None):
        self.ambient = ambient
        self.blocks = tuple(blocks) if blocks is not None else None
        self.component_group = component_group
        self._algebra_basis = tuple(algebra_basis) if algebra_basis is not None else None
        if self.blocks is None and self._algebra_basis is None:
            raise ValueError("need either blocks or an algebra basis")
        n = self.ambient.dim
        if self._algebra_basis == ():
            raise ValueError("the algebra basis is empty")
        for a in self._algebra_basis or ():
            _check_shape(a, n)
        self._span = None
        # None until first read, then the pattern or False for none
        self._pattern = None
        self._inverses: dict = {}
        self._cosets = tuple(e.coords for e in component_group.elements())
        self._index = frozenset(self._cosets)
        ident = self._cosets[0]
        if callable(generators):
            self._build = generators
        else:
            given = dict(generators)
            if set(given) != self._index:
                raise ValueError("need one generator per coset of the component group")
            for op in given.values():
                _check_shape(op, n)
            self._build = given.pop
        if not _check_shape(self._build(ident), n).is_identity():
            raise ValueError("identity-coset generator must be the identity matrix")
        self._operators = {ident: Monomial.identity(n)}

    # -- identity component ------------------------------------------------

    def algebra_basis(self) -> tuple[CycMatrix, ...]:
        """Matrices spanning the algebra generated by the identity
        component; a block spec's matrix units are built on first use."""
        if self._algebra_basis is None:
            n = self.ambient.dim
            self._algebra_basis = tuple(u for b in self.blocks for u in b.matrix_units(n))
        return self._algebra_basis

    def algebra_span(self) -> VectorSpan:
        if self._span is None:
            self._span = span_of_matrices(self.algebra_basis())
        return self._span

    def algebra_pattern(self):
        """The algebra basis as a matrep.root_pattern, or None when it is
        not one; built on first use, so a spec that is never tested for
        membership builds none.  Block matrix units are such a pattern, and
        so is a union-find basis that no dense cut touched."""
        if self._pattern is None:
            self._pattern = root_pattern(self.algebra_basis(), self.ambient.dim) or False
        return self._pattern or None

    def algebra_contains(self, op) -> bool:
        """Does the identity-component algebra hold the operator op, a
        Monomial or a CycMatrix?  A Monomial against a root-of-unity
        pattern is tested on integer exponents (matrep.in_root_pattern);
        anything else reduces op's cells through algebra_span()."""
        if isinstance(op, Monomial):
            pattern = self.algebra_pattern()
            if pattern is not None:
                return in_root_pattern(pattern, op)
        return self.algebra_span().contains(as_dense(op).flat_cells())

    def identity_component_dim(self) -> int:
        if self.blocks is not None:
            return sum(b.dim * b.dim for b in self.blocks)
        return self.algebra_span().dim

    def block_dims(self):
        return sorted((b.dim, b.mult) for b in self.blocks) if self.blocks else None

    # -- cosets --------------------------------------------------------------

    def cosets(self) -> tuple[tuple[int, ...], ...]:
        """The coset coordinates in the component group's element order."""
        return self._cosets

    def operator(self, coords):
        """The generator of a coset: a Monomial when it is one, else the
        dense CycMatrix itself, built and cached on first read."""
        coords = tuple(coords)
        op = self._operators.get(coords)
        if op is None:
            if coords not in self._index:
                raise KeyError(coords)
            op = _check_shape(self._build(coords), self.ambient.dim)
            if isinstance(op, CycMatrix):
                op = Monomial.from_matrix(op) or op
            self._operators[coords] = op
            if len(self._operators) == len(self._cosets):
                # every coset is built: let go of whatever the builder holds
                self._build = None
        return op

    def _inverse(self, coords):
        inv = self._inverses.get(coords)
        if inv is None:
            inv = self._inverses[coords] = self.operator(coords).inverse()
        return inv

    def coset_contains(self, coords, op) -> bool:
        """Does the coset at coords hold the operator op, that is, is op in
        operator(coords) times the identity-component algebra?  The coset's
        generator is inverted once per spec, a Monomial pair multiplies in
        integers, and algebra_contains tests the product."""
        return self.algebra_contains(self._inverse(coords) @ op)

    def generating_cosets(self) -> list[tuple[int, ...]]:
        return [g.coords for g in self.component_group.generators()]

    def component_count(self) -> int:
        return self.component_group.order

    def validate(self, deep: bool = False) -> None:
        """Check the structural invariants: the block grids partition the
        basis indices, the algebra holds the identity, every generator is
        invertible, each generating coset's generator raised to its
        invariant factor lies in the algebra, and each coset holds its word
        in the generating cosets.  The word of a coset is the word of the
        coset one step lower in its last nonzero coordinate, times that
        coordinate's generator.  deep also checks normalization of the
        identity component and the extension closure of generators."""
        n = self.ambient.dim
        if self.blocks is not None:
            indices = sorted(i for b in self.blocks for i in b.indices())
            if indices != list(range(n)):
                raise ValueError(f"block grids do not partition the indices 0..{n - 1}")
        if not self.algebra_contains(Monomial.identity(n)):
            raise ValueError("the identity-component algebra does not hold the identity")
        for coords in self._cosets:
            try:
                self._inverse(coords)
            except SingularMatrix:
                raise ValueError(f"generator at {coords} is singular") from None
        gens = self.generating_cosets()
        for coords, d in zip(gens, self.component_group.invariant_factors):
            if not self.algebra_contains(self.operator(coords) ** d):
                raise ValueError(
                    f"generator at {coords} to the power {d} leaves the identity component")
        ident = self._cosets[0]
        words = {}
        for coords in self._cosets[1:]:
            a = max(i for i, c in enumerate(coords) if c)
            prev = coords[:a] + (coords[a] - 1,) + coords[a + 1:]
            if prev == ident:
                words[coords] = self.operator(coords)
                continue
            words[coords] = words[prev] @ self.operator(gens[a])
            if not self.coset_contains(coords, words[coords]):
                raise ValueError(
                    f"generator at {coords} is not its word in the generating cosets")
        if not deep:
            return
        for coords in self._cosets:
            op, inv = self.operator(coords), self._inverse(coords)
            if not all(self.algebra_contains(op @ b @ inv) for b in self.algebra_basis()):
                raise ValueError(f"generator at {coords} does not normalize the blocks")
        group = self.component_group
        for a in self._cosets:
            for b in self._cosets:
                s = (group.element(a) + group.element(b)).coords
                if not self.coset_contains(s, self.operator(a) @ self.operator(b)):
                    raise ValueError("generator products leave the extension")

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

    @property
    def ambient_dim(self) -> int:
        return self.b * self.e * self.L_group.order * self.J_group.order * self.K_group.order

    def swapped(self) -> "SingleOrbitIngredients":
        """The mirror-image ingredient tuple describing the pair in the
        opposite order."""
        return SingleOrbitIngredients(self.e, self.b, self.L_group, self.K_group, self.J_group)

    def sort_key(self):
        return (
            self.ambient_dim,
            self.b,
            self.e,
            self.L_group.invariant_factors,
            self.J_group.invariant_factors,
            self.K_group.invariant_factors,
        )


@dataclass(frozen=True)
class MultiOrbitSpec:
    """A shared component group plus per-summand ingredients and gluing maps.

    Each q_i is an integer matrix on coordinates giving an isomorphism from
    gamma onto the i-th summand's component group.
    """

    gamma: FinAbGroup
    summands: tuple[tuple[SingleOrbitIngredients, tuple[tuple[int, ...], ...]], ...]

    def __post_init__(self):
        summands = tuple(
            (ing, tuple(tuple(int(x) for x in row) for row in q))
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


def _trivial_generators(n: int):
    return {(): CycMatrix.identity(n)}


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
    n = ambient.dim
    trivial = FinAbGroup.trivial()
    g = GroupSpec(ambient, g_blocks, trivial, _trivial_generators(n))
    h = GroupSpec(ambient, h_blocks, trivial, _trivial_generators(n))
    return g, h


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
    g = GroupSpec(ambient, g_blocks, gamma, partial(_single_orbit_generator, b, e, L, J, K, "g"))
    h = GroupSpec(ambient, h_blocks, gamma, partial(_single_orbit_generator, b, e, L, J, K, "h"))
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
        return GroupSpec(ambient, blocks, comp, partial(_xx_hat_generator, side, x_group))

    return build_side(h1), build_side(h2)


def _is_scalar_component(spec: GroupSpec) -> bool:
    return spec.identity_component_dim() == 1


def _is_connected_gl_pair(h1: GroupSpec, h2: GroupSpec) -> bool:
    if not (h1.component_group.is_trivial() and h2.component_group.is_trivial()):
        return False
    from .verify import CommutantEngine

    basis = CommutantEngine.from_spec(h1).solve([])
    return span_of_matrices(basis).equals(h2.algebra_span())


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
        if not _is_scalar_component(h1):
            raise PreconditionViolated(
                "variant i needs the first group's identity component to be scalars"
            )
        torus = tuple(
            Block(1, (tuple(g * n_x + x for g in range(dim_w)),)) for x in range(n_x)
        )
        comp_g = product_embedding((h1.component_group, x_group))[0]
        g_spec = GroupSpec(ambient, torus, comp_g, partial(_type2_generator, h1, x_group, "tau"))
        comp_h = product_embedding((h2.component_group, x_group))[0]
        h_blocks = tuple(b.tensor_extend(n_x) for b in h2.blocks)
        h_spec = GroupSpec(ambient, h_blocks, comp_h,
                           partial(_type2_generator, h2, x_group, "sigma"))
        return g_spec, h_spec

    if not _is_connected_gl_pair(h1, h2):
        raise PreconditionViolated(
            "variant ii needs a connected mutual-commutant pair in GL(W)"
        )
    g_blocks = tuple(nb for b in h1.blocks for nb in b.replicate(n_x))
    g_spec = GroupSpec(ambient, g_blocks, x_group,
                       partial(_connected_type2_generator, dim_w, x_group, "tau"))
    h_blocks = tuple(b.tensor_extend(n_x) for b in h2.blocks)
    h_spec = GroupSpec(ambient, h_blocks, x_group,
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


def pairing_coset_matrix(g: GroupSpec, h: GroupSpec) -> list[list[int]]:
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
def summand_pair(ing: SingleOrbitIngredients):
    """(g, h, coset_of_char) for one ingredient tuple: single_orbit_pair(ing)
    and its pairing_coset_matrix as a tuple of rows.  Built once per tuple
    and shared by every gluing and mirrored row that uses it."""
    g, h = single_orbit_pair(ing)
    return g, h, tuple(tuple(row) for row in pairing_coset_matrix(g, h))


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
    and the compatibility of all the commutator pairings is checked before
    assembling block-diagonal generators.  Each summand's pair and pairing
    identification come from summand_pair, built once per ingredient tuple.
    """
    gamma = spec.gamma
    deltas = list(gamma.characters())
    sides = []
    for ing, q in spec.summands:
        g_i, h_i, coset_of_char = summand_pair(ing)
        q = list(map(list, q))
        gamma_i = g_i.component_group
        try:
            u = dual_isomorphism_transport(q, gamma, gamma_i)
        except NotIsomorphism as err:
            raise NotIsomorphism(f"gluing map is not an isomorphism onto {gamma_i}") from err
        # the summand's coset under each coset of the shared group and of its dual
        g_coset = {x.coords: apply_matrix(q, x.coords, gamma_i).coords
                   for x in gamma.elements()}
        h_coset = {
            delta.coords: apply_matrix(
                coset_of_char, transport_character(u, delta, gamma_i).coords,
                h_i.component_group).coords
            for delta in deltas
        }
        sides.append((g_i, h_i, g_coset, h_coset))

    # pairing compatibility across summands, exhaustively on coset pairs
    for gamma_el in gamma.elements():
        for delta in deltas:
            values = [
                commutator_scalar(g_i.operator(g_coset[gamma_el.coords]),
                                  h_i.operator(h_coset[delta.coords]))
                for g_i, h_i, g_coset, h_coset in sides
            ]
            if any(v != values[0] for v in values[1:]):
                raise IncompatibleGluing(
                    f"pairings disagree at {gamma_el.coords}, {delta.coords}: {values}"
                )

    ambient = Ambient(tuple(g_i.ambient.summands[0] for g_i, *_ in sides))
    offsets = ambient.offsets()

    g_blocks = []
    h_blocks = []
    for (g_i, h_i, *_), off in zip(sides, offsets):
        g_blocks.extend(b.shift(off) for b in g_i.blocks)
        h_blocks.extend(b.shift(off) for b in h_i.blocks)

    g_parts = [(g_i, g_coset) for g_i, _, g_coset, _ in sides]
    h_parts = [(h_i, h_coset) for _, h_i, _, h_coset in sides]
    g = GroupSpec(ambient, tuple(g_blocks), gamma, partial(_glued_generator, g_parts))
    h = GroupSpec(ambient, tuple(h_blocks), gamma, partial(_glued_generator, h_parts))
    return g, h
