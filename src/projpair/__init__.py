"""Exact construction, verification, and enumeration of reductive dual
pairs in PGL(n, C)."""

from .abelian import (
    Character,
    FinAbGroup,
    GroupElement,
    HyperbolicDecomposition,
    SymplecticPairing,
    char_eval,
    dual_isomorphism_transport,
    enumerate_abelian_groups,
    symplectic_decompose,
)
from .classify import (
    ClassificationRow,
    canonicalize_row,
    enumerate_multi_orbit,
    enumerate_single_orbit,
)
from .construct import (
    Ambient,
    Block,
    GroupSpec,
    MultiOrbitSpec,
    SingleOrbitIngredients,
    connected_pair,
    general_xx_hat_pair,
    multi_orbit_glue,
    single_orbit_pair,
    type2_pair,
    xx_hat_pair,
)
from .cyclo import CycMatrix, CycNum, conductor_cap, set_conductor_cap
from .matrep import TensorShape, commutator_scalar, projective_equal
from .verify import (
    PairingTable,
    VerificationReport,
    pairing_table,
    projective_centralizer,
    specs_equal,
    verify_dual_pair,
)

__version__ = "0.1.0"
