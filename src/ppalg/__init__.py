"""Exact-arithmetic toolkit for preprojective algebras of loop-free quivers.

Core layers: exact fields and matrices, double quivers with preprojective
relations, matrix representations, hom and extension spaces, Weyl chamber
geometry, reflection functors, stability scans, and verification suites for
the extended Dynkin Kleinian setting.
"""

from .errors import (
    CocycleError,
    ConnectivityError,
    DichotomyError,
    FieldMismatch,
    Inconclusive,
    InternalInvariantError,
    LoopError,
    NotGeneric,
    NotGenericStep,
    NotInThetaD,
    PpalgError,
    PreconditionViolated,
    RangeError,
    SearchBudgetExceeded,
    ShapeError,
    UnsupportedShape,
    UsageError,
)
from .fields import GF, QQ, GaloisField, PrimeField, Rationals
from .hom import (
    Ext1Space,
    bilinear_form,
    ext1_space,
    extension_from_cocycle,
)
from .linalg import Matrix
from .quiver import (
    Arrow,
    DimensionVector,
    DoubleQuiver,
    PreprojectiveRelation,
    Quiver,
    build_double,
    standard_extended_dynkin,
)
from .rep import Representation, hom_dim, is_isomorphic
from .reflection import (
    ReflectResult,
    ShiftedModule,
    apply_word,
    compute_siw,
    reflect_minus,
    reflect_plus,
)
from .stability import (
    ModuliScan,
    StabilityVerdict,
    moduli_scan,
    sequiv_class,
    stability_verdict,
    submodule_dimvecs,
)
from .verify import SuiteReport, run_suite
from .weyl import (
    RootSystem,
    StabilityParameter,
    WeylGroup,
    chamber_of,
    chamber_word,
    finite_root_system,
    is_generic,
    reflect_dimvec,
    reflect_theta,
)

__version__ = "0.1.0"
