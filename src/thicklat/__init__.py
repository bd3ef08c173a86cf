"""Thick subcategory lattices, universal support spaces, and prime spectra
for finite combinatorial presentations."""

from .closure import ThickLattice, enumerate_thick, iter_closed, thick_closure
from .errors import (
    InvalidParameter,
    NoTensor,
    NotAnElement,
    NotThick,
    SchemaError,
    ThickLatError,
    TooLarge,
    UnknownFamily,
    ValidationError,
)
from .lattice import (
    LatticeReport,
    LawWitness,
    analyze,
    covering_pairs,
    export_dot,
    join,
    meet,
)
from .presentation import (
    ObjectExpr,
    Presentation,
    TensorTable,
    Triangle,
    builtin,
    make_expr,
    parse_presentation,
    presentation_from_document,
    presentation_to_document,
)
from .space import (
    DatumReport,
    FinSpace,
    MorphismReport,
    SupportDatum,
    SupportMorphism,
    SupportSpace,
    TriangleViolation,
    build_sp,
    check_morphism,
    check_support_datum,
    datum_from_document,
    datum_to_document,
    morphism_from_document,
    morphism_to_document,
    random_support_datum,
    universal_morphism,
)
from .tensor import (
    Spectrum,
    comparison_map,
    enumerate_ideals,
    ideal_closure,
    primes,
    verify_tt_support,
)

__version__ = "0.1.0"
