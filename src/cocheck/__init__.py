"""cocheck: exact verification engine for nonassociative coalgebras.

Represents comultiplications by symbolic rules on countable bases,
checks structural coidentities and identities of the dual algebra with
exact rational arithmetic, performs the Gelfand-Dorfman, commutator,
Kantor, and graded-dual constructions, and probes local finiteness and
simplicity by subcoalgebra closure.
"""

__version__ = "0.1.0"

from .catalog import builtin, list_examples
from .closure import (
    ClosureTrace,
    FinitenessVerdict,
    SimplicityReport,
    bimodule_step,
    generated_subcoalgebra,
    local_finiteness_probe,
    simplicity_probe,
)
from .coalgebra import (
    CheckReport,
    CoalgebraSpec,
    FamilyDecl,
    Witness,
    apply_d,
    cocommutativity_check,
    coderivation_check,
    delta,
    delta_linear,
    validate_shift_bound,
)
from .constructions import (
    GradedAlgebraSpec,
    antisymmetrize,
    gelfand_dorfman,
    graded_dual,
    kantor,
)
from .dual import (
    GrassmannElement,
    bruteforce_identity,
    coordinate_functional,
    dual_derivation,
    dual_product,
    grassmann_envelope_check,
)
from .errors import (
    ArityError,
    EngineError,
    IdentityParseError,
    RangeError,
    ShiftBoundError,
    SpecError,
    SpecFileError,
)
from .identities import (
    CoidentityMap,
    NAPoly,
    builtin_identities,
    check_identity,
    linearize,
    mul,
    poly,
    translate,
    var,
)
from .identlang import parse_identity
from .linalg import (
    BasisLabel,
    EchelonSubspace,
    FormalTensor,
    FormalVector,
    extract_components,
)
from .rules import AffineIndex, DeltaTerm, DerivTerm, Guard, IndexPoly
from .specfile import dumps_spec, load_spec, loads_spec, save_spec

__all__ = [
    "__version__",
    "AffineIndex",
    "ArityError",
    "BasisLabel",
    "CheckReport",
    "ClosureTrace",
    "CoalgebraSpec",
    "CoidentityMap",
    "DeltaTerm",
    "DerivTerm",
    "EchelonSubspace",
    "EngineError",
    "FamilyDecl",
    "FinitenessVerdict",
    "FormalTensor",
    "FormalVector",
    "GradedAlgebraSpec",
    "GrassmannElement",
    "Guard",
    "IdentityParseError",
    "IndexPoly",
    "NAPoly",
    "RangeError",
    "ShiftBoundError",
    "SimplicityReport",
    "SpecError",
    "SpecFileError",
    "Witness",
    "antisymmetrize",
    "apply_d",
    "bimodule_step",
    "bruteforce_identity",
    "builtin",
    "builtin_identities",
    "check_identity",
    "cocommutativity_check",
    "coderivation_check",
    "coordinate_functional",
    "delta",
    "delta_linear",
    "dual_derivation",
    "dual_product",
    "dumps_spec",
    "extract_components",
    "gelfand_dorfman",
    "generated_subcoalgebra",
    "graded_dual",
    "grassmann_envelope_check",
    "kantor",
    "linearize",
    "list_examples",
    "load_spec",
    "loads_spec",
    "local_finiteness_probe",
    "mul",
    "parse_identity",
    "poly",
    "save_spec",
    "simplicity_probe",
    "translate",
    "validate_shift_bound",
    "var",
]
