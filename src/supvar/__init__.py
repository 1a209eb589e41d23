"""Exact computational workbench for gl(m|n) supermodules.

Atypicality and defect of weights, explicit Kac and simple supermodules,
rank-variety support computations with a closed-form cross-check, relative
cohomology and Ext tables, and the Clifford-block dimension and
two-divisibility laws.  All arithmetic is exact over Q.
"""

from .algebra import (
    DetectingSubalgebra,
    LieSuperalgebraData,
    detecting_subalgebra,
    gl_even_subalgebra,
    gl_superalgebra,
)
from .atypicality import (
    AtypicalityCertificate,
    SupportDescription,
    atypicality,
    atypicality_oracle,
    defect,
    theoretical_support,
)
from .clifford import (
    BlockClassification,
    DivisibilityReport,
    OddFormData,
    SimpleDivisibilityReport,
    classify_block,
    divisibility_check,
    form_from_subalgebra,
    odd_form_data,
    simple_divisibility,
)
from .cohomology import (
    CochainComplex,
    ExtTable,
    build_complex,
    cohomology_dims,
    ext_dims,
    kac_ext_dims,
    vanishing_bound,
)
from .config import DEFAULT_SEED, RunConfig, load_config
from .errors import (
    AlgebraMismatch,
    AssumptionViolated,
    BadCodimension,
    ConstructionOverflow,
    FormInconsistent,
    InvariantBroken,
    NotDominant,
    ShapeMismatch,
    SignConventionBroken,
    SupvarError,
    TooLarge,
    Unsupported,
    WeightParseError,
    ZeroPoint,
)
from .linalg import (
    IncrementalSpan,
    RationalMatrix,
    format_scalar,
    kernel_basis,
    rank,
    scalar,
    solve,
    span_dim,
)
from .modules import (
    SuperModuleRep,
    direct_sum,
    dual,
    dump_module,
    kac_module,
    L0_module,
    parity_shift,
    simple_module,
    tensor,
    trivial_module,
    verify_rep,
)
from .roots import (
    Root,
    RootSystemGL,
    Weight,
    bilinear_form,
    dim_L0,
    eps,
    format_weight,
    is_dominant_integral,
    parse_weight,
    rho,
    root_system,
    weight,
    zero_weight,
)
from .support import (
    EmpiricalSupport,
    OddPoint,
    SupportComparison,
    atyp_module,
    compare_support,
    empirical_support,
    is_projective_at,
    odd_point,
)

__version__ = "0.1.0"
