"""Bipartite density-matrix analysis toolbox.

Separability criteria, entropy diagnostics, measurement-style
reductions and correlated product-state approximations for states on a
pair of finite-dimensional subsystems, plus a deterministic JSON state
format and a command line front end (``qdisent``).
"""

from types import ModuleType as _ModuleType

from .core import (
    DEFAULT_TOL,
    BipartiteState,
    DensityCheck,
    DimensionMismatch,
    InvalidPointer,
    InvalidSpec,
    NotHermitian,
    NotPSD,
    NotPSDResult,
    QDisentError,
    TraceNotOne,
    ZeroDenominator,
    density_defects,
    embed_local,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    product_state,
    tensor_product,
    validate_density,
    validate_observable,
)
from .states import (
    GENERATOR_KINDS,
    GenSpec,
    bell_state,
    coherent_pointer,
    generate,
    maximally_mixed,
    pure_product,
    random_density,
    random_ket,
    random_state,
    random_unitary,
    separable_mixture,
)
from .criteria import (
    CorrelationGap,
    PptResult,
    ReductionResult,
    SeparabilityVerdict,
    SubadditivityResult,
    correlation_gap,
    ppt_test,
    reduction_criterion_test,
    separability_verdict,
    subadditivity_check,
    von_neumann_entropy,
    witness_expectation,
)
from .reductions import (
    averaged_projective_state,
    neumann_equivalence_gap,
    neumann_reduce,
    validate_outcome_probs,
)
from .correlated import (
    CorrelatedMethod,
    CorrelatedPair,
    DisentanglementReport,
    NeumannMethod,
    NonConvergence,
    PointerMethod,
    SolverConfig,
    correlated_local_state,
    disentanglement_report,
    fixed_point_residuals,
    fixed_point_solve,
)
from .twoqubit import (
    BENCH_GATE,
    BenchRow,
    coherent_pointer_local,
    coherent_pointer_product,
    diagonal_pointer_local,
    diagonal_pointer_product,
    transcription_bench,
)
from .stateio import (
    StateFormatError,
    doc_to_matrix,
    dumps_canonical,
    file_digest,
    format_real,
    load_document,
    save_state,
    state_to_doc,
)

__version__ = "0.1.0"

# every public name the imports above bind; the submodules stay out
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
