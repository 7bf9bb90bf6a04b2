"""Cycle and circulant decomposition toolkit.

Decomposes square matrices into wrapped-diagonal cycles via the Fourier
similarity transform B = W A W*, measures how few cycles dominate for
periodic and Toeplitz structure, approximates spectra from sparse cycle
subsets, and builds circulant-cycle preconditioners for conjugate
gradient solvers.
"""

__version__ = "0.1.0"

from .core import (
    ConfigError,
    CycleSelection,
    NumericalError,
    apply_cycle_mask,
    flip_matrix,
    fourier_matrix,
    full_cycle_matrix,
    keep_cycles,
    relaxation_diagonal,
)
from .decomposition import (
    DominanceReport,
    circulant_decompose_recursive,
    circulant_decompose_via_transform,
    cycle_decompose,
    cycle_weights,
    dominance_relation,
    index_reflect,
    orthogonality_check,
    partial_energy,
    recompose,
    toeplitz_partial_energy,
    toeplitz_s0,
)
from .generators import StructuredMatrixSpec, SymbolSpec, generate
from .precond import (
    PcgReport,
    build_cycle_preconditioner,
    build_tchan_preconditioner,
    pcg_solve,
)
from .sparse import (
    BauerFikeBound,
    EigenApproxResult,
    PdCheckReport,
    SparseCycleMatrix,
    bauer_fike_bound,
    cycle_spectrum,
    direct_sparsify,
    eigen_error_report,
    pd_sufficient_check,
    select_dominant_cycles,
    sparsify,
    spectrum,
)
from .transform import (
    OpCounter,
    extract_cycles,
    inverse_similarity_transform,
    similarity_transform,
)

__all__ = [
    "__version__",
    "ConfigError",
    "NumericalError",
    "CycleSelection",
    "full_cycle_matrix",
    "flip_matrix",
    "fourier_matrix",
    "relaxation_diagonal",
    "apply_cycle_mask",
    "keep_cycles",
    "OpCounter",
    "similarity_transform",
    "inverse_similarity_transform",
    "extract_cycles",
    "DominanceReport",
    "cycle_decompose",
    "circulant_decompose_recursive",
    "circulant_decompose_via_transform",
    "recompose",
    "orthogonality_check",
    "cycle_weights",
    "partial_energy",
    "index_reflect",
    "dominance_relation",
    "toeplitz_s0",
    "toeplitz_partial_energy",
    "SparseCycleMatrix",
    "EigenApproxResult",
    "BauerFikeBound",
    "PdCheckReport",
    "select_dominant_cycles",
    "sparsify",
    "direct_sparsify",
    "spectrum",
    "cycle_spectrum",
    "eigen_error_report",
    "bauer_fike_bound",
    "pd_sufficient_check",
    "PcgReport",
    "build_cycle_preconditioner",
    "build_tchan_preconditioner",
    "pcg_solve",
    "StructuredMatrixSpec",
    "SymbolSpec",
    "generate",
]
