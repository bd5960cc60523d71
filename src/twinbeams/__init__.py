"""Two-mode Gaussian optical states and the ladder of quantum-correlation
criteria: gemellity (twin beams), conditional variance (QND), Duan
separability, Reid EPR products, and the Bell-level note for Gaussian
states."""

from .criteria import (
    CriteriaReport,
    DuanEprMoments,
    MomentPair,
    classical_split_correlation,
    classical_unbalanced_correlation,
    classify,
    conditional_variance,
    duan_separability,
    epr_product,
    gemellity,
    quadrature_moments,
    report_from_moments,
    state_moments,
)
from .fock import FockMixture, photon_statistics
from .sampling import (
    DrawnBatch,
    EstimatedCriteria,
    FileBatch,
    SampleBatch,
    draw_samples,
    estimate_criteria,
    read_batch,
    write_batch,
)
from .states import (
    GaussianTwoModeState,
    PhysicalityError,
    apply_beamsplitter,
    apply_loss,
    apply_phase,
    make_single_mode_squeezed,
    make_thermal,
    make_two_mode_squeezed,
    make_vacuum,
)

__all__ = [
    "CriteriaReport",
    "DrawnBatch",
    "DuanEprMoments",
    "EstimatedCriteria",
    "FileBatch",
    "FockMixture",
    "GaussianTwoModeState",
    "MomentPair",
    "PhysicalityError",
    "SampleBatch",
    "apply_beamsplitter",
    "apply_loss",
    "apply_phase",
    "classical_split_correlation",
    "classical_unbalanced_correlation",
    "classify",
    "conditional_variance",
    "draw_samples",
    "duan_separability",
    "epr_product",
    "estimate_criteria",
    "gemellity",
    "make_single_mode_squeezed",
    "make_thermal",
    "make_two_mode_squeezed",
    "make_vacuum",
    "photon_statistics",
    "quadrature_moments",
    "read_batch",
    "report_from_moments",
    "state_moments",
    "write_batch",
]
