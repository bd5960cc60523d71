"""Two-mode Gaussian optical states and the ladder of quantum-correlation
criteria: gemellity (twin beams), conditional variance (QND), Duan
separability, Reid EPR products, and the Bell-level note for Gaussian
states."""

from .criteria import (
    CriteriaReport,
    DuanEprMoments,
    MomentPair,
    classify,
    conditional_variance,
    duan_separability,
    epr_product,
    gemellity,
    quadrature_moments,
    report_from_moments,
    state_moments,
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
    "GaussianTwoModeState",
    "MomentPair",
    "PhysicalityError",
    "SampleBatch",
    "apply_beamsplitter",
    "apply_loss",
    "apply_phase",
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
    "quadrature_moments",
    "read_batch",
    "report_from_moments",
    "state_moments",
    "write_batch",
]

# sampling (and numpy.random with it) loads on the first use of one of
# its names, and batchfile, the sample CSV, on the first use of FileBatch,
# so an analytic start compiles neither.  The name is looked up on each
# use, never cached here, so a rebinding in either module shows.
_SAMPLING_NAMES = frozenset({"DrawnBatch", "EstimatedCriteria", "SampleBatch", "draw_samples",
                             "estimate_criteria", "read_batch", "write_batch"})


def __getattr__(name):
    if name in _SAMPLING_NAMES:
        from . import sampling

        return getattr(sampling, name)
    if name == "FileBatch":
        from . import batchfile

        return batchfile.FileBatch
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
