"""Two-mode Gaussian optical states and the ladder of quantum-correlation
criteria: gemellity (twin beams), conditional variance (QND), Duan
separability, Reid EPR products, and the Bell-level note for Gaussian
states."""

import importlib

# Each public name, once, under the module that defines it.  Importing the
# package loads no module and no numpy: a name loads its module on first
# use and is looked up there on every use, never cached here, so a
# rebinding in the module shows through the package.
_EXPORTS = {
    "criteria": ("CriteriaReport", "DuanEprMoments", "MomentPair", "classify",
                 "conditional_variance", "duan_separability", "epr_product", "gemellity",
                 "quadrature_moments", "report_from_moments", "state_moments"),
    "states": ("GaussianTwoModeState", "PhysicalityError", "apply_beamsplitter", "apply_loss",
               "apply_phase", "make_single_mode_squeezed", "make_thermal",
               "make_two_mode_squeezed", "make_vacuum"),
    "sampling": ("DrawnBatch", "EstimatedCriteria", "SampleBatch", "draw_samples",
                 "estimate_criteria", "read_batch", "write_batch"),
    "batchfile": ("FileBatch",),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE)


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
