"""cuspcenter: exact endomorphism-ring computation for cuspidal mod-l
blocks of GL_n(F_q), with brute-force and character-table oracles.

The center of such a block acts on the projective envelope of its
cuspidal representation through a ring this package computes exactly:
the q-power-invariant subring of W[X]/(X^(l^r) - 1), presented as
W[Y]/(m(Y)) together with integral certificates expressing every
conjugacy-class action in terms of the canonical generator.

``import cuspcenter`` loads no submodule.  Each public name, each
submodule and ``__version__`` is imported on first access, through the
module ``__getattr__`` (PEP 562), so a command loads only what it runs.
"""

# submodule -> the public names it defines
_EXPORTS = {
    "centermap": (
        "BlockVector", "EndoRingResult", "case_analysis", "delta_class",
        "express_all_in_gamma", "express_in_gamma", "gamma_vector", "lemma_signs_check",
        "reconstruct_gamma", "reconstruct_scaled_idempotent", "s_membership",
        "verify_endo_ring",
    ),
    "classes": ("ClassType", "enumerate_classes", "group_order"),
    "cyclotomic": ("CyclotomicNumber", "ell_valuation", "is_ell_integral", "zeta"),
    "deformation": (
        "CenterPresentation", "DeformationPoint", "check_relations", "deformation_suite",
        "emit_center_presentation", "make_point",
    ),
    "errors": (
        "AssertionFailure", "CuspCenterError", "DegenerateBlock", "IntegralityFailure",
        "InvalidPrime", "NoSolution", "ParameterError", "RelationFailure", "ScaleLimit",
        "SupercuspidalCase",
    ),
    "finitefield": ("FiniteField", "FqPoly", "finite_field"),
    "invariants": ("InvariantRingData", "invariant_ring", "orbit_structure"),
    "params": ("ParameterSet", "reduce_parameters", "validate_parameters"),
    "polynomials": ("Poly",),
    "report": ("SCHEMA_VERSION", "TOOL_VERSION"),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]

# name -> (submodule, its attribute, or None for the submodule itself);
# __main__ is left out, since importing it runs a command
_HOME = {name: (module, name) for module, names in _EXPORTS.items() for name in names}
_HOME["__version__"] = ("report", "TOOL_VERSION")
_HOME.update(
    (module, (module, None))
    for module in (
        "arith", "centermap", "characters", "classes", "cli", "cyclotomic", "deformation",
        "driver", "errors", "finitefield", "gl2table", "invariants", "linalg", "matrices",
        "matrixoracle", "params", "polynomials", "report",
    )
)


def __getattr__(name):
    try:
        module, attr = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = importlib.import_module(f"{__name__}.{module}")
    if attr is not None:
        value = getattr(value, attr)
    globals()[name] = value  # the next access finds it without this call
    return value
