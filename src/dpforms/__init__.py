"""Exact toolkit for forms of singular del Pezzo surfaces.

Picard-lattice arithmetic for the two blow-up models, censuses of
(-1)-curve classes with an independent search oracle, orbifold
anti-plurigenus tables, the Galois invariant ell with branch-and-bound
and exhaustive solvers, the rationality/cylindricity decision table,
and exact analysis of hyperplane-section splitting.

The public names are declared once, in ``_EXPORTS``, which maps each
library module to the names it exports.  Every name is bound at import, so
``import dpforms`` loads all eight library modules; ``__all__`` is those
names and ``run`` in sorted order, then ``__version__``.  ``run`` alone is
bound on first use, since it loads the CLI and argparse.
"""

from importlib import import_module

_EXPORTS = {
    "curves": "DELTA EXCEPTIONAL FIBER_RESIDUAL PLANE_DEGREE Q_SECTION CurveFamily SearchBox "
              "brute_force_minus_one_classes closed_form_minus_one_classes curves_meeting_q "
              "default_search_box delta_class distinguished_e0 family_classes minus_one_census",
    "errors": "BasisMismatchError InfeasibleEllError InputFormatError InternalInvariantError "
              "InvalidActionError ParameterError SystemSizeError ToolkitError "
              "UnsupportedModelError",
    "galois": "BRUTE_FORCE_LIMIT CurveSystem EllResult GaloisAction ValidationReport "
              "brute_force_ell build_curve_system compute_ell orbit_partition "
              "standard_curve_system validate_action",
    "lattice": "HIRZEBRUCH PLANE DivisorClass SurfaceModel build_model gram_determinant "
               "is_del_pezzo is_unimodular k_squared_singular lattice_signature signature_of",
    "riemann_roch": "EmbeddingDescriptor TableRow anti_plurigenus_table correction_residue "
                    "correction_term embedding_descriptor h0_anti_plurigenus",
    "sections": "BinaryForm Factorization LineCensus SplitValue UnivariatePoly binary_form "
                "ci_split_polynomial factor_over_rationals is_rational_square line_census poly "
                "poly_text rational_roots",
    "verdicts": "TriState Verdict classify feasible_ell parse_tristate q_point_forced",
    "verification": "CheckResult run_all",
}

for _module, _names in _EXPORTS.items():
    _loaded = import_module(f".{_module}", __name__)
    globals().update({name: getattr(_loaded, name) for name in _names.split()})
del _module, _names, _loaded

__version__ = "0.1.0"
__all__ = sorted([name for names in _EXPORTS.values() for name in names.split()] + ["run"])
__all__.append("__version__")


def __getattr__(name: str):  # `run` loads the CLI and argparse on first use
    if name != "run":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .cli import run
    return run
