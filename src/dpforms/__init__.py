"""Exact toolkit for forms of singular del Pezzo surfaces.

Picard-lattice arithmetic for the two blow-up models, censuses of
(-1)-curve classes with an independent search oracle, orbifold
anti-plurigenus tables, the Galois invariant ell with branch-and-bound
and exhaustive solvers, the rationality/cylindricity decision table,
and exact analysis of hyperplane-section splitting.

The public names are declared once, in ``_EXPORTS``, which maps each
library module to the names it exports.  A name resolves when it is used
(PEP 562): ``import dpforms`` loads no library module, ``dpforms.X`` loads the
modules behind X and reads X from its module, and ``run`` loads the CLI.
``__all__`` is those names and ``run`` in sorted order, then ``__version__``.
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

# exported name -> the module that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_HOME["run"] = "cli"

__version__ = "0.1.0"
__all__ = sorted(_HOME)
__all__.append("__version__")


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
