import inspect

import toepasym as tp

# Every name the package exports, sorted; a change to the public API shows
# up as a change to this list.
PUBLIC_NAMES = [
    "AnalyticFunction", "BlockSizeMismatch", "ConfigInvalid", "ContourSpec",
    "ContourTooTight", "CutoffTooLarge", "DecayFit", "EigFailure", "ExpansionReport",
    "FNotAnalyticAtSample", "FactorDiagnostics", "FactorizationSweep", "FitDegenerate",
    "GridTooCoarse", "IllConditionedSection", "LaurentMatrixSeries", "NoConvergence",
    "NonCanonical", "NonZeroWinding", "NumericallySingularSection", "SQUARE",
    "SingularSymbol", "SmoothnessReport", "SpectrumEstimate", "SpectrumTooClose",
    "SymbolGrid", "ToepasymError", "TruncationNorms", "TruncationTooSmall", "WHFactors",
    "add_constant", "block_wiener_hopf", "build_contour", "canonical_wiener_hopf",
    "certified_inverse", "coefficients_from_samples", "constant_symbol",
    "correction_symbols", "estimate_spectrum", "evaluate", "exponential",
    "factorization_sweep", "fit_decay", "geometric_mean", "hankel_section",
    "identity_symbol", "jackson_decay_check", "load_symbol", "log_det_direct",
    "log_det_scan", "log_geometric_mean", "logdet_expansion", "logdet_expansion_scan",
    "logdet_remainder_scan", "modulus_of_smoothness", "multiply",
    "near_best_approximation", "parse_function_spec", "polynomial", "principal_log",
    "rational", "reverse", "save_symbol", "scalar_symbol", "scalar_wiener_hopf",
    "strong_szego_series", "symbol_from_json", "symbol_to_json", "szego_constant",
    "toeplitz_section", "trace_constant", "trace_f_direct", "trace_mean",
    "trace_remainder_scan", "truncation_norms", "winding_number", "zygmund_seminorm",
    "zygmund_symbol",
]


def test_public_names_are_pinned():
    exported = sorted(name for name, value in vars(tp).items()
                      if not name.startswith("_") and not inspect.ismodule(value))
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 78
