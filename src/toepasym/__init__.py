"""Numerics for block Toeplitz determinant and trace asymptotics.

Symbols live as finitely supported Laurent coefficient series; the
library builds finite Toeplitz and Hankel sections, computes canonical
Wiener-Hopf factorizations, the Szego-Widom constants, higher-order
determinant expansions, and the trace functionals, and fits the decay of
the remainders against the rates predicted for Hoelder-Zygmund symbols.
"""

from .approx import (SmoothnessReport, jackson_decay_check,
                     modulus_of_smoothness, near_best_approximation,
                     zygmund_seminorm)
from .asymptotics import (ExpansionReport, geometric_mean, log_geometric_mean,
                          logdet_expansion, logdet_expansion_scan,
                          logdet_remainder_scan, strong_szego_series,
                          szego_constant)
from .errors import (BlockSizeMismatch, ConfigInvalid, ContourTooTight,
                     CutoffTooLarge, EigFailure, FitDegenerate,
                     FNotAnalyticAtSample, GridTooCoarse,
                     IllConditionedSection, NoConvergence, NonCanonical,
                     NonZeroWinding, NumericallySingularSection,
                     SingularSymbol, SpectrumTooClose, ToepasymError,
                     TruncationTooSmall)
from .factor import (FactorDiagnostics, FactorizationSweep, WHFactors,
                     block_wiener_hopf, canonical_wiener_hopf,
                     correction_symbols, factorization_sweep,
                     scalar_wiener_hopf)
from .fitting import DecayFit, fit_decay
from .functions import (AnalyticFunction, SQUARE, exponential,
                        parse_function_spec, polynomial, principal_log,
                        rational)
from .symbol import (LaurentMatrixSeries, SymbolGrid, add_constant,
                     certified_inverse, coefficients_from_samples,
                     constant_symbol, evaluate, identity_symbol, load_symbol,
                     multiply, reverse, save_symbol, scalar_symbol,
                     symbol_from_json, symbol_to_json, winding_number,
                     zygmund_symbol)
from .toeplitz import (TruncationNorms, hankel_section, log_det_direct,
                       log_det_scan, toeplitz_section, trace_f_direct,
                       truncation_norms)
from .traces import (ContourSpec, SpectrumEstimate, build_contour,
                     estimate_spectrum, trace_constant, trace_mean,
                     trace_remainder_scan)

__version__ = "0.1.0"
