"""Exception types shared by all modules.

The class names are part of the public contract: the command line front
end maps each error to a distinct exit code (the ``exit_code`` attribute,
documented in the README).
"""


class ToepasymError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ConfigInvalid(ToepasymError):
    """Command line or experiment configuration does not validate."""

    exit_code = 2


class SingularSymbol(ToepasymError):
    """Symbol (or its determinant) vanishes, or is too close to it, on the grid."""

    exit_code = 3


class CutoffTooLarge(ToepasymError):
    """Requested coefficient cutoff cannot be resolved on the given grid."""

    exit_code = 4


class BlockSizeMismatch(ToepasymError):
    """Operands carry different block sizes."""

    exit_code = 5


class GridTooCoarse(ToepasymError):
    """Grid cannot resolve the stored offsets or the phase increments."""

    exit_code = 6


class TruncationTooSmall(ToepasymError):
    """Coefficient tail neglected by a truncation exceeds the tolerance."""

    exit_code = 7


class NumericallySingularSection(ToepasymError):
    """Finite Toeplitz section is numerically singular."""

    exit_code = 8


class EigFailure(ToepasymError):
    """Dense eigenvalue computation did not converge."""

    exit_code = 9


class NonZeroWinding(ToepasymError):
    """Symbol determinant has nonzero winding number, no canonical factorization."""

    exit_code = 10


class NonCanonical(ToepasymError):
    """Factorization residuals stay large after retry, nonzero partial indices likely."""

    exit_code = 11


class IllConditionedSection(ToepasymError):
    """Finite section condition estimate exceeds the factorization threshold."""

    exit_code = 12


class SpectrumTooClose(ToepasymError):
    """Contour node too close to the operator spectra."""

    exit_code = 13


class NoConvergence(ToepasymError):
    """An adaptive stage hit its cap without meeting its tolerance."""

    exit_code = 14


class FitDegenerate(ToepasymError):
    """Too few usable points for a log-log fit (values at the numerical floor)."""

    exit_code = 15

    def __init__(self, message, flag=None):
        super().__init__(message)
        self.flag = flag


class ContourTooTight(ToepasymError):
    """Contour clearance check failed or the spectrum estimate is disconnected."""

    exit_code = 16


class FNotAnalyticAtSample(ToepasymError):
    """Registered function is not analytic at a point where it must be evaluated."""

    exit_code = 17
