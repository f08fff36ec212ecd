"""Log-log decay fits shared by the remainder and approximation scans."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitDegenerate

#: magnitudes below this are considered numerical zero and excluded from fits
RESIDUAL_FLOOR = 1e-13


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log(magnitude) against log(n).

    ``points`` keeps the (n, magnitude) pairs that entered the fit.  The
    slope standard error refers to the usual OLS estimate.  ``target_slope``
    and ``meets_target`` are filled by scans that check a predicted decay
    rate; ``flag`` carries qualitative notes such as "superpolynomial".
    """

    points: tuple
    slope: float
    intercept: float
    r_squared: float
    stderr: float
    flag: str | None = None
    target_slope: float | None = None
    meets_target: bool | None = None

    def to_dict(self):
        return {
            "points": [[int(n), float(m)] for n, m in self.points],
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "stderr": self.stderr,
            "flag": self.flag,
            "target_slope": self.target_slope,
            "meets_target": self.meets_target,
        }


def fit_decay(ns, magnitudes, target_slope=None):
    """Fit log|magnitude| versus log n, excluding points at RESIDUAL_FLOOR.

    Raises FitDegenerate when fewer than four usable points remain.
    Slopes below -4 are flagged "superpolynomial".
    """
    ns = np.asarray(ns, dtype=float)
    mags = np.asarray(magnitudes, dtype=float)
    keep = mags > RESIDUAL_FLOOR
    if keep.sum() < 4:
        # a scan whose magnitudes never rise above round-off noise is an
        # identity at finite n, not a decaying remainder
        exact = bool(np.all(mags < 1000 * RESIDUAL_FLOOR))
        raise FitDegenerate(
            f"only {int(keep.sum())} of {len(ns)} points above the {RESIDUAL_FLOOR:g} floor",
            flag="exact regime" if exact else None,
        )
    x = np.log(ns[keep])
    y = np.log(mags[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    dof = len(x) - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = 0.0 if dof <= 0 or sxx == 0 else float(np.sqrt(ss_res / dof / sxx))
    flag = "superpolynomial" if slope < -4 else None
    meets = None if target_slope is None else bool(slope <= target_slope)
    points = tuple((int(n), float(m)) for n, m in zip(ns[keep], mags[keep]))
    return DecayFit(points, float(slope), float(intercept), r_squared, stderr,
                    flag=flag, target_slope=target_slope, meets_target=meets)
