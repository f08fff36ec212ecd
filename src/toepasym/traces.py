"""Spectral enclosure disks, quadrature contours, and the trace functionals.

The trace of f over the section satisfies

    tr f(T_n(a)) = (n+1) trace_mean(a, f) + trace_constant(a, f) + o(1)

where trace_mean is the circle average of tr f(a) and trace_constant is a
contour integral of f against the logarithmic derivative of the operator
determinant det T(a-lambda) T((a-lambda)^-1).  That determinant is
rewritten through the Hankel product identity as det(I - H(a) H(w~)) with
w = (a-lambda)^-1, and the lambda derivative is taken analytically, which
avoids branch tracking along the contour, a circle about the proved
enclosure of sp T(a) and sp T(a~) inside which f must be analytic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigFailure, NoConvergence, SpectrumTooClose
from .fitting import fit_decay
from .symbol import (_NOISE_FACTOR, _SINGULAR_FLOOR, _guarded_inverse, _pow2_at_least,
                     _refine, _row_chunks, default_grid_size)
from .toeplitz import _block_hankel, hankel_section, trace_f_direct


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """Disk about centroid of radius max_radius holding sp T(a) and sp T(a~),
    and the symbol's pointwise eigenvalues with their bounding box; from_points
    takes the points' mean and largest distance from it."""

    points: np.ndarray
    centroid: complex
    max_radius: float
    bbox: tuple

    @classmethod
    def from_points(cls, points):
        pts = np.asarray(points, dtype=complex).ravel()
        if pts.size == 0:
            raise ValueError("empty spectrum estimate")
        if not np.all(np.isfinite(pts)):
            raise EigFailure("non-finite eigenvalue in the spectrum estimate")
        centroid = complex(pts.mean())
        return cls(points=pts, centroid=centroid,
                   max_radius=float(np.max(np.abs(pts - centroid))),
                   bbox=(float(pts.real.min()), float(pts.real.max()),
                         float(pts.imag.min()), float(pts.imag.max())))


@dataclass(frozen=True, eq=False)
class ContourSpec:
    """Closed quadrature contour with trapezoid nodes and weights.

    The weights absorb the curve parametrization: a contour integral of g
    is approximated by sum_j weights[j] g(nodes[j]), and the constant-term
    functional divides that sum by 2 pi i.
    """

    nodes: np.ndarray
    weights: np.ndarray
    clearance: float
    center: complex
    radius: float


def estimate_spectrum(a):
    """Disk that holds the numerical ranges, so the spectra, of every T_n(a),
    of T(a) and of T(a~): that of each a(theta) lies within ||a(theta) - c I||_2
    of c, the midpoint of the bounding box of a's pointwise eigenvalues on its
    own grid.  Outside the disk a - lambda is invertible with winding zero.
    The radius is the maximum of that norm on M = max(a.grid_size, 32 K)
    points (K the bandwidth, M a power of two) over cos(pi K / M), which bounds
    the maximum over the circle (van der Corput-Schaake: the norm is a maximum
    of real trigonometric polynomials of degree K).
    """
    n, k = a.block_size, a.max_offset
    try:
        samples = a.sample().samples
        points = samples[:, 0, 0] if n == 1 else np.linalg.eigvals(samples).ravel()
        if not np.all(np.isfinite(points)):
            raise EigFailure("non-finite eigenvalue in the spectrum estimate")
        bbox = (float(points.real.min()), float(points.real.max()),
                float(points.imag.min()), float(points.imag.max()))
        centroid = complex(0.5 * (bbox[0] + bbox[1]), 0.5 * (bbox[2] + bbox[3]))
        m = max(a.grid_size, _pow2_at_least(32 * k))
        shifted = a.sample(m).samples - centroid * np.eye(n)
        norms = (np.abs(shifted[:, 0, 0]) if n == 1
                 else np.linalg.norm(shifted, 2, axis=(1, 2)))
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    return SpectrumEstimate(points=points, centroid=centroid,
                            max_radius=float(norms.max()) / math.cos(math.pi * k / m),
                            bbox=bbox)


def build_contour(spectrum, margin, nodes=256):
    """Circle of radius spectrum.max_radius + margin about spectrum.centroid,
    with trapezoid quadrature; clearance is the least distance from a
    spectrum point to the circle."""
    if not 0 < margin < math.inf:
        raise ValueError("margin must be positive and finite")
    if nodes < 64 or nodes & (nodes - 1):
        raise ValueError("node count must be a power of two >= 64")
    center = spectrum.centroid
    radius = spectrum.max_radius + margin
    phis = 2 * np.pi * np.arange(nodes) / nodes
    contour_nodes = center + radius * np.exp(1j * phis)
    weights = (2 * np.pi / nodes) * 1j * radius * np.exp(1j * phis)
    clearance = float(np.min(np.abs(np.abs(spectrum.points - center) - radius)))
    return ContourSpec(nodes=contour_nodes, weights=weights,
                       clearance=clearance, center=center, radius=radius)


# ---------------------------------------------------------------------------
# trace functionals

def trace_mean(a, f):
    """Circle average of tr f(a) on a's grid, the linear-term coefficient.

    The trace of a matrix function is the sum of f over the (pointwise)
    eigenvalues counted with multiplicity, so no eigenvector conditioning
    enters.
    """
    samples = a.sample().samples
    if a.block_size == 1:
        evals = samples[:, :, 0]
    else:
        try:
            evals = np.linalg.eigvals(samples)
        except np.linalg.LinAlgError as exc:
            raise EigFailure(str(exc)) from exc
    if hasattr(f, "check"):
        f.check(evals, where="pointwise symbol eigenvalues")
    return complex(np.mean(np.sum(f(evals), axis=1)))


def trace_constant(a, f, contour):
    """Contour integral of f against d/dlambda log det T(a-l) T((a-l)^-1).

    At each node the determinant is represented through
    M(l) = I - H(a) H(((a-l)^-1)~)   (the Hankel of a - l equals the
    Hankel of a, constants carry no Hankel part), and the derivative is
    the exact resolvent form tr(M^-1 M') with
    M'(l) = -H(a) H(((a-l)^-2)~).  H(a) has only W nonzero rows and
    columns when a has positive bandwidth W, which makes M block
    triangular: every section of size m >= W yields the trace of the
    W x W corner, so the corner is what gets evaluated.  Its entries are
    the resolvent coefficients at offsets -1..-(2W-1), read from FFTs on
    an M-point grid that doubles from max(a.grid_size, 16 W rounded up to
    a power of two, 256) to max(a.grid_size, 2^15).  Sampling on M/2
    points folds the bins at those offsets + M/2 onto them, so the
    largest folded bin over the largest used bin, over every node and
    both (a-l)^-1 and (a-l)^-2, is how far the used coefficients moved
    from the half grid; the first grid where that gap is at most 1e-13,
    or the folded bins are FFT round-off (at most 64 eps times the
    largest sample), is accepted.
    Only the accepted grid builds corners, one solve per node.
    NoConvergence is raised when no grid up to the cap is accepted, and
    at once when W > 2048.

    The nodes run in chunks of at most 2^17 samples: one stacked inverse,
    square and FFT per chunk, of which the used bins are kept; the corner
    solves are summed in node order.  SpectrumTooClose is raised at the
    first node of a chunk where the symbol's range comes within 1e-10 of
    the node (smallest singular value of a - lambda on the grid); an SVD
    decides this only for chunks where 1 / ||(a - lambda)^-1||_F does not
    certify it or the inverse is too ill-conditioned to trust (see
    symbol._guarded_inverse).
    """
    n = a.block_size
    band = max((k for k in a.coeffs if k > 0), default=0)
    if band == 0:
        return 0.0 + 0.0j  # H(a) vanishes, M(l) is the identity
    if band > 2048:
        raise NoConvergence(f"trace_constant: bandwidth {band} exceeds the corner cap 2048")
    if hasattr(f, "check"):
        f.check(contour.nodes, where="contour nodes")
        f.check_disk(contour.center, contour.radius)
    fvals = f(contour.nodes)
    used = slice(-(2 * band - 1), None)  # the FFT bins of offsets -(2W-1)..-1

    def step(m_grid):
        samples = a.sample(m_grid).samples
        folded = slice(m_grid // 2 - (2 * band - 1), m_grid // 2)  # used + M/2
        # per power of the resolvent: largest used bin, folded bin, M x sample
        peaks = np.zeros((2, 3))

        def used_bins(values, power):
            top = m_grid * np.abs(values).max()
            full = np.fft.fft(values, axis=1)
            np.maximum(peaks[power], [np.abs(full[:, used]).max(),
                                      np.abs(full[:, folded]).max(), top],
                       out=peaks[power])
            return full[:, used] / m_grid

        # one function call per chunk, so that its arrays are freed before the next
        def chunk_bins(chunk):
            lams = contour.nodes[chunk]
            inv, margins = _guarded_inverse(
                samples[None] - lams[:, None, None, None] * np.eye(n))
            if margins is not None:
                for lam, dist in zip(lams, margins.min(axis=1)):
                    if dist <= _SINGULAR_FLOOR:
                        raise SpectrumTooClose(
                            f"symbol range within {dist:.3e} of node lambda={lam:.6g}")
            inv2 = inv * inv if n == 1 else inv @ inv
            return chunk, used_bins(inv, 0), used_bins(inv2, 1)

        chunks = _row_chunks(len(contour.nodes), m_grid * n * n)
        hats = [chunk_bins(chunk) for chunk in chunks]
        # folded bins at FFT round-off carry no signal: the used ones are final
        return hats, max(0.0 if folded <= _NOISE_FACTOR * top else folded / big
                         for big, folded, top in peaks)

    hats = _refine(step, max(a.grid_size, default_grid_size(2 * band)),
                   max(a.grid_size, 1 << 15), 1e-13)
    # contiguous once here: numpy would copy the window view before every product
    ha = np.ascontiguousarray(hankel_section(a, band))
    eye = np.eye(band * n)
    total = 0.0 + 0.0j
    for chunk, hat1, hat2 in hats:
        for lam, weight, fv, t1, t2 in zip(contour.nodes[chunk], contour.weights[chunk],
                                          fvals[chunk], hat1, hat2):
            # t[::-1] holds offsets -1, -2, ..., so block (j, k) is at -(j+k+1)
            mmat = eye - ha @ _block_hankel(t1[::-1], band, band)
            mprime = -(ha @ _block_hankel(t2[::-1], band, band))
            try:
                solved = np.linalg.solve(mmat, mprime)
            except np.linalg.LinAlgError as exc:
                raise SpectrumTooClose(
                    f"determinant representation singular at lambda={lam:.6g}") from exc
            total += weight * fv * np.trace(solved)
    return complex(total / (2j * np.pi))


def _target_slope(a):
    """Band slope -(2 gamma - 1) + 0.3 that the trace remainder of a symbol
    tagged with smoothness gamma should meet; None for an untagged one."""
    if a.smoothness_tag is None:
        return None
    return -(2.0 * a.smoothness_tag - 1.0) + 0.3


def trace_remainder_scan(a, f, n_grid, contour):
    """Decay fit of |tr f(T_n) - predicted| over the grid of n.

    When the symbol carries a smoothness tag gamma, the fit also reports
    whether the slope meets the band slope -(2 gamma - 1) + 0.3
    (_target_slope, which the widom-trace command shares).
    Residuals at the numerical floor for every grid point raise
    FitDegenerate with the flag "exact regime" (polynomial f on a
    band-limited symbol makes the prediction an identity at finite n).
    """
    ns = sorted(int(n) for n in n_grid)
    if len(ns) < 4 or ns[0] < 4 or ns[-1] < 8 * ns[0]:
        raise ValueError("n_grid needs >= 4 points >= 4 spanning a factor of 8")
    gf = trace_mean(a, f)
    ef = trace_constant(a, f, contour)
    mags = []
    for n in ns:
        direct = trace_f_direct(a, n, f)
        mags.append(abs(direct - ((n + 1) * gf + ef)))
    return fit_decay(ns, mags, target_slope=_target_slope(a))
