"""Spectrum estimation, quadrature contours, and the trace functionals.

The trace of f over the section satisfies

    tr f(T_n(a)) = (n+1) trace_mean(a, f) + trace_constant(a, f) + o(1)

where trace_mean is the circle average of tr f(a) and trace_constant is a
contour integral of f against the logarithmic derivative of the operator
determinant det T(a-lambda) T((a-lambda)^-1).  That determinant is
rewritten through the Hankel product identity as det(I - H(a) H(w~)) with
w = (a-lambda)^-1, and the lambda derivative is taken analytically, which
avoids branch tracking along the contour.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourTooTight, EigFailure, NoConvergence, SpectrumTooClose
from .fitting import fit_decay
from .symbol import (_NOISE_FACTOR, _SINGULAR_FLOOR, _guarded_inverse, _refine,
                     _row_chunks, _sample_shifted, _winding_rows, default_grid_size,
                     reverse)
from .toeplitz import _block_hankel, hankel_section, toeplitz_section, trace_f_direct


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """Heuristic point cloud covering sp T(a) together with sp T(a~)."""

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


def estimate_spectrum(a, m=64):
    """Eigenvalues of the m-th sections of both Toeplitz operators plus the
    pointwise eigenvalues of the symbol.

    For scalar symbols, points of a coarse 25 x 25 grid over the cloud's
    bounding box with nonzero winding of a - lambda are added (interior of
    the symbol curve belongs to the spectrum), together with the points
    where the winding number of a - lambda is undefined (winding_number
    would raise).  All grid points are decided in batched passes.
    """
    if m < 64:
        raise ValueError("section size m must be >= 64")
    try:
        ev_plus = np.linalg.eigvals(toeplitz_section(a, m))
        ev_minus = np.linalg.eigvals(toeplitz_section(reverse(a), m))
        samples = a.sample().samples
        ev_symbol = (samples[:, 0, 0] if a.block_size == 1
                     else np.linalg.eigvals(samples).ravel())
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    clouds = [ev_plus, ev_minus, ev_symbol]
    if a.block_size == 1:
        base = np.concatenate(clouds)
        re = np.linspace(base.real.min(), base.real.max(), 25)
        im = np.linspace(base.imag.min(), base.imag.max(), 25)
        lams = (re[:, None] + 1j * im[None, :]).ravel()
        marked = np.zeros(lams.size, dtype=bool)
        for rows in _row_chunks(lams.size, a.grid_size):
            w, fault, _, _ = _winding_rows(_sample_shifted(a, lams[rows])[:, :, 0, 0])
            # a faulty row lies on or next to the symbol curve
            marked[rows] = (w != 0) | (fault != 0)
        if marked.any():
            clouds.append(lams[marked])
    return SpectrumEstimate.from_points(np.concatenate(clouds))


def _connected(points, threshold):
    """Single-linkage connectivity of the cloud at the given threshold.

    Two points are linked when dx*dx + dy*dy, evaluated in floating point
    as cKDTree evaluates it, is at most threshold*threshold: the rule of
    cKDTree.query_pairs, without listing the pairs.  A search from point 0
    asks one cKDTree for the points linked to one reached point at a time
    and stops as soon as every point is reached.  Memory is linear in the
    cloud.
    """
    from scipy.spatial import cKDTree

    threshold = float(threshold)
    if threshold * threshold == math.inf:
        return True
    xy = np.column_stack([points.real, points.imag])
    # cKDTree squares distances across the bounding box, which overflow
    # beyond about 1e154; a power-of-two scale changes no decision, since a
    # connected cloud that wide has a threshold far above the underflow range
    extent = float(np.max(np.ptp(0.5 * xy, axis=0)))
    if extent > 2.0**500:
        scale = 2.0 ** (500 - math.frexp(extent)[1])
        xy, threshold = scale * xy, scale * threshold
    tree = cKDTree(xy)
    reached = np.zeros(len(xy), dtype=bool)
    reached[0] = True
    count, stack = 1, [0]
    while count < len(xy):
        if not stack:
            return False
        near = np.asarray(tree.query_ball_point(xy[stack.pop()], threshold), dtype=np.intp)
        near = near[~reached[near]]
        reached[near] = True
        count += len(near)
        stack.extend(near.tolist())
    return True


def build_contour(spectrum, margin, nodes=256):
    """Circle around the spectrum estimate with trapezoid quadrature.

    Centered at the cloud centroid with radius max distance + margin.
    Disconnected clouds are rejected rather than handled with several
    components: linking every two points at most 4 margin apart must
    join the whole cloud (single linkage, decided by a search over one
    cKDTree in memory linear in the cloud).  So is any construction whose
    verified clearance falls below margin / 2.
    """
    if not 0 < margin < math.inf:
        raise ValueError("margin must be positive and finite")
    if nodes < 64 or nodes & (nodes - 1):
        raise ValueError("node count must be a power of two >= 64")
    pts = spectrum.points
    if len(pts) > 1 and not _connected(pts, 4.0 * margin):
        raise ContourTooTight(
            "spectrum estimate splits into components separated by more "
            "than four margins; single-circle contours are not supported")
    center = spectrum.centroid
    radius = spectrum.max_radius + margin
    phis = 2 * np.pi * np.arange(nodes) / nodes
    contour_nodes = center + radius * np.exp(1j * phis)
    weights = (2 * np.pi / nodes) * 1j * radius * np.exp(1j * phis)
    clearance = float(np.min(np.abs(np.abs(pts - center) - radius)))
    if clearance < margin / 2:
        raise ContourTooTight(
            f"clearance {clearance:.3e} below margin/2 = {margin / 2:.3e}")
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
    fvals = f(contour.nodes)
    used = slice(-(2 * band - 1), None)  # the FFT bins of offsets -(2W-1)..-1

    def step(m_grid, prev):
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
    ha = hankel_section(a, band)
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


def trace_remainder_scan(a, f, n_grid, contour):
    """Decay fit of |tr f(T_n) - predicted| over the grid of n.

    When the symbol carries a smoothness tag gamma, the fit also reports
    whether the slope meets the predicted band slope <= -(2 gamma - 1) + 0.3.
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
    target = None
    if a.smoothness_tag is not None:
        target = -(2.0 * a.smoothness_tag - 1.0) + 0.3
    return fit_decay(ns, mags, target_slope=target)
