"""Spectral enclosure disks, quadrature contours, and the trace functionals.

The trace of f over the section satisfies

    tr f(T_n(a)) = (n+1) trace_mean(a, f) + trace_constant(a, f) + o(1)

where trace_mean is the circle average of tr f(a) and trace_constant is a
contour integral of f against the logarithmic derivative of the operator
determinant det T(a-lambda) T((a-lambda)^-1).  That determinant is
rewritten through the Hankel product identity as det M with
M = I - H(a) H(w~) and w = (a-lambda)^-1, on a circle about the proved
enclosure of sp T(a) and sp T(a~) inside which f must be analytic.  The
nodes must lie equispaced counter-clockwise on the circle, as
build_contour makes them and as is checked.  The block size picks how
the lambda derivative is taken.  Block symbols take the log determinant
at each node and differentiate it along the contour by one FFT; its
phase must close around the contour, or SpectrumTooClose is raised.
Scalar symbols take the analytic derivative tr(M^-1 M') at each node.
For an exactly Hermitian symbol on a circle about a real center both
routes evaluate the upper half of the nodes only and take the rest by
conjugate symmetry, and block symbols invert a - lambda from one
eigendecomposition per grid point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigFailure, NoConvergence, SpectrumTooClose
from .fitting import fit_decay
from .symbol import (_NOISE_FACTOR, _SINGULAR_FLOOR, _guarded_inverse, _pow2_at_least,
                     _refine, _row_chunks, default_grid_size)
from .toeplitz import _block_hankel, _is_hermitian, hankel_section, trace_f_direct


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """Disk about centroid of radius max_radius holding sp T(a) and sp T(a~),
    and the symbol's pointwise eigenvalues on its own grid (estimate_spectrum)."""

    points: np.ndarray
    centroid: complex
    max_radius: float


@dataclass(frozen=True, eq=False)
class ContourSpec:
    """Closed quadrature contour: a circle and its trapezoid nodes.

    The weights absorb the curve parametrization: a contour integral of g
    is approximated by sum_j weights[j] g(nodes[j]).  trace_constant does
    not read them; it weighs its nodes by their place on the circle.
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
    own grid (of their real extremes, with c exactly real, for an exactly
    Hermitian symbol).  Outside the disk a - lambda is invertible with
    winding zero.
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
        # a Hermitian symbol's points are real: its center is exactly real
        imag = 0.0 if _is_hermitian(a) else 0.5 * (points.imag.min() + points.imag.max())
        centroid = complex(0.5 * (points.real.min() + points.real.max()), imag)
        m = max(a.grid_size, _pow2_at_least(32 * k))
        shifted = a.sample(m).samples - centroid * np.eye(n)
        norms = (np.abs(shifted[:, 0, 0]) if n == 1
                 else np.linalg.norm(shifted, 2, axis=(1, 2)))
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    return SpectrumEstimate(points=points, centroid=centroid,
                            max_radius=float(norms.max()) / math.cos(math.pi * k / m))


def build_contour(spectrum, margin, nodes=256):
    """Circle of radius spectrum.max_radius + margin about spectrum.centroid,
    with trapezoid quadrature; clearance is the least distance from a
    spectrum point to the circle.  ValueError is raised when the radius is
    at most 1e-12 (radius + |center|), the tolerance within which
    trace_constant reads the nodes: the nodes would not stand apart from
    the center."""
    if not 0 < margin < math.inf:
        raise ValueError("margin must be positive and finite")
    if nodes < 64 or nodes & (nodes - 1):
        raise ValueError("node count must be a power of two >= 64")
    center = spectrum.centroid
    radius = spectrum.max_radius + margin
    if radius <= 1e-12 * (radius + abs(center)):
        raise ValueError(f"contour radius {radius:.3e} is within rounding of the "
                         f"center {center:.3e}")
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


def _mirror(values):
    """Values at the K nodes of a circle about a real center from those at
    nodes 0..K/2: node K - j is the conjugate of node j, and so is its value."""
    return np.concatenate([values, values[-2:0:-1].conj()])


def trace_constant(a, f, contour):
    """Contour integral E_f = (1/2 pi i) oint f(l) d log det T(a-l) T((a-l)^-1).

    At each node the determinant is represented through
    M(l) = I - H(a) H(((a-l)^-1)~)   (the Hankel of a - l equals the
    Hankel of a, constants carry no Hankel part).  H(a) has only W
    nonzero rows and columns when a has positive bandwidth W, which makes
    M block triangular: every section of size m >= W carries the
    determinant of the W x W corner, so the corner is what gets
    evaluated.  Its entries are the resolvent coefficients at offsets
    -1..-(2W-1).

    The nodes must be l_j = contour.center + contour.radius exp(2 pi i j / K),
    as build_contour makes them: ValueError is raised, before any grid is
    sampled, when a node is further than 1e-12 (radius + |center|) from its
    place.  contour.weights are not read.  For an exactly Hermitian symbol
    (toeplitz._is_hermitian), a real center and even K, L(conj l) = conj L(l)
    and dL/dl(conj l) = conj dL/dl(l): the grid stage and the corners run on
    nodes 0..K/2 only, and nodes K/2+1..K-1 take the conjugate values.  f is
    evaluated at every node.  The block route's phase check reads all K
    values, whose total phase change is twice that over nodes 0..K/2, so a
    winding still raises.

    Two routes take the lambda derivative, chosen by the block size:
    - block symbols (N > 1) take L(l) = log det M(l) from one slogdet of
      the corner per node.  L is analytic and single-valued outside the
      disk, so its phase, unwrapped along the nodes, must close to a
      total of 0; SpectrumTooClose is raised when it closes to more than
      pi in magnitude (the contour runs where a - l winds).  dL/dphi is
      one FFT over the K nodes (bin k times i k, the Nyquist bin 0), and
      E_f = sum_j f(l_j) dL/dphi_j / (i K).
    - scalar symbols (N = 1) take the exact resolvent form
      t_j = tr(M^-1 M') with M'(l) = -H(a) H(((a-l)^-2)~), one solve per
      node, and E_f = sum_j f(l_j) t_j (l_j - center) / K, the trapezoid
      rule on the circle.
    The resolvent coefficients (and, for scalar symbols, those of its
    square) are read from FFTs on an M-point grid that doubles from
    max(a.grid_size, 16 W rounded up to a power of two, 256) to
    max(a.grid_size, 2^15).  Sampling on M/2 points folds the bins at
    those offsets + M/2 onto them, so the largest folded bin over the
    largest used bin, over every node and every power read, is how far
    the used coefficients moved from the half grid; the first grid where
    that gap is at most 1e-13, or the folded bins are FFT round-off (at
    most 64 eps times the largest sample), is accepted.  Only the
    accepted grid builds corners, one per node.  NoConvergence is raised
    when no grid up to the cap is accepted, and at once when W > 2048.

    The nodes run in chunks of at most 2^17 samples: one stacked inverse
    (and square) and FFT per chunk, of which the used bins are kept.
    SpectrumTooClose is raised at the first node of a chunk where the
    symbol's range comes within 1e-10 of the node (smallest singular
    value of a - lambda on the grid).  Hermitian block symbols take one
    eigh per grid, a = U diag(lambda_k) U^H, and the inverse as
    sum_k P_k / (lambda_k - l) with P_k = u_k u_k^H; a - l is normal, so
    the smallest singular value is min_k |lambda_k - l|.  Other symbols
    take a stacked LU inverse, and an SVD decides the guard only for
    chunks where 1 / ||(a - lambda)^-1||_F does not certify it or the
    inverse is too ill-conditioned to trust (see symbol._guarded_inverse).
    f must be analytic on the disk about contour.center that holds every
    node.
    """
    n = a.block_size
    band = max((k for k in a.coeffs if k > 0), default=0)
    if band == 0:
        return 0.0 + 0.0j  # H(a) vanishes, M(l) is the identity
    if band > 2048:
        raise NoConvergence(f"trace_constant: bandwidth {band} exceeds the corner cap 2048")
    if hasattr(f, "check"):
        f.check(contour.nodes, where="contour nodes")
        reach = float(np.abs(contour.nodes - contour.center).max())
        f.check_disk(contour.center, max(contour.radius, reach))
    # both routes read the nodes as build_contour's counter-clockwise circle
    k = len(contour.nodes)
    circle = contour.center + contour.radius * np.exp(2j * np.pi * np.arange(k) / k)
    if np.abs(contour.nodes - circle).max() > 1e-12 * (contour.radius + abs(contour.center)):
        raise ValueError("trace_constant: the contour nodes must be "
                         "center + radius exp(2 pi i j / K), j = 0..K-1")
    fvals = f(contour.nodes)
    hermitian = _is_hermitian(a)
    # L(conj l) = conj L(l): on a circle about a real axis point, nodes 0..K/2 suffice
    half = hermitian and k % 2 == 0 and complex(contour.center).imag == 0
    by_eigh = hermitian and n > 1
    nodes = contour.nodes[:k // 2 + 1] if half else contour.nodes
    used = slice(-(2 * band - 1), None)  # the FFT bins of offsets -(2W-1)..-1
    powers = 2 if n == 1 else 1  # only the scalar route reads (a-l)^-2

    def step(m_grid):
        samples = a.sample(m_grid).samples
        folded = slice(m_grid // 2 - (2 * band - 1), m_grid // 2)  # used + M/2
        # per power of the resolvent: largest used bin, folded bin, M x sample
        peaks = np.zeros((powers, 3))
        if by_eigh:
            evals, vecs = np.linalg.eigh(samples)
            projs = [vecs[:, :, j, None] * vecs[:, None, :, j].conj() for j in range(n)]

        def used_bins(values, power):
            top = m_grid * np.abs(values).max()
            full = np.fft.fft(values, axis=1)
            np.maximum(peaks[power], [np.abs(full[:, used]).max(),
                                      np.abs(full[:, folded]).max(), top],
                       out=peaks[power])
            return full[:, used] / m_grid

        # one function call per chunk, so that its arrays are freed before the next
        def chunk_bins(chunk):
            lams = nodes[chunk]
            if by_eigh:  # a - l is normal: sigma_min is the least |lambda_k - l|
                gaps = evals - lams[:, None, None]
                dists = np.abs(gaps).min(axis=(1, 2))
            else:
                inv, margins = _guarded_inverse(
                    samples[None] - lams[:, None, None, None] * np.eye(n))
                dists = () if margins is None else margins.min(axis=1)
            for lam, dist in zip(lams, dists):
                if dist <= _SINGULAR_FLOOR:
                    raise SpectrumTooClose(
                        f"symbol range within {dist:.3e} of node lambda={lam:.6g}")
            if by_eigh:
                inv = sum(proj / gaps[..., j, None, None] for j, proj in enumerate(projs))
            bins = used_bins(inv, 0)
            return (bins,) if powers == 1 else (bins, used_bins(inv * inv, 1))

        chunks = _row_chunks(len(nodes), m_grid * n * n)
        hats = [chunk_bins(chunk) for chunk in chunks]
        # folded bins at FFT round-off carry no signal: the used ones are final
        return hats, max(0.0 if folded <= _NOISE_FACTOR * top else folded / big
                         for big, folded, top in peaks)

    chunked = _refine(step, max(a.grid_size, default_grid_size(2 * band)),
                      max(a.grid_size, 1 << 15), 1e-13)
    hats = [np.concatenate(power) for power in zip(*chunked)]  # per power, one row per node
    # contiguous once here: numpy would copy the window view before every product
    ha = np.ascontiguousarray(hankel_section(a, band))
    eye = np.eye(band * n)
    fill = _mirror if half else np.asarray

    def corner(table):
        # table[::-1] holds offsets -1, -2, ..., so block (j, k) is at -(j+k+1)
        return ha @ _block_hankel(table[::-1], band, band)

    if n == 1:
        traces = []
        for lam, t1, t2 in zip(nodes, *hats):
            try:
                solved = np.linalg.solve(eye - corner(t1), -corner(t2))
            except np.linalg.LinAlgError as exc:
                raise SpectrumTooClose(
                    f"determinant representation singular at lambda={lam:.6g}") from exc
            traces.append(np.trace(solved))
        traces = fill(np.array(traces))
        return complex(np.sum(fvals * traces * (contour.nodes - contour.center)) / k)
    # one corner at a time: stacking every node's corner raises the peak memory
    signs, logabs = zip(*(np.linalg.slogdet(eye - corner(t1)) for t1 in hats[0]))
    signs, logabs = fill(np.array(signs)), fill(np.array(logabs))
    if not signs.all():
        lam = contour.nodes[np.argmin(np.abs(signs))]
        raise SpectrumTooClose(f"determinant representation singular at lambda={lam:.6g}")
    # L is single-valued outside the disk: its phase must close along the nodes
    phase = np.unwrap(np.angle(np.append(signs, signs[:1])))
    turns = (phase[-1] - phase[0]) / (2 * np.pi)
    if abs(turns) > 0.5:
        raise SpectrumTooClose(
            f"log det M winds {round(turns)} times along the contour: a - lambda winds there")
    freqs = np.fft.fftfreq(k, 1.0 / k)
    if k % 2 == 0:
        freqs[k // 2] = 0.0  # the Nyquist bin has no odd derivative
    dl = np.fft.ifft(1j * freqs * np.fft.fft(logabs + 1j * phase[:-1]))
    return complex(np.sum(fvals * dl) / (1j * k))


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
