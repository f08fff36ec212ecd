"""Matrix-valued functions on the unit circle stored as Laurent coefficients.

A symbol is a finitely supported map from integer offsets to N x N complex
blocks.  Coefficients are the source of truth; uniform sample grids are
derived caches used for transforms and quadrature.  All values are
immutable after construction and every operation is a pure function.
"""
from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (BlockSizeMismatch, CutoffTooLarge, GridTooCoarse,
                     NoConvergence, NonZeroWinding, SingularSymbol)

#: blocks whose largest entry is below this times the data scale are dropped
#: when extracting coefficients from samples (FFT round-off, not signal)
_NOISE_FACTOR = 64 * np.finfo(float).eps

#: largest number of samples (2 MB of complex128) in one batched array
_BATCH_SAMPLES = 1 << 17


def _pow2_at_least(x):
    return 1 << max(1, int(x) - 1).bit_length() if x > 1 else 2


def default_grid_size(max_offset):
    """Smallest power of two >= max(256, 8 * max_offset)."""
    return _pow2_at_least(max(256, 8 * max_offset))


def _check_grid(m, max_offset=0):
    """Raise GridTooCoarse unless m is a power of two above 2 max_offset,
    so that a grid of m nodes resolves offsets up to max_offset."""
    if m < 2 or m & (m - 1):
        raise GridTooCoarse(f"grid size {m} is not a power of two")
    if m <= 2 * max_offset:
        raise GridTooCoarse(f"grid size {m} aliases offsets up to {max_offset}")


def _coerce_block(value, n):
    arr = np.asarray(value, dtype=complex)
    if arr.shape == () and n == 1:
        arr = arr.reshape(1, 1)
    if arr.shape != (n, n):
        raise BlockSizeMismatch(f"expected {n}x{n} block, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("symbol blocks must be finite")
    return arr


def _normalize_coeffs(coeffs, n):
    """Read-only copies of the nonzero blocks, keyed by int offset in the
    order given.  Well-shaped input is checked in one array pass; ragged
    or mis-shaped input goes block by block, which names the first fault."""
    try:
        blocks = np.array(list(coeffs.values()), dtype=complex)
    except (TypeError, ValueError):
        blocks = None
    if blocks is None or blocks.shape != (len(coeffs), n, n):
        blocks = np.array([_coerce_block(v, n) for v in coeffs.values()],
                          dtype=complex).reshape(-1, n, n)
    elif not np.all(np.isfinite(blocks)):
        raise ValueError("symbol blocks must be finite")
    blocks.setflags(write=False)
    keep = np.any(blocks != 0, axis=(1, 2))
    return {int(k): blk for k, blk, kept in zip(coeffs, blocks, keep) if kept}


@dataclass(frozen=True, eq=False)
class LaurentMatrixSeries:
    """Finitely supported Fourier coefficient sequence of an N x N symbol.

    Parameters
    ----------
    block_size : int
        Block dimension N.
    coeffs : dict
        Map offset -> N x N complex block.  All-zero blocks are dropped;
        absent offsets are the zero block.
    grid_size : int, optional
        Power-of-two sample count used for transforms.  Zero selects the
        default, the smallest power of two >= max(256, 8 K) where K is the
        largest stored |offset|.  Must exceed 2 K so that round-trips do
        not alias.
    smoothness_tag : float, optional
        Advisory Hoelder-Zygmund exponent of the symbol (metadata only).
    """

    block_size: int
    coeffs: dict
    grid_size: int = 0
    smoothness_tag: float | None = None

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        object.__setattr__(self, "coeffs",
                           _normalize_coeffs(self.coeffs, self.block_size))
        k_max = self.max_offset
        if self.grid_size == 0:
            object.__setattr__(self, "grid_size", default_grid_size(k_max))
        else:
            _check_grid(self.grid_size, k_max)

    @property
    def max_offset(self):
        return max((abs(k) for k in self.coeffs), default=0)

    def support(self):
        return sorted(self.coeffs)

    def block(self, k):
        blk = self.coeffs.get(int(k))
        if blk is None:
            return np.zeros((self.block_size, self.block_size), dtype=complex)
        return blk

    def sample(self, grid_size=None):
        """Evaluate on the uniform grid t_j = exp(2 pi i j / M) via FFT."""
        m = self.grid_size if grid_size is None else int(grid_size)
        _check_grid(m, self.max_offset)
        n = self.block_size
        stacked = np.array(list(self.coeffs.values()), dtype=complex).reshape(-1, n, n)
        return SymbolGrid(n, _sample_rows(list(self.coeffs), stacked[None], m)[0])

    def eval(self, theta):
        return evaluate(self, theta)


@dataclass(frozen=True, eq=False)
class SymbolGrid:
    """Samples of a symbol on the uniform M-point grid (evaluation cache)."""

    block_size: int
    samples: np.ndarray  # (M, N, N) complex

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=complex)
        if arr.ndim == 1:
            arr = arr[:, None, None]
        if arr.ndim != 3 or arr.shape[1:] != (self.block_size, self.block_size):
            raise BlockSizeMismatch(
                f"samples have shape {arr.shape}, expected (M, N, N)")
        _check_grid(arr.shape[0])
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def grid_size(self):
        return self.samples.shape[0]


# ---------------------------------------------------------------------------
# constructors

def scalar_symbol(coeffs, grid_size=0, smoothness_tag=None):
    """Scalar (1 x 1) series from a map offset -> complex number."""
    blocks = {k: np.array([[v]], dtype=complex) for k, v in coeffs.items()}
    return LaurentMatrixSeries(1, blocks, grid_size, smoothness_tag)


def identity_symbol(block_size=1):
    return LaurentMatrixSeries(block_size, {0: np.eye(block_size)})


def constant_symbol(block):
    arr = np.atleast_2d(np.asarray(block, dtype=complex))
    return LaurentMatrixSeries(arr.shape[0], {0: arr})


def add_constant(a, value):
    """Return a + c I (c scalar) or a + C (C an N x N block)."""
    n = a.block_size
    arr = np.asarray(value, dtype=complex)
    if arr.shape == ():
        arr = arr * np.eye(n)
    coeffs = dict(a.coeffs)
    coeffs[0] = a.block(0) + arr
    return LaurentMatrixSeries(n, coeffs, a.grid_size, a.smoothness_tag)


def zygmund_symbol(gamma, levels, seed=None):
    """Scalar lacunary test symbol with prescribed smoothness exponent.

    Sum over j = 0..levels of 2^(-gamma j) cos(2^j theta + phi_j), shifted
    by 2 + sum_j 2^(-gamma j) so the symbol stays >= 2 on the circle and
    has winding number zero.  ``seed`` draws the phases phi_j from a fixed
    generator; None means all phases zero.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if seed is None:
        phases = np.zeros(levels + 1)
    else:
        phases = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, levels + 1)
    amps = 2.0 ** (-gamma * np.arange(levels + 1))
    coeffs = {0: complex(2.0 + amps.sum())}
    for j in range(levels + 1):
        k = 1 << j
        w = amps[j] / 2.0
        coeffs[k] = coeffs.get(k, 0.0) + w * np.exp(1j * phases[j])
        coeffs[-k] = coeffs.get(-k, 0.0) + w * np.exp(-1j * phases[j])
    return scalar_symbol(coeffs, smoothness_tag=float(gamma))


# ---------------------------------------------------------------------------
# transforms and arithmetic

def _block_maxima(blocks, n):
    """Largest entry modulus of each n x n block, as one reduction over
    the stacked blocks; a list of floats."""
    if not len(blocks):
        return []
    return np.max(np.abs(np.reshape(blocks, (-1, n * n))), axis=1).tolist()


def _sum_in_order(values):
    """The values added one at a time from 0.0, in order (``sum`` adds
    floats with compensation from Python 3.12 on, ``np.sum`` pairwise)."""
    return functools.reduce(operator.add, values, 0.0)


def coefficients_from_samples(grid, cutoff):
    """Extract coefficients for |k| <= cutoff from grid samples.

    Returns (series, tail_energy) where tail_energy is the l2 mass of the
    discarded FFT bins (offsets outside [-cutoff, cutoff]).  Requires
    M >= 2 cutoff + 2 so the kept bins are unambiguous.
    """
    m = grid.grid_size
    cutoff = int(cutoff)
    if 2 * cutoff + 2 > m:
        raise CutoffTooLarge(f"cutoff {cutoff} needs a grid larger than {m}")
    hat = np.fft.fft(grid.samples, axis=0, norm="forward")
    scale = float(np.max(np.abs(grid.samples))) if grid.samples.size else 0.0
    tol = _NOISE_FACTOR * scale
    offsets = range(-cutoff, cutoff + 1)
    masses = _block_maxima(hat[np.asarray(offsets) % m], grid.block_size)
    coeffs = {k: hat[k % m] for k, mass in zip(offsets, masses) if mass > tol}
    kept = {k % m for k in offsets}
    tail_mask = np.ones(m, dtype=bool)
    tail_mask[sorted(kept)] = False
    tail_energy = float(np.sqrt(np.sum(np.abs(hat[tail_mask]) ** 2)))
    series = LaurentMatrixSeries(grid.block_size, coeffs)
    return series, tail_energy


def evaluate(a, theta):
    """Finite Laurent sum at angle(s) theta, shape (..., N, N)."""
    th = np.asarray(theta, dtype=float)
    n = a.block_size
    out = np.zeros(th.shape + (n, n), dtype=complex)
    for k, blk in a.coeffs.items():
        out += np.exp(1j * k * th)[..., None, None] * blk
    return out


def reverse(a):
    """Index reversal t -> 1/t: output block at k equals input block at -k."""
    return LaurentMatrixSeries(a.block_size, {-k: blk for k, blk in a.coeffs.items()},
                               a.grid_size, a.smoothness_tag)


def multiply(a, b):
    """Exact block convolution; support widens additively."""
    if a.block_size != b.block_size:
        raise BlockSizeMismatch(
            f"block sizes differ: {a.block_size} vs {b.block_size}")
    if not a.coeffs or not b.coeffs:
        return LaurentMatrixSeries(a.block_size, {})
    right = np.stack(list(b.coeffs.values()))
    right_offsets = np.array(list(b.coeffs))
    lo = min(a.coeffs) + right_offsets.min()
    size = max(a.coeffs) + right_offsets.max() - lo + 1
    table = np.empty((size,) + right.shape[1:], dtype=complex)
    filled = np.zeros(size, dtype=bool)
    order = []
    # one row of products per left block; each output offset sums its
    # products in left-block order, and its first product is assigned
    # rather than added to zero, so that -0.0 entries survive
    for k1, b1 in a.coeffs.items():
        rows = right_offsets + (k1 - lo)
        prods = b1 @ right
        new = ~filled[rows]
        table[rows[new]] = prods[new]
        table[rows[~new]] += prods[~new]
        filled[rows] = True
        order.append(rows[new])
    rows = np.concatenate(order)
    return LaurentMatrixSeries(a.block_size,
                               dict(zip((rows + lo).tolist(), table[rows])))


def _row_chunks(rows, row_size):
    """Slices over ``rows`` rows of ``row_size`` samples each, holding at
    most _BATCH_SAMPLES samples per slice (at least one row)."""
    step = max(1, _BATCH_SAMPLES // row_size)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _sample_rows(offsets, table, m):
    """Samples on the M-point grid of one series per row of ``table``.

    table[r, i] is the block of series r at offsets[i]; the result has
    shape (R, M, N, N).  LaurentMatrixSeries.sample is the one-row case.
    """
    carr = np.zeros((table.shape[0], m) + table.shape[2:], dtype=complex)
    carr[:, np.asarray(offsets, dtype=int) % m] += table
    return np.fft.ifft(carr, axis=1, norm="forward")


# blocks whose smallest singular value is at most this count as singular
_SINGULAR_FLOOR = 1e-10


def _smallest_singular_values(samples):
    """Exact smallest singular value of each block of samples (..., N, N)."""
    if samples.shape[-1] == 1:
        return np.abs(samples[..., 0, 0])
    return np.linalg.svd(samples, compute_uv=False)[..., -1]


def _guarded_inverse(samples):
    """Inverse of every block of samples (..., N, N), with the margins a
    caller needs to reject blocks whose smallest singular value is at most
    _SINGULAR_FLOOR.

    Returns (inv, margins).  margins is None when sigma_min(A) >=
    1 / ||A^-1||_F certifies every block.  That needs two things of each
    computed inverse X: 1 / ||X||_F must exceed 2 _SINGULAR_FLOOR, and
    eps ||A||_F ||X||_F must be at most 1e-6, so that X is accurate
    enough (relative error far below 1/2) that ||A^-1||_F <= 2 ||X||_F
    and rounding cannot flip the decision.  Otherwise margins holds the
    exact smallest singular values, shape (...), and the caller tests
    them; for N = 1 they are the magnitudes, which cost nothing.  inv is
    None when LAPACK finds a block exactly singular (some margin is then
    at most the floor; if none is, the LinAlgError propagates).
    """
    if samples.shape[-1] == 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / samples, _smallest_singular_values(samples)
    try:
        inv = np.linalg.inv(samples)
    except np.linalg.LinAlgError:
        margins = _smallest_singular_values(samples)
        if margins.min() > _SINGULAR_FLOOR:
            raise
        return None, margins
    inv2 = (inv.real ** 2 + inv.imag ** 2).sum(axis=(-2, -1))
    a2 = (samples.real ** 2 + samples.imag ** 2).sum(axis=(-2, -1))
    cond2 = (a2 * inv2).max()  # squared Frobenius condition number
    if (inv2.max() * (2 * _SINGULAR_FLOOR) ** 2 < 1.0
            and cond2 * np.finfo(float).eps ** 2 <= 1e-12):
        return inv, None
    return inv, _smallest_singular_values(samples)


def _refine(step, start, cap, tol):
    """Adaptive doubling: call step(m) at m = start, 2 start, ... <= cap.

    ``step`` returns (value, gap), a value and the certificate of its own
    accuracy; the first value whose gap is at most ``tol`` is returned.
    Otherwise NoConvergence names the stage (the function that defines
    ``step``), the last resolution and the last gap.
    """
    stage = step.__qualname__.split(".")[0]
    m, gap = start, None
    while m <= cap:
        value, gap = step(m)
        if gap <= tol:
            return value
        m *= 2
    if gap is None:
        raise NoConvergence(f"{stage}: start resolution {start} exceeds the cap {cap}")
    raise NoConvergence(
        f"{stage}: gap {gap:.3e} above tolerance {tol:g} at the cap resolution {m // 2}")


def _tail_cutoff(mass, tol):
    """Cutoff and alias mass of per-bin coefficient masses on an M-point grid.

    The cutoff is the smallest |offset| beyond which the summed mass is at
    most ``tol`` (M/2 - 1 when there is none); callers clamp it to their
    own range.  The alias mass sums the bins at |offset| > M/4.
    """
    m = len(mass)
    # offsets in [-m/2, m/2); alias band is the outer half
    offsets = np.where(np.arange(m) < m - m // 2, np.arange(m),
                       np.arange(m) - m)
    order = np.argsort(np.abs(offsets))
    sorted_mass = mass[order]
    dist = np.abs(offsets[order])
    tail = np.concatenate((np.cumsum(sorted_mass[::-1])[::-1][1:], [0.0]))
    good = np.nonzero(tail <= tol)[0]
    cutoff = int(dist[good[0]]) if len(good) else m // 2 - 1
    return cutoff, float(sorted_mass[dist > m // 4].sum())


def certified_inverse(a, tol=1e-13):
    """Pointwise inverse with the cutoff and grid enlarged until the
    discarded coefficient mass is below ``tol``.

    The grid doubles from max(M, 512) until the alias band (offsets beyond
    M/4) carries at most ``tol``; NoConvergence is raised when that does
    not happen by 2^17 nodes.  The cutoff keeps every offset whose outer
    tail exceeds ``tol``, and at least the support of a.  Raises
    SingularSymbol when the smallest singular value on a grid is <= 1e-10.
    The guard costs two Frobenius norms per grid: an SVD of the samples
    runs only when 1 / ||a^-1||_F does not certify the margin or the
    inverse is too ill-conditioned to trust (see _guarded_inverse).
    """
    def step(m):
        samples = a.sample(m).samples
        inv, margins = _guarded_inverse(samples)
        if margins is not None:
            worst = int(np.argmin(margins))
            if margins[worst] <= _SINGULAR_FLOOR:
                theta = 2 * np.pi * worst / m
                raise SingularSymbol(
                    f"smallest singular value {margins[worst]:.3e} at theta={theta:.6f}")
        hat = np.fft.fft(inv, axis=0, norm="forward")
        cutoff, alias_mass = _tail_cutoff(np.max(np.abs(hat), axis=(1, 2)), tol)
        return (inv, cutoff), alias_mass

    inv, cutoff = _refine(step, max(a.grid_size, 512), 1 << 17, tol)
    cutoff = min(max(cutoff, a.max_offset, 1), len(inv) // 2 - 1)
    series, _ = coefficients_from_samples(SymbolGrid(a.block_size, inv), cutoff)
    return series


def _raise_singular(absv):
    j = int(np.argmin(absv))
    raise SingularSymbol(f"determinant magnitude {absv[j]:.3e} at grid node {j}")


#: fault codes of _winding_rows
_SINGULAR, _STEEP, _OFF_MULTIPLE = 1, 2, 3


def _winding_rows(det):
    """Winding decision for closed curves sampled along the rows of det (R, M).

    Returns (w, fault, steps) per row: the steps are the phase increments
    between consecutive samples, each in (-pi, pi], and w is their total
    over 2 pi, rounded.  fault is 0 when the row winds w times, _SINGULAR
    when it comes within 1e-12 of zero (relative to its largest
    magnitude), _STEEP when a step reaches pi/2 (the grid is too coarse to
    track the branch) and _OFF_MULTIPLE when the total is more than 0.5
    away from 2 pi w; w is 0 for a faulty row.
    """
    absv = np.abs(det)
    scale = absv.max(axis=-1)
    singular = (scale == 0.0) | (absv.min(axis=-1) <= 1e-12 * scale)
    # a singular row may hold exact zeros; its steps are not used
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.angle(np.roll(det, -1, axis=-1) / det)
        total = steps.sum(axis=-1)
        max_step = np.abs(steps).max(axis=-1)
        w = np.rint(total / (2 * np.pi))
        fault = np.select(
            [singular, max_step >= np.pi / 2, np.abs(total - 2 * np.pi * w) > 0.5],
            [_SINGULAR, _STEEP, _OFF_MULTIPLE], 0)
        w = np.where(fault == 0, w, 0).astype(int)
    return w, fault, steps


def _det_samples(a, m):
    """det a on the M-point grid; for N = 1 the symbol's own samples."""
    samples = a.sample(m).samples
    return samples[:, 0, 0] if a.block_size == 1 else np.linalg.det(samples)


def winding_number(a):
    """Winding number of theta -> det a(e^{i theta}) around zero, on a's grid.

    Raises SingularSymbol when the determinant comes within 1e-12 of zero
    relative to its largest magnitude, and GridTooCoarse when any per-step
    phase jump reaches pi/2, which signals that the grid is too coarse to
    track the branch.
    """
    det = _det_samples(a, a.grid_size)
    (w,), (fault,), (steps,) = _winding_rows(det[None])
    if fault == _SINGULAR:
        _raise_singular(np.abs(det))
    if fault == _STEEP:
        raise GridTooCoarse(f"phase step {np.abs(steps).max():.3f} >= pi/2 "
                            f"on a grid of {a.grid_size} nodes")
    if fault == _OFF_MULTIPLE:
        raise GridTooCoarse(
            f"accumulated phase {steps.sum():.6f} is not close to a multiple of 2 pi")
    return int(w)


def _log_det(a):
    """Branch-continuous log det a on the first grid that resolves it.

    Returns (g, ghat): the log samples on the accepted M-point grid and
    their FFT (norm "forward", so ghat[k] is the coefficient at offset k
    for |k| < M/4).  The grid doubles from max(M, 1024) up to 2^17 nodes.
    On each grid the winding decision of _winding_rows is taken: a
    singular determinant raises SingularSymbol and a nonzero winding
    number NonZeroWinding, while a steep or off-multiple phase total
    (the grid cannot track the branch) rejects the grid.  The phase
    accumulates the steps between consecutive samples, each in (-pi, pi],
    from the angle of the first.  A grid is accepted when the alias band
    (bins M/4..3M/4) holds at most 1e-13 of max(1, largest bin);
    NoConvergence is raised when none is by the cap.
    """
    def log_det(m):
        det = _det_samples(a, m)
        (w,), (fault,), (steps,) = _winding_rows(det[None])
        if fault == _SINGULAR:
            _raise_singular(np.abs(det))
        if w != 0:
            raise NonZeroWinding(f"winding number {w} != 0")
        if fault:
            return None, np.inf
        phase = np.angle(det[0]) + np.concatenate(([0.0], np.cumsum(steps[:-1])))
        g = np.log(np.abs(det)) + 1j * phase
        ghat = np.fft.fft(g, norm="forward")
        alias = float(np.abs(ghat[m // 4: 3 * m // 4]).sum())
        return (g, ghat), alias / max(1.0, float(np.abs(ghat).max()))

    return _refine(log_det, max(a.grid_size, 1024), 1 << 17, 1e-13)


# ---------------------------------------------------------------------------
# JSON persistence
#
# Schema: { "n": N, "coeffs": [ { "k": int, "re": [[...]], "im": [[...]] } ],
#           "gamma": optional number }.
# Floats are serialized with 17 significant digits so that write/read
# round-trips are bit exact.

def _fmt(x):
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite value")
    return format(float(x), ".17g")


def _fmt_matrix(mat):
    rows = ("[" + ", ".join(_fmt(v) for v in row) + "]" for row in mat)
    return "[" + ", ".join(rows) + "]"


def symbol_to_json(a):
    entries = []
    for k in a.support():
        blk = a.coeffs[k]
        entries.append('{"k": %d, "re": %s, "im": %s}'
                       % (k, _fmt_matrix(blk.real), _fmt_matrix(blk.imag)))
    text = '{"n": %d, "coeffs": [%s]' % (a.block_size, ", ".join(entries))
    if a.smoothness_tag is not None:
        text += ', "gamma": %s' % _fmt(a.smoothness_tag)
    return text + "}\n"


def symbol_from_json(text):
    # every number parses as a float, so that "-0" keeps its sign
    data = json.loads(text, parse_int=float) if isinstance(text, str) else text
    n = int(data["n"])
    coeffs = {}
    for entry in data.get("coeffs", []):
        blk = np.asarray(entry["re"], dtype=complex)
        blk.imag = entry["im"]  # re + 1j * im would turn -0.0 into 0.0
        coeffs[int(entry["k"])] = blk
    gamma = data.get("gamma")
    return LaurentMatrixSeries(n, coeffs,
                               smoothness_tag=None if gamma is None else float(gamma))


def save_symbol(a, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(symbol_to_json(a))


def load_symbol(path):
    with open(path, "r", encoding="ascii") as fh:
        return symbol_from_json(fh.read())
