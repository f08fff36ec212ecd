"""Canonical Wiener-Hopf factorization of matrix symbols.

Right factorization a = u_minus u_plus and left factorization
a = v_plus v_minus, normalized by u_minus(inf) = I and v_minus(inf) = I
(equivalently f_minus(inf) = I for a^-1 = f_minus f_plus, f_pm = v_pm^-1,
as the normalization string has it).  The block path uses the finite
section method: one LU of T_m(a) gives the first block column of
T_m(a)^-1, which carries u_plus^-1, and, by a transposed solve, that of
T_m(a^T)^-1, which carries the transpose of v_plus^-1.  One rule serves
both sides: the minus factor is the minus part of the column times a,
the plus factor the plus part of the minus factor's inverse times a.
Its failure mode (ill-conditioning, large residuals) doubles as the
detector for nonzero partial indices.

The section is banded: with kl subdiagonals and ku superdiagonals (kl
and ku are about N times the positive and negative bandwidths of a), it
is built and factored in LAPACK band storage (gbtrf, gbcon, gbtrs), in
O(m N kl (kl + ku)) time and (2 kl + ku + 1)(m + 1) N complex entries of
memory.  The dense section is never formed; the dense routines of
toeplitz stay the oracles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .errors import IllConditionedSection, NonCanonical, SpectrumTooClose
from .symbol import (LaurentMatrixSeries, _block_maxima, _log_det, _offset_table,
                     _series_from_bins, _smallest_singular_values, _stacked,
                     _sum_in_order, _tail_cutoff, add_constant, certified_inverse,
                     multiply)

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class FactorDiagnostics:
    product_residual_right: float
    product_residual_left: float
    leakage: float


@dataclass(frozen=True, eq=False)
class WHFactors:
    """The four factor series with normalization and residual metadata.

    u_minus and v_minus are supported on offsets <= 0, u_plus and v_plus
    on offsets >= 0 (exactly, by construction; the mass removed from the
    wrong side is recorded as leakage).
    """

    u_minus: LaurentMatrixSeries
    u_plus: LaurentMatrixSeries
    v_plus: LaurentMatrixSeries
    v_minus: LaurentMatrixSeries
    residuals: FactorDiagnostics
    normalization: str = "u_minus(inf)=I, f_minus(inf)=I"


def _one_sided(series, side):
    """Zero the wrong-side offsets; return (cleaned, removed mass), the
    mass added block by block in the series' order."""
    n = series.block_size
    offsets, blocks = _stacked(series)
    wrong = offsets > 0 if side == "minus" else offsets < 0
    leak = _sum_in_order(_block_maxima(blocks[wrong], n))
    return LaurentMatrixSeries(n, dict(zip(offsets[~wrong].tolist(), blocks[~wrong]))), leak


def _series_tail_trim(series, tol=1e-14):
    """Drop outermost coefficients whose cumulative mass stays below tol."""
    offsets, blocks = _stacked(series)
    order = np.argsort(np.abs(offsets), kind="stable")
    return _tail_trim(offsets[order].tolist(), blocks[order], series.block_size, tol)


def _tail_trim(offsets, blocks, n, tol=1e-14):
    """The series of blocks[i] at offsets[i] (in order of |offset|) less the
    outermost blocks whose masses, added one at a time from the outermost,
    stay at most tol."""
    tail = np.cumsum(np.max(np.abs(np.reshape(blocks, (-1, n * n))), axis=1)[::-1])
    cut = int(np.count_nonzero(tail > tol))
    return LaurentMatrixSeries(n, dict(zip(offsets[:cut], blocks[:cut])))


def _common_grid(parts):
    return max([256] + [p.grid_size for p in parts])


def _product_residual(left, right, target):
    m = _common_grid((left, right, target))
    ls = left.sample(m).samples
    rs = right.sample(m).samples
    ts = target.sample(m).samples
    return float(np.max(np.abs(ls @ rs - ts)))


def _factors_margin(factors):
    """Smallest singular value of any factor's samples on their common grid."""
    m = _common_grid(factors)
    worst = np.inf
    for f in factors:
        margin = float(_smallest_singular_values(f.sample(m).samples).min())
        worst = min(worst, margin)
    return worst


# ---------------------------------------------------------------------------
# scalar path

def scalar_wiener_hopf(a):
    """Factorization of a nonvanishing scalar symbol by log splitting.

    The branch-continuous logarithm g = log a is split into g_minus
    (negative offsets) and g_plus (positive offsets plus the constant),
    and the factors are exp(g_minus), exp(g_plus).  Requires winding
    number zero.  g is sampled on the grid that symbol._log_det accepts:
    doubling from max(M, 1024) until the alias band of g (bins M/4..3M/4)
    is at most 1e-13 of max(1, its largest bin); NoConvergence is raised
    when that does not happen by 2^17 nodes.
    """
    if a.block_size != 1:
        raise ValueError("scalar path requires block size one")
    return _split_log(a, _log_det(a)[1])


def _split_log(a, ghat):
    """scalar_wiener_hopf's factors from ghat, the FFT of log a that
    symbol._log_det returns for the scalar symbol a."""
    m = len(ghat)
    plus_mask = np.arange(m) <= m // 2  # bins 0..m/2 hold offsets 0..m/2
    # samples of exp(g_plus) and exp(g_minus), and their FFTs
    samples = [np.exp(np.fft.ifft(np.where(mask, ghat, 0.0), norm="forward"))
               for mask in (plus_mask, ~plus_mask)]
    hats = [np.fft.fft(s, norm="forward") for s in samples]
    cutoff = min(max(_tail_cutoff(np.maximum(*np.abs(hats)), 1e-13)[0], 8), m // 2 - 1)
    (u_plus, leak_p), (u_minus, leak_m) = [
        _one_sided(_series_from_bins(s, hat[:, None, None], cutoff), side)
        for s, hat, side in zip(samples, hats, ("plus", "minus"))]
    leakage = max(leak_p, leak_m)
    residual = _product_residual(u_minus, u_plus, a)
    diag = FactorDiagnostics(product_residual_right=residual,
                             product_residual_left=residual,
                             leakage=leakage)
    # scalar factors commute, so the left factorization reuses them
    return WHFactors(u_minus=u_minus, u_plus=u_plus,
                     v_plus=u_plus, v_minus=u_minus, residuals=diag)


# ---------------------------------------------------------------------------
# block path

def _check_section(section):
    if section < 1:
        raise ValueError(f"section must be >= 1, got {section}")


def _clipped_support(a, m):
    """Offsets lo <= 0 <= hi spanning the support of a, clipped to -m..m:
    the diagonals of blocks that T_m(a) holds."""
    lo = max(min(min(a.coeffs, default=0), 0), -m)
    hi = min(max(max(a.coeffs, default=0), 0), m)
    return lo, hi


def _band_section(a, m):
    """T_m(a) in LAPACK band storage for gbtrf: returns (ab, kl, ku).

    Block (J, K) of T_m(a) is a_{J-K}, so with lo, hi from
    _clipped_support entry (i, j) is nonzero only for -ku <= i - j <= kl,
    kl = (hi + 1) N - 1 and ku = (1 - lo) N - 1, both at most
    dim - 1 = (m + 1) N - 1 by the clipping.  Entry (i, j) sits at
    ab[kl + ku + i - j, j]; the top kl rows are gbtrf's room for fill-in.
    Column (K, s) holds the s-th columns of the blocks a_lo..a_hi stacked,
    the same vector for every K, so the band is one broadcast of the
    offset table, times a 0/1 mask that zeroes the two corner triangles
    falling outside the matrix.  The array is in Fortran order, so gbtrf
    can factor it in place.
    """
    n = a.block_size
    dim = (m + 1) * n
    lo, hi = _clipped_support(a, m)
    kl, ku = (hi + 1) * n - 1, (1 - lo) * n - 1
    ldab = 2 * kl + ku + 1
    stacked = _offset_table(a, lo, hi).reshape(-1, n)  # row (d - lo) N + r
    template = np.zeros((n, ldab), dtype=complex)
    for s in range(n):  # a_lo[0, s] sits at i - j = lo N - s
        template[s, kl + n - 1 - s:ldab - s] = stacked[:, s]
    # band row q of column j holds matrix row q - kl - ku + j, which lies in
    # the matrix exactly when kl + ku <= q + j < dim + kl + ku: a 0/1 Hankel
    inside = np.zeros(dim + ldab - 1)
    inside[kl + ku:dim + kl + ku] = 1.0
    hankel = sliding_window_view(inside, ldab).reshape(m + 1, n, ldab)
    ab = np.multiply(hankel, template)  # row K N + s is column (K, s)
    return ab.reshape(dim, ldab).T, kl, ku


def _section_norms(a, m):
    """1-norm and inf-norm of T_m(a), read from the blocks of a.

    Block row J meets the offsets d with 0 <= J - d <= m, and block column
    K those with 0 <= (m - K) - d <= m, so row J and column m - K sum the
    same window of offsets: one 0/1 window matrix times the row sums and
    the column sums of the |a_d| gives every row and column sum.
    """
    lo, hi = _clipped_support(a, m)
    mag = np.abs(_offset_table(a, lo, hi))[::-1]  # offsets hi down to lo
    box = np.zeros(m + hi - lo + 1)
    box[hi:hi + m + 1] = 1.0  # J - d = 0..m
    meets = sliding_window_view(box, hi - lo + 1)  # [J, hi - d]
    return {"1": float((meets @ mag.sum(axis=1)).max()),
            "I": float((meets @ mag.sum(axis=2)).max())}


def _first_column_solve(a, m):
    """The u_plus^-1 and v_plus^-1 coefficients of a from one band LU of T_m(a).

    The first block column of T_m(a)^-1 carries u_plus^-1.  Its transpose
    a^T = v_minus^T v_plus^T is the right factorization of a^T, so the
    first block column of T_m(a^T)^-1 carries (v_plus^T)^-1.  With J the
    block flip, T_m(a^T) = J T_m(a)^T J: that column is the block-reversed
    solution of T_m(a)^T Y = E_m, a transposed solve on the same LU.
    """
    n = a.block_size
    norms = _section_norms(a, m)
    ab, kl, ku = _band_section(a, m)
    lapack = scipy.linalg.lapack
    lu, piv, info = lapack.zgbtrf(ab, kl, ku, overwrite_ab=1)
    # the "1" norm conditions the solve, the "I" norm the transposed one;
    # an exact zero pivot (info > 0) counts as condition estimate 1e300
    for norm, anorm in norms.items():
        rcond = lapack.zgbcon(kl, ku, lu, piv, anorm, norm=norm)[0] if info == 0 else 0.0
        if rcond < 1e-10:
            raise IllConditionedSection(
                f"section condition estimate {1.0 / max(rcond, 1e-300):.3e} exceeds 1e10")
    e0 = np.zeros(((m + 1) * n, n), dtype=complex)
    e0[:n, :n] = np.eye(n)
    x, _ = lapack.zgbtrs(lu, kl, ku, e0, piv)
    em = np.zeros_like(e0)
    em[-n:, :] = np.eye(n)
    y, _ = lapack.zgbtrs(lu, kl, ku, em, piv, trans=1)
    # block j of u_plus^-1 is rows j n.. of x, of v_plus^-1 rows (m - j) n.. of y, transposed
    return (_tail_trim(range(m + 1), x.reshape(m + 1, n, n), n),
            _tail_trim(range(m + 1), y.reshape(m + 1, n, n)[::-1].transpose(0, 2, 1), n))


def _side(series, side):
    """Trim the round-off tail, then zero the wrong side (with its mass)."""
    return _one_sided(_series_tail_trim(series), side)


def _block_wh_once(a, m):
    uplus_inv, vplus_inv = _first_column_solve(a, m)
    # P_-(column a) reads the first W + 1 blocks (W the negative bandwidth of a),
    # P_+(minus^-1 a) the minus factor: the far column blocks reach only the leakage
    u_minus, leak_um = _side(multiply(a, uplus_inv), "minus")
    u_plus, leak_up = _side(multiply(certified_inverse(u_minus, tol=1e-13), a), "plus")
    v_minus, leak_vm = _side(multiply(vplus_inv, a), "minus")
    v_plus, leak_vp = _side(multiply(a, certified_inverse(v_minus, tol=1e-13)), "plus")
    diag = FactorDiagnostics(
        product_residual_right=_product_residual(u_minus, u_plus, a),
        product_residual_left=_product_residual(v_plus, v_minus, a),
        leakage=max(leak_up, leak_um, leak_vm, leak_vp))
    return WHFactors(u_minus=u_minus, u_plus=u_plus,
                     v_plus=v_plus, v_minus=v_minus, residuals=diag)


def block_wiener_hopf(a, section=256, tol=DEFAULT_TOL):
    """Finite-section canonical factorization of a matrix symbol.

    One band LU of T_m(a) yields u_plus^-1 and, by a transposed solve,
    v_plus^-1 (_first_column_solve).  Then, each product cut to its side,
    u_minus = a u_plus^-1, u_plus = u_minus^-1 a, v_minus = v_plus^-1 a and
    v_plus = a v_minus^-1.  With kl and ku the sub- and superdiagonals of
    the section (_band_section), a pass costs O(m N kl (kl + ku)) time and
    (2 kl + ku + 1)(m + 1) N band entries.  If the product residuals or the
    one-sided leakage exceed ``tol``, the section is doubled once;
    persistent failure raises NonCanonical (the symptom of nonzero partial
    indices).  A section whose condition estimate exceeds 1e10 raises
    IllConditionedSection, and a section below 1 raises ValueError.
    """
    _check_section(section)
    last = None
    for m in (section, 2 * section):
        w = _block_wh_once(a, m)
        r = w.residuals
        if max(r.product_residual_right, r.product_residual_left,
               r.leakage) <= tol:
            return w
        last = w
    r = last.residuals
    raise NonCanonical(
        "residuals stay above tolerance after doubling the section: "
        f"right={r.product_residual_right:.3e} left={r.product_residual_left:.3e} "
        f"leakage={r.leakage:.3e}")


def canonical_wiener_hopf(a, section=256):
    """Dispatch to the scalar or block factorization path."""
    _check_section(section)
    if a.block_size == 1:
        return scalar_wiener_hopf(a)
    return block_wiener_hopf(a, section=section)


# ---------------------------------------------------------------------------
# derived symbols and sweeps

def correction_symbols(w):
    """The pair b = v_minus u_plus^-1 and c = u_minus^-1 v_plus; b c = I.

    These are the symbols whose Toeplitz and Hankel tails build the
    correction terms of the determinant expansion.
    """
    uplus_inv = certified_inverse(w.u_plus, tol=1e-13)
    uminus_inv = certified_inverse(w.u_minus, tol=1e-13)
    b = _series_tail_trim(multiply(w.v_minus, uplus_inv))
    c = _series_tail_trim(multiply(uminus_inv, w.v_plus))
    return b, c


@dataclass(frozen=True, eq=False)
class FactorizationSweep:
    """Factorizations of a - lambda along a contour, with diagnostics."""

    factors: tuple
    continuity_diagnostic: float
    max_product_residual: float


def factorization_sweep(a, contour, section=256):
    """Factor a - lambda at every contour node.

    The normalization pins the factors uniquely, so continuity along the
    contour is a meaningful diagnostic.  Because the plus factors absorb
    the full -lambda drift, the raw difference between nodes scales with
    the node spacing even for constant symbols; the diagnostic therefore
    gauges each factor by its offset-zero block before comparing, and
    reports the largest sup-norm difference of these gauged factors at
    adjacent nodes (including the wrap-around pair).
    """
    factors = []
    for lam in contour.nodes:
        shifted = add_constant(a, -lam)
        try:
            factors.append(block_wiener_hopf(shifted, section=section))
        except IllConditionedSection as exc:
            raise SpectrumTooClose(
                f"section nearly singular at lambda={lam:.6g}: {exc}") from exc
    grid = _common_grid([f for w in factors
                         for f in (w.u_minus, w.u_plus, w.v_plus, w.v_minus)])
    # (K, 4, M, N, N); the roll pairs each node with the next, the last with the first
    gauged = np.array([[np.linalg.inv(f.block(0)) @ f.sample(grid).samples
                        for f in (w.u_minus, w.u_plus, w.v_plus, w.v_minus)]
                       for w in factors])
    continuity = float(np.max(np.abs(gauged - np.roll(gauged, -1, axis=0))))
    max_res = max(max(w.residuals.product_residual_right,
                      w.residuals.product_residual_left) for w in factors)
    return FactorizationSweep(tuple(factors), continuity, max_res)
