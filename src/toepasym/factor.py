"""Canonical Wiener-Hopf factorization of matrix symbols.

Right factorization a = u_minus u_plus and left factorization
a = v_plus v_minus, normalized by u_minus(inf) = I and v_minus(inf) = I
(equivalently f_minus(inf) = I for a^-1 = f_minus f_plus, f_pm = v_pm^-1,
as the normalization string has it).  The block path uses the finite
section method: one LU of T_m(a) gives the first block column of
T_m(a)^-1, which carries the coefficients of u_plus^-1, and, by a
transposed solve, that of T_m(a^T)^-1, which carries the transposed
coefficients of v_plus^-1.  Its failure mode (ill-conditioning, large
residuals) doubles as the detector for nonzero partial indices.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import IllConditionedSection, NonCanonical, SpectrumTooClose
from .symbol import (LaurentMatrixSeries, SymbolGrid, _block_maxima, _refine,
                     _smallest_singular_values, _sum_in_order, _tail_cutoff,
                     _zero_winding_log, add_constant, certified_inverse,
                     coefficients_from_samples, multiply)
from .toeplitz import toeplitz_section

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
    """Zero the wrong-side offsets; return (cleaned, removed mass)."""
    kept, removed = {}, []
    for k, blk in series.coeffs.items():
        wrong = k > 0 if side == "minus" else k < 0
        if wrong:
            removed.append(blk)
        else:
            kept[k] = blk
    leak = _sum_in_order(_block_maxima(removed, series.block_size))
    return LaurentMatrixSeries(series.block_size, kept), leak


def _series_tail_trim(series, tol=1e-14):
    """Drop outermost coefficients whose cumulative mass stays below tol."""
    items = sorted(series.coeffs.items(), key=lambda kv: abs(kv[0]))
    mass = _block_maxima([blk for _, blk in items], series.block_size)
    total = 0.0
    cut = len(items)
    for i in range(len(items) - 1, -1, -1):
        total += mass[i]
        if total > tol:
            break
        cut = i
    return LaurentMatrixSeries(series.block_size, dict(items[:cut]))


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
    number zero.  The log is sampled on a grid doubled from
    max(M, 1024) until its alias band is negligible; NoConvergence is
    raised when that does not happen by 2^17 nodes.
    """
    if a.block_size != 1:
        raise ValueError("scalar path requires block size one")

    def step(m, prev):
        ghat = np.fft.fft(_zero_winding_log(a.sample(m).samples[:, 0, 0]), norm="forward")
        alias = float(np.abs(ghat[m // 4: 3 * m // 4]).sum())
        return ghat, alias / max(1.0, float(np.abs(ghat).max()))

    ghat = _refine(step, max(a.grid_size, 1024), 1 << 17, 1e-13)
    m = len(ghat)
    idx = np.arange(m)
    plus_mask = (idx <= m // 2)  # bins 0..m/2 hold offsets 0..m/2
    gp = np.fft.ifft(np.where(plus_mask, ghat, 0.0), norm="forward")
    gm = np.fft.ifft(np.where(~plus_mask, ghat, 0.0), norm="forward")
    up_samples = np.exp(gp)
    um_samples = np.exp(gm)
    mass = np.maximum(np.abs(np.fft.fft(up_samples, norm="forward")),
                      np.abs(np.fft.fft(um_samples, norm="forward")))
    cutoff = min(max(_tail_cutoff(mass, 1e-13)[0], 8), m // 2 - 1)
    grid_p = SymbolGrid(1, up_samples[:, None, None])
    grid_m = SymbolGrid(1, um_samples[:, None, None])
    up_raw, _ = coefficients_from_samples(grid_p, cutoff)
    um_raw, _ = coefficients_from_samples(grid_m, cutoff)
    u_plus, leak_p = _one_sided(up_raw, "plus")
    u_minus, leak_m = _one_sided(um_raw, "minus")
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


def _first_column_solve(a, m):
    """The u_plus^-1 and v_plus^-1 coefficients of a from one LU of T_m(a).

    The first block column of T_m(a)^-1 carries u_plus^-1.  Its transpose
    a^T = v_minus^T v_plus^T is the right factorization of a^T, so the
    first block column of T_m(a^T)^-1 carries (v_plus^T)^-1.  With J the
    block flip, T_m(a^T) = J T_m(a)^T J: that column is the block-reversed
    solution of T_m(a)^T Y = E_m, a transposed solve on the same LU.
    """
    n = a.block_size
    t = toeplitz_section(a, m)
    # both norms before the LU, so no |t| temporary sits beside its copy
    norms = {"1": float(np.linalg.norm(t, 1)), "I": float(np.linalg.norm(t, np.inf))}
    try:
        # the section copies blocks of a LaurentMatrixSeries, whose
        # construction (_normalize_coeffs) rejects non-finite blocks; an
        # exactly singular section warns here and fails the rcond check
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(t, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise IllConditionedSection(str(exc)) from exc
    gecon = scipy.linalg.get_lapack_funcs("gecon", (t,))
    # the "1" norm conditions the solve, the "I" norm the transposed one
    for norm, anorm in norms.items():
        rcond, info = gecon(lu, anorm, norm=norm)
        if info != 0 or rcond < 1e-10:
            raise IllConditionedSection(
                f"section condition estimate {1.0 / max(rcond, 1e-300):.3e} exceeds 1e10")
    e0 = np.zeros(((m + 1) * n, n), dtype=complex)
    e0[:n, :n] = np.eye(n)
    x = scipy.linalg.lu_solve((lu, piv), e0)
    em = np.zeros_like(e0)
    em[-n:, :] = np.eye(n)
    y = scipy.linalg.lu_solve((lu, piv), em, trans=1)
    uplus_inv = {j: x[j * n:(j + 1) * n, :] for j in range(m + 1)}
    vplus_inv = {j: y[(m - j) * n:(m - j + 1) * n, :].T for j in range(m + 1)}
    return (_series_tail_trim(LaurentMatrixSeries(n, uplus_inv)),
            _series_tail_trim(LaurentMatrixSeries(n, vplus_inv)))


def _side(series, side):
    """Trim the round-off tail, then zero the wrong side (with its mass)."""
    return _one_sided(_series_tail_trim(series), side)


def _block_wh_once(a, m):
    uplus_inv, vplus_inv = _first_column_solve(a, m)
    u_plus, leak_up = _side(certified_inverse(uplus_inv, tol=1e-13), "plus")
    u_minus, leak_um = _side(multiply(a, uplus_inv), "minus")
    # v_minus = v_plus^-1 a reads only the first W + 1 blocks of the column
    # (W the bandwidth of a), and v_plus = a v_minus^-1 only v_minus, so the
    # finite-section error in the far blocks never reaches the left factors
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

    One LU of T_m(a) gives both factorizations: the solve T_m(a) X = E_0
    yields u_plus^-1, and the transposed solve on the same LU yields
    v_plus^-1 (see _first_column_solve).  Then u_plus = (u_plus^-1)^-1,
    u_minus = a u_plus^-1, v_minus = v_plus^-1 a and v_plus = a v_minus^-1.
    If the product residuals or the one-sided leakage exceed ``tol``, the
    section is doubled once; persistent failure raises NonCanonical (the
    symptom of nonzero partial indices).  A section whose condition
    estimate exceeds 1e10 raises IllConditionedSection, and a section
    below 1 raises ValueError.
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
    """The pair b = v_minus u_plus^-1 and c = u_minus^-1 v_plus.

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
    stacked = []
    for w in factors:
        gauged = []
        for f in (w.u_minus, w.u_plus, w.v_plus, w.v_minus):
            samples = f.sample(grid).samples
            gauged.append(np.linalg.inv(f.block(0)) @ samples)
        stacked.append(gauged)
    continuity = 0.0
    count = len(factors)
    for i in range(count):
        j = (i + 1) % count
        for part in range(4):
            diff = float(np.max(np.abs(stacked[i][part] - stacked[j][part])))
            continuity = max(continuity, diff)
    max_res = max(max(w.residuals.product_residual_right,
                      w.residuals.product_residual_left) for w in factors)
    return FactorizationSweep(tuple(factors), continuity, max_res)
