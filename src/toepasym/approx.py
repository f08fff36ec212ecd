"""Moduli of smoothness, Zygmund seminorms, and near-best uniform
Laurent approximation with decay-rate verification.

Supremum norms are computed by documented grid sweeps (default 4096
evaluation points, 512 shift values), so all results are reproducible.
The difference at shift h is sampled from the coefficients times the
multiplier of Delta_h, by one inverse FFT per batch of at most 2^17
samples; nothing cancels, so omega(a, pi/2^12) is good to 1e-14 relative.
The sup is over the full grid and every shift, but a shift is sampled
only while the sum of its multiplier times coefficient moduli, a bound on
its difference, can still beat the maximum so far; the skipped shifts
cannot change the value, which equals that of the full sweep bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitDegenerate
from .symbol import LaurentMatrixSeries, _check_grid, _row_chunks, _sample_rows

DENSE_GRID = 4096
SHIFT_SWEEP = 512
ERROR_FLOOR = 1e-14


def _shifts(s, sweep):
    if not isinstance(sweep, (int, np.integer)) or sweep < 1:
        raise ValueError("sweep must be an integer >= 1")
    return np.linspace(s / sweep, s, sweep)


def _sweep_max(a, order, hs, divisors, grid_size):
    """max over shifts h in hs and x on the grid of |Delta_h g(x)| / divisors[h],
    where Delta_h g(x) = g(x+h) - g(x) (order 1) or g(x+h) - 2 g(x) + g(x-h)
    (order 2), sampled from the coefficients times the multiplier of
    Delta_h at offset k: m_k(h) = 2i sin(kh/2) e^(ikh/2) or -4 sin(kh/2)^2.

    B(h) = max over entries of sum_k |m_k(h)| |a_k| bounds |Delta_h g| on the
    whole circle.  Shifts run in decreasing B(h) / divisors[h] order, in
    batches of at most _BATCH_SAMPLES samples, and a shift is sampled only
    while its bound times 1 + tol exceeds the maximum so far.  tol =
    4 (K + log2 M) eps covers the rounding of the bound's K-term sum, of the
    multiplier and of the M-point FFT, so no skipped shift could have
    raised the maximum and the result equals that of the full sweep.
    """
    _check_grid(grid_size)
    m = max(grid_size, a.grid_size)
    offsets = a.support()
    n = a.block_size
    blocks = np.array([a.coeffs[k] for k in offsets]).reshape(-1, n, n)
    tol = 4 * (len(offsets) + math.log2(m)) * np.finfo(float).eps
    sizes = np.abs(blocks).reshape(-1, n * n)
    bound = np.empty(len(hs))
    for rows in _row_chunks(len(hs), max(len(offsets), 1)):
        sin = np.abs(np.sin(0.5 * np.multiply.outer(hs[rows], offsets)))
        bound[rows] = ((2 * sin if order == 1 else 4 * sin**2) @ sizes).max(axis=1)
    bound /= divisors
    ranked = np.argsort(-bound, kind="stable")
    best = 0.0
    for rows in _row_chunks(len(hs), m * n * n):
        idx = ranked[rows]
        idx = idx[bound[idx] * (1 + tol) > best]
        if not len(idx):
            break
        half = 0.5 * np.multiply.outer(hs[idx], offsets)
        sin = np.sin(half)
        mult = 2j * sin * np.exp(1j * half) if order == 1 else -4 * sin**2
        diff = _sample_rows(offsets, mult[:, :, None, None] * blocks, m)
        best = np.maximum(best, (np.abs(diff).max(axis=(1, 2, 3)) / divisors[idx]).max())
    return float(best)


def modulus_of_smoothness(a, order, s, grid_size=DENSE_GRID, sweep=SHIFT_SWEEP):
    """Modulus of continuity (order 1) or smoothness (order 2) of the symbol.

    Order 1 returns sup |g(x+h) - g(x)|, order 2 returns
    sup |g(x+h) - 2 g(x) + g(x-h)|, both over x on the dense grid and h
    swept through ``sweep`` values in (0, s].  Matrix symbols use the
    maximum entry norm.  Shifts whose coefficient bound cannot exceed the
    maximum already found are not sampled; the value is that of the full
    sweep.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if not 0 < s <= np.pi:
        raise ValueError("s must lie in (0, pi]")
    hs = _shifts(s, sweep)
    return _sweep_max(a, order, hs, np.ones(len(hs)), grid_size)


def zygmund_seminorm(a, delta, grid_size=DENSE_GRID, sweep=SHIFT_SWEEP):
    """sup over dyadic s = pi 2^-i, i = 0..12, of omega_2(a, s) / s^delta.

    The sweeps of neighbouring scales share shifts (2198 of 6656 at
    sweep 512 are exact repeats); each distinct shift is swept once and
    divided by the smallest s^delta among the scales that hold it, which
    gives the per-scale maximum exactly, since division by a positive
    number is monotone.  As in modulus_of_smoothness, shifts whose bound
    cannot win are not sampled, and the value is that of the full sweep.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    scales = [np.pi * 2.0 ** (-i) for i in range(13)]
    hs = np.concatenate([_shifts(s, sweep) for s in scales])
    distinct, where = np.unique(hs, return_inverse=True)
    divisors = np.full(len(distinct), np.inf)
    np.minimum.at(divisors, where, np.repeat([s**delta for s in scales], sweep))
    return _sweep_max(a, 2, distinct, divisors, grid_size)


def near_best_approximation(f, n, grid_size=DENSE_GRID):
    """Degree-n Laurent polynomial close to the best uniform approximation.

    Implemented as the degree-n restriction of the de la Vallee Poussin
    mean of the partial sums S_n..S_{2n-1}, which reduces to keeping the
    coefficients with |k| <= n.  Reproduces every polynomial of degree n
    and stays within a small factor (at most 1 plus the Lebesgue constant,
    below 4 for the instance sizes checked by the small-instance oracle)
    of the best error.  Returns (polynomial, error) with the error
    measured in the sup norm on the dense grid.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    _check_grid(grid_size)
    kept = {k: blk for k, blk in f.coeffs.items() if abs(k) <= n}
    p = LaurentMatrixSeries(f.block_size, kept)
    tail = {k: blk for k, blk in f.coeffs.items() if abs(k) > n}
    if not tail:
        return p, 0.0
    residual = LaurentMatrixSeries(f.block_size, tail)
    m = max(grid_size, residual.grid_size)
    err = float(np.max(np.abs(residual.sample(m).samples)))
    return p, err


def _derivative(a, order):
    if order == 0:
        return a
    coeffs = {k: (1j * k) ** order * blk for k, blk in a.coeffs.items() if k != 0}
    return LaurentMatrixSeries(a.block_size, coeffs, a.grid_size)


@dataclass(frozen=True)
class SmoothnessReport:
    """Fitted smoothness exponent with the per-degree error trail."""

    gamma_estimate: float
    per_n_errors: tuple  # ((n, error), ...)
    seminorm_estimate: float


def jackson_decay_check(f, gamma, n_grid, grid_size=DENSE_GRID):
    """Fit the decay rate of the near-best approximation errors.

    The error at degree n of a symbol with smoothness exponent gamma is
    bounded by C n^-gamma, so minus the fitted log-log slope estimates
    gamma.  The first grid point is dropped from the fit (transient
    regime).  Raises FitDegenerate when the errors reach the numerical
    floor before the final degree: the symbol is too smooth for rate
    detection on this grid.
    """
    ns = sorted(int(n) for n in n_grid)
    if len(ns) < 4 or ns[0] < 1 or ns[-1] < 8 * ns[0]:
        raise ValueError("n_grid needs >= 4 points spanning a factor of 8")
    errors = []
    for n in ns:
        _, err = near_best_approximation(f, n, grid_size)
        errors.append(err)
    for i, err in enumerate(errors[:-1]):
        if err < ERROR_FLOOR:
            raise FitDegenerate(
                f"approximation error {err:.3e} at n={ns[i]} is at the floor")
    xs, ys = [], []
    for n, err in list(zip(ns, errors))[1:]:
        if err >= ERROR_FLOOR:
            xs.append(math.log(n))
            ys.append(math.log(err))
    if len(xs) < 2:
        raise FitDegenerate("fewer than two usable points after the floor filter")
    slope = np.polyfit(xs, ys, 1)[0]
    m = max(int(math.ceil(gamma)) - 1, 0)
    delta = gamma - m
    seminorm = zygmund_seminorm(_derivative(f, m), delta, grid_size)
    return SmoothnessReport(gamma_estimate=float(-slope),
                            per_n_errors=tuple(zip(ns, errors)),
                            seminorm_estimate=seminorm)


def best_error_on_grid(f, n, grid_size=64):
    """Best uniform approximation error on a finite grid via linear programming.

    Small-instance oracle for real-valued scalar symbols: parametrizes a
    real trigonometric polynomial of degree n and minimizes the maximum
    absolute residual over the grid.  Intended for n <= 8 and modest grids.
    """
    from scipy.optimize import linprog

    if f.block_size != 1:
        raise ValueError("LP oracle supports scalar symbols only")
    thetas = 2 * np.pi * np.arange(grid_size) / grid_size
    vals = f.eval(thetas)[:, 0, 0]
    if np.max(np.abs(vals.imag)) > 1e-12 * max(1.0, np.max(np.abs(vals))):
        raise ValueError("LP oracle supports real-valued symbols only")
    target = vals.real
    cols = [np.ones_like(thetas)]
    for k in range(1, n + 1):
        cols.append(np.cos(k * thetas))
        cols.append(np.sin(k * thetas))
    design = np.column_stack(cols)
    nvar = design.shape[1]
    # variables: coefficients, then eps; minimize eps subject to
    # +-(target - design @ coef) <= eps
    c = np.zeros(nvar + 1)
    c[-1] = 1.0
    a_ub = np.block([[design, -np.ones((grid_size, 1))],
                     [-design, -np.ones((grid_size, 1))]])
    b_ub = np.concatenate([target, -target])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * nvar + [(0, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.x[-1])
