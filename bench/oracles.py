"""Reference values the benchmark checks toepasym's outputs against.

Everything here works on a symbol's coefficient dictionary with numpy
and scipy alone and calls no toepasym routine, so a defect in the
library cannot pass its own check.  The routes are closed forms, dense
factorizations other than the library's (Cholesky, ``eigvalsh``), and
Fourier series formulas that replace the library's Hankel sections.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg


def grid_values(a, m):
    """(m, N, N) values of the Laurent polynomial at exp(2 pi i j / m)."""
    n = a.block_size
    if m <= 2 * max((abs(k) for k in a.coeffs), default=0):
        raise ValueError(f"grid of {m} points aliases the symbol")
    carr = np.zeros((m, n, n), dtype=complex)
    for k, blk in a.coeffs.items():
        carr[k % m] += blk
    return m * np.fft.ifft(carr, axis=0)


def real_scalar_values(a, m):
    """Samples of a real-valued scalar symbol, rejecting complex values."""
    vals = grid_values(a, m)[:, 0, 0]
    if np.max(np.abs(vals.imag)) > 1e-12 * np.max(np.abs(vals)):
        raise ValueError("symbol is not real-valued")
    return vals.real


def dense_section(a, n):
    """(n+1) x (n+1) block Toeplitz matrix [a_{j-k}]."""
    nb = a.block_size
    table = np.zeros((2 * n + 1, nb, nb), dtype=complex)
    for k, blk in a.coeffs.items():
        if abs(k) <= n:
            table[k + n] = blk
    j = np.arange(n + 1)
    blocks = table[j[:, None] - j[None, :] + n]
    return blocks.transpose(0, 2, 1, 3).reshape((n + 1) * nb, (n + 1) * nb)


def hermitian_logdet(a, n):
    """log det T_n(a) of a Hermitian positive definite section, by Cholesky."""
    chol = scipy.linalg.cholesky(dense_section(a, n), lower=True)
    return float(2.0 * np.sum(np.log(np.diag(chol).real)))


def hermitian_trace(a, n, f):
    """sum f(lambda) over the eigenvalues of the Hermitian section T_n(a)."""
    evals = np.linalg.eigvalsh(dense_section(a, n))
    return complex(np.sum(f(evals.astype(complex))))


def log_geometric_mean(a, m=1 << 14):
    """Circle average of log det a for a Hermitian positive definite symbol."""
    vals = grid_values(a, m)
    dets = vals[:, 0, 0].real if a.block_size == 1 else np.linalg.det(vals).real
    if dets.min() <= 0:
        raise ValueError("symbol is not positive definite on the circle")
    return float(np.mean(np.log(dets)))


def _log_fourier(a, m):
    """Fourier coefficients of log a for a positive scalar symbol."""
    return np.fft.fft(np.log(real_scalar_values(a, m))) / m


def log_szego_series(a, m=1 << 14):
    """log E(a) = sum_{k>=1} k (log a)_k (log a)_{-k} (strong Szego limit)."""
    lhat = _log_fourier(a, m)
    ks = np.arange(1, m // 2)
    return float(np.real(np.sum(ks * lhat[ks] * lhat[-ks])))


def mismatch_coefficients(a, length, m=1 << 14):
    """b_j and c_{-j}, j = 0..length-1, of the factorization mismatch symbols.

    For a scalar symbol with log a = g_- + g_+ (g_+ holding the constant),
    b = exp(g_- - g_+) and c = 1/b.  The library builds them from its
    Wiener-Hopf factors instead; the correction traces depend only on the
    products c_{-j} b_k, which no normalization of the factors changes.
    Raises ValueError when coefficients past ``length`` are not negligible.
    """
    lhat = _log_fourier(a, m)
    k = np.fft.fftfreq(m, 1.0 / m)
    diff = np.fft.ifft(np.where(k < 0, lhat, 0.0) - np.where(k >= 0, lhat, 0.0)) * m
    bhat = np.fft.fft(np.exp(diff)) / m
    chat = np.fft.fft(np.exp(-diff)) / m
    js = np.arange(m // 2)
    beta, gamma = bhat[js], chat[-js]
    rest = np.abs(np.concatenate((beta[length:], gamma[length:])))
    if rest.size and rest.max() > 1e-15 * max(np.abs(beta).max(), np.abs(gamma).max()):
        raise ValueError(f"mismatch coefficients reach past {length}")
    return beta[:length], gamma[:length]


def _tails(values):
    """tails[ell] = sum_{j > ell} values[j] along the first axis."""
    out = np.zeros_like(values)
    out[:-1] = np.cumsum(values[::-1], axis=0)[::-1][1:]
    return out


def correction_traces(a, p, length=None, m=1 << 14):
    """t_ell, ell = 1..length-1, of the order-p correction bracket (p = 2, 3).

    With G_k(ell) = sum_{j, j' > ell} c_{-j} [(H(b) H(c~))^k]_{j j'} b_{j'}
    and scalar b, c this is t = G_0 for p = 2 and t = G_0 + G_1 + G_0^2 / 2
    for p = 3.  G_1 is summed here as sum_i X_ell(i) Y_ell(i) with
    X_ell(i) = sum_{j > ell} c_{-j} b_{j+1+i} and
    Y_ell(i) = sum_{j > ell} b_j c_{-(j+1+i)}, where the library composes
    Hankel sections.  The result is indexed by ell - 1.
    """
    if p not in (2, 3):
        raise ValueError("order 2 or 3")
    beta, gamma = mismatch_coefficients(a, length or m // 2, m)
    g0 = _tails(gamma * beta)
    if p == 2:
        return g0[1:]
    size = len(beta)
    shift = np.arange(size)[:, None] + 1 + np.arange(size)[None, :]
    inside = shift < size
    shift = np.minimum(shift, size - 1)
    x = _tails(gamma[:, None] * np.where(inside, beta[shift], 0.0))
    y = _tails(beta[:, None] * np.where(inside, gamma[shift], 0.0))
    g1 = np.sum(x * y, axis=1)
    return (g0 + g1 + g0 ** 2 / 2)[1:]


def square_trace_terms(a):
    """(G_f, E_f) for f(z) = z^2: sum_m tr(a_m a_-m) and -sum_m |m| tr(a_m a_-m)."""
    g = e = 0.0 + 0.0j
    for k, blk in a.coeffs.items():
        other = a.coeffs.get(-k)
        if other is not None:
            t = complex(np.trace(blk @ other))
            g += t
            e -= abs(k) * t
    return g, e


def square_trace(a, n):
    """tr T_n(a)^2 = sum_{|m| <= n} (n + 1 - |m|) tr(a_m a_-m), exactly."""
    total = 0.0 + 0.0j
    for k, blk in a.coeffs.items():
        other = a.coeffs.get(-k)
        if other is not None and abs(k) <= n:
            total += (n + 1 - abs(k)) * complex(np.trace(blk @ other))
    return total


def trace_mean(a, f, m=1 << 13):
    """Circle average of f(a) for a real-valued scalar symbol."""
    return complex(np.mean(f(real_scalar_values(a, m).astype(complex))))


def widom_constant_series(a, f, margin=0.5, nodes=128, m=1 << 13):
    """E_f of a real-valued scalar symbol by the strong Szego series route.

    E_f = (1/2 pi i) oint f(l) d/dl log E(a - l) dl with
    d/dl log E(a - l) = -sum_{k>=1} k [r_k L_{-k} + L_k r_{-k}],
    r = 1/(a - l), L = log(a - l), on a circle around the symbol's range.
    The library instead solves a dense Hankel system per node.
    """
    vals = real_scalar_values(a, m)
    lo, hi = float(vals.min()), float(vals.max())
    center, radius = 0.5 * (lo + hi), 0.5 * (hi - lo) + margin
    phis = 2 * np.pi * np.arange(nodes) / nodes
    lams = center + radius * np.exp(1j * phis)
    dlams = (2 * np.pi / nodes) * 1j * radius * np.exp(1j * phis)
    ks = np.arange(1, m // 2)
    total = 0.0 + 0.0j
    for lam, dlam, fv in zip(lams, dlams, f(lams)):
        w = vals - lam
        logw = np.log(np.abs(w)) + 1j * np.unwrap(np.angle(w))
        lhat = np.fft.fft(logw) / m
        rhat = np.fft.fft(1.0 / w) / m
        deriv = -np.sum(ks * (rhat[ks] * lhat[-ks] + lhat[ks] * rhat[-ks]))
        total += fv * deriv * dlam
    return complex(total / (2j * np.pi))


def modulus_of_smoothness(a, s, sweep, m):
    """Second-order modulus of a scalar symbol, summed term by term.

    sup over x = 2 pi j / m and h = s/sweep, 2 s/sweep, .., s of
    |a(x+h) - 2 a(x) + a(x-h)| = |sum_k a_k e^(ikx) (2 cos kh - 2)|, as one
    product of the (m, K) exponentials with the (K, sweep) weights; the
    library instead samples every shifted symbol by its own FFT.
    """
    ks = np.array(sorted(a.coeffs))
    coeffs = np.array([complex(a.coeffs[k][0, 0]) for k in ks])
    x = 2 * np.pi * np.arange(m) / m
    h = np.linspace(s / sweep, s, sweep)
    weights = coeffs[:, None] * (2 * np.cos(np.outer(ks, h)) - 2)
    return float(np.max(np.abs(np.exp(1j * np.outer(x, ks)) @ weights)))


def decay_slope(ns, mags, floor=1e-13):
    """Least-squares slope of log|mag| against log n over points above floor."""
    pts = [(n, v) for n, v in zip(ns, mags) if v > floor]
    x = np.log([n for n, _ in pts])
    y = np.log([v for _, v in pts])
    return float(np.polyfit(x, y, 1)[0]), len(pts)
