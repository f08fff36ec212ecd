"""Szego-Widom constants and the higher-order expansion of log det T_n(a).

The predicted value at order p is

    (n+1) log G(a) + correction_sum(n, p) + log E_tilde(a, p)

where correction_sum is the double sum over the correction matrices built
from the factorization mismatch symbols b and c, and the constant term is
pinned by matching the order-1 case: log E_tilde = log E - lim of the
correction sum.  For finitely supported b and c the limit is a finite sum
(every correction matrix vanishes once the index passes the coefficient
support), so it is the sum of the traces up to that support.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonZeroWinding
from .factor import canonical_wiener_hopf, correction_symbols
from .fitting import fit_decay
from .symbol import _branch_log, _refine, certified_inverse, reverse
from .toeplitz import (_correction_sections, _correction_value, hankel_section,
                       log_det_direct, log_det_scan)


def log_geometric_mean(a):
    """Circle average of the branch-continuous log det of the symbol.

    The grid is doubled from max(M, 512) until successive averages agree
    to 1e-13 (trapezoid rule on a uniform periodic grid, so convergence is
    spectral for trigonometric polynomials); NoConvergence is raised when
    they do not by 2^17 nodes.  Raises NonZeroWinding when the
    determinant winds.
    """
    def step(m, prev):
        samples = a.sample(m).samples
        det = samples[:, 0, 0] if a.block_size == 1 else np.linalg.det(samples)
        logs, total, _ = _branch_log(det)
        w = int(round(total / (2 * np.pi)))
        if w != 0:
            raise NonZeroWinding(f"winding number {w} != 0")
        val = complex(np.mean(logs))
        return val, np.inf if prev is None else abs(val - prev)

    return _refine(step, max(a.grid_size, 512), 1 << 17, 1e-13)


def geometric_mean(a):
    """exp of the circle average of log det a (the growth factor G)."""
    return complex(np.exp(log_geometric_mean(a)))


def szego_constant(a):
    """det T(a) T(a^-1) through the Hankel product identity.

    T(x) T(y) = T(xy) - H(x) H(y~) with x = a, y = a^-1 turns the operator
    determinant into det(I - H(a) H((a^-1)~)).  H(a) has only W nonzero
    rows and columns when a has positive bandwidth W, which makes
    I - H(a) H((a^-1)~) block triangular: every section of size m >= W
    carries the determinant of the W x W corner, so that corner is
    evaluated once.  A bandwidth above 4096 raises NoConvergence before
    any work is done.
    """
    band = max((k for k in a.coeffs if k > 0), default=0)
    if band == 0:
        return 1.0 + 0.0j  # H(a) vanishes, the operator product is I
    if band > 4096:
        raise NoConvergence(f"szego_constant: bandwidth {band} exceeds the corner cap 4096")
    ainv_rev = reverse(certified_inverse(a, tol=1e-14))
    ha = hankel_section(a, band).data
    hc = hankel_section(ainv_rev, band).data
    return complex(np.linalg.det(np.eye(ha.shape[0]) - ha @ hc))


def strong_szego_series(a):
    """Independent scalar oracle exp(sum_k k (log a)_k (log a)_{-k}).

    Classical strong Szego form of the constant term, valid for scalar
    winding-zero symbols.  Kept separate from szego_constant so the two
    routes cross-check each other.  The grid is doubled from max(M, 512)
    until successive exponents agree to 1e-12, up to 2^17 nodes.
    """
    if a.block_size != 1:
        raise ValueError("series oracle requires a scalar symbol")

    def step(m, prev):
        vals = a.sample(m).samples[:, 0, 0]
        logs, total, _ = _branch_log(vals)
        if int(round(total / (2 * np.pi))) != 0:
            raise NonZeroWinding("winding number != 0")
        lhat = np.fft.fft(logs) / m
        ks = np.arange(1, m // 2)
        val = complex(np.sum(ks * lhat[ks] * lhat[-ks % m]))
        return val, np.inf if prev is None else abs(val - prev)

    return complex(np.exp(_refine(step, max(a.grid_size, 512), 1 << 17, 1e-12)))


# ---------------------------------------------------------------------------
# expansion

@dataclass(frozen=True, eq=False)
class ExpansionReport:
    """Order-p prediction of log det T_n(a) against the dense value.

    predicted = log_G_term + correction_sum + log_E_constant holds exactly
    (bookkeeping identity); residual = direct - predicted.
    """

    n: int
    p: int
    log_G_term: complex
    correction_sum: complex
    log_E_constant: complex
    predicted: complex
    direct: complex
    residual: complex


def _correction_trace_series(b, c, p, upto):
    """Per-index traces t_ell of the order-p correction bracket.

    t_ell = tr sum_{j=1}^{p-1} (1/j) (sum_{k=0}^{p-j-1} G_{ell,k})^j,
    returned for ell = 1..upto.  Entries vanish once ell passes the
    coefficient support of b (positive side) and c (negative side).
    """
    if p < 2:
        return np.zeros(max(upto, 0), dtype=complex)
    s_b = max((k for k in b.coeffs if k > 0), default=0)
    s_c = max((-k for k in c.coeffs if k < 0), default=0)
    live = min(s_b, s_c)  # G_{ell,k} = 0 for ell >= live
    out = np.zeros(upto, dtype=complex)
    if live <= 1:
        return out
    if p == 2:
        # t_ell = tr G_{ell,0} = sum_{j>ell} tr(c_{-j} b_j), one reverse cumsum
        prods = np.zeros(live + 1, dtype=complex)
        for j in range(1, live + 1):
            bb = b.coeffs.get(j)
            cc = c.coeffs.get(-j)
            if bb is not None and cc is not None:
                prods[j] = np.trace(cc @ bb)
        tails = np.cumsum(prods[::-1])[::-1]
        for ell in range(1, min(upto, live) + 1):
            out[ell - 1] = tails[ell + 1] if ell + 1 <= live else 0.0
        return out
    for ell in range(1, min(upto, live - 1) + 1):
        m = max(max(s_b, s_c), ell + 9)
        sections = _correction_sections(b, c, ell, m)
        terms = [_correction_value(b, c, ell, k, m, sections).value
                 for k in range(p - 1)]
        t = 0.0 + 0.0j
        for j in range(1, p):
            gsum = np.sum(terms[: p - j], axis=0)
            t += np.trace(np.linalg.matrix_power(gsum, j)) / j
        out[ell - 1] = t
    return out


def _expansion_pieces(a, p, factors, upto):
    log_g = log_geometric_mean(a)
    log_e = complex(np.log(szego_constant(a)))
    if p < 2:
        return log_g, log_e, np.zeros(upto, dtype=complex)
    if factors is None:
        factors = canonical_wiener_hopf(a)
    b, c = correction_symbols(factors)
    support = max((k for k in b.coeffs if k > 0), default=0)
    full = _correction_trace_series(b, c, p, max(upto, support + 1))
    log_e_tilde = log_e - complex(np.sum(full))
    return log_g, log_e_tilde, full[:upto]


def logdet_expansion(a, n, p=1, factors=None):
    """Order-p asymptotic prediction of log det T_n(a), with the residual.

    ``factors`` (a WHFactors) is required only for p >= 2; when omitted it
    is computed by the canonical factorization of a.
    """
    if n < 0 or p < 1:
        raise ValueError("need n >= 0 and p >= 1")
    log_g, log_e_tilde, traces = _expansion_pieces(a, p, factors, n)
    corr = complex(np.sum(traces[:n]))
    log_g_term = (n + 1) * log_g
    predicted = log_g_term + corr + log_e_tilde
    direct = log_det_direct(a, n)
    return ExpansionReport(n=int(n), p=int(p), log_G_term=log_g_term,
                           correction_sum=corr, log_E_constant=log_e_tilde,
                           predicted=predicted, direct=direct,
                           residual=direct - predicted)


def logdet_expansion_scan(a, n_grid, p=1, factors=None):
    """ExpansionReports over a grid of n with shared constants.

    The direct values are branch-continued along the scan; the expansion
    pieces (geometric mean, constant term, correction traces) are computed
    once and reused.
    """
    ns = sorted(int(n) for n in n_grid)
    if not ns:
        raise ValueError("empty n grid")
    log_g, log_e_tilde, traces = _expansion_pieces(a, p, factors, ns[-1])
    partial = np.concatenate(([0.0], np.cumsum(traces)))
    directs = log_det_scan(a, ns)
    reports = []
    for n, direct in zip(ns, directs):
        corr = complex(partial[n]) if n < len(partial) else complex(partial[-1])
        log_g_term = (n + 1) * log_g
        predicted = log_g_term + corr + log_e_tilde
        reports.append(ExpansionReport(n=n, p=int(p), log_G_term=log_g_term,
                                       correction_sum=corr,
                                       log_E_constant=log_e_tilde,
                                       predicted=predicted, direct=complex(direct),
                                       residual=complex(direct) - predicted))
    return reports


def logdet_remainder_scan(a, n_grid, p=1, factors=None):
    """Decay fit of |log det T_n - prediction| over the grid of n."""
    ns = sorted(int(n) for n in n_grid)
    if len(ns) < 4 or ns[0] < 4 or ns[-1] < 8 * ns[0]:
        raise ValueError("n_grid needs >= 4 points >= 4 spanning a factor of 8")
    reports = logdet_expansion_scan(a, ns, p, factors)
    mags = [abs(r.residual) for r in reports]
    return fit_decay(ns, mags)
