"""Szego-Widom constants and the higher-order expansion of log det T_n(a).

The predicted value at order p is

    (n+1) log G(a) + correction_sum(n, p) + log E_tilde(a, p)

where correction_sum is the double sum over the correction matrices built
from the factorization mismatch symbols b and c, and the constant term is
pinned by matching the order-1 case: log E_tilde = log E - lim of the
correction sum.  For finitely supported b and c the limit is a finite sum
(every correction matrix vanishes once the index passes the coefficient
support), so it is the sum of the traces up to that support.

The correction traces of every order come from one tail-sum pass over
the index, from the top of the support S of b and c down; for p <= 3 it
takes O(S^2 N^3) time and O(S N^2) memory.  toeplitz.correction_term,
built from dense Hankel sections, is the reference it is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .factor import _split_log, canonical_wiener_hopf, correction_symbols
from .fitting import fit_decay
from .symbol import _log_det, _offset_table, certified_inverse, reverse
from .toeplitz import _block_hankel, hankel_section, log_det_scan


def log_geometric_mean(a):
    """Circle average of the branch-continuous log det of the symbol.

    The mean of the log samples on the grid that symbol._log_det accepts:
    the first grid, doubling from max(M, 1024), whose log has an alias
    band at most 1e-13 of max(1, its largest coefficient) (the trapezoid
    rule on a uniform periodic grid, so convergence is spectral).
    NoConvergence is raised when none is by 2^17 nodes, NonZeroWinding
    when the determinant winds.
    """
    return complex(np.mean(_log_det(a)[0]))


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
    ha = hankel_section(a, band)
    hc = hankel_section(ainv_rev, band)
    return complex(np.linalg.det(np.eye(ha.shape[0]) - ha @ hc))


def strong_szego_series(a):
    """Independent scalar oracle exp(sum_k k (log a)_k (log a)_{-k}).

    Classical strong Szego form of the constant term, valid for scalar
    winding-zero symbols.  Kept separate from szego_constant so the two
    routes cross-check each other.  The coefficients of log a are those
    of the grid that symbol._log_det accepts (alias band at most 1e-13,
    grid doubling from max(M, 1024) up to 2^17 nodes).
    """
    if a.block_size != 1:
        raise ValueError("series oracle requires a scalar symbol")
    lhat = _log_det(a)[1]
    ks = np.arange(1, len(lhat) // 2)
    return complex(np.exp(np.sum(ks * lhat[ks] * lhat[-ks])))


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

    t_ell = tr sum_{j=1}^{p-1} (1/j) (sum_{k=0}^{p-j-1} G_{ell,k})^j for
    ell = 1..upto, with G_{ell,k} = sum_{j,j'>ell} c_{-j} [(H(b) H(c~))^k]_{jj'} b_{j'}.
    One pass from the top of the support down adds the j = ell+1 term to
    the tails G_{ell,0} = sum_{j>ell} c_{-j} b_j (its trace one tr(c_{-j} b_j)
    at a time), X_ell(i) = sum_{j>ell} c_{-j} b_{j+1+i} and
    Y_ell(i) = sum_{j>ell} c_{-(j+1+i)} b_j, so that
    G_{ell,k} = sum_i X_ell(i) [(H(c~) P_ell H(b))^{k-1} Y_ell](i), where
    P_ell keeps the indices > ell.  For p <= 3 this takes O(S^2 N^3) time
    and O(S N^2) memory in the support S of b and c.  Entries vanish once
    ell passes the support of b (positive side) or c (negative side).
    """
    out = np.zeros(max(upto, 0), dtype=complex)
    s_b = max((k for k in b.coeffs if k > 0), default=0)
    s_c = max((-k for k in c.coeffs if k < 0), default=0)
    live = min(s_b, s_c)  # G_{ell,k} = 0 for ell >= live
    if p < 2 or live <= 1:
        return out
    n = b.block_size
    bt = _offset_table(b, 0, 2 * live - 1)  # b_j
    ct = _offset_table(c, 1 - 2 * live, 0)[::-1]  # c_{-j}
    size = live - 2  # X_ell(i) Y_ell(i) = 0 for i > live - 3
    x = np.zeros((size, n, n), dtype=complex)
    y = np.zeros((size, n, n), dtype=complex)
    g0, tr0 = np.zeros((n, n), dtype=complex), 0j
    for ell in range(live - 1, 0, -1):
        j = ell + 1
        prod = ct[j] @ bt[j]
        tr0 = tr0 + np.trace(prod)
        if p > 2:
            g0 = g0 + prod
            x += ct[j] @ bt[j + 1:j + 1 + size]
            y += ct[j + 1:j + 1 + size] @ bt[j]
        if ell > upto:
            continue
        gs, v = [g0], y
        for k in range(1, p - 1):
            if k > 1:  # v <- H(c~) P_ell H(b) v
                hv = _block_hankel(bt[j + 1:], live - j, size) @ v.reshape(-1, n)
                v = (_block_hankel(ct[j + 1:], size, live - j) @ hv).reshape(v.shape)
            gs.append(np.sum(x @ v, axis=0))
        t = tr0
        for g in gs[1:]:
            t = t + np.trace(g)
        for power in range(2, p):
            t = t + np.trace(np.linalg.matrix_power(sum(gs[:p - power]), power)) / power
        out[ell - 1] = t
    return out


def _expansion_pieces(a, p, factors, upto):
    if p >= 2 and factors is None and a.block_size == 1:
        # one branch-log stage gives log G and the scalar Wiener-Hopf split
        g, ghat = _log_det(a)
        log_g, factors = complex(np.mean(g)), _split_log(a, ghat)
    else:
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
    return logdet_expansion_scan(a, [n], p, factors)[0]


def logdet_expansion_scan(a, n_grid, p=1, factors=None):
    """ExpansionReports over a grid of n with shared constants.

    The direct values are branch-continued along the scan; the expansion
    pieces (geometric mean, constant term, correction traces) are computed
    once and reused.
    """
    ns = sorted(int(n) for n in n_grid)
    if not ns:
        raise ValueError("empty n grid")
    if ns[0] < 0 or p < 1:
        raise ValueError("need n >= 0 and p >= 1")
    log_g, log_e_tilde, traces = _expansion_pieces(a, p, factors, ns[-1])
    partial = np.concatenate(([0.0], np.cumsum(traces)))
    directs = log_det_scan(a, ns)
    reports = []
    for n, direct in zip(ns, directs):
        corr = complex(partial[n])
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
