"""Finite sections of Toeplitz and Hankel operators, correction-term
matrices, and dense (oracle) determinant and trace computations.

Dense storage only: the O(n^3) routines here are the ground truth the
asymptotic formulas are checked against, so no fast solvers are used.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EigFailure, NumericallySingularSection, TruncationTooSmall
from .symbol import _block_maxima, _sum_in_order


@dataclass(frozen=True, eq=False)
class BlockMatrix:
    """Dense complex matrix with block bookkeeping."""

    data: np.ndarray
    block_size: int

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=complex)
        if arr.ndim != 2:
            raise ValueError("BlockMatrix needs a 2-d array")
        n = self.block_size
        if arr.shape[0] % n or arr.shape[1] % n:
            raise ValueError(f"shape {arr.shape} not divisible by block size {n}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def block_rows(self):
        return self.data.shape[0] // self.block_size

    @property
    def block_cols(self):
        return self.data.shape[1] // self.block_size

    def block(self, i, j):
        n = self.block_size
        return self.data[i * n:(i + 1) * n, j * n:(j + 1) * n]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.data, dtype=dtype)


def _offset_table(a, lo, hi):
    """Blocks of a at offsets lo..hi as one (hi-lo+1, N, N) array."""
    n = a.block_size
    table = np.zeros((hi - lo + 1, n, n), dtype=complex)
    for k, blk in a.coeffs.items():
        if lo <= k <= hi:
            table[k - lo] = blk
    return table


def _assemble(table, idx, lo):
    """Block matrix whose (j, k) block is table[idx[j, k] - lo]."""
    n = table.shape[1]
    blocks = table[idx - lo]
    rows, cols = idx.shape
    return blocks.transpose(0, 2, 1, 3).reshape(rows * n, cols * n)


def _window_matrix(windows):
    """Block matrix whose (j, k) block is windows[j, :, :, k], for a
    window view of an offset table: the reshape is the only copy."""
    rows, n, _, cols = windows.shape
    return windows.transpose(0, 1, 3, 2).reshape(rows * n, cols * n)


def toeplitz_section(a, n):
    """(n+1) x (n+1) block matrix with block (j, k) = a_{j-k}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # window j holds offsets j-n..j, reversed so that k runs from offset j down
    windows = sliding_window_view(_offset_table(a, -n, n), n + 1, axis=0)[..., ::-1]
    return BlockMatrix(_window_matrix(windows), a.block_size)


def hankel_section(a, m):
    """m x m block matrix with block (j, k) = a_{j+k+1}.

    For the reversed-symbol Hankel, pass ``reverse(a)``.
    """
    if m < 1:
        raise ValueError("m must be positive")
    windows = sliding_window_view(_offset_table(a, 1, 2 * m - 1), m, axis=0)
    return BlockMatrix(_window_matrix(windows), a.block_size)


# ---------------------------------------------------------------------------
# correction terms

@dataclass(frozen=True, eq=False)
class CorrectionTerm:
    """One N x N correction matrix with its truncation metadata."""

    ell: int
    k: int
    value: np.ndarray
    truncation: int
    truncation_error_bound: float


def _correction_sections(b, c, ell, m):
    """Row, inner and column sections of the correction composition.

    row    : blocks c_{-j}, j = ell+1..m            (N, (m-ell) N)
    inner  : [H(b) H(c~)]_{j,k}, j, k in [ell+1, m] ((m-ell) N, same)
    col    : blocks b_j, j = ell+1..m               ((m-ell) N, N)

    The inner index of the Hankel product runs over the full coefficient
    support, so the section is exact for finitely supported symbols.
    """
    w = m - ell
    ctab = _offset_table(c, -m, -(ell + 1))  # c_{-m}..c_{-(ell+1)}
    row = np.hstack([ctab[m - j] for j in range(ell + 1, m + 1)])
    btab = _offset_table(b, ell + 1, m)
    col = np.vstack([btab[j - (ell + 1)] for j in range(ell + 1, m + 1)])
    depth = max(b.max_offset, c.max_offset, 1)
    rows = np.arange(w)[:, None] + np.arange(depth)[None, :] + ell + 2
    hb = _assemble(_offset_table(b, ell + 2, m + depth), rows, ell + 2)
    hc = _assemble(_offset_table(c, -(m + depth), -(ell + 2)), -rows.T,
                   -(m + depth))
    inner = hb @ hc
    return row, inner, col


def _tail_mass(series, side, beyond):
    """Sum of max-entry norms of blocks at |offset| > beyond on one side,
    added in the series' order."""
    sign = 1 if side == "plus" else -1
    tail = [blk for k, blk in series.coeffs.items() if sign * k > beyond]
    return _sum_in_order(_block_maxima(tail, series.block_size))


def correction_term(b, c, ell, k, m=None, tail_tol=1e-8):
    """Finite-section value of the order-(ell, k) correction matrix.

    Composes the row section of the zeroth Toeplitz row of c, the k-th
    power of the Hankel-product section restricted to indices > ell, and
    the column section of the zeroth Toeplitz column of b.  The truncation
    error bound comes from the coefficient tail mass beyond index m.  This
    dense route is the reference for the expansion's tail-sum traces.
    """
    if b.block_size != c.block_size:
        raise ValueError("b and c must share a block size")
    if ell < 0 or k < 0:
        raise ValueError("ell and k must be nonnegative")
    if m is None:
        m = max(4 * ell, ell + 32)
    if m <= ell + 8:
        raise ValueError(f"truncation m={m} must exceed ell+8={ell + 8}")
    row, inner, col = _correction_sections(b, c, ell, m)
    power = np.linalg.matrix_power(inner, k) if k else np.eye(inner.shape[0])
    value = row @ power @ col
    tail_b = _tail_mass(b, "plus", m)
    tail_c = _tail_mass(c, "minus", m)
    if k == 0:
        bound = 0.0
        for j in range(m + 1, max(b.max_offset, c.max_offset) + 1):
            bb = b.coeffs.get(j)
            cc = c.coeffs.get(-j)
            if bb is not None and cc is not None:
                bound += float(np.max(np.abs(bb)) * np.max(np.abs(cc)))
    else:
        row_mass = _tail_mass(c, "minus", ell)
        col_mass = _tail_mass(b, "plus", ell)
        bracket = tail_c * col_mass + row_mass * tail_b + tail_b * tail_c
        # the spectral norm (an SVD) only scales a nonzero bracket
        s = float(np.linalg.norm(inner, 2)) if bracket and inner.size else 0.0
        bound = bracket * s**k
    if bound > tail_tol:
        raise TruncationTooSmall(
            f"tail bound {bound:.3e} exceeds {tail_tol:g} at m={m}")
    return CorrectionTerm(int(ell), int(k), value, int(m), float(bound))


# ---------------------------------------------------------------------------
# dense oracles

def _logdet_lu(matrix, rcond_floor=1e-12):
    """Principal-branch log det via pivoted LU, with a condition estimate."""
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    anorm = float(np.linalg.norm(matrix, 1))
    try:
        with warnings.catch_warnings():
            # zero pivots raise NumericallySingularSection below
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            # the matrix is BlockMatrix data, whose entries are checked finite
            lu, piv = scipy.linalg.lu_factor(matrix, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericallySingularSection(str(exc)) from exc
    diag = np.diag(lu)
    if np.any(diag == 0):
        raise NumericallySingularSection("exact zero pivot in LU")
    gecon = scipy.linalg.get_lapack_funcs("gecon", (matrix,))
    rcond, info = gecon(lu, anorm)
    if info != 0 or rcond < rcond_floor:
        raise NumericallySingularSection(
            f"condition estimate {1.0 / max(rcond, 1e-300):.3e} exceeds 1e12")
    logabs = float(np.sum(np.log(np.abs(diag))))
    parity = int(np.sum(piv != np.arange(len(piv)))) % 2
    arg = float(np.sum(np.angle(diag))) + np.pi * parity
    arg = (arg + np.pi) % (2 * np.pi) - np.pi
    return complex(logabs, arg)


def log_det_direct(a, n):
    """Principal-branch log det of the dense (n+1) block section."""
    return _logdet_lu(toeplitz_section(a, n).data)


def log_det_scan(a, n_values):
    """Log determinants over a scan of n, branch-continued in n.

    The imaginary part of each value is shifted by a multiple of 2 pi so
    consecutive entries differ as little as possible.
    """
    out = []
    for n in n_values:
        val = log_det_direct(a, n)
        if out:
            shift = 2 * np.pi * round((out[-1].imag - val.imag) / (2 * np.pi))
            val = complex(val.real, val.imag + shift)
        out.append(val)
    return np.asarray(out)


def trace_f_direct(a, n, f):
    """sum_i f(lambda_i) over the eigenvalues of the dense section."""
    data = toeplitz_section(a, n).data
    try:
        evals = np.linalg.eigvals(data)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    if hasattr(f, "check"):
        f.check(evals, where=f"eigenvalues of the n={n} section")
    return complex(np.sum(f(evals)))


# ---------------------------------------------------------------------------
# truncation norms

@dataclass(frozen=True)
class TruncationNorms:
    """Spectral norms of the four tail sections feeding the corrections.

    tb_tail = ||Q_n T(b) P_0||,  hb_tail = ||Q_n H(b)||,
    tc_tail = ||P_0 T(c) Q_n||,  hc_tail = ||H(c~) Q_n||.
    """

    tb_tail: float
    hb_tail: float
    tc_tail: float
    hc_tail: float


def truncation_norms(b, c, n, m=None):
    """Norms of the index->n tails of the correction building blocks."""
    if m is None:
        m = 4 * n
    if m <= n:
        raise ValueError("m must exceed n")
    btab = _offset_table(b, n + 1, m)
    tb = np.vstack([btab[j - (n + 1)] for j in range(n + 1, m + 1)])
    ctab = _offset_table(c, -m, -(n + 1))
    tc = np.hstack([ctab[m - j] for j in range(n + 1, m + 1)])

    def spec(x):
        return float(np.linalg.norm(x, 2)) if x.size else 0.0

    # Hankel of b with rows restricted to j >= n+1, block (j, k) = b_{j+k+1},
    # and Hankel of reversed c with columns restricted to k >= n+1
    idx = np.arange(n + 1, m + 1)[:, None] + np.arange(m + 1)[None, :] + 1
    rows_b = _assemble(_offset_table(b, n + 2, 2 * m + 1), idx, n + 2)
    cols_c = _assemble(_offset_table(c, -(2 * m + 1), -(n + 2)), -idx.T,
                       -(2 * m + 1))
    return TruncationNorms(tb_tail=spec(tb), hb_tail=spec(rows_b),
                           tc_tail=spec(tc), hc_tail=spec(cols_c))
