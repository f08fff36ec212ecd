"""Finite sections of Toeplitz and Hankel operators, correction-term
matrices, and dense (oracle) determinant and trace computations.

Every structured block matrix of the package is a window of an offset
table (symbol._offset_table): a Toeplitz section has block (j, k) at offset
j - k, and every Hankel, block row and block column has block (j, k) at
table[j + k] (_block_hankel).

Dense storage only: the O(n^3) routines here are the ground truth the
asymptotic formulas are checked against, so no fast solvers are used.
(The finite-section factorization in factor is prediction, not oracle:
it factors its sections in band storage.)
A section whose coefficients satisfy a_{-k} == a_k^H entry for entry for
every k (absent blocks counting as zero) is exactly Hermitian, and its
eigenvalues come from LAPACK's Hermitian solver (eigvalsh), still a dense
O(n^3) solve; every other section takes the general eigvals.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EigFailure, NumericallySingularSection, TruncationTooSmall
from .symbol import _block_maxima, _offset_table, _stacked, _sum_in_order


def _window_matrix(windows):
    """Read-only block matrix whose (j, k) block is windows[j, :, :, k],
    for a window view of an offset table: the reshape is the only copy."""
    rows, n, _, cols = windows.shape
    out = windows.transpose(0, 1, 3, 2).reshape(rows * n, cols * n)
    out.setflags(write=False)
    return out


def _block_hankel(table, rows, cols):
    """Read-only rows x cols block matrix whose (j, k) block is table[j + k]:
    a block row when rows = 1, a block column when cols = 1.  It views the
    table made contiguous, since a negative stride would change how matrix
    products round; numpy checks that the view stays inside the table."""
    t = np.ascontiguousarray(table)
    windows = np.ndarray((rows, *t.shape[1:], cols), t.dtype, t,
                         strides=t.strides + t.strides[:1])
    return _window_matrix(windows)


def toeplitz_section(a, n):
    """(n+1) x (n+1) block matrix with block (j, k) = a_{j-k}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # window j holds offsets j-n..j, reversed so that k runs from offset j down
    windows = sliding_window_view(_offset_table(a, -n, n), n + 1, axis=0)[..., ::-1]
    return _window_matrix(windows)


def hankel_section(a, m):
    """m x m block matrix with block (j, k) = a_{j+k+1}.

    For the reversed-symbol Hankel, pass ``reverse(a)``.
    """
    if m < 1:
        raise ValueError("m must be positive")
    return _block_hankel(_offset_table(a, 1, 2 * m - 1), m, m)


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
    depth = max(b.max_offset, c.max_offset, 1)
    btab = _offset_table(b, ell + 1, m + depth)  # b_{ell+1+i}
    ctab = _offset_table(c, -(m + depth), -(ell + 1))[::-1]  # c_{-(ell+1+i)}
    row = _block_hankel(ctab, 1, w)
    col = _block_hankel(btab, w, 1)
    # H(b) rows j and H(c~) columns k in [ell+1, m]: b_{j+i+1}, c_{-(k+i+1)}
    inner = _block_hankel(btab[1:], w, depth) @ _block_hankel(ctab[1:], depth, w)
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

def _logdet_lu(matrix):
    """Principal-branch log det via pivoted LU, with a condition estimate."""
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    anorm = float(np.linalg.norm(matrix, 1))
    try:
        with warnings.catch_warnings():
            # zero pivots raise NumericallySingularSection below
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            # the matrix copies blocks of a LaurentMatrixSeries, whose
            # construction (_normalize_coeffs) rejects non-finite blocks
            lu, piv = scipy.linalg.lu_factor(matrix, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericallySingularSection(str(exc)) from exc
    diag = np.diag(lu)
    if np.any(diag == 0):
        raise NumericallySingularSection("exact zero pivot in LU")
    gecon = scipy.linalg.get_lapack_funcs("gecon", (matrix,))
    rcond, info = gecon(lu, anorm)
    if info != 0 or rcond < 1e-12:
        raise NumericallySingularSection(
            f"condition estimate {1.0 / max(rcond, 1e-300):.3e} exceeds 1e12")
    logabs = float(np.sum(np.log(np.abs(diag))))
    parity = int(np.sum(piv != np.arange(len(piv)))) % 2
    arg = float(np.sum(np.angle(diag))) + np.pi * parity
    arg = (arg + np.pi) % (2 * np.pi) - np.pi
    return complex(logabs, arg)


def log_det_direct(a, n):
    """Principal-branch log det of the dense (n+1) block section."""
    return _logdet_lu(toeplitz_section(a, n))


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


def _is_hermitian(a):
    """Whether a_{-k} == a_k^H entry for entry for every offset k.  Stored
    blocks are nonzero, so a block without its mirror fails the test."""
    coeffs = a.coeffs
    if any(-k not in coeffs for k in coeffs):
        return False
    blocks = _stacked(a)[1]  # (0, N, N) for the zero symbol
    mirrors = np.array([coeffs[-k] for k in coeffs]).reshape(blocks.shape)
    return bool(np.array_equal(mirrors, blocks.conj().transpose(0, 2, 1)))


def trace_f_direct(a, n, f):
    """sum_i f(lambda_i) over the eigenvalues of the dense section.

    An exactly Hermitian symbol (a_{-k} == a_k^H entry for entry for every
    k, absent blocks counting as zero) has a Hermitian section, whose
    eigenvalues come from LAPACK's Hermitian solver (eigvalsh): exactly
    real, returned as complex numbers.  Every other symbol takes the
    general eigvals.  Both are dense O(n^3) solves.
    """
    section = toeplitz_section(a, n)
    try:
        if _is_hermitian(a):
            evals = np.linalg.eigvalsh(section).astype(complex)
        else:
            evals = np.linalg.eigvals(section)
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
    btab = _offset_table(b, n + 1, 2 * m + 1)  # b_{n+1+i}
    ctab = _offset_table(c, -(2 * m + 1), -(n + 1))[::-1]  # c_{-(n+1+i)}
    tb = _block_hankel(btab, m - n, 1)
    tc = _block_hankel(ctab, 1, m - n)

    def spec(x):
        return float(np.linalg.norm(x, 2)) if x.size else 0.0

    # Hankel of b with rows restricted to j >= n+1, block (j, k) = b_{j+k+1},
    # and Hankel of reversed c with columns restricted to k >= n+1
    rows_b = _block_hankel(btab[1:], m - n, m + 1)
    cols_c = _block_hankel(ctab[1:], m + 1, m - n)
    return TruncationNorms(tb_tail=spec(tb), hb_tail=spec(rows_b),
                           tc_tail=spec(tc), hc_tail=spec(cols_c))
