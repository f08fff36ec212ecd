import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import toepasym as tp
from toepasym.asymptotics import _correction_trace_series
from conftest import random_block_symbol


def test_geometric_mean_constant():
    assert tp.geometric_mean(tp.scalar_symbol({0: 3.0})) == pytest.approx(3.0)


def test_geometric_mean_fixture(rational_symbol):
    # mean of log|1 - 0.5 e^{i theta}|^2 vanishes, so G = 1
    assert tp.geometric_mean(rational_symbol) == pytest.approx(1.0, abs=1e-12)


def test_geometric_mean_constant_matrix():
    a = np.array([[2.0, 1.0], [0.0, 3.0]])
    assert tp.geometric_mean(tp.constant_symbol(a)) == pytest.approx(6.0, abs=1e-10)


def test_geometric_mean_homogeneity():
    rng = np.random.default_rng(9)
    base = np.eye(2) * 3 + 0.3 * rng.standard_normal((2, 2))
    a = tp.LaurentMatrixSeries(2, {0: base, 1: 0.1 * rng.standard_normal((2, 2)),
                                   -1: 0.1 * rng.standard_normal((2, 2))})
    g1 = tp.geometric_mean(a)
    g2 = tp.geometric_mean(tp.multiply(tp.constant_symbol(2.5 * np.eye(2)), a))
    assert g2 == pytest.approx(2.5 ** 2 * g1, rel=1e-10)


def test_geometric_mean_nonzero_winding():
    with pytest.raises(tp.NonZeroWinding):
        tp.geometric_mean(tp.scalar_symbol({1: 1.0}))


@pytest.mark.parametrize("fn", [tp.geometric_mean, tp.strong_szego_series,
                                tp.scalar_wiener_hopf])
def test_nonzero_winding_message_names_winding_number(fn):
    with pytest.raises(tp.NonZeroWinding, match=r"winding number -2 != 0"):
        fn(tp.scalar_symbol({-2: 1.0, 0: 0.1}))


def test_szego_constant_identity():
    assert tp.szego_constant(tp.identity_symbol()) == pytest.approx(1.0)


def test_szego_constant_fixture(rational_symbol):
    val = tp.szego_constant(rational_symbol)
    assert val == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_szego_constant_raises_above_corner_cap():
    # bandwidth 8192 > 4096: raise before the inverse or the corner is built
    a = tp.zygmund_symbol(0.75, 13)
    tracemalloc.start()
    try:
        with pytest.raises(tp.NoConvergence, match="szego_constant"):
            tp.szego_constant(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_szego_series_oracle_cross_check(rational_symbol):
    direct = tp.szego_constant(rational_symbol)
    series = tp.strong_szego_series(rational_symbol)
    assert abs(direct - series) < 1e-8
    assert series == pytest.approx(4.0 / 3.0, abs=1e-8)


def test_expansion_p1_fixture(rational_symbol):
    rep = tp.logdet_expansion(rational_symbol, 8, p=1)
    assert rep.correction_sum == 0
    assert rep.residual.real == pytest.approx(np.log1p(-0.5 ** 20), abs=1e-9)
    assert abs(rep.residual.imag) < 1e-12
    # bookkeeping identity is exact
    assert rep.predicted == rep.log_G_term + rep.correction_sum + rep.log_E_constant


def test_expansion_p2_improves(rational_symbol):
    w = tp.scalar_wiener_hopf(rational_symbol)
    for n in (8, 12, 16):
        r1 = tp.logdet_expansion(rational_symbol, n, p=1, factors=w)
        r2 = tp.logdet_expansion(rational_symbol, n, p=2, factors=w)
        assert abs(r2.residual) <= abs(r1.residual)


def test_expansion_independent_of_factor_section(rational_symbol):
    w1 = tp.block_wiener_hopf(rational_symbol, section=64)
    w2 = tp.block_wiener_hopf(rational_symbol, section=128)
    r1 = tp.logdet_expansion(rational_symbol, 16, p=2, factors=w1)
    r2 = tp.logdet_expansion(rational_symbol, 16, p=2, factors=w2)
    assert abs(r1.residual - r2.residual) <= 1e-9


def test_remainder_scan_superpolynomial(rational_symbol):
    fit = tp.logdet_remainder_scan(rational_symbol,
                                   [4, 6, 8, 10, 12, 14, 16, 24, 32], p=1)
    assert fit.slope < -4
    assert fit.flag == "superpolynomial"


def test_remainder_scan_all_zero_degenerate():
    # identity symbol: log det is identically zero, every residual at floor
    with pytest.raises(tp.FitDegenerate):
        tp.logdet_remainder_scan(tp.identity_symbol(), [4, 8, 16, 32], p=1)


def test_remainder_scan_grid_validation(rational_symbol):
    with pytest.raises(ValueError):
        tp.logdet_remainder_scan(rational_symbol, [4, 8, 16], p=1)


@pytest.mark.slow
def test_remainder_scan_zygmund_band():
    z = tp.zygmund_symbol(0.75, 11)
    fit = tp.logdet_remainder_scan(z, [8, 16, 32, 64, 128, 256, 512], p=1)
    assert -(2 * 0.75 - 1) - 0.3 <= fit.slope < 0


def test_expansion_rejects_bad_order_and_n(rational_symbol):
    for call in (lambda: tp.logdet_expansion_scan(rational_symbol, [4, 8], p=0),
                 lambda: tp.logdet_expansion_scan(rational_symbol, [-1, 8], p=1),
                 lambda: tp.logdet_expansion(rational_symbol, 8, p=-2),
                 lambda: tp.logdet_remainder_scan(rational_symbol, [4, 8, 16, 32], p=0)):
        with pytest.raises(ValueError, match="need n >= 0 and p >= 1"):
            call()


# ---------------------------------------------------------------------------
# correction traces: the tail-sum pass against the dense correction_term route

def _mismatch(name, rational_symbol, two_block_symbol):
    if name == "random":
        # short supports, no decay: every tail index carries weight
        rng = np.random.default_rng(4)
        return random_block_symbol(rng, max_offset=5), random_block_symbol(rng, max_offset=6)
    a = {"rational": rational_symbol, "zygmund": tp.zygmund_symbol(0.75, 4, seed=1),
         "two_block": two_block_symbol}[name]
    return tp.correction_symbols(tp.canonical_wiener_hopf(a))


def _support(b, c):
    return max(max((k for k in b.coeffs if k > 0), default=0),
               max((-k for k in c.coeffs if k < 0), default=0))


def _dense_traces(b, c, p, upto):
    """t_ell from dense correction_term sections, m = max(support, ell + 9)."""
    out = np.zeros(upto, dtype=complex)
    for ell in range(1, upto + 1):
        m = max(_support(b, c), ell + 9)
        g = [tp.correction_term(b, c, ell, k, m=m).value for k in range(p - 1)]
        out[ell - 1] = sum(np.trace(np.linalg.matrix_power(sum(g[:p - j]), j)) / j
                           for j in range(1, p))
    return out


def _cumsum_traces(b, c, upto):
    """Order-2 traces t_ell = sum_{j>ell} tr(c_{-j} b_j) as one reverse cumsum."""
    s_b = max((k for k in b.coeffs if k > 0), default=0)
    s_c = max((-k for k in c.coeffs if k < 0), default=0)
    live = min(s_b, s_c)
    out = np.zeros(upto, dtype=complex)
    if live <= 1:
        return out
    prods = np.zeros(live + 1, dtype=complex)
    for j in range(1, live + 1):
        bb, cc = b.coeffs.get(j), c.coeffs.get(-j)
        if bb is not None and cc is not None:
            prods[j] = np.trace(cc @ bb)
    tails = np.cumsum(prods[::-1])[::-1]
    for ell in range(1, min(upto, live) + 1):
        out[ell - 1] = tails[ell + 1] if ell + 1 <= live else 0.0
    return out


@pytest.mark.parametrize("name", ["rational", "zygmund", "two_block", "random"])
def test_correction_traces_match_dense_sections(name, rational_symbol, two_block_symbol):
    b, c = _mismatch(name, rational_symbol, two_block_symbol)
    upto = _support(b, c) + 2
    for p in (3, 4):
        ref = _dense_traces(b, c, p, upto)
        got = _correction_trace_series(b, c, p, upto)
        assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref))), p
        # a shorter request returns the head of the same series
        assert np.array_equal(_correction_trace_series(b, c, p, 3), got[:3])


@pytest.mark.parametrize("name", ["rational", "zygmund", "two_block", "random"])
def test_order2_traces_equal_reverse_cumsum(name, rational_symbol, two_block_symbol):
    b, c = _mismatch(name, rational_symbol, two_block_symbol)
    for upto in (1, 5, _support(b, c) + 2):
        got = _correction_trace_series(b, c, 2, upto)
        ref = _cumsum_traces(b, c, upto)
        assert np.array_equal(got, ref)
        assert got.tobytes() == ref.tobytes()  # signs of zeros too


@st.composite
def _winding_zero_scalars(draw):
    """c0 (1 + sum_k c_k t^k) over 0 < |k| <= 3 with sum |c_k| <= 1/2:
    winding number zero, and |a| >= |c0| / 2 on the circle."""
    offsets = draw(st.lists(st.integers(-3, 3).filter(bool), unique=True,
                            min_size=1, max_size=6))
    parts = st.floats(-1.0, 1.0)
    raw = [complex(draw(parts), draw(parts)) for _ in offsets]
    total = sum(abs(v) for v in raw)
    shrink = 0.5 / total if total > 0.5 else 1.0
    c0 = draw(st.floats(0.5, 4.0)) * np.exp(1j * draw(st.floats(-np.pi, np.pi)))
    coeffs = {0: c0, **{k: c0 * shrink * v for k, v in zip(offsets, raw)}}
    return tp.scalar_symbol(coeffs)


@given(_winding_zero_scalars())
def test_szego_constant_matches_strong_szego_series(a):
    # the Hankel corner and the series exp(sum_k k (log a)_k (log a)_{-k})
    # are independent routes to E(a)
    log_corner = np.log(tp.szego_constant(a))
    log_series = np.log(tp.strong_szego_series(a))
    assert abs(log_corner - log_series) <= 1e-10
