import tracemalloc

import numpy as np
import pytest

import toepasym as tp


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
