"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible under pytest -s) and asserts
the stated tolerance.  Desk scale: the whole module runs in about a
minute, scalar sections up to n = 512, block size up to 2.
"""
import numpy as np
import pytest

import toepasym as tp

GRID = [8, 16, 32, 64, 128, 256, 512]


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def rational():
    return tp.scalar_symbol({0: 1.25, 1: -0.5, -1: -0.5})


@pytest.fixture(scope="module")
def rational_contour(rational):
    spectrum = tp.estimate_spectrum(rational)
    return spectrum, tp.build_contour(spectrum, 0.5)


@pytest.fixture(scope="module")
def zyg75():
    # bandwidth 2^10 = 1024 keeps the whole n grid inside the pre-asymptotic
    # Hoelder regime (criteria 3 and 4)
    z = tp.zygmund_symbol(0.75, 10)
    return z, tp.scalar_wiener_hopf(z)


@pytest.fixture(scope="module")
def zyg75_scans(zyg75):
    z, w = zyg75
    fit1 = tp.logdet_remainder_scan(z, GRID, p=1, factors=w)
    fit2 = tp.logdet_remainder_scan(z, GRID, p=2, factors=w)
    return fit1, fit2


def test_criterion_01_determinant_oracle(rational):
    worst = 0.0
    for n in range(0, 129):
        det = complex(np.exp(tp.log_det_direct(rational, n)))
        closed = (1 - 0.5 ** (2 * (n + 2))) / 0.75
        worst = max(worst, abs(det - closed) / closed)
    _report(1, worst <= 1e-10,
            f"det T_n vs closed form, worst relative error {worst:.2e} <= 1e-10 "
            "(anchors det T_0 = 1.25, det T_1 = 1.3125)")


def test_criterion_02_strong_szego_constant(rational):
    direct = tp.szego_constant(rational)
    series = tp.strong_szego_series(rational)
    err_value = abs(direct - 4.0 / 3.0)
    err_oracle = abs(direct - series)
    _report(2, err_value <= 1e-8 and err_oracle <= 1e-8,
            f"szego constant |E - 4/3| = {err_value:.2e} <= 1e-8, "
            f"|E - series oracle| = {err_oracle:.2e} <= 1e-8")


def test_criterion_03_first_order_rate(zyg75_scans):
    fit75, _ = zyg75_scans
    z125 = tp.zygmund_symbol(1.25, 10)
    fit125 = tp.logdet_remainder_scan(z125, GRID, p=1)
    ok75 = fit75.slope <= -(2 * 0.75 - 1) + 0.3
    ok125 = fit125.slope <= -(2 * 1.25 - 1) + 0.3
    _report(3, ok75 and ok125,
            f"order-1 remainder slopes: gamma=0.75 -> {fit75.slope:.3f} <= -0.2, "
            f"gamma=1.25 -> {fit125.slope:.3f} <= -1.2")


def test_criterion_04_order_improvement(zyg75_scans):
    fit1, fit2 = zyg75_scans
    gap = abs(fit2.slope) - abs(fit1.slope)
    _report(4, gap >= 0.5,
            f"order-2 slope gain {gap:.3f} >= 0.5 "
            f"(p=1 slope {fit1.slope:.3f}, p=2 slope {fit2.slope:.3f})")


def test_criterion_04_order3_residuals(zyg75):
    # order 3 improves on order 2 at every n where order 2 is above the
    # log det floor; order 3 reaches the 1e-13 floor by n = 64, so no
    # slope gain is asserted
    z, w = zyg75
    r2 = [abs(r.residual) for r in tp.logdet_expansion_scan(z, GRID, p=2, factors=w)]
    r3 = [abs(r.residual) for r in tp.logdet_expansion_scan(z, GRID, p=3, factors=w)]
    worse = [n for n, e2, e3 in zip(GRID, r2, r3) if e2 > 1e-11 and not e3 < e2]
    _report(4, not worse,
            "order-3 residual below order-2 wherever order 2 exceeds 1e-11: "
            + ", ".join(f"n={n} {e3:.2e} < {e2:.2e}" for n, e2, e3 in zip(GRID, r2, r3)))


def test_criterion_05_widom_exactness(rational, rational_contour):
    _, contour = rational_contour
    gf = tp.trace_mean(rational, tp.SQUARE)
    ef = tp.trace_constant(rational, tp.SQUARE, contour)
    err_gf = abs(gf - 2.0625)
    err_ef = abs(ef - (-0.5))
    worst = 0.0
    for n in list(range(1, 33)) + [64, 128]:
        direct = tp.trace_f_direct(rational, n, tp.SQUARE)
        worst = max(worst, abs(direct - ((n + 1) * gf + ef)))
    _report(5, err_gf <= 1e-9 and err_ef <= 1e-9 and worst <= 1e-9,
            f"tr T_n(a)^2 identity: |G_f - 2.0625| = {err_gf:.2e}, "
            f"|E_f + 0.5| = {err_ef:.2e}, worst identity defect {worst:.2e} <= 1e-9")


@pytest.mark.slow
def test_criterion_06_main_trace_rate():
    z = tp.zygmund_symbol(0.75, 9)
    spectrum = tp.estimate_spectrum(z)
    contour = tp.build_contour(spectrum, 0.5, nodes=128)
    fit = tp.trace_remainder_scan(z, tp.SQUARE, GRID, contour)
    band = -(2 * 0.75 - 1) + 0.3
    ok = fit.slope <= -0.2 and fit.meets_target and fit.target_slope == pytest.approx(band)
    _report(6, ok,
            f"trace remainder slope {fit.slope:.3f} <= -0.2 and band check "
            f"slope <= {band:.2f} passed")


def test_criterion_07_factorization_residuals(rational, two_block_symbol):
    w = tp.block_wiener_hopf(two_block_symbol, section=256)
    r = w.residuals
    ws = tp.scalar_wiener_hopf(rational)
    wb = tp.block_wiener_hopf(rational, section=256)
    grid = max(ws.u_plus.grid_size, wb.u_plus.grid_size)
    cross = max(
        float(np.max(np.abs(f1.sample(grid).samples - f2.sample(grid).samples)))
        for f1, f2 in ((ws.u_minus, wb.u_minus), (ws.u_plus, wb.u_plus),
                       (ws.v_plus, wb.v_plus), (ws.v_minus, wb.v_minus)))
    ok = (r.product_residual_right <= 1e-8 and r.product_residual_left <= 1e-8
          and r.leakage <= 1e-8 and cross <= 1e-8)
    _report(7, ok,
            f"2x2 fixture at m=256: residuals right {r.product_residual_right:.2e}, "
            f"left {r.product_residual_left:.2e}, leakage {r.leakage:.2e} <= 1e-8; "
            f"scalar/block cross-check {cross:.2e} <= 1e-8")


def test_criterion_08_truncation_norm_decay(rational):
    gamma = 0.75
    z = tp.zygmund_symbol(gamma, 8)
    bz, cz = tp.correction_symbols(tp.scalar_wiener_hopf(z))
    ns = [8, 16, 32, 64, 128, 256]
    scaled = [tp.truncation_norms(bz, cz, n).tb_tail * n**gamma for n in ns]
    median = sorted(scaled)[len(scaled) // 2]
    trend_ok = scaled[-1] <= 2 * median

    br, cr = tp.correction_symbols(tp.scalar_wiener_hopf(rational))
    worst = 0.0
    for n in ns:
        measured = tp.truncation_norms(br, cr, n).tb_tail
        exact = 0.75 * np.sqrt(0.5 ** (2 * (n + 1)) / 0.75)
        worst = max(worst, abs(measured - exact))
    _report(8, trend_ok and worst <= 1e-6,
            f"scaled norms n^g ||Q_n T(b) P_0|| show no upward trend "
            f"(last {scaled[-1]:.3g} <= 2 x median {median:.3g}); rational tail "
            f"matches geometric value within {worst:.2e} <= 1e-6")


def test_criterion_09_jackson_rate():
    grid = [4, 8, 16, 32, 64]
    results = {}
    for gamma in (0.75, 1.0, 1.5):
        rep = tp.jackson_decay_check(tp.zygmund_symbol(gamma, 8), gamma, grid)
        results[gamma] = rep.gamma_estimate
    ok = all(abs(results[g] - g) <= 0.25 for g in results)
    _report(9, ok,
            "gamma recovery within +-0.25: " +
            ", ".join(f"{g} -> {results[g]:.3f}" for g in sorted(results)))


def test_criterion_10_contour_robustness(rational, rational_contour):
    spectrum, contour = rational_contour
    ef = tp.trace_constant(rational, tp.SQUARE, contour)
    enlarged = tp.build_contour(spectrum,
                                1.5 * contour.radius - spectrum.max_radius)
    doubled = tp.build_contour(spectrum, 0.5, nodes=512)
    d_radius = abs(tp.trace_constant(rational, tp.SQUARE, enlarged) - ef)
    d_nodes = abs(tp.trace_constant(rational, tp.SQUARE, doubled) - ef)
    _report(10, d_radius <= 1e-8 and d_nodes <= 1e-8,
            f"E_f invariance: radius x1.5 changes {d_radius:.2e}, "
            f"node doubling changes {d_nodes:.2e}, both <= 1e-8")
