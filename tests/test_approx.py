import numpy as np
import pytest

import toepasym as tp
from toepasym.approx import best_error_on_grid
from toepasym.symbol import _BATCH_SAMPLES
from conftest import random_block_symbol, random_scalar_symbol

COS = tp.scalar_symbol({1: 0.5, -1: 0.5})  # cos(theta)


def test_modulus_order1_cos():
    # sup |cos(x+h) - cos x| over |h| <= pi is 2
    val = tp.modulus_of_smoothness(COS, 1, np.pi)
    assert val == pytest.approx(2.0, abs=1e-5)
    val_half = tp.modulus_of_smoothness(COS, 1, np.pi / 2)
    assert val_half == pytest.approx(2 * np.sin(np.pi / 4), abs=1e-5)


def test_modulus_order2_cos():
    # sup |cos(x+h) - 2cos x + cos(x-h)| = 2(1 - cos s), equals 4 at s = pi
    val = tp.modulus_of_smoothness(COS, 2, np.pi)
    assert val == pytest.approx(4.0, abs=1e-5)


def test_modulus_constant_zero():
    const = tp.scalar_symbol({0: 3.0})
    assert tp.modulus_of_smoothness(const, 1, np.pi) == pytest.approx(0.0, abs=1e-13)
    assert tp.modulus_of_smoothness(const, 2, 1.0) == pytest.approx(0.0, abs=1e-13)
    assert tp.modulus_of_smoothness(tp.LaurentMatrixSeries(1, {}), 2, 1.0) == 0.0


def test_modulus_invalid_args():
    with pytest.raises(ValueError):
        tp.modulus_of_smoothness(COS, 3, 1.0)
    with pytest.raises(ValueError):
        tp.modulus_of_smoothness(COS, 1, 4.0)


def test_second_modulus_bounded_by_twice_first():
    rng = np.random.default_rng(5)
    for _ in range(3):
        g = random_scalar_symbol(rng, max_offset=3)
        for s in (0.5, 1.5, np.pi):
            w1 = tp.modulus_of_smoothness(g, 1, s, grid_size=1024, sweep=64)
            w2 = tp.modulus_of_smoothness(g, 2, s, grid_size=1024, sweep=64)
            assert w2 <= 2 * w1 + 1e-10


def test_modulus_monotone_in_s():
    rng = np.random.default_rng(8)
    g = random_scalar_symbol(rng, max_offset=3)
    vals = [tp.modulus_of_smoothness(g, 2, s, grid_size=1024, sweep=64)
            for s in (0.4, 0.8, 1.6, np.pi)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def _per_shift_modulus(a, order, s, grid_size, sweep):
    """Reference: the sweep that samples one shift at a time."""
    m = max(grid_size, a.grid_size)
    n = a.block_size

    def shifted(h):
        carr = np.zeros((m, n, n), dtype=complex)
        for k in a.support():
            carr[k % m] += np.exp(1j * k * h) * a.coeffs[k]
        return m * np.fft.ifft(carr, axis=0)

    base = shifted(0.0)
    worst = 0.0
    for h in np.linspace(s / sweep, s, sweep):
        plus = shifted(h)
        diff = plus - base if order == 1 else plus - 2 * base + shifted(-h)
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


@pytest.mark.parametrize("block_size", [1, 2, 3])
def test_batched_sweep_matches_per_shift_sweep(block_size):
    grid = 1024
    rng = np.random.default_rng(40 + block_size)
    g = (random_scalar_symbol(rng, max_offset=5) if block_size == 1
         else random_block_symbol(rng, block_size=block_size, max_offset=4))
    one_left = _BATCH_SAMPLES // (grid * block_size**2) + 1  # last batch: one shift
    for order in (1, 2):
        for sweep in (1, 7, 512, one_left):
            for s in (0.7, np.pi):
                batched = tp.modulus_of_smoothness(g, order, s, grid, sweep)
                assert batched == _per_shift_modulus(g, order, s, grid, sweep)


def test_zygmund_seminorm_is_max_over_scales():
    g = tp.zygmund_symbol(0.75, 6, seed=4)
    scales = [np.pi * 2.0 ** (-i) for i in range(13)]
    per_scale = [tp.modulus_of_smoothness(g, 2, s, 1024, 40) / s**0.6 for s in scales]
    assert tp.zygmund_seminorm(g, 0.6, 1024, 40) == max(per_scale)


@pytest.mark.parametrize("block_size, sweep", [(1, 512), (2, 64)])
def test_zygmund_seminorm_matches_full_sweep(block_size, sweep):
    # the full sweep of all 13 x sweep shifts, repeats included
    from toepasym.approx import _sweep_maxima
    rng = np.random.default_rng(60 + block_size)
    g = (tp.zygmund_symbol(0.75, 6, seed=4) if block_size == 1
         else random_block_symbol(rng, block_size=2, max_offset=4))
    scales = [np.pi * 2.0 ** (-i) for i in range(13)]
    hs = np.concatenate([np.linspace(s / sweep, s, sweep) for s in scales])
    assert len(np.unique(hs)) < len(hs)
    per_scale = _sweep_maxima(g, 2, hs, 1024).reshape(13, sweep).max(axis=1)
    best = 0.0
    for s, omega in zip(scales, per_scale):
        best = max(best, float(omega) / s**0.6)
    assert tp.zygmund_seminorm(g, 0.6, 1024, sweep) == best


def test_zygmund_seminorm_constant():
    assert tp.zygmund_seminorm(tp.scalar_symbol({0: 2.0}), 1.0) == pytest.approx(0.0, abs=1e-12)


def test_zygmund_seminorm_cos_band():
    # dominated by 2(1 - cos s)/s at s = pi, value 4/pi
    val = tp.zygmund_seminorm(COS, 1.0, grid_size=1024, sweep=128)
    assert 1.27 <= val <= 1.46


def test_zygmund_seminorm_homogeneous():
    rng = np.random.default_rng(2)
    g = random_scalar_symbol(rng, max_offset=3)
    g2 = tp.multiply(tp.scalar_symbol({0: 2.0}), g)
    v1 = tp.zygmund_seminorm(g, 0.7, grid_size=512, sweep=64)
    v2 = tp.zygmund_seminorm(g2, 0.7, grid_size=512, sweep=64)
    assert v2 == pytest.approx(2 * v1, rel=1e-10)


def test_near_best_reproduces_polynomials():
    rng = np.random.default_rng(4)
    f = random_scalar_symbol(rng, max_offset=5)
    p, err = tp.near_best_approximation(f, 5)
    assert err == 0.0
    for k in f.support():
        np.testing.assert_allclose(p.block(k), f.block(k))


def test_near_best_high_frequency():
    # cos((n+1) theta): the degree-n approximant is zero, error exactly 1
    for n in (2, 5, 8):
        f = tp.scalar_symbol({n + 1: 0.5, -(n + 1): 0.5})
        p, err = tp.near_best_approximation(f, n)
        assert p.support() == []
        assert 1.0 <= err + 1e-12 <= 4.0


def test_near_best_zero():
    p, err = tp.near_best_approximation(tp.LaurentMatrixSeries(1, {}), 3)
    assert p.support() == []
    assert err == 0.0


def test_near_best_within_factor_four_of_lp_oracle():
    rng = np.random.default_rng(17)
    grid = 64
    for n in (2, 4, 8):
        for _ in range(3):
            coeffs = {0: rng.standard_normal()}
            for k in range(1, 13):
                c = rng.standard_normal() / (1 + k)
                coeffs[k] = coeffs.get(k, 0) + c / 2
                coeffs[-k] = coeffs.get(-k, 0) + c / 2
            f = tp.scalar_symbol(coeffs)
            best = best_error_on_grid(f, n, grid_size=grid)
            _, err = tp.near_best_approximation(f, n, grid_size=grid)
            assert err <= 4 * best + 1e-10


def test_jackson_recovers_gamma():
    grid = [4, 8, 16, 32, 64]
    for gamma in (0.75, 1.5):
        rep = tp.jackson_decay_check(tp.zygmund_symbol(gamma, 8), gamma, grid)
        assert abs(rep.gamma_estimate - gamma) <= 0.25
        assert rep.seminorm_estimate > 0
        errs = [e for _, e in rep.per_n_errors]
        assert all(a >= b - 0.05 * a for a, b in zip(errs, errs[1:]))


def test_jackson_degenerate_for_polynomial():
    f = tp.scalar_symbol({0: 1.0, 3: 0.2, -3: 0.2})
    with pytest.raises(tp.FitDegenerate):
        tp.jackson_decay_check(f, 1.0, [4, 8, 16, 32, 64])


def test_jackson_grid_validation():
    z = tp.zygmund_symbol(1.0, 4)
    with pytest.raises(ValueError):
        tp.jackson_decay_check(z, 1.0, [4, 8, 16])
