import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toepasym as tp
import toepasym.approx as approx
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


@pytest.mark.parametrize("sweep", [0, -3, 2.5, 512.0, "512"])
def test_sweep_must_be_positive_integer(sweep):
    with pytest.raises(ValueError, match="sweep must be an integer >= 1"):
        tp.modulus_of_smoothness(COS, 2, 1.0, sweep=sweep)
    with pytest.raises(ValueError, match="sweep must be an integer >= 1"):
        tp.zygmund_seminorm(COS, 0.5, sweep=sweep)


@pytest.mark.parametrize("grid_size", [1000, 1, 0, 3])
def test_grid_must_be_power_of_two(grid_size):
    message = f"grid size {grid_size} is not a power of two"
    with pytest.raises(tp.GridTooCoarse, match=message):
        tp.modulus_of_smoothness(COS, 1, 1.0, grid_size=grid_size)
    with pytest.raises(tp.GridTooCoarse, match=message):
        tp.zygmund_seminorm(COS, 0.5, grid_size=grid_size)
    f = tp.zygmund_symbol(0.75, 8)  # the tail's own grid, 2048, is larger
    with pytest.raises(tp.GridTooCoarse, match=message):
        tp.near_best_approximation(f, 4, grid_size=grid_size)
    with pytest.raises(tp.GridTooCoarse, match=message):
        tp.jackson_decay_check(f, 0.75, [4, 8, 16, 32], grid_size=grid_size)


def test_grid_rule_matches_near_best():
    f = tp.scalar_symbol({0: 1.0, 5: 0.5, -5: 0.5})  # own grid 256
    for call in (lambda: tp.near_best_approximation(f, 2, grid_size=1000),
                 lambda: tp.modulus_of_smoothness(f, 2, 1.0, grid_size=1000)):
        with pytest.raises(tp.GridTooCoarse, match="grid size 1000 is not a power of two"):
            call()


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
    """Reference: the sweep that samples one shift at a time, each from the
    coefficients times the multiplier of the difference operator."""
    m = max(grid_size, a.grid_size)
    n = a.block_size
    worst = 0.0
    for h in np.linspace(s / sweep, s, sweep):
        carr = np.zeros((m, n, n), dtype=complex)
        for k in a.support():
            half = 0.5 * (h * k)
            mult = (2j * np.sin(half) * np.exp(1j * half) if order == 1
                    else -4 * np.sin(half) ** 2)
            carr[k % m] += mult * a.coeffs[k]
        diff = np.fft.ifft(carr, axis=0, norm="forward")
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def _sampled_difference_modulus(a, order, s, grid_size, sweep):
    """Reference: differences of samples of g at x + h, x and x - h."""
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
    # the sampled differences cancel up to eps * M * max|g| of rounding
    cancel = np.finfo(float).eps * grid * np.abs(g.sample(grid).samples).max()
    one_left = _BATCH_SAMPLES // (grid * block_size**2) + 1  # last batch: one shift
    for order in (1, 2):
        for sweep in (1, 7, 512, one_left):
            for s in (0.7, np.pi):
                batched = tp.modulus_of_smoothness(g, order, s, grid, sweep)
                assert batched == _per_shift_modulus(g, order, s, grid, sweep)
                sampled = _sampled_difference_modulus(g, order, s, grid, sweep)
                assert abs(batched - sampled) <= cancel


def _mpmath_modulus(a, order, s, grid_size, sweep):
    """Reference at 40 digits: differences of the values of g at x + h, x
    and x - h on the same grid and shifts, each value summed term by term."""
    import mpmath

    m = max(grid_size, a.grid_size)
    n = a.block_size
    with mpmath.workdps(40):
        coeffs = {k: [[mpmath.mpc(complex(v)) for v in row] for row in blk]
                  for k, blk in a.coeffs.items()}
        powers = [{k: mpmath.expj(2 * mpmath.pi * j * k / m) for k in coeffs}
                  for j in range(m)]

        def g(j, shift):  # the entries of g(x_j + h), shift[k] = e^(ikh)
            return [mpmath.fsum(coeffs[k][r][c] * powers[j][k] * shift[k] for k in coeffs)
                    for r in range(n) for c in range(n)]

        worst = mpmath.mpf(0)
        for h in np.linspace(s / sweep, s, sweep):
            h = mpmath.mpf(float(h))
            plus = {k: mpmath.expj(k * h) for k in coeffs}
            minus = {k: mpmath.expj(-k * h) for k in coeffs}
            zero = {k: mpmath.mpf(1) for k in coeffs}
            for j in range(m):
                base = g(j, zero)
                diff = [p - b for p, b in zip(g(j, plus), base)]
                if order == 2:
                    diff = [d - b + q for d, b, q in zip(diff, base, g(j, minus))]
                worst = max([worst] + [abs(d) for d in diff])
        return float(worst)


@pytest.mark.parametrize("block_size", [1, 2])
def test_modulus_matches_mpmath_at_small_scale(block_size):
    # at s = pi/2^12 the sampled differences lose about 5 digits; the
    # multiplier keeps the values within a few ulps
    rng = np.random.default_rng(70 + block_size)
    g = (random_scalar_symbol(rng, max_offset=5) if block_size == 1
         else random_block_symbol(rng, block_size=2, max_offset=3))
    s, grid, sweep = np.pi / 2**12, 256, 4
    for order in (1, 2):
        ref = _mpmath_modulus(g, order, s, grid, sweep)
        val = tp.modulus_of_smoothness(g, order, s, grid, sweep)
        assert abs(val - ref) <= 1e-14 * ref


_ENTRIES = st.one_of(st.just(0.0), st.floats(1e-6, 4.0), st.floats(-4.0, -1e-6))


@st.composite
def _symbols(draw):
    n = draw(st.integers(1, 2))
    coeffs = {}
    for k in draw(st.lists(st.integers(-6, 6), unique=True, max_size=5)):
        parts = draw(st.lists(_ENTRIES, min_size=2 * n * n, max_size=2 * n * n))
        re, im = np.reshape(parts, (2, n, n))
        coeffs[k] = re + 1j * im
    return tp.LaurentMatrixSeries(n, coeffs, grid_size=256)


@given(_symbols(), st.complex_numbers(max_magnitude=1e3),
       st.integers(1, 2), st.floats(1e-4, np.pi))
def test_modulus_ignores_constant_term(a, c, order, s):
    # the multiplier of the difference operator is exactly 0 at offset 0
    shifted = tp.add_constant(a, c)
    assert (tp.modulus_of_smoothness(shifted, order, s, 256, 16)
            == tp.modulus_of_smoothness(a, order, s, 256, 16))


@given(_symbols(), st.integers(0, 4), st.integers(0, 5))
def test_second_modulus_at_most_twice_first(a, scale, log_sweep):
    # the shifts pi 2^-(scale+log_sweep) l lie on the 256-point grid, so
    # Delta_h^2 g(x) = Delta_h g(x) - Delta_h g(x - h) takes both terms there
    s = np.pi * 2.0**-scale
    w1 = tp.modulus_of_smoothness(a, 1, s, 256, 2**log_sweep)
    w2 = tp.modulus_of_smoothness(a, 2, s, 256, 2**log_sweep)
    assert w2 <= 2 * w1 * (1 + 1e-12)


def test_zygmund_seminorm_is_max_over_scales():
    g = tp.zygmund_symbol(0.75, 6, seed=4)
    scales = [np.pi * 2.0 ** (-i) for i in range(13)]
    per_scale = [tp.modulus_of_smoothness(g, 2, s, 1024, 40) / s**0.6 for s in scales]
    assert tp.zygmund_seminorm(g, 0.6, 1024, 40) == max(per_scale)


def _full_sweep_maxima(a, order, hs, grid_size):
    """Reference: max over x of |Delta_h g(x)| for every shift h in hs, none
    skipped, 64 shifts per inverse FFT."""
    m = max(grid_size, a.grid_size)
    n = a.block_size
    offsets = np.array(a.support(), dtype=int)
    blocks = np.array([a.coeffs[k] for k in a.support()]).reshape(-1, n, n)
    out = []
    for start in range(0, len(hs), 64):
        half = 0.5 * np.multiply.outer(hs[start:start + 64], offsets)
        sin = np.sin(half)
        mult = 2j * sin * np.exp(1j * half) if order == 1 else -4 * sin**2
        carr = np.zeros((len(half), m, n, n), dtype=complex)
        carr[:, offsets % m] += mult[:, :, None, None] * blocks
        out.append(np.abs(np.fft.ifft(carr, axis=1, norm="forward")).max(axis=(1, 2, 3)))
    return np.concatenate(out)


def _full_sweep_modulus(a, order, s, grid_size, sweep):
    return float(_full_sweep_maxima(a, order, np.linspace(s / sweep, s, sweep), grid_size).max())


def _full_sweep_seminorm(a, delta, grid_size, sweep):
    """Reference: the sweep of all 13 x sweep shifts, repeats included, and
    the maximum over scales of omega_2 / s^delta."""
    scales = [np.pi * 2.0 ** (-i) for i in range(13)]
    hs = np.concatenate([np.linspace(s / sweep, s, sweep) for s in scales])
    per_scale = _full_sweep_maxima(a, 2, hs, grid_size).reshape(13, sweep).max(axis=1)
    best = 0.0
    for s, omega in zip(scales, per_scale):
        best = max(best, float(omega) / s**delta)
    return best


@pytest.mark.parametrize("block_size, sweep", [(1, 512), (2, 64)])
def test_zygmund_seminorm_matches_full_sweep(block_size, sweep):
    rng = np.random.default_rng(60 + block_size)
    g = (tp.zygmund_symbol(0.75, 6, seed=4) if block_size == 1
         else random_block_symbol(rng, block_size=2, max_offset=4))
    scales = [np.pi * 2.0 ** (-i) for i in range(13)]
    hs = np.concatenate([np.linspace(s / sweep, s, sweep) for s in scales])
    assert len(np.unique(hs)) < len(hs)
    assert tp.zygmund_seminorm(g, 0.6, 1024, sweep) == _full_sweep_seminorm(g, 0.6, 1024, sweep)


_ONE_LEFT = _BATCH_SAMPLES // (1024 * 4) + 1  # 2x2 at grid 1024: last batch, one shift


@settings(max_examples=40)
@given(_symbols(), st.integers(1, 2), st.floats(1e-4, np.pi), st.integers(1, 64),
       st.floats(0.05, 1.0))
@example(tp.LaurentMatrixSeries(2, {1: np.eye(2), -3: [[0, 2j], [1, 0]]}, grid_size=256),
         2, np.pi, _ONE_LEFT, 0.5)
@example(tp.LaurentMatrixSeries(1, {}, grid_size=256), 1, 1.0, 7, 0.5)
def test_skipping_sweep_matches_full_sweep(a, order, s, sweep, delta):
    # shifts are skipped by a bound; the values are the full sweep's, bit for bit
    assert (tp.modulus_of_smoothness(a, order, s, 1024, sweep)
            == _full_sweep_modulus(a, order, s, 1024, sweep))
    assert tp.zygmund_seminorm(a, delta, 1024, sweep) == _full_sweep_seminorm(a, delta, 1024, sweep)


def _count_sampled_shifts(monkeypatch):
    """Patch approx._sample_rows to count the shifts it samples."""
    counted = []
    sample_rows = approx._sample_rows

    def counting(offsets, table, m):
        counted.append(table.shape[0])
        return sample_rows(offsets, table, m)

    monkeypatch.setattr(approx, "_sample_rows", counting)
    return counted


def test_sweep_skips_shifts_that_cannot_win(monkeypatch):
    counted = _count_sampled_shifts(monkeypatch)
    g = tp.zygmund_symbol(0.75, 8, 1)
    value = tp.modulus_of_smoothness(g, 2, np.pi / 2**12)
    assert 0 < sum(counted) <= 64  # of 512 shifts
    assert value == _full_sweep_modulus(g, 2, np.pi / 2**12, 4096, 512)


def test_constant_symbol_samples_no_shift(monkeypatch):
    counted = _count_sampled_shifts(monkeypatch)
    const = tp.scalar_symbol({0: 3.0})
    assert tp.modulus_of_smoothness(const, 1, np.pi) == 0.0
    assert tp.modulus_of_smoothness(tp.LaurentMatrixSeries(2, {}), 2, 1.0) == 0.0
    assert tp.zygmund_seminorm(const, 0.5) == 0.0
    assert counted == []


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
