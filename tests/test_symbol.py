import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import toepasym as tp
from conftest import random_block_symbol, random_scalar_symbol


def test_constant_function_coefficients():
    grid = tp.SymbolGrid(1, np.ones(64))
    series, tail = tp.coefficients_from_samples(grid, 4)
    assert series.support() == [0]
    assert series.block(0)[0, 0] == pytest.approx(1.0)
    assert tail == pytest.approx(0.0, abs=1e-14)


def test_rational_fixture_coefficients(rational_symbol):
    series, tail = tp.coefficients_from_samples(rational_symbol.sample(16), 2)
    assert series.block(0)[0, 0] == pytest.approx(1.25, abs=1e-13)
    assert series.block(1)[0, 0] == pytest.approx(-0.5, abs=1e-13)
    assert series.block(-1)[0, 0] == pytest.approx(-0.5, abs=1e-13)
    assert series.block(2)[0, 0] == pytest.approx(0.0, abs=1e-13)
    assert tail < 1e-13


def test_support_outside_cutoff_goes_to_tail():
    t3 = tp.scalar_symbol({3: 1.0})
    series, tail = tp.coefficients_from_samples(t3.sample(16), 2)
    assert series.support() == []
    assert tail == pytest.approx(1.0, abs=1e-12)


def test_cutoff_too_large():
    grid = tp.SymbolGrid(1, np.ones(8))
    with pytest.raises(tp.CutoffTooLarge):
        tp.coefficients_from_samples(grid, 4)


def test_roundtrip_random_symbols():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = random_block_symbol(rng, block_size=2, max_offset=5)
        back, tail = tp.coefficients_from_samples(a.sample(), 5)
        assert tail < 1e-12
        for k in range(-5, 6):
            np.testing.assert_allclose(back.block(k), a.block(k), atol=1e-12)


def test_evaluate(rational_symbol):
    assert rational_symbol.eval(0.0)[0, 0] == pytest.approx(0.25)
    assert rational_symbol.eval(np.pi)[0, 0] == pytest.approx(2.25)
    eye = tp.identity_symbol(3)
    np.testing.assert_allclose(eye.eval(1.234), np.eye(3))


def test_reverse():
    a = tp.scalar_symbol({0: 1.0, 1: 0.3})
    r = tp.reverse(a)
    assert r.block(-1)[0, 0] == pytest.approx(0.3)
    assert r.block(0)[0, 0] == pytest.approx(1.0)
    sym = tp.scalar_symbol({0: 1.0, 1: 0.5, -1: 0.5})
    rs = tp.reverse(sym)
    for k in (-1, 0, 1):
        assert rs.block(k)[0, 0] == sym.block(k)[0, 0]
    rng = np.random.default_rng(3)
    a = random_scalar_symbol(rng)
    rr = tp.reverse(tp.reverse(a))
    for k in a.support():
        np.testing.assert_allclose(rr.block(k), a.block(k))


def _inverse_residual(a, inv, m=1024):
    """sup_j |a(t_j) inv(t_j) - I| on an m-point grid."""
    prod = a.sample(m).samples @ inv.sample(m).samples
    return float(np.max(np.abs(prod - np.eye(a.block_size))))


def test_certified_inverse_constant():
    a = tp.scalar_symbol({0: 2.0})
    inv = tp.certified_inverse(a)
    assert inv.block(0)[0, 0] == pytest.approx(0.5, abs=1e-13)
    assert _inverse_residual(a, inv) < 1e-12


def test_certified_inverse_geometric(geometric_symbol):
    inv = tp.certified_inverse(geometric_symbol)
    for k in range(0, 41):
        assert abs(inv.block(k)[0, 0] - 0.5**k) < 1e-10
    assert _inverse_residual(geometric_symbol, inv) < 1e-10


def test_certified_inverse_shift():
    inv = tp.certified_inverse(tp.scalar_symbol({1: 1.0}))
    assert inv.support() == [-1]
    assert inv.block(-1)[0, 0] == pytest.approx(1.0, abs=1e-13)


def test_certified_inverse_singular():
    # 1 + t vanishes at theta = pi
    with pytest.raises(tp.SingularSymbol):
        tp.certified_inverse(tp.scalar_symbol({0: 1.0, 1: 1.0}))


@pytest.mark.parametrize("theta_node, blocks", [
    # a(0) = diag(0, 0.5) exactly: LAPACK reports the singular block
    (0, {0: np.eye(2), 1: np.diag([-1.0, -0.5])}),
    # singular at theta = pi only, up to the rounding of the samples
    (256, {0: np.array([[1.0, 0.3], [0.0, 1.0]]), 1: np.diag([1.0, 0.5])}),
])
def test_certified_inverse_singular_block_message(theta_node, blocks):
    a = tp.LaurentMatrixSeries(2, blocks)
    m = 512  # the first grid of the refinement
    sv = np.linalg.svd(a.sample(m).samples, compute_uv=False)[:, -1]
    assert int(np.argmin(sv)) == theta_node
    with pytest.raises(tp.SingularSymbol) as info:
        tp.certified_inverse(a)
    theta = 2 * np.pi * theta_node / m
    assert str(info.value) == (
        f"smallest singular value {sv[theta_node]:.3e} at theta={theta:.6f}")


def test_guarded_inverse_certifies_or_falls_back_to_svd():
    from toepasym.symbol import _guarded_inverse
    rot = np.array([[0.6, 0.8], [-0.8, 0.6]])
    samples = np.array([np.diag([1.0, 2.0]), 3e-10 * rot, 2.5e-10 * np.eye(2),
                        np.array([[1.0, 1e9], [0.0, 1.0]])], dtype=complex)
    inv, margins = _guarded_inverse(samples[:2])
    assert margins is None  # 1 / ||A^-1||_F >= 3e-10 / sqrt(2) > 2e-10
    np.testing.assert_array_equal(inv, np.linalg.inv(samples[:2]))
    # sigma_min = 2.5e-10 and ~1e-9 exceed 1e-10, but 1 / ||A^-1||_F does
    # not exceed 2e-10: the exact SVD decides, the inverse is unchanged
    inv, margins = _guarded_inverse(samples)
    np.testing.assert_array_equal(inv, np.linalg.inv(samples))
    np.testing.assert_array_equal(
        margins, np.linalg.svd(samples, compute_uv=False)[:, -1])
    assert margins.min() > 1e-10
    # an exactly singular block: no inverse, its margin is zero
    inv, margins = _guarded_inverse(np.array([np.eye(2), np.diag([1.0, 0.0])]))
    assert inv is None and margins[1] == 0.0
    # 1 / ||A^-1||_F is 3e-10 > 2e-10, but eps cond_F(A) is ~0.7: a
    # computed inverse that ill-conditioned certifies nothing, the SVD decides
    ill = np.array([np.diag([1e6, 3e-10])], dtype=complex)
    inv, margins = _guarded_inverse(ill)
    np.testing.assert_array_equal(
        margins, np.linalg.svd(ill, compute_uv=False)[:, -1])


def test_certified_inverse_raises_at_grid_cap():
    # 1 - 0.999 t: the inverse decays like 0.999^k, so 2^17 nodes still
    # alias far more than the tolerance
    with pytest.raises(tp.NoConvergence, match="certified_inverse"):
        tp.certified_inverse(tp.scalar_symbol({0: 1.0, 1: -0.999}))


def test_refine_raises_with_stage_and_gap():
    from toepasym.symbol import _refine

    def never_settles(m, prev):
        return m, 1.0

    with pytest.raises(tp.NoConvergence) as info:
        _refine(never_settles, 8, 64, 1e-3)
    message = str(info.value)
    # the stage is the function that defines the step
    assert message.startswith("test_refine_raises_with_stage_and_gap:")
    assert "1.000e+00" in message
    assert "64" in message


def test_refine_returns_first_settled_value():
    from toepasym.symbol import _refine
    seen = []

    def halving(m, prev):
        seen.append(m)
        return m, 1.0 / m

    assert _refine(halving, 8, 1024, 1e-2) == 128
    assert seen == [8, 16, 32, 64, 128]


def test_multiply_hand_expansion():
    left = tp.scalar_symbol({0: 1.0, 1: -0.5})
    right = tp.scalar_symbol({0: 1.0, -1: -0.5})
    prod = tp.multiply(left, right)
    assert prod.block(0)[0, 0] == pytest.approx(1.25)
    assert prod.block(1)[0, 0] == pytest.approx(-0.5)
    assert prod.block(-1)[0, 0] == pytest.approx(-0.5)


def test_multiply_identity_and_shift(rational_symbol):
    prod = tp.multiply(rational_symbol, tp.identity_symbol())
    for k in (-1, 0, 1):
        assert prod.block(k)[0, 0] == rational_symbol.block(k)[0, 0]
    one = tp.multiply(tp.scalar_symbol({1: 1.0}), tp.scalar_symbol({-1: 1.0}))
    assert one.support() == [0]
    assert one.block(0)[0, 0] == pytest.approx(1.0)


def test_multiply_associative():
    rng = np.random.default_rng(7)
    for _ in range(3):
        a = random_block_symbol(rng, 2, 2)
        b = random_block_symbol(rng, 2, 2)
        c = random_block_symbol(rng, 2, 2)
        left = tp.multiply(tp.multiply(a, b), c)
        right = tp.multiply(a, tp.multiply(b, c))
        for k in set(left.support()) | set(right.support()):
            np.testing.assert_allclose(left.block(k), right.block(k), atol=1e-13)


def _pairwise_multiply(a, b):
    """Reference: the convolution one pair of blocks at a time."""
    out = {}
    for k1, b1 in a.coeffs.items():
        for k2, b2 in b.coeffs.items():
            prod = b1 @ b2
            out[k1 + k2] = out[k1 + k2] + prod if k1 + k2 in out else prod
    return tp.LaurentMatrixSeries(a.block_size, out)


_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]),
                     st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def _series(draw, n=None, entries=_ENTRIES):
    """A series of block size n (drawn from 1-3 when None), offsets in -6..6;
    its blocks are real or complex, with signed zeros in either part."""
    if n is None:
        n = draw(st.integers(1, 3))
    offsets = draw(st.lists(st.integers(-6, 6), unique=True, max_size=6))
    coeffs = {}
    for k in offsets:
        parts = draw(st.lists(entries, min_size=2 * n * n, max_size=2 * n * n))
        re, im = np.reshape(parts, (2, n, n))
        coeffs[k] = re
        if draw(st.booleans()):
            coeffs[k] = re.astype(complex)
            coeffs[k].imag = im  # re + 1j * im would turn -0.0 into 0.0
    return tp.LaurentMatrixSeries(n, coeffs)


@st.composite
def _series_pairs(draw):
    n = draw(st.integers(1, 3))
    return draw(_series(n)), draw(_series(n))


@given(_series_pairs())
def test_multiply_matches_pairwise_convolution(pair):
    a, b = pair
    prod, ref = tp.multiply(a, b), _pairwise_multiply(a, b)
    assert list(prod.coeffs) == list(ref.coeffs)
    for k, blk in ref.coeffs.items():
        np.testing.assert_array_equal(prod.coeffs[k], blk)
        for part in (np.real, np.imag):
            np.testing.assert_array_equal(np.signbit(part(prod.coeffs[k])),
                                          np.signbit(part(blk)))


def test_multiply_keeps_negative_zeros(two_block_symbol):
    # -0.5 r has a -0.0 entry below the diagonal
    prod = tp.multiply(two_block_symbol, tp.identity_symbol(2))
    assert np.signbit(prod.block(1)[1, 0].real)
    assert tp.symbol_to_json(prod) == tp.symbol_to_json(two_block_symbol)


@pytest.mark.parametrize("coeffs, error, message", [
    ({0: np.zeros(3)}, tp.BlockSizeMismatch, "expected 2x2 block, got shape (3,)"),
    ({0: np.eye(2), 1: np.eye(3)}, tp.BlockSizeMismatch,
     "expected 2x2 block, got shape (3, 3)"),
    ({0: [[np.nan, 0.0], [0.0, 1.0]], 1: np.zeros(3)}, ValueError,
     "symbol blocks must be finite"),
    ({0: np.eye(2), 1: np.full((2, 2), np.inf)}, ValueError,
     "symbol blocks must be finite"),
])
def test_block_validation_names_first_fault(coeffs, error, message):
    with pytest.raises(error) as info:
        tp.LaurentMatrixSeries(2, coeffs)
    assert str(info.value) == message


def test_blocks_stored_read_only_in_order():
    src = np.eye(2)
    a = tp.LaurentMatrixSeries(2, {np.int64(2): src, 0: np.zeros((2, 2)),
                                   -1: [[0.0, -0.0], [1.0, 0.0]]})
    src[0, 0] = 5.0
    assert list(a.coeffs) == [2, -1]
    assert all(type(k) is int for k in a.coeffs)
    assert a.block(2)[0, 0] == 1.0
    assert not any(blk.flags.writeable for blk in a.coeffs.values())
    s = tp.LaurentMatrixSeries(1, {0: 2.0, 1: 0.0, 3: 1j})
    assert list(s.coeffs) == [0, 3] and s.block(3)[0, 0] == 1j


def test_multiply_block_mismatch():
    with pytest.raises(tp.BlockSizeMismatch):
        tp.multiply(tp.identity_symbol(1), tp.identity_symbol(2))


def test_zygmund_coefficients():
    z = tp.zygmund_symbol(1.0, 2)
    assert z.block(0)[0, 0] == pytest.approx(3.75)
    assert z.block(1)[0, 0] == pytest.approx(0.5)
    assert z.block(2)[0, 0] == pytest.approx(0.25)
    assert z.block(4)[0, 0] == pytest.approx(0.125)
    assert z.block(-4)[0, 0] == pytest.approx(0.125)
    assert z.smoothness_tag == pytest.approx(1.0)


def test_zygmund_lacunary_support():
    z = tp.zygmund_symbol(0.8, 5, seed=11)
    allowed = {0} | {1 << j for j in range(6)} | {-(1 << j) for j in range(6)}
    assert set(z.support()) <= allowed
    assert z.max_offset == 32


def test_zygmund_amplitude_scaling():
    z2 = tp.zygmund_symbol(2.0, 1)
    z1 = tp.zygmund_symbol(1.0, 1)
    assert abs(z2.block(2)[0, 0]) == pytest.approx(2.0**-2 / 2)
    assert abs(z1.block(2)[0, 0]) == pytest.approx(2.0**-1 / 2)


def test_zygmund_deterministic_seed():
    z1 = tp.zygmund_symbol(0.75, 4, seed=5)
    z2 = tp.zygmund_symbol(0.75, 4, seed=5)
    for k in z1.support():
        np.testing.assert_array_equal(z1.block(k), z2.block(k))


def test_winding_number(rational_symbol):
    assert tp.winding_number(tp.scalar_symbol({1: 1.0})) == 1
    assert tp.winding_number(rational_symbol) == 0
    assert tp.winding_number(tp.scalar_symbol({-2: 1.0})) == -2


def test_winding_positive_scaling_invariance(rational_symbol):
    scaled = tp.multiply(tp.scalar_symbol({0: 7.5}), rational_symbol)
    assert tp.winding_number(scaled) == tp.winding_number(rational_symbol)


def test_winding_grid_too_coarse():
    spike = tp.scalar_symbol({100: 1.0}, grid_size=256)
    with pytest.raises(tp.GridTooCoarse):
        tp.winding_number(spike, grid_size=256)


def test_winding_singular():
    with pytest.raises(tp.SingularSymbol):
        tp.winding_number(tp.scalar_symbol({0: 1.0, 1: 1.0}))


def test_grid_size_validation():
    with pytest.raises(tp.GridTooCoarse):
        tp.LaurentMatrixSeries(1, {5: np.array([[1.0]])}, grid_size=8)
    with pytest.raises(tp.GridTooCoarse):
        tp.LaurentMatrixSeries(1, {0: np.array([[1.0]])}, grid_size=100)


def test_json_roundtrip_bit_exact():
    rng = np.random.default_rng(13)
    a = random_block_symbol(rng, 2, 3)
    a = tp.LaurentMatrixSeries(2, a.coeffs, smoothness_tag=0.75)
    text = tp.symbol_to_json(a)
    back = tp.symbol_from_json(text)
    assert tp.symbol_to_json(back) == text
    for k in a.support():
        np.testing.assert_array_equal(back.block(k), a.block(k))
    assert back.smoothness_tag == a.smoothness_tag


def test_json_schema(tmp_path, rational_symbol):
    path = tmp_path / "s.json"
    tp.save_symbol(rational_symbol, path)
    data = json.loads(path.read_text())
    assert data["n"] == 1
    ks = [entry["k"] for entry in data["coeffs"]]
    assert ks == sorted(ks)
    assert data["coeffs"][0]["re"] == [[-0.5]]
    loaded = tp.load_symbol(path)
    assert loaded.block(0)[0, 0] == 1.25


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
def test_forward_norm_fft_is_bitwise_scaled_fft(scale):
    # power-of-two M: scaling inside the transform rounds exactly like
    # multiplying or dividing its output by M
    rng = np.random.default_rng(int(np.log10(scale)) + 400)
    for m in (1 << e for e in range(1, 18)):
        x = scale * (rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2)))
        for axis in (0, 1):
            forward = np.fft.ifft(x, axis=axis, norm="forward")
            np.testing.assert_array_equal(forward, x.shape[axis] * np.fft.ifft(x, axis=axis))
            forward = np.fft.fft(x, axis=axis, norm="forward")
            np.testing.assert_array_equal(forward, np.fft.fft(x, axis=axis) / x.shape[axis])


def _bits(a):
    """Offsets with their blocks' bytes, grid size and tag: equal for two
    series exactly when they are bitwise equal, signed zeros included."""
    tag = None if a.smoothness_tag is None else np.float64(a.smoothness_tag).tobytes()
    return [(k, blk.tobytes()) for k, blk in a.coeffs.items()], a.grid_size, tag


@given(_series(), st.none() | st.floats(0.01, 4.0))
def test_reverse_twice_is_bitwise_identity(a, gamma):
    a = tp.LaurentMatrixSeries(a.block_size, a.coeffs, 2 * a.grid_size, gamma)
    assert _bits(tp.reverse(tp.reverse(a))) == _bits(a)


@given(_series(entries=_ENTRIES | st.floats(allow_nan=False, allow_infinity=False)),
       st.none() | st.floats(allow_nan=False, allow_infinity=False))
@example(tp.LaurentMatrixSeries(1, {0: np.array([[complex(-0.0, -0.0)]]),
                                    1: np.array([[complex(1.0, -0.0)]])}), -0.0)
def test_json_roundtrip_is_bitwise(a, gamma):
    # the file lists offsets in increasing order
    a = tp.LaurentMatrixSeries(a.block_size, dict(sorted(a.coeffs.items())),
                               smoothness_tag=gamma)
    assert _bits(tp.symbol_from_json(tp.symbol_to_json(a))) == _bits(a)


def _sample_per_offset(a, m):
    """Reference: one block per offset placed in an M-point array, then one
    inverse FFT."""
    n = a.block_size
    carr = np.zeros((m, n, n), dtype=complex)
    for k, blk in a.coeffs.items():
        carr[k % m] += blk
    return np.fft.ifft(carr, axis=0, norm="forward")


@given(_series(), st.sampled_from([None, 16, 64, 1 << 14]))
@example(tp.LaurentMatrixSeries(1, {}), None)
@example(tp.LaurentMatrixSeries(3, {}), 1 << 14)
def test_sample_matches_per_offset_loop(a, m):
    got = a.sample(m).samples
    want = _sample_per_offset(a, a.grid_size if m is None else m)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))
