import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import toepasym as tp
from toepasym.toeplitz import _correction_sections
from conftest import random_block_symbol, random_scalar_symbol


def test_toeplitz_section_identity():
    t = tp.toeplitz_section(tp.identity_symbol(), 3)
    np.testing.assert_allclose(t.data, np.eye(4))


def test_toeplitz_section_fixture(rational_symbol):
    t = tp.toeplitz_section(rational_symbol, 1)
    np.testing.assert_allclose(t.data, [[1.25, -0.5], [-0.5, 1.25]])


def test_toeplitz_section_block_constant():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    t = tp.toeplitz_section(tp.constant_symbol(a), 1)
    expected = np.zeros((4, 4))
    expected[:2, :2] = a
    expected[2:, 2:] = a
    np.testing.assert_allclose(t.data, expected)
    assert t.block_rows == 2 and t.block_cols == 2


def test_hankel_section_fixture(rational_symbol):
    h = tp.hankel_section(rational_symbol, 2)
    np.testing.assert_allclose(h.data, [[-0.5, 0.0], [0.0, 0.0]])


def test_hankel_negative_support_only():
    a = tp.scalar_symbol({-1: 1.0, -3: 2.0})
    h = tp.hankel_section(a, 4)
    np.testing.assert_allclose(h.data, np.zeros((4, 4)))


def test_hankel_single_entry():
    h = tp.hankel_section(tp.scalar_symbol({2: 1.0}), 3)
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 0] = 1.0
    np.testing.assert_allclose(h.data, expected)


def _gathered(a, lo, hi, idx):
    """Reference: the section gathered block by block from the offset table."""
    from toepasym.toeplitz import _assemble, _offset_table
    return _assemble(_offset_table(a, lo, hi), idx, lo)


@pytest.mark.parametrize("block_size", [1, 2, 3])
def test_sections_match_gathered(block_size):
    rng = np.random.default_rng(block_size)
    coeffs = {}
    for k in range(-6, 7):
        blk = rng.standard_normal((block_size, block_size)) + 1j * rng.standard_normal(
            (block_size, block_size))
        blk.real[0, 0] = -0.0
        blk.imag[-1, -1] = -0.0 if k % 2 else 0.0
        coeffs[k] = blk
    a = tp.LaurentMatrixSeries(block_size, coeffs)
    for n in (0, 1, 2, 64, 257):
        j = np.arange(n + 1)
        pairs = [(tp.toeplitz_section(a, n).data, _gathered(a, -n, n, j[:, None] - j[None, :])),
                 (tp.hankel_section(a, n + 1).data,
                  _gathered(a, 1, 2 * n + 1, j[:, None] + j[None, :] + 1))]
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            for part in ("real", "imag"):
                assert np.array_equal(np.signbit(getattr(got, part)),
                                      np.signbit(getattr(want, part)))


def test_hermitian_coefficient_symbol_gives_hermitian_section():
    rng = np.random.default_rng(11)
    coeffs = {0: rng.standard_normal((2, 2))}
    coeffs[0] = coeffs[0] + coeffs[0].T
    for k in (1, 2):
        blk = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        coeffs[k] = blk
        coeffs[-k] = blk.conj().T
    a = tp.LaurentMatrixSeries(2, coeffs)
    t = tp.toeplitz_section(a, 4).data
    np.testing.assert_allclose(t, t.conj().T, atol=1e-14)


def test_correction_term_identity_symbol_vanishes():
    one = tp.identity_symbol()
    for ell in (0, 1, 3):
        for k in (0, 1, 2):
            ct = tp.correction_term(one, one, ell, k)
            np.testing.assert_allclose(ct.value, 0.0)
            assert ct.truncation_error_bound == 0.0


def test_correction_term_rational_closed_form(rational_bc):
    b, c = rational_bc
    ct = tp.correction_term(b, c, 1, 0)
    assert ct.value[0, 0] == pytest.approx(0.046875, abs=1e-12)
    # stability under enlarging the truncation
    ct2 = tp.correction_term(b, c, 1, 0, m=64)
    assert abs(ct.value[0, 0] - ct2.value[0, 0]) < 1e-10


def test_correction_term_submultiplicative(rational_bc):
    b, c = rational_bc
    ell, k, m = 1, 5, 12
    ct = tp.correction_term(b, c, ell, k, m=m, tail_tol=1.0)
    row, inner, col = _correction_sections(b, c, ell, m)
    bound = (np.linalg.norm(row, 2) * np.linalg.norm(col, 2)
             * np.linalg.norm(inner, 2) ** k)
    assert np.linalg.norm(ct.value, 2) <= bound + 1e-15
    assert ct.truncation_error_bound >= 0


def test_correction_term_validation(rational_bc):
    b, c = rational_bc
    with pytest.raises(ValueError):
        tp.correction_term(b, c, 4, 0, m=10)


def test_log_det_direct(rational_symbol):
    assert tp.log_det_direct(rational_symbol, 0) == pytest.approx(np.log(1.25))
    assert tp.log_det_direct(rational_symbol, 1) == pytest.approx(np.log(1.3125))
    assert tp.log_det_direct(tp.identity_symbol(), 7) == pytest.approx(0.0)


def test_log_det_singular_section():
    # T_n(t) is nilpotent (strictly lower triangular)
    with pytest.raises(tp.NumericallySingularSection):
        tp.log_det_direct(tp.scalar_symbol({1: 1.0}), 4)


def test_log_det_scan_branch_continuity():
    # complex symbol with drifting determinant phase stays continuous in n
    a = tp.scalar_symbol({0: 2.0 + 2.0j, 1: -0.5, -1: 0.25j})
    vals = tp.log_det_scan(a, range(1, 30))
    steps = np.abs(np.diff([v.imag for v in vals]))
    assert steps.max() < np.pi


def test_trace_f_identity_linear(rational_symbol):
    rng = np.random.default_rng(23)
    ident = tp.polynomial((0.0, 1.0))
    for n in (0, 2, 5):
        a = random_block_symbol(rng, 2, 2)
        val = tp.trace_f_direct(a, n, ident)
        assert val == pytest.approx((n + 1) * np.trace(a.block(0)), abs=1e-10)


def test_trace_f_square_fixture(rational_symbol):
    val = tp.trace_f_direct(rational_symbol, 1, tp.SQUARE)
    assert val == pytest.approx(3.625, abs=1e-10)


def test_trace_f_constant(rational_symbol):
    const = tp.polynomial((1.0,))
    assert tp.trace_f_direct(rational_symbol, 5, const) == pytest.approx(6.0)
    rng = np.random.default_rng(1)
    a = random_block_symbol(rng, 2, 2)
    assert tp.trace_f_direct(a, 3, const) == pytest.approx(8.0, abs=1e-10)


def test_trace_square_convolution_identity():
    rng = np.random.default_rng(31)
    for _ in range(3):
        a = random_scalar_symbol(rng, max_offset=3)
        n = 5
        direct = tp.trace_f_direct(a, n, tp.SQUARE)
        expected = sum((n + 1 - abs(d)) * (a.block(d) @ a.block(-d))[0, 0]
                       for d in range(-n, n + 1))
        assert abs(direct - expected) < 1e-10


def test_widom_identity_at_section_level(rational_symbol):
    # I - section of T(a) T(a^-1) equals the section of H(a) H((a^-1)~)
    a = rational_symbol
    ainv = tp.certified_inverse(a)
    m, pad = 8, 70
    t_big = tp.toeplitz_section(a, m + pad).data
    tinv_big = tp.toeplitz_section(ainv, m + pad).data
    prod = (t_big @ tinv_big)[: m + 1, : m + 1]
    h = tp.hankel_section(a, m + 1).data @ tp.hankel_section(tp.reverse(ainv), m + 1).data
    np.testing.assert_allclose(np.eye(m + 1) - prod, h, atol=1e-8)


@st.composite
def _symbol_pairs(draw):
    """Two random block symbols of size 1-3 with offsets in -4..4."""
    size = draw(st.integers(1, 3))
    entries = st.floats(-4.0, 4.0, allow_nan=False)

    def series():
        offsets = draw(st.lists(st.integers(-4, 4), unique=True, min_size=1, max_size=5))
        coeffs = {}
        for k in offsets:
            parts = draw(st.lists(entries, min_size=2 * size * size, max_size=2 * size * size))
            re, im = np.reshape(parts, (2, size, size))
            coeffs[k] = re + 1j * im
        return tp.LaurentMatrixSeries(size, coeffs)

    return series(), series(), draw(st.integers(0, 8))


@given(_symbol_pairs())
def test_product_section_is_toeplitz_plus_hankel_product(case):
    # T(ab) = T(a) T(b) + H(a) H(b~): with supports within K, the padded
    # products are exact on the top-left n + 1 blocks
    a, b, n = case
    k = max(a.max_offset, b.max_offset)
    rows = (n + 1) * a.block_size
    toeplitz = tp.toeplitz_section(a, n + k).data @ tp.toeplitz_section(b, n + k).data
    hankel = (tp.hankel_section(a, n + k + 1).data
              @ tp.hankel_section(tp.reverse(b), n + k + 1).data)
    expected = (toeplitz + hankel)[:rows, :rows]
    got = tp.toeplitz_section(tp.multiply(a, b), n).data
    scale = (sum(np.linalg.norm(blk) for blk in a.coeffs.values())
             * sum(np.linalg.norm(blk) for blk in b.coeffs.values()))
    assert np.max(np.abs(got - expected), initial=0.0) <= 1e-12 * scale


def test_truncation_norms_identity_symbol():
    one = tp.identity_symbol()
    tn = tp.truncation_norms(one, one, 4)
    assert tn.tb_tail == tn.hb_tail == tn.tc_tail == tn.hc_tail == 0.0


def test_truncation_norms_geometric_tail(rational_bc):
    b, c = rational_bc
    tn = tp.truncation_norms(b, c, 4)
    exact = 0.75 * np.sqrt(0.5 ** 10 / 0.75)
    assert tn.tb_tail == pytest.approx(exact, abs=1e-8)
    # symmetric fixture: the c-side tails match the b-side ones
    assert tn.tc_tail == pytest.approx(tn.tb_tail, abs=1e-12)


def test_truncation_norms_monotone(rational_bc):
    b, c = rational_bc
    for n in (2, 4, 8):
        small = tp.truncation_norms(b, c, 2 * n)
        large = tp.truncation_norms(b, c, n)
        assert small.tb_tail <= large.tb_tail + 1e-15
        assert small.hb_tail <= large.hb_tail + 1e-15
