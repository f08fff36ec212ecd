import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import toepasym as tp
from toepasym import factor


def _sup_diff(x, y):
    m = max(x.grid_size, y.grid_size)
    return float(np.max(np.abs(x.sample(m).samples - y.sample(m).samples)))


def test_scalar_fixture_hand_factorization(rational_symbol):
    w = tp.scalar_wiener_hopf(rational_symbol)
    assert w.u_minus.support() == [-1, 0]
    assert w.u_minus.block(0)[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert w.u_minus.block(-1)[0, 0] == pytest.approx(-0.5, abs=1e-10)
    assert w.u_plus.block(0)[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert w.u_plus.block(1)[0, 0] == pytest.approx(-0.5, abs=1e-10)
    assert w.residuals.product_residual_right < 1e-9
    assert w.residuals.leakage <= 1e-8


def test_scalar_constant_normalization():
    w = tp.scalar_wiener_hopf(tp.scalar_symbol({0: 2.0}))
    assert w.u_minus.block(0)[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert w.u_plus.block(0)[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_scalar_nonzero_winding():
    with pytest.raises(tp.NonZeroWinding):
        tp.scalar_wiener_hopf(tp.scalar_symbol({1: 1.0}))


def test_block_matches_scalar(rational_symbol):
    ws = tp.scalar_wiener_hopf(rational_symbol)
    wb = tp.block_wiener_hopf(rational_symbol, section=128)
    for a, b in ((ws.u_minus, wb.u_minus), (ws.u_plus, wb.u_plus),
                 (ws.v_plus, wb.v_plus), (ws.v_minus, wb.v_minus)):
        assert _sup_diff(a, b) < 1e-8


def test_block_constant_matrix():
    a = np.array([[2.0, 0.5], [0.1, 1.5]])
    w = tp.block_wiener_hopf(tp.constant_symbol(a), section=32)
    np.testing.assert_allclose(w.u_minus.block(0), np.eye(2), atol=1e-10)
    np.testing.assert_allclose(w.u_plus.block(0), a, atol=1e-10)
    np.testing.assert_allclose(w.v_plus.block(0), a, atol=1e-10)
    np.testing.assert_allclose(w.v_minus.block(0), np.eye(2), atol=1e-10)


def test_block_two_by_two_fixture(two_block_symbol):
    w = tp.block_wiener_hopf(two_block_symbol, section=256)
    r = w.residuals
    assert r.product_residual_right <= 1e-8
    assert r.product_residual_left <= 1e-8
    assert r.leakage <= 1e-8
    assert factor._factors_margin((w.u_minus, w.u_plus, w.v_plus, w.v_minus)) > 0
    assert abs(np.linalg.det(w.u_plus.block(0))) > 0.01


def test_one_sided_support_exact(two_block_symbol):
    w = tp.block_wiener_hopf(two_block_symbol, section=128)
    assert all(k <= 0 for k in w.u_minus.support())
    assert all(k >= 0 for k in w.u_plus.support())
    assert all(k >= 0 for k in w.v_plus.support())
    assert all(k <= 0 for k in w.v_minus.support())


def test_normalization_uniqueness(two_block_symbol):
    w1 = tp.block_wiener_hopf(two_block_symbol, section=128)
    w2 = tp.block_wiener_hopf(two_block_symbol, section=128)
    assert _sup_diff(w1.u_plus, w2.u_plus) == 0.0


def test_section_doubling_stability(two_block_symbol):
    w1 = tp.block_wiener_hopf(two_block_symbol, section=128)
    w2 = tp.block_wiener_hopf(two_block_symbol, section=256)
    for a, b in ((w1.u_minus, w2.u_minus), (w1.u_plus, w2.u_plus),
                 (w1.v_plus, w2.v_plus), (w1.v_minus, w2.v_minus)):
        assert _sup_diff(a, b) <= 1e-8


def test_fixture_left_factors_exact(two_block_symbol):
    # v_plus = I - 0.5 R' t and v_minus = c (I - 0.5 R'' / t) for some
    # constant blocks: no round-off tails survive the trims
    w = tp.block_wiener_hopf(two_block_symbol, section=256)
    assert w.v_plus.support() == [0, 1]
    assert w.v_minus.support() == [-1, 0]
    assert w.residuals.product_residual_left <= 1e-14


def test_one_lu_per_section_pass(monkeypatch, two_block_symbol):
    calls = []
    gbtrf = scipy.linalg.lapack.zgbtrf

    def counting(ab, kl, ku, **kwargs):
        calls.append((ab.shape[1], kl, ku))
        return gbtrf(ab, kl, ku, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "zgbtrf", counting)
    tp.block_wiener_hopf(two_block_symbol, section=64)
    assert calls == [(130, 3, 3)]
    # tolerance zero fails both passes, the second on the doubled section
    del calls[:]
    with pytest.raises(tp.NonCanonical):
        tp.block_wiener_hopf(two_block_symbol, section=64, tol=0.0)
    assert calls == [(130, 3, 3), (258, 3, 3)]


@pytest.mark.parametrize("section", [0, -1])
def test_section_below_one_rejected_before_any_work(monkeypatch, section,
                                                    two_block_symbol, rational_symbol):
    def fail(*args, **kwargs):
        raise AssertionError("section was assembled")

    monkeypatch.setattr(factor, "_band_section", fail)
    with pytest.raises(ValueError, match="section must be >= 1"):
        tp.block_wiener_hopf(two_block_symbol, section=section)
    with pytest.raises(ValueError, match="section must be >= 1"):
        tp.canonical_wiener_hopf(rational_symbol, section=section)


@st.composite
def _banded_sections(draw):
    """(a, m): block size 1-3, support two-sided and asymmetric, one-sided
    or constant, and m from 1 up past the bandwidth, so that kl and ku are
    clipped to dim - 1 on the small sections.  The offset-0 block is three
    times the sum of the others' norms (plus at least 0.5), which keeps
    every section invertible and well conditioned."""
    n = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["two-sided", "plus", "minus", "constant"]))
    lo, hi = {"two-sided": (-draw(st.integers(1, 2)), draw(st.integers(3, 5))),
              "plus": (0, draw(st.integers(1, 5))),
              "minus": (-draw(st.integers(1, 5)), 0),
              "constant": (0, 0)}[shape]
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    coeffs = {}
    for k in range(lo, hi + 1):
        parts = draw(st.lists(entries, min_size=2 * n * n, max_size=2 * n * n))
        re, im = np.reshape(parts, (2, n, n))
        coeffs[k] = re + 1j * im
    others = sum(np.linalg.norm(blk, 2) for k, blk in coeffs.items() if k != 0)
    coeffs[0] = coeffs[0] + (3.0 * others + draw(st.floats(0.5, 2.0))) * np.eye(n)
    return tp.LaurentMatrixSeries(n, coeffs), draw(st.integers(1, hi - lo + 3))


@given(_banded_sections())
def test_band_section_matches_dense_section(case):
    a, m = case
    n = a.block_size
    dense = tp.toeplitz_section(a, m)
    dim = dense.shape[0]
    ab, kl, ku = factor._band_section(a, m)
    assert ab.flags.f_contiguous and ab.shape == (2 * kl + ku + 1, dim)
    assert max(kl, ku) <= dim - 1
    # band row q of column j holds entry (q - kl - ku + j, j), zero outside
    # the matrix and in the top kl rows left for fill-in
    i = np.arange(ab.shape[0])[:, None] - kl - ku + np.arange(dim)
    inside = (i >= 0) & (i < dim) & (np.arange(ab.shape[0])[:, None] >= kl)
    want = np.where(inside, dense[np.clip(i, 0, dim - 1), np.arange(dim)], 0.0)
    assert np.array_equal(ab, want)
    rows, cols = np.nonzero(dense)
    assert np.all(rows - cols <= kl) and np.all(cols - rows <= ku)
    norms = factor._section_norms(a, m)
    for key, order in (("1", 1), ("I", np.inf)):
        ref = np.linalg.norm(dense, order)
        assert abs(norms[key] - ref) <= 1e-15 * ref
    # the solves against E_0 and, transposed, against E_m, untrimmed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(factor, "_tail_trim", lambda offsets, blocks, n:
                      tp.LaurentMatrixSeries(n, dict(zip(offsets, blocks))))
        uplus_inv, vplus_inv = factor._first_column_solve(a, m)
    e0, em = np.zeros((dim, n)), np.zeros((dim, n))
    e0[:n], em[-n:] = np.eye(n), np.eye(n)
    x = np.linalg.solve(dense, e0)
    y = np.linalg.solve(dense.T, em)
    got_x = np.concatenate([uplus_inv.block(j) for j in range(m + 1)])
    got_y = np.concatenate([vplus_inv.block(m - j).T for j in range(m + 1)])
    for got, ref in ((got_x, x), (got_y, y)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _partial_index_symbols():
    t, t_inv = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    upper = np.array([[0.0, 1.0], [0.0, 0.0]])
    return {"diag(t, 1/t)": tp.LaurentMatrixSeries(2, {1: t, -1: t_inv}),
            "[[t, 1], [0, 1/t]]": tp.LaurentMatrixSeries(2, {1: t, -1: t_inv, 0: upper}),
            "diag(t, 1/t) + 0.1 I": tp.LaurentMatrixSeries(2, {1: t, -1: t_inv,
                                                                0: 0.1 * np.eye(2)})}


@pytest.mark.parametrize("name", list(_partial_index_symbols()))
def test_nonzero_partial_indices_raise_ill_conditioned_section(name):
    # partial indices (1, -1): the sections are singular or nearly so, and
    # the typed error comes without a warning from the LU; an exact zero
    # pivot (the first two) reads as condition estimate 1e300
    a = _partial_index_symbols()[name]
    estimate = r"\S+" if "0.1 I" in name else r"1\.000e\+300"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tp.IllConditionedSection,
                           match=f"^section condition estimate {estimate} exceeds 1e10$"):
            tp.block_wiener_hopf(a, section=16)


def _left_factors_through_inverse(a, m):
    """Reference left factors from the right factorization of a^-1 =
    f_minus f_plus, with v_plus = f_plus^-1 and v_minus = f_minus^-1."""
    from toepasym.factor import _first_column_solve, _one_sided, _series_tail_trim
    ainv = tp.certified_inverse(a, tol=1e-13)
    v_plus, _ = _first_column_solve(ainv, m)
    f_minus, _ = _one_sided(_series_tail_trim(tp.multiply(ainv, v_plus)), "minus")
    return v_plus, tp.certified_inverse(f_minus, tol=1e-13)


@st.composite
def _canonical_block_symbols(draw):
    """Symbols of block size 1-3 with offsets in -2..2, made canonical by an
    offset-0 block at least three times the sum of the others' norms.  The
    factors then decay at least like 3^(-j/2), so the truncation error of a
    section 64 stays below round-off."""
    n = draw(st.integers(1, 3))
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    coeffs = {}
    for k in draw(st.lists(st.integers(-2, 2), unique=True, min_size=1, max_size=5)):
        parts = draw(st.lists(entries, min_size=2 * n * n, max_size=2 * n * n))
        re, im = np.reshape(parts, (2, n, n))
        coeffs[k] = re + 1j * im
    others = sum(np.linalg.norm(blk, 2) for k, blk in coeffs.items() if k != 0)
    coeffs[0] = coeffs.get(0, 0) + (3.0 * others + draw(st.floats(0.5, 2.0))) * np.eye(n)
    return tp.LaurentMatrixSeries(n, coeffs)


@given(_canonical_block_symbols())
def test_block_factors_multiply_back_one_sided_and_normalized(a):
    m = 64
    w = tp.block_wiener_hopf(a, section=m)
    grid = a.sample(256).samples
    for left, right in ((w.u_minus, w.u_plus), (w.v_plus, w.v_minus)):
        prod = left.sample(256).samples @ right.sample(256).samples
        assert float(np.max(np.abs(prod - grid))) <= 1e-9
    assert all(k <= 0 for k in w.u_minus.support() + w.v_minus.support())
    assert all(k >= 0 for k in w.u_plus.support() + w.v_plus.support())
    eye = np.eye(a.block_size)
    np.testing.assert_allclose(w.u_minus.block(0), eye, atol=1e-9)
    np.testing.assert_allclose(w.v_minus.block(0), eye, atol=1e-9)
    for got, ref in zip((w.v_plus, w.v_minus), _left_factors_through_inverse(a, m)):
        assert _sup_diff(got, ref) <= 1e-8


def test_correction_symbols_geometric(rational_symbol):
    w = tp.scalar_wiener_hopf(rational_symbol)
    b, c = tp.correction_symbols(w)
    assert b.block(-1)[0, 0] == pytest.approx(-0.5, abs=1e-9)
    for j in (0, 1, 2, 5):
        assert b.block(j)[0, 0] == pytest.approx(0.75 * 0.5**j, abs=1e-9)
    # fixture is symmetric under t <-> 1/t, so c is the reversal of b
    assert _sup_diff(c, tp.reverse(b)) < 1e-9


def test_correction_symbols_constant():
    # with u_minus = v_minus = I, u_plus = v_plus = A the mismatch symbols
    # collapse to the constants b = A^-1 and c = A, so every correction
    # matrix vanishes
    a = np.array([[2.0, 0.3], [0.0, 1.0]])
    w = tp.block_wiener_hopf(tp.constant_symbol(a), section=32)
    b, c = tp.correction_symbols(w)
    np.testing.assert_allclose(b.block(0), np.linalg.inv(a), atol=1e-9)
    np.testing.assert_allclose(c.block(0), a, atol=1e-9)
    assert all(np.max(np.abs(b.block(k))) < 1e-9 for k in b.support() if k != 0)
    ct = tp.correction_term(b, c, 1, 0)
    np.testing.assert_allclose(ct.value, 0.0, atol=1e-9)


def test_sweep_constant_symbol():
    a = tp.constant_symbol(np.array([[1.0, 0.2], [0.0, 2.0]]))
    nodes = 20.0 * np.exp(2j * np.pi * np.arange(64) / 64)
    contour = tp.ContourSpec(nodes=nodes, weights=np.ones(64), clearance=1.0,
                             center=0.0, radius=20.0)
    sweep = tp.factorization_sweep(a, contour, section=16)
    assert len(sweep.factors) == 64
    assert sweep.max_product_residual <= 1e-8
    # constant symbols have lambda-independent factor shapes
    assert sweep.continuity_diagnostic < 1e-10


def test_sweep_scalar_fixture_circle(rational_symbol):
    s = tp.estimate_spectrum(rational_symbol)
    contour = tp.build_contour(s, margin=4.0 - s.max_radius, nodes=64)
    sweep = tp.factorization_sweep(rational_symbol, contour, section=64)
    assert sweep.max_product_residual <= 1e-8
    assert sweep.continuity_diagnostic < 0.1


def test_sweep_far_contour_neumann_regime(rational_symbol):
    # far outside the range of a the minus factor is a small perturbation of I
    nodes = 20.0 * np.exp(2j * np.pi * np.arange(64) / 64)
    contour = tp.ContourSpec(nodes=nodes, weights=np.ones(64), clearance=10.0,
                             center=0.0, radius=20.0)
    sweep = tp.factorization_sweep(rational_symbol, contour, section=32)
    assert sweep.continuity_diagnostic < 0.1
    for w in sweep.factors:
        assert _sup_diff(w.u_minus, tp.identity_symbol()) < 0.1


def test_factorization_passes_take_no_svd(monkeypatch, rational_symbol, two_block_symbol):
    # the singular-value margin of the factors is computed by the factor
    # report only, never inside a factorization pass
    def fail(samples):
        raise AssertionError("a factorization pass took an SVD")

    monkeypatch.setattr(factor, "_smallest_singular_values", fail)
    tp.scalar_wiener_hopf(rational_symbol)
    tp.block_wiener_hopf(two_block_symbol, section=64)
    nodes = 20.0 * np.exp(2j * np.pi * np.arange(8) / 8)
    contour = tp.ContourSpec(nodes=nodes, weights=np.ones(8), clearance=10.0,
                             center=0.0, radius=20.0)
    assert len(tp.factorization_sweep(two_block_symbol, contour, section=32).factors) == 8


def _same(x, y):
    assert list(x.coeffs) == list(y.coeffs)
    for k in x.coeffs:
        np.testing.assert_array_equal(x.coeffs[k], y.coeffs[k])


def _trim_by_loop(series, tol=1e-14):
    """Reference tail trim: the blocks in order of |offset|, the outermost
    dropped while their masses, added one at a time, stay at most tol."""
    ordered = sorted(series.coeffs.items(), key=lambda kv: abs(kv[0]))
    total, cut = 0.0, len(ordered)
    for i in range(len(ordered) - 1, -1, -1):
        total += float(np.max(np.abs(ordered[i][1])))
        if total > tol:
            break
        cut = i
    return tp.LaurentMatrixSeries(series.block_size, dict(ordered[:cut]))


@pytest.mark.parametrize("name", ["two_block", "rational", "block3", "zygmund"])
def test_first_column_trim_matches_dict_route(name, two_block_symbol, rational_symbol):
    """The tails are trimmed on the stacked solve columns; the result is
    each column made a series, then trimmed, compared with ==."""
    from conftest import random_block_symbol
    a = {"two_block": two_block_symbol, "rational": rational_symbol,
         "block3": tp.add_constant(random_block_symbol(np.random.default_rng(2), 3, 2), 12.0),
         "zygmund": tp.zygmund_symbol(0.75, 4, seed=1)}[name]
    trim = factor._tail_trim
    dropped = 0
    for m in (64, 256):
        columns = []

        def spy(offsets, blocks, n):
            columns.append(tp.LaurentMatrixSeries(n, dict(zip(offsets, blocks))))
            return trim(offsets, blocks, n)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(factor, "_tail_trim", spy)
            got = factor._first_column_solve(a, m)
        assert len(columns) == 2
        for column, series in zip(columns, got):
            _same(series, _trim_by_loop(column))
            dropped += len(column.coeffs) - len(series.coeffs)
    assert dropped > 0


def _reduction_series():
    """Scalar, 2x2 and 3x3 series, one with 61 blocks spanning 15 decades
    (where pairwise or compensated summation changes the last bits), one
    holding zero and -0.0 entries, and an empty one."""
    rng = np.random.default_rng(11)
    many = {k: 10.0 ** rng.uniform(-15, 0) * (rng.standard_normal((2, 2))
                                              + 1j * rng.standard_normal((2, 2)))
            for k in range(-30, 31)}
    r = np.array([[1.0, 0.2], [-0.0, 1.0]])
    from conftest import random_block_symbol, random_scalar_symbol
    return [tp.scalar_symbol({0: 1.25, 1: -0.5, -1: -0.5}),
            random_scalar_symbol(rng, max_offset=9),
            tp.LaurentMatrixSeries(2, {0: 1.25 * np.eye(2), 1: -0.5 * r, -1: -0.5 * r.T,
                                       2: np.zeros((2, 2)) + 1e-17}),
            random_block_symbol(rng, block_size=3, max_offset=5),
            tp.LaurentMatrixSeries(2, many),
            tp.LaurentMatrixSeries(2, {})]


@pytest.mark.parametrize("series", _reduction_series())
def test_stacked_block_reductions_match_per_block_loops(series):
    """_one_sided, _series_tail_trim, _tail_mass and coefficients_from_samples
    against the per-block loops they replace, compared with ==."""
    from toepasym.factor import _one_sided, _series_tail_trim
    from toepasym.toeplitz import _tail_mass

    items = list(series.coeffs.items())
    for side in ("minus", "plus"):
        kept, leak = {}, 0.0
        for k, blk in items:
            if (k > 0 if side == "minus" else k < 0):
                leak += float(np.max(np.abs(blk)))
            else:
                kept[k] = blk
        cleaned, got = _one_sided(series, side)
        assert got == leak
        _same(cleaned, tp.LaurentMatrixSeries(series.block_size, kept))
        for beyond in (-1, 0, 2, 7):
            total = 0.0
            for k, blk in items:
                if (k if side == "plus" else -k) > beyond:
                    total += float(np.max(np.abs(blk)))
            assert _tail_mass(series, side, beyond) == total
    for tol in (1e-14, 1e-6, 0.3, 1e3):
        _same(_series_tail_trim(series, tol), _trim_by_loop(series, tol))
    grid = series.sample()
    m = grid.grid_size
    hat = np.fft.fft(grid.samples, axis=0) / m
    tol = 64 * np.finfo(float).eps * (float(np.max(np.abs(grid.samples))) if m else 0.0)
    for cutoff in (0, 3, m // 2 - 1):
        kept = {k: hat[k % m] for k in range(-cutoff, cutoff + 1)
                if np.max(np.abs(hat[k % m])) > tol}
        got, _ = tp.coefficients_from_samples(grid, cutoff)
        _same(got, tp.LaurentMatrixSeries(series.block_size, kept))
