import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import toepasym as tp
from toepasym.symbol import _BATCH_SAMPLES, default_grid_size
from conftest import assemble


@pytest.fixture
def fixture_contour(rational_symbol):
    spectrum = tp.estimate_spectrum(rational_symbol)
    return spectrum, tp.build_contour(spectrum, 0.5)


def test_function_registry_parsing():
    sq = tp.parse_function_spec("square")
    assert sq(3.0) == pytest.approx(9.0)
    poly = tp.parse_function_spec("poly:1,0,2")
    assert poly(2.0) == pytest.approx(9.0)
    assert tp.parse_function_spec("exp")(0.0) == pytest.approx(1.0)
    with pytest.raises(tp.ConfigInvalid):
        tp.parse_function_spec("nope")
    with pytest.raises(tp.ConfigInvalid):
        tp.parse_function_spec("poly:a,b")


def test_log_domain_check():
    log = tp.principal_log()
    log.check([1.0, 2.0 + 1.0j])
    with pytest.raises(tp.FNotAnalyticAtSample):
        log.check([-1.0])


def test_estimate_spectrum_constant_matrix():
    a = np.array([[1.0, 0.5], [0.0, 3.0]])
    s = tp.estimate_spectrum(tp.constant_symbol(a))
    for ev in (1.0, 3.0):
        assert np.min(np.abs(s.points - ev)) < 1e-8


def test_estimate_spectrum_fixture(rational_symbol):
    s = tp.estimate_spectrum(rational_symbol)
    re, im = s.points.real, s.points.imag
    assert re.min() >= 0.25 - 1e-6 and re.max() <= 2.25 + 1e-6
    assert np.abs(im).max() < 1e-8
    # the disk's center is the midpoint of the points' extremes
    assert s.centroid == complex(0.5 * (re.min() + re.max()), 0.5 * (im.min() + im.max()))


@st.composite
def _enclosure_cases(draw):
    """A random complex scalar or 2x2 symbol (offsets -3..3) and a section size."""
    n = draw(st.sampled_from([1, 2]))
    parts = st.floats(-2.0, 2.0, allow_nan=False)
    coeffs = {}
    for k in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=7, unique=True)):
        re = draw(st.lists(parts, min_size=n * n, max_size=n * n))
        im = draw(st.lists(parts, min_size=n * n, max_size=n * n))
        coeffs[k] = (np.array(re) + 1j * np.array(im)).reshape(n, n)
    return tp.LaurentMatrixSeries(n, coeffs), draw(st.sampled_from([0, 1, 5, 16]))


_JORDAN = tp.LaurentMatrixSeries(2, {0: np.array([[0.0, 5.0], [0.0, 0.0]]),
                                     1: np.array([[0.0, 0.0], [1.0, 0.0]]),
                                     -2: np.array([[0.3j, 0.0], [0.0, 0.0]])})


@given(_enclosure_cases())
@example((_JORDAN, 16))  # far from normal
@example((tp.scalar_symbol({1: 1.0, -1: 0.1}), 16))  # pseudospectra of a non-normal section
def test_estimate_spectrum_encloses_section_spectra(case):
    a, n = case
    s = tp.estimate_spectrum(a)
    # a computed eigenvalue is exact for a section perturbed by a few eps of
    # its norm, whose numerical range lies that much outside the disk
    slack = 1e-12 * (s.max_radius + abs(s.centroid))
    for sym in (a, tp.reverse(a)):
        ev = np.linalg.eigvals(tp.toeplitz_section(sym, n))
        assert np.all(np.abs(ev - s.centroid) <= s.max_radius + slack)
    fine = a.sample(64 * a.grid_size).samples - s.centroid * np.eye(a.block_size)
    assert np.linalg.norm(fine, 2, axis=(1, 2)).max() <= s.max_radius + slack


def test_estimate_spectrum_bounds_the_maximum_between_grid_points():
    # 2 cos(theta - pi/256) peaks at 2 midway between two points of its
    # 256-point grid, where it reads 2 cos(pi/256); the grid maximum alone
    # falls short by 7.5e-5
    a = tp.scalar_symbol({1: np.exp(-1j * np.pi / 256), -1: np.exp(1j * np.pi / 256)})
    assert a.grid_size == 256
    s = tp.estimate_spectrum(a)
    assert abs(s.centroid) < 1e-15
    assert s.max_radius >= 2.0 * (1 - 1e-15)
    assert s.max_radius <= 2.0 * (1 + 1e-15)


def test_split_spectrum_gets_one_circle():
    # the symbol's eigenvalues cluster near 1 and near 10, nine apart
    rng = np.random.default_rng(4)
    blk = 0.05 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    a = tp.LaurentMatrixSeries(2, {0: np.diag([1.0, 10.0]), 1: blk, -1: blk.conj().T})
    contour = tp.build_contour(tp.estimate_spectrum(a), 0.5, nodes=512)
    assert contour.radius > 4.5
    exact = -sum(abs(m) * np.trace(a.block(m) @ a.block(-m)) for m in (-1, 1))
    assert abs(tp.trace_constant(a, tp.SQUARE, contour) - exact) <= 1e-10


def _point(z):
    """The disk of radius 0 about z."""
    return tp.SpectrumEstimate(points=np.array([complex(z)]), centroid=complex(z), max_radius=0.0)


def test_build_contour_singleton():
    s = _point(1.25)
    c = tp.build_contour(s, 1.0, nodes=64)
    assert c.center == pytest.approx(1.25)
    assert c.radius == pytest.approx(1.0)
    assert c.clearance == pytest.approx(1.0)


def test_build_contour_fixture(fixture_contour):
    s, c = fixture_contour
    assert c.radius >= 1.5 - 1e-9
    assert abs(c.center - 1.25) < 0.01
    assert c.clearance >= 0.25


def test_build_contour_validation():
    s = _point(1.0)
    for margin in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="margin must be positive and finite"):
            tp.build_contour(s, margin)
    with pytest.raises(ValueError):
        tp.build_contour(s, 1.0, nodes=48)


def test_disk_checks():
    log = tp.principal_log()
    log.check_disk(3.0, 2.9)
    log.check_disk(-1.0 + 2.0j, 1.9)  # two from the cut, one from 0
    for center, radius in ((3.0, 3.0), (-1.0 + 2.0j, 2.0), (1.0 - 1e-3j, 1.5)):
        with pytest.raises(tp.FNotAnalyticAtSample, match="not analytic on the disk"):
            log.check_disk(center, radius)
    inv = tp.rational([1.0], [1.0, 1.0])  # 1 / (1 + z), pole at -1
    inv.check_disk(0.0, 1.0 - 2e-6)
    with pytest.raises(tp.FNotAnalyticAtSample):
        inv.check_disk(0.0, 1.0 - 1e-7)  # within the pole margin
    for f in (tp.SQUARE, tp.exponential()):
        f.check_disk(0.0, 1e300)


def test_trace_constant_rejects_a_disk_around_the_branch_point():
    # the disk about this non-normal symbol's range reaches 0 at margin
    # 0.5 and misses it at 0.2, where every node alone is a valid point
    a = tp.scalar_symbol({0: 1.5 + 0.5j, 1: 0.8, -1: 0.5})
    log = tp.principal_log()
    spectrum = tp.estimate_spectrum(a)
    wide = tp.build_contour(spectrum, 0.5)
    log.check(wide.nodes)
    with pytest.raises(tp.FNotAnalyticAtSample, match="log is not analytic on the disk"):
        tp.trace_constant(a, log, wide)
    ef = tp.trace_constant(a, log, tp.build_contour(spectrum, 0.2))
    gf = tp.trace_mean(a, log)
    for n in (16, 64):
        assert abs(tp.trace_f_direct(a, n, log) - ((n + 1) * gf + ef)) < 1e-7


def test_trace_constant_checks_the_disk_that_holds_the_nodes():
    # build_contour's nodes about the symbol, labelled with a far center
    # and a small radius: the disk about 10 that reaches every node meets
    # log's branch cut, though the labelled disk misses it
    a = tp.scalar_symbol({0: 1.5 + 0.5j, 1: 0.8, -1: 0.5})
    built = tp.build_contour(tp.estimate_spectrum(a), 0.5)
    relabelled = tp.ContourSpec(nodes=built.nodes, weights=built.weights,
                                clearance=built.clearance, center=10.0, radius=1.0)
    tp.principal_log().check_disk(10.0, 1.0)
    with pytest.raises(tp.FNotAnalyticAtSample, match="log is not analytic on the disk"):
        tp.trace_constant(a, tp.principal_log(), relabelled)


def test_trace_constant_rejects_a_pole_in_the_disk(rational_symbol, fixture_contour):
    _, contour = fixture_contour  # center 1.25, radius about 1.5
    with pytest.raises(tp.FNotAnalyticAtSample):
        tp.trace_constant(rational_symbol, tp.rational([1.0], [0.0, 1.0]), contour)
    assert abs(tp.trace_constant(rational_symbol, tp.rational([1.0], [3.0, 1.0]), contour)) > 0


def test_trace_mean(rational_symbol):
    ident = tp.polynomial((0.0, 1.0))
    assert tp.trace_mean(rational_symbol, ident) == pytest.approx(1.25, abs=1e-12)
    assert tp.trace_mean(rational_symbol, tp.SQUARE) == pytest.approx(2.0625, abs=1e-12)
    one = tp.polynomial((1.0,))
    a2 = tp.identity_symbol(2)
    assert tp.trace_mean(a2, one) == pytest.approx(2.0)


def test_trace_constant_fixture(rational_symbol, fixture_contour):
    _, contour = fixture_contour
    ef = tp.trace_constant(rational_symbol, tp.SQUARE, contour)
    assert ef == pytest.approx(-0.5, abs=1e-9)
    ident = tp.polynomial((0.0, 1.0))
    assert abs(tp.trace_constant(rational_symbol, ident, contour)) < 1e-9


def test_trace_constant_constant_symbol():
    a = tp.constant_symbol(np.array([[1.0, 0.3], [0.0, 2.0]]))
    s = tp.estimate_spectrum(a)
    c = tp.build_contour(s, 0.5)
    for f in (tp.SQUARE, tp.exponential(), tp.polynomial((0.0, 1.0))):
        assert abs(tp.trace_constant(a, f, c)) < 1e-12


def test_trace_constant_additive(rational_symbol, fixture_contour):
    _, contour = fixture_contour
    f1 = tp.polynomial((0.0, 1.0, 1.0))
    f2 = tp.polynomial((0.0, 0.0, 2.0, 0.5))
    fsum = tp.polynomial((0.0, 1.0, 3.0, 0.5))
    e1 = tp.trace_constant(rational_symbol, f1, contour)
    e2 = tp.trace_constant(rational_symbol, f2, contour)
    es = tp.trace_constant(rational_symbol, fsum, contour)
    assert abs(es - (e1 + e2)) < 1e-9


def test_trace_constant_cauchy_deformation(rational_symbol, fixture_contour):
    spectrum, contour = fixture_contour
    ef = tp.trace_constant(rational_symbol, tp.SQUARE, contour)
    bigger = tp.build_contour(spectrum, 1.5 * contour.radius - spectrum.max_radius)
    ef_big = tp.trace_constant(rational_symbol, tp.SQUARE, bigger)
    assert abs(ef - ef_big) < 1e-8
    dense = tp.build_contour(spectrum, 0.5, nodes=512)
    ef_dense = tp.trace_constant(rational_symbol, tp.SQUARE, dense)
    assert abs(ef - ef_dense) < 1e-9


def test_trace_constant_raises_above_section_cap():
    # bandwidth 4096 starts above the section cap 2048: no corner is built
    a = tp.scalar_symbol({0: 10.0, 4096: 1.0, -4096: 1.0})
    contour = tp.build_contour(_point(10.0), 3.0, nodes=64)
    tracemalloc.start()
    try:
        with pytest.raises(tp.NoConvergence, match="trace_constant"):
            tp.trace_constant(a, tp.SQUARE, contour)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_trace_constant_own_grid_above_cap(fixture_contour):
    # a symbol's own grid above 2^15 is both the start grid and the cap
    _, contour = fixture_contour
    a = tp.scalar_symbol({0: 1.25, 1: -0.5, -1: -0.5}, grid_size=1 << 16)
    assert tp.trace_constant(a, tp.SQUARE, contour) == pytest.approx(-0.5, abs=1e-9)


def _node_hats(a, contour, powers, grid=None):
    """Reference resolvent bins: the FFT bins at offsets -1..-(2W-1) of
    (a - lambda)^-1 and, when ``powers`` is 2, of (a - lambda)^-2, at
    every contour node, each node evaluated on its own, the symbol-range
    guard an exact SVD per node.  The grid doubles from
    max(a.grid_size, default_grid_size(2 W)) until the used bins of every
    power move by at most 1e-13 of their largest from the half grid, or
    those bins + M/2 are round-off; a given ``grid`` is used alone, with
    no gap test and no guard."""
    n = a.block_size
    band = max((k for k in a.coeffs if k > 0), default=0)
    used = slice(-(2 * band - 1), None)

    def grid_hats(m_grid, guard=True):
        samples = a.sample(m_grid).samples
        folded = slice(m_grid // 2 - (2 * band - 1), m_grid // 2)
        hats, peaks = [], np.zeros((powers, 3))
        for lam in contour.nodes:
            shifted = samples - lam * np.eye(n)
            if guard:
                dist = (np.min(np.abs(shifted[:, 0, 0])) if n == 1 else
                        float(np.linalg.svd(shifted, compute_uv=False)[:, -1].min()))
                if dist <= 1e-10:
                    raise tp.SpectrumTooClose(
                        f"symbol range within {dist:.3e} of node lambda={lam:.6g}")
            inv = 1.0 / shifted if n == 1 else np.linalg.inv(shifted)
            inv2 = inv * inv if n == 1 else inv @ inv
            pair = []
            for power, values in enumerate((inv, inv2)[:powers]):
                full = np.fft.fft(values, axis=0)
                pair.append(full[used] / m_grid)
                peaks[power] = np.maximum(peaks[power], [np.abs(full[used]).max(),
                                                         np.abs(full[folded]).max(),
                                                         np.abs(values).max()])
            hats.append(pair)
        noise = 64 * np.finfo(float).eps * m_grid
        gap = max(0.0 if fold <= noise * top else fold / big for big, fold, top in peaks)
        return hats, gap

    if grid is None:
        grid = max(a.grid_size, default_grid_size(2 * band))
        hats, gap = grid_hats(grid)
        while gap > 1e-13:
            grid *= 2
            assert grid <= 1 << 15
            hats, gap = grid_hats(grid)
    else:
        hats, _ = grid_hats(grid, guard=False)
    return hats


def _corners(a, hats):
    """The corners H(a) H(hat~) of every node's bins, one per power."""
    n = a.block_size
    band = max((k for k in a.coeffs if k > 0), default=0)
    ha = tp.hankel_section(a, band)
    j = np.arange(band)
    idx = -(j[:, None] + j[None, :] + 1)
    return np.eye(band * n), [[ha @ assemble(h, idx, 0) for h in pair] for pair in hats]


def _node_traces(a, contour, grid=None):
    """Reference: tr(M^-1 M') at every contour node from the bins of
    (a - lambda)^-1 and (a - lambda)^-2 (_node_hats), the dense-corner
    route, one solve per node."""
    eye, corners = _corners(a, _node_hats(a, contour, 2, grid))
    return [np.trace(np.linalg.solve(eye - m1, -m2)) for m1, m2 in corners]


def _per_node_trace_constant(a, f, contour, traces=None):
    """Reference: the contour sum over _node_traces, in node order."""
    if traces is None:
        traces = _node_traces(a, contour)
    total = 0.0 + 0.0j
    for weight, fv, tr in zip(contour.weights, f(contour.nodes), traces):
        total += weight * fv * tr
    return complex(total / (2j * np.pi))


def _node_log_dets(a, contour, grid=None):
    """Reference: slogdet(M) at every contour node from the bins of
    (a - lambda)^-1 alone (_node_hats), the block route's grid rule."""
    eye, corners = _corners(a, _node_hats(a, contour, 1, grid))
    return [np.linalg.slogdet(eye - m1) for (m1,) in corners]


def _per_node_log_det_constant(a, f, contour, grid=None):
    """Reference: (1/2 pi i) oint f dL over _node_log_dets, L's phase
    unwrapped along the nodes, dL/dphi by one FFT with the Nyquist bin 0."""
    log_dets = _node_log_dets(a, contour, grid)
    k = len(log_dets)
    signs = np.array([sign for sign, _ in log_dets])
    phase = np.unwrap(np.angle(np.append(signs, signs[0])))
    assert abs(phase[-1] - phase[0]) < 1e-9
    freqs = np.fft.fftfreq(k, 1.0 / k)
    if k % 2 == 0:
        freqs[k // 2] = 0.0
    log_det = np.array([value for _, value in log_dets]) + 1j * phase[:-1]
    dl = np.fft.ifft(1j * freqs * np.fft.fft(log_det))
    return complex(np.sum(f(contour.nodes) * dl) / (1j * k))


def _reference_constant(a, f, contour, grid=None):
    """The same-rule per-node reference of trace_constant's route for a:
    slogdet + FFT for block symbols, the dense-corner solve for scalars."""
    if a.block_size == 1:
        return _per_node_trace_constant(a, f, contour, _node_traces(a, contour, grid))
    return _per_node_log_det_constant(a, f, contour, grid)


def _lacunary_block(gamma, levels, seed):
    """Hermitian 2x2 lacunary symbol with non-commuting random blocks,
    smallest eigenvalue at least 1 on the circle."""
    rng = np.random.default_rng(seed)
    coeffs, shift = {}, 1.0
    for j in range(levels + 1):
        blk = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        blk *= 2.0 ** (-gamma * j) / (2.0 * np.linalg.norm(blk, 2))
        coeffs[1 << j], coeffs[-(1 << j)] = blk, blk.conj().T
        shift += 2.0 * np.linalg.norm(blk, 2)
    coeffs[0] = shift * np.eye(2)
    return tp.LaurentMatrixSeries(2, coeffs)


def _hermitian3(seed):
    rng = np.random.default_rng(seed)
    coeffs, shift = {}, 1.0
    for k in (1, 2):
        blk = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        coeffs[k], coeffs[-k] = blk, blk.conj().T
        shift += 2.0 * np.linalg.norm(blk, 2)
    coeffs[0] = shift * np.eye(3)
    return tp.LaurentMatrixSeries(3, coeffs)


def _circle(center, radius, nodes):
    phis = 2 * np.pi * np.arange(nodes) / nodes
    return tp.ContourSpec(nodes=center + radius * np.exp(1j * phis),
                          weights=(2 * np.pi / nodes) * 1j * radius * np.exp(1j * phis),
                          clearance=0.0, center=center, radius=radius)


@pytest.mark.parametrize("name", ["two_block", "lacunary", "hermitian3", "scalar",
                                  "one_node_left"])
def test_batched_trace_constant_matches_per_node(name, two_block_symbol, rational_symbol):
    a = {"two_block": two_block_symbol, "lacunary": _lacunary_block(0.75, 4, 3),
         "hermitian3": _hermitian3(5), "scalar": rational_symbol,
         "one_node_left": two_block_symbol}[name]
    contour = tp.build_contour(tp.estimate_spectrum(a), 0.5, nodes=64)
    if name == "one_node_left":
        # the last chunk of the start grid, which this symbol accepts, holds one node
        band = max(a.coeffs)
        m_grid = max(a.grid_size, default_grid_size(2 * band))
        per_chunk = _BATCH_SAMPLES // (m_grid * a.block_size**2)
        contour = _circle(contour.center, contour.radius, per_chunk + 1)
    for f in (tp.SQUARE, tp.exponential()):
        assert tp.trace_constant(a, f, contour) == _reference_constant(a, f, contour)


def test_trace_constant_guard_fallback_matches_per_node(two_block_symbol):
    # scaled by 3e-10, the symbol's smallest singular value on the contour
    # is above 1e-10 but below twice that times sqrt(2): the Frobenius
    # bound does not certify it and the exact SVD decides
    from toepasym.symbol import _guarded_inverse
    a = tp.LaurentMatrixSeries(2, {k: 3e-10 * blk for k, blk in two_block_symbol.coeffs.items()})
    spectrum = tp.estimate_spectrum(two_block_symbol)
    contour = _circle(3e-10 * spectrum.centroid, 3e-10 * (spectrum.max_radius + 0.5), 64)
    shifted = a.sample().samples - contour.nodes[0] * np.eye(2)  # the grid it accepts
    inv, margins = _guarded_inverse(shifted)
    assert margins is not None and margins.min() > 1e-10
    assert tp.trace_constant(a, tp.SQUARE, contour) == _reference_constant(
        a, tp.SQUARE, contour)


@pytest.mark.parametrize("name", ["two_block", "lacunary", "hermitian3", "scalar", "zygmund"])
def test_trace_constant_matches_fine_grid(name, two_block_symbol, rational_symbol):
    a = {"two_block": two_block_symbol, "lacunary": _lacunary_block(0.75, 4, 3),
         "hermitian3": _hermitian3(5), "scalar": rational_symbol,
         "zygmund": tp.zygmund_symbol(0.75, 5)}[name]
    contour = tp.build_contour(tp.estimate_spectrum(a), 0.5, nodes=64)
    for f in (tp.SQUARE, tp.exponential()):
        ef = tp.trace_constant(a, f, contour)
        reference = _reference_constant(a, f, contour, grid=16384)
        assert abs(ef - reference) <= 1e-13 * max(1.0, abs(ef))


def test_trace_constant_builds_corners_once(monkeypatch, rational_symbol):
    # the block symbol rejects its start grid 256 and accepts 512; it takes
    # one slogdet per node, the scalar one solve per node
    import toepasym.traces
    a = _lacunary_block(0.75, 4, 3)
    contour = tp.build_contour(tp.estimate_spectrum(a), 0.5, nodes=64)
    grids, counts = [], dict.fromkeys(("hankel_section", "slogdet", "solve"), 0)
    sample, hankel = tp.LaurentMatrixSeries.sample, tp.hankel_section
    slogdet, solve = np.linalg.slogdet, np.linalg.solve

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def spy(self, grid_size=None):
        grids.append(grid_size)
        return sample(self, grid_size)

    monkeypatch.setattr(tp.LaurentMatrixSeries, "sample", spy)
    monkeypatch.setattr(toepasym.traces, "hankel_section", counting("hankel_section", hankel))
    monkeypatch.setattr(np.linalg, "slogdet", counting("slogdet", slogdet))
    monkeypatch.setattr(np.linalg, "solve", counting("solve", solve))
    tp.trace_constant(a, tp.SQUARE, contour)
    assert grids == [256, 512]
    assert counts == {"hankel_section": 1, "slogdet": 64, "solve": 0}
    scalar_contour = tp.build_contour(tp.estimate_spectrum(rational_symbol), 0.5, nodes=64)
    grids.clear()
    counts.update(dict.fromkeys(counts, 0))
    tp.trace_constant(rational_symbol, tp.SQUARE, scalar_contour)
    assert grids == [256]
    assert counts == {"hankel_section": 1, "slogdet": 0, "solve": 64}


def test_trace_constant_raises_at_grid_cap(rational_symbol):
    # 1e-7 above the top 2.25 of the symbol's range, the resolvent's
    # coefficients decay like (1 - sqrt(2e-7))^k: 2^15 points leave a gap ~1e-3
    contour = tp.ContourSpec(nodes=np.array([2.25 + 1e-7, 3.0 + 0j]),
                             weights=np.array([1.0 + 0j, 1.0 + 0j]),
                             clearance=0.0, center=0j, radius=1.0)
    tracemalloc.start()
    try:
        with pytest.raises(tp.NoConvergence) as info:
            tp.trace_constant(rational_symbol, tp.SQUARE, contour)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = str(info.value)
    assert message.startswith("trace_constant: gap ")
    assert message.endswith("above tolerance 1e-13 at the cap resolution 32768")
    assert float(message.split()[2]) > 1e-4
    assert peak < 1 << 23


def test_trace_constant_one_sided_symbol(geometric_symbol):
    # T_n(a) is triangular, tr f(T_n(a)) = (n+1) f(a_0) = (n+1) G_f: E_f = 0.
    # The resolvent has no negative offsets, so the used bins are round-off
    # on every grid and the start grid is accepted.
    contour = tp.build_contour(tp.estimate_spectrum(geometric_symbol), 0.5)
    for f in (tp.SQUARE, tp.exponential()):
        assert abs(tp.trace_constant(geometric_symbol, f, contour)) < 1e-15


def test_trace_constant_node_near_range_raises():
    # a(0) = diag(1.1, 2.1); the second node sits 1e-11 from 1.1
    a = tp.LaurentMatrixSeries(2, {0: np.diag([1.0, 2.0]), 1: 0.1 * np.eye(2)})
    contour = tp.ContourSpec(nodes=np.array([3.0 + 0j, 1.1 + 1e-11]),
                             weights=np.array([1.0 + 0j, 1.0 + 0j]),
                             clearance=0.0, center=0j, radius=1.0)
    with pytest.raises(tp.SpectrumTooClose) as info:
        tp.trace_constant(a, tp.SQUARE, contour)
    assert str(info.value) == "symbol range within 1.000e-11 of node lambda=1.1+0j"


def test_trace_constant_raises_when_log_det_winds():
    # a = t^2 + 0.2 / t winds twice about every point of the small circle,
    # which clears its range (|a| >= 0.8): log det M turns along it
    a = tp.LaurentMatrixSeries(2, {2: np.eye(2), -1: 0.2 * np.eye(2)})
    contour = _circle(0j, 0.05, 64)
    assert np.abs(a.sample().samples[:, 0, 0]).min() > 0.75
    with pytest.raises(tp.SpectrumTooClose, match="winds"):
        tp.trace_constant(a, tp.SQUARE, contour)


@pytest.mark.parametrize("order", ["shuffled", "reversed"])
def test_block_route_rejects_reordered_nodes(order, two_block_symbol, rational_symbol):
    # the FFT along the nodes reads them as build_contour's counter-clockwise
    # turn: without the check, the shuffled nodes gave -2.0858-1.0059j and
    # the reversed ones +1.02 for the exact -1.02
    contour = tp.build_contour(tp.estimate_spectrum(two_block_symbol), 0.5, nodes=64)
    perm = (np.random.default_rng(0).permutation(64) if order == "shuffled"
            else np.arange(64)[::-1])
    moved = tp.ContourSpec(nodes=contour.nodes[perm], weights=contour.weights[perm],
                           clearance=contour.clearance, center=contour.center,
                           radius=contour.radius)
    assert tp.trace_constant(two_block_symbol, tp.SQUARE, contour) == pytest.approx(-1.02)
    with pytest.raises(ValueError, match="block symbols need the contour nodes"):
        tp.trace_constant(two_block_symbol, tp.SQUARE, moved)
    # the scalar route sums against the weights, in any order
    assert tp.trace_constant(rational_symbol, tp.SQUARE, moved) == pytest.approx(-0.5)


@st.composite
def _hermitian_blocks(draw):
    """A random Hermitian 2x2 or 3x3 symbol with offsets up to 3, its
    smallest eigenvalue at least 1 on the circle."""
    n = draw(st.sampled_from([2, 3]))
    parts = st.floats(-1.0, 1.0, allow_nan=False)

    def block():
        re = draw(st.lists(parts, min_size=n * n, max_size=n * n))
        im = draw(st.lists(parts, min_size=n * n, max_size=n * n))
        return 0.3 * (np.array(re) + 1j * np.array(im)).reshape(n, n)

    coeffs, shift = {}, 1.0
    for k in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True)):
        blk = block()
        coeffs[k], coeffs[-k] = blk, blk.conj().T
        shift += 2.0 * np.linalg.norm(blk, 2)
    mid = block()
    mid = mid + mid.conj().T
    coeffs[0] = mid + (shift + np.linalg.norm(mid, 2)) * np.eye(n)
    return tp.LaurentMatrixSeries(n, coeffs)


@settings(max_examples=20)
@given(_hermitian_blocks())
def test_block_route_matches_the_dense_corner(a):
    assume(max(a.coeffs) > 0)  # zero blocks are not stored
    contour = tp.build_contour(tp.estimate_spectrum(a), 0.5, nodes=256)
    traces = _node_traces(a, contour)
    for f in (tp.SQUARE, tp.exponential(), tp.principal_log()):
        ef = tp.trace_constant(a, f, contour)
        reference = _per_node_trace_constant(a, f, contour, traces)
        assert abs(ef - reference) <= 1e-11 * max(1.0, abs(ef))


@pytest.mark.parametrize("nodes, tol", [(128, 1e-13), (64, 2e-12)])
def test_log_trace_constant_is_log_szego_constant(nodes, tol):
    # E_log = log E(a): the trace half at f = log meets the determinant
    # half.  At 64 nodes the block route measures 8.8e-13 here, where the
    # dense corner's trapezoid sum measured 2.9e-10.
    a = _lacunary_block(0.75, 4, 3)
    contour = tp.build_contour(tp.estimate_spectrum(a), 0.5, nodes=nodes)
    ef = tp.trace_constant(a, tp.principal_log(), contour)
    assert abs(ef - np.log(tp.szego_constant(a))) <= tol


def test_trace_asymptotic_exact_identity(rational_symbol, fixture_contour):
    _, contour = fixture_contour
    gf = tp.trace_mean(rational_symbol, tp.SQUARE)
    ef = tp.trace_constant(rational_symbol, tp.SQUARE, contour)
    for n in (1, 2, 5, 9):
        direct = tp.trace_f_direct(rational_symbol, n, tp.SQUARE)
        assert abs((n + 1) * gf + ef - direct) < 1e-9
    one = tp.polynomial((1.0,))
    pred = 5 * tp.trace_mean(rational_symbol, one) + tp.trace_constant(rational_symbol, one, contour)
    assert pred == pytest.approx(5.0, abs=1e-9)


def test_trace_remainder_scan_exact_regime(rational_symbol, fixture_contour):
    _, contour = fixture_contour
    with pytest.raises(tp.FitDegenerate) as info:
        tp.trace_remainder_scan(rational_symbol, tp.SQUARE,
                                [4, 8, 16, 32, 64], contour)
    assert info.value.flag == "exact regime"


def test_trace_remainder_scan_grid_validation(rational_symbol, fixture_contour):
    _, contour = fixture_contour
    with pytest.raises(ValueError):
        tp.trace_remainder_scan(rational_symbol, tp.SQUARE, [4, 8], contour)


@pytest.mark.slow
def test_trace_remainder_scan_zygmund_band():
    z = tp.zygmund_symbol(0.75, 9)
    s = tp.estimate_spectrum(z)
    contour = tp.build_contour(s, 0.5, nodes=128)
    fit = tp.trace_remainder_scan(z, tp.SQUARE, [8, 16, 32, 64, 128, 256], contour)
    assert fit.target_slope == pytest.approx(-0.2)
    assert fit.meets_target


@pytest.mark.slow
def test_trace_remainder_scan_exponential_function():
    # entire f, scaled to keep the integrand tame on the contour
    z = tp.zygmund_symbol(1.25, 9)
    s = tp.estimate_spectrum(z)
    contour = tp.build_contour(s, 0.5, nodes=128)
    f = tp.exponential(0.25)
    fit = tp.trace_remainder_scan(z, f, [8, 16, 32, 64, 128, 256], contour)
    assert fit.slope <= -1.2
