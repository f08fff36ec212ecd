import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import toepasym as tp
from toepasym.symbol import _BATCH_SAMPLES, default_grid_size
from toepasym.traces import SPECTRUM_SECTION
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
    assert s.bbox[0] >= 0.25 - 1e-6 and s.bbox[1] <= 2.25 + 1e-6
    assert abs(s.bbox[2]) < 1e-8 and abs(s.bbox[3]) < 1e-8


def test_estimate_spectrum_winding_interior():
    # a(t) = t: the spectrum is the closed unit disk
    s = tp.estimate_spectrum(tp.scalar_symbol({1: 1.0}))
    assert np.min(np.abs(s.points)) < 0.2  # interior points marked


def _per_point_interior(a, base):
    """Reference: the grid points winding_number marks one at a time
    (nonzero winding, or a raise on or next to the symbol curve)."""
    re = np.linspace(base.real.min(), base.real.max(), 25)
    im = np.linspace(base.imag.min(), base.imag.max(), 25)
    marked = []
    for lam in (re[:, None] + 1j * im[None, :]).ravel():
        coeffs = dict(a.coeffs)
        coeffs[0] = a.block(0) - lam * np.eye(1)
        try:
            if tp.winding_number(tp.LaurentMatrixSeries(1, coeffs, a.grid_size)) != 0:
                marked.append(lam)
        except (tp.SingularSymbol, tp.GridTooCoarse):
            marked.append(lam)
    return np.asarray(marked, dtype=complex)


@pytest.mark.parametrize("name", ["zygmund", "t+0.3", "t^2+0.5/t", "random",
                                  "rational", "several_batches"])
def test_estimate_spectrum_interior_matches_winding_number(name, rational_symbol):
    rng = np.random.default_rng(11)
    a = {"zygmund": tp.zygmund_symbol(0.75, 5, seed=2),
         "t+0.3": tp.scalar_symbol({1: 1.0, 0: 0.3}),
         "t^2+0.5/t": tp.scalar_symbol({2: 1.0, -1: 0.5}),
         "random": tp.scalar_symbol({k: rng.standard_normal() + 1j * rng.standard_normal()
                                     for k in range(-3, 4)}),
         "rational": rational_symbol,
         "several_batches": tp.zygmund_symbol(0.5, 9, seed=7)}[name]
    if name == "several_batches":
        assert _BATCH_SAMPLES // a.grid_size < 625 // 4  # the 25 x 25 grid
    s = tp.estimate_spectrum(a)
    n_base = 2 * (SPECTRUM_SECTION + 1) + a.grid_size  # both sections' eigenvalues, the samples
    expected = _per_point_interior(a, s.points[:n_base])
    assert len(expected) > 0
    np.testing.assert_array_equal(s.points[n_base:], expected)


def test_build_contour_singleton():
    s = tp.SpectrumEstimate.from_points([1.25])
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
    s = tp.SpectrumEstimate.from_points([1.0])
    for margin in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="margin must be positive and finite"):
            tp.build_contour(s, margin)
    with pytest.raises(ValueError):
        tp.build_contour(s, 1.0, nodes=48)


def test_build_contour_disconnected_rejected():
    s = tp.SpectrumEstimate.from_points([0.0, 0.1, 10.0, 10.1])
    with pytest.raises(tp.ContourTooTight):
        tp.build_contour(s, 0.5)


def _all_pairs_connected(points, threshold):
    """Reference: the graph of every pair within the threshold
    (cKDTree.query_pairs) and its connected components."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    n = len(points)
    if n == 1:
        return True
    xy = np.column_stack([points.real, points.imag])
    pairs = cKDTree(xy).query_pairs(threshold, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    return connected_components(graph, directed=False)[0] == 1


def _float_from_bits(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _largest_float(holds):
    """Largest finite float t >= 0 with holds(t), for a test that holds
    at 0 and fails beyond some point: bisection over the bit patterns,
    which the non-negative floats share in order."""
    lo, hi = 0, 0x7FF0000000000000  # the bit patterns of 0.0 and inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(_float_from_bits(mid)):
            lo = mid
        else:
            hi = mid
    return _float_from_bits(lo)


_THRESHOLDS = [1e-300, 1e-160, 1e-9, 0.37, 1.0, 2.0, 3e5]


@st.composite
def _clouds(draw):
    """Clouds on lattices of fractions of the threshold (exact threshold
    distances, cell boundaries), or drawn within a few thresholds, with
    duplicates, a far-off centre, and imaginary parts at rounding level."""
    threshold = draw(st.sampled_from(_THRESHOLDS))
    n = draw(st.integers(1, 30))
    r2 = threshold * threshold
    side = _largest_float(lambda t: 3.0 * (t * t) <= r2)
    reach = _largest_float(lambda t: t * t <= r2)
    if draw(st.booleans()):
        step = draw(st.sampled_from([threshold, threshold / 2, side, 2 * side, reach,
                                     math.nextafter(threshold, math.inf)]))
        ij = np.array(draw(st.lists(st.integers(-4, 4), min_size=2 * n, max_size=2 * n)))
        x, y = step * ij[:n], step * ij[n:]
    else:
        box = threshold * draw(st.sampled_from([0.5, 2.0, 6.0]))
        coords = st.floats(-box, box, allow_nan=False)
        x = np.array(draw(st.lists(coords, min_size=n, max_size=n)))
        y = np.array(draw(st.lists(coords, min_size=n, max_size=n)))
    if draw(st.booleans()):
        y = 1e-16 * np.array(draw(st.lists(st.floats(-4, 4), min_size=n, max_size=n)))
    points = draw(st.sampled_from([0.0, 1.0, -3.7, 1e6 + 2.5j])) + x + 1j * y
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=5))
    return np.concatenate([points, points[repeats]]), threshold


def _clusters_apart(gap):
    cluster = np.array([0.0, 0.1, 0.05j, 0.1 + 0.05j])
    return np.concatenate([cluster, cluster + 0.1 + gap])


def _chain(gap):
    """3000 points on the real line, spaced 1 - 2^-30 (exact multiples),
    with the middle link `gap` long, ordered from the left end."""
    step = 1.0 - 2.0**-30
    return np.concatenate([-step * np.arange(1499, -1, -1), gap + step * np.arange(1500)])


@given(_clouds())
@example((np.array([0.25]), 1.0))  # a single point
@example((np.array([0.0, 0.0, 0.0]), 1e-300))  # duplicates
@example((np.array([0.0, 1.0, 2.0, 2.0 + 1j]), 1.0))  # exactly a threshold apart
@example((_clusters_apart(1.0), 1.0))
@example((_clusters_apart(math.nextafter(1.0, 2.0)), 1.0))  # just over a threshold
@example((np.linspace(0.0, 1.0, 9) + 1e-16j * np.sin(np.arange(9)), 0.125))
@example((np.linspace(0.0, 1.0, 9) + 1e-16j * np.sin(np.arange(9)), 0.12))
@example((np.array([0.0, 1e-200, 1.0]), 1e-300))  # unit span
@example((np.array([0.0, 1e-200, 2e-200]), 1e-300))  # squares below the float range
@example((1e-162 * np.arange(6), 1e-300))  # ... over several cells
@example((np.array([1e150, math.nextafter(1e150, math.inf)]), 1e-300))  # x / side overflows
@example((np.array([0.0, 0.8 + 0.8j]), 1.0))  # one cell of side 0.8 would hold both
@example((_chain(1.0 - 2.0**-30), 1.0))  # a search over thousands of steps
@example((_chain(math.nextafter(1.0, 2.0)), 1.0))  # ... cut one ulp over the threshold
def test_connected_matches_all_pairs(cloud):
    from toepasym.traces import _connected

    points, threshold = cloud
    assert _connected(points, threshold) == _all_pairs_connected(points, threshold)


@pytest.mark.parametrize("name", ["fixture", "rational", "zygmund", "zygmund9"])
def test_connected_matches_all_pairs_on_spectra(name, rational_symbol, two_block_symbol):
    from toepasym.traces import _connected

    a = {"fixture": two_block_symbol, "rational": rational_symbol,
         "zygmund": tp.zygmund_symbol(0.75, 5, seed=2),
         "zygmund9": tp.zygmund_symbol(0.75, 9)}[name]
    points = tp.estimate_spectrum(a).points
    # 4851 points, almost none linked at 1e-3; the larger thresholds
    # would list millions of pairs in the reference
    thresholds = (1e-3,) if name == "zygmund9" else (2.0, 0.5, 0.05, 0.01, 1e-3)
    for threshold in thresholds:
        assert _connected(points, threshold) == _all_pairs_connected(points, threshold)


def test_connected_beyond_squared_float_range():
    from toepasym.traces import _connected

    # the threshold squared overflows: every pair is linked
    assert _connected(np.array([0.0, 3.0, 1e200j, 1e300]), 1e200)
    # the bounding box squared overflows while the threshold squared does not
    t = 2.0**510
    chain = t * np.arange(9.0)
    assert _connected(chain + 0j, t)
    assert not _connected(np.where(chain >= 5 * t, chain + t * 2.0**-40, chain) + 0j, t)
    assert _connected(np.array([0.0, 1e154, 2e154]), 1.1e154)
    assert not _connected(np.array([0.0, 1e154, 2e154]), 0.9e154)
    assert not _connected(np.array([-1e308, 0.0, 1e308]), 1e154)


def test_connected_memory_linear():
    # 2000 points within one threshold: about 2M linked pairs, 30 MB as a list
    from toepasym.traces import _connected

    rng = np.random.default_rng(5)
    points = 0.5 * np.sqrt(rng.uniform(size=2000)) * np.exp(2j * np.pi * rng.uniform(size=2000))
    assert _connected(points[:10], 1.0)  # imports outside the traced call
    tracemalloc.start()
    try:
        assert _connected(points, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    contour = tp.build_contour(tp.SpectrumEstimate.from_points([10.0]), 3.0, nodes=64)
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


def _node_traces(a, contour, grid=None):
    """Reference: tr(M^-1 M') at every contour node, each node evaluated
    on its own, the symbol-range guard an exact SVD per node.  The grid
    doubles from max(a.grid_size, default_grid_size(2 W)) until the used
    FFT bins (offsets -1..-(2W-1)) move by at most 1e-13 of their largest
    from the half grid, or those bins + M/2 are round-off; a given
    ``grid`` is used alone, with no gap test and no guard."""
    n = a.block_size
    band = max((k for k in a.coeffs if k > 0), default=0)
    used = slice(-(2 * band - 1), None)

    def node_hats(m_grid, guard=True):
        samples = a.sample(m_grid).samples
        folded = slice(m_grid // 2 - (2 * band - 1), m_grid // 2)
        hats, peaks = [], np.zeros((2, 3))
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
            for power, values in enumerate((inv, inv2)):
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
        hats, gap = node_hats(grid)
        while gap > 1e-13:
            grid *= 2
            assert grid <= 1 << 15
            hats, gap = node_hats(grid)
    else:
        hats, _ = node_hats(grid, guard=False)
    ha = tp.hankel_section(a, band)
    eye = np.eye(band * n)
    j = np.arange(band)
    idx = -(j[:, None] + j[None, :] + 1)
    traces = []
    for h1, h2 in hats:
        solved = np.linalg.solve(eye - ha @ assemble(h1, idx, 0), -(ha @ assemble(h2, idx, 0)))
        traces.append(np.trace(solved))
    return traces


def _per_node_trace_constant(a, f, contour, traces=None):
    """Reference: the contour sum over _node_traces, in node order."""
    if traces is None:
        traces = _node_traces(a, contour)
    total = 0.0 + 0.0j
    for weight, fv, tr in zip(contour.weights, f(contour.nodes), traces):
        total += weight * fv * tr
    return complex(total / (2j * np.pi))


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
    traces = _node_traces(a, contour)
    for f in (tp.SQUARE, tp.exponential()):
        assert tp.trace_constant(a, f, contour) == _per_node_trace_constant(a, f, contour, traces)


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
    assert tp.trace_constant(a, tp.SQUARE, contour) == _per_node_trace_constant(
        a, tp.SQUARE, contour)


@pytest.mark.parametrize("name", ["two_block", "lacunary", "hermitian3", "scalar", "zygmund"])
def test_trace_constant_matches_fine_grid(name, two_block_symbol, rational_symbol):
    a = {"two_block": two_block_symbol, "lacunary": _lacunary_block(0.75, 4, 3),
         "hermitian3": _hermitian3(5), "scalar": rational_symbol,
         "zygmund": tp.zygmund_symbol(0.75, 5)}[name]
    contour = tp.build_contour(tp.estimate_spectrum(a), 0.5, nodes=64)
    traces = _node_traces(a, contour, grid=16384)
    for f in (tp.SQUARE, tp.exponential()):
        ef = tp.trace_constant(a, f, contour)
        reference = _per_node_trace_constant(a, f, contour, traces)
        assert abs(ef - reference) <= 1e-13 * max(1.0, abs(ef))


def test_trace_constant_builds_corners_once(monkeypatch):
    # this symbol rejects its start grid 256 and accepts 512
    import toepasym.traces
    a = _lacunary_block(0.75, 4, 3)
    contour = tp.build_contour(tp.estimate_spectrum(a), 0.5, nodes=64)
    grids, counts = [], {"hankel_section": 0, "solve": 0}
    sample, hankel, solve = tp.LaurentMatrixSeries.sample, tp.hankel_section, np.linalg.solve

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
    monkeypatch.setattr(np.linalg, "solve", counting("solve", solve))
    tp.trace_constant(a, tp.SQUARE, contour)
    assert grids == [256, 512]
    assert counts == {"hankel_section": 1, "solve": 64}


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
