import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import toepasym as tp
from toepasym.symbol import _BATCH_SAMPLES, default_grid_size
from toepasym.toeplitz import _is_hermitian
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
    # the disk's center is the midpoint of the points' real extremes, and
    # exactly real for this Hermitian symbol
    assert s.centroid == complex(0.5 * (re.min() + re.max()))
    assert s.centroid.imag == 0


def test_estimate_spectrum_non_hermitian_center():
    # a(theta) = 1.5 + 0.5i + 0.8 t + 0.5 / t: the center is the midpoint of
    # the bounding box of its points, off the real axis
    s = tp.estimate_spectrum(tp.scalar_symbol({0: 1.5 + 0.5j, 1: 0.8, -1: 0.5}))
    re, im = s.points.real, s.points.imag
    assert s.centroid == complex(0.5 * (re.min() + re.max()), 0.5 * (im.min() + im.max()))
    assert s.centroid.imag == pytest.approx(0.5)


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
@example((tp.scalar_symbol({0: 1.0, 1: 0.5 + 0.2j, -1: 0.5 - 0.2j}), 16))  # Hermitian
def test_estimate_spectrum_encloses_section_spectra(case):
    a, n = case
    s = tp.estimate_spectrum(a)
    if _is_hermitian(a):
        assert s.centroid.imag == 0
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


def test_build_contour_rejects_radius_below_rounding_of_center():
    # sqrt(R c) - R for a disk of radius R about c = 1: every node would
    # round to the center, and trace_constant would find the range on a node
    a = tp.scalar_symbol({0: 1, 1: 4.5e-118j, -1: -4.5e-118j})
    with pytest.raises(ValueError, match="within rounding of the center"):
        tp.build_contour(tp.estimate_spectrum(a), 3.6e-67)
    tp.build_contour(_point(1.0), 2e-12)  # a radius above the tolerance stands


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


def _node_hats(a, contour, powers, grid=None, nodes=None, eig=False):
    """Reference resolvent bins: the FFT bins at offsets -1..-(2W-1) of
    (a - lambda)^-1 and, when ``powers`` is 2, of (a - lambda)^-2, at
    every contour node (or at ``nodes``), each node evaluated on its own,
    the symbol-range guard an exact SVD per node.  The inverse is LU, or
    with ``eig`` the sum of eigenprojectors over lambda_k - lambda from one
    eigh per grid, as trace_constant takes it for Hermitian blocks.  The
    grid doubles from max(a.grid_size, default_grid_size(2 W)) until the
    used bins of every power move by at most 1e-13 of their largest from
    the half grid, or those bins + M/2 are round-off; a given ``grid`` is
    used alone, with no gap test and no guard."""
    n = a.block_size
    band = max((k for k in a.coeffs if k > 0), default=0)
    used = slice(-(2 * band - 1), None)
    nodes = contour.nodes if nodes is None else nodes

    def grid_hats(m_grid, guard=True):
        samples = a.sample(m_grid).samples
        if eig:
            evals, vecs = np.linalg.eigh(samples)
            projs = [vecs[:, :, j, None] * vecs[:, None, :, j].conj() for j in range(n)]
        folded = slice(m_grid // 2 - (2 * band - 1), m_grid // 2)
        hats, peaks = [], np.zeros((powers, 3))
        for lam in nodes:
            shifted = samples - lam * np.eye(n)
            if guard:
                dist = (np.min(np.abs(shifted[:, 0, 0])) if n == 1 else
                        float(np.linalg.svd(shifted, compute_uv=False)[:, -1].min()))
                if dist <= 1e-10:
                    raise tp.SpectrumTooClose(
                        f"symbol range within {dist:.3e} of node lambda={lam:.6g}")
            if eig:
                gaps = evals - lam
                inv = sum(proj / gaps[..., j, None, None] for j, proj in enumerate(projs))
            else:
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


def _node_traces(a, contour, grid=None, nodes=None, eig=False):
    """Reference: tr(M^-1 M') at every contour node (or at ``nodes``) from
    the bins of (a - lambda)^-1 and (a - lambda)^-2 (_node_hats), the
    dense-corner route, one solve per node."""
    eye, corners = _corners(a, _node_hats(a, contour, 2, grid, nodes, eig))
    return np.array([np.trace(np.linalg.solve(eye - m1, -m2)) for m1, m2 in corners])


def _per_node_trace_constant(a, f, contour, traces=None):
    """Reference: the trapezoid sum over _node_traces on the circle,
    sum_j f(l_j) t_j (l_j - center) / K."""
    if traces is None:
        traces = _node_traces(a, contour)
    nodes = contour.nodes
    return complex(np.sum(f(nodes) * traces * (nodes - contour.center)) / len(nodes))


def _node_log_dets(a, contour, grid=None, nodes=None, eig=False):
    """Reference: slogdet(M) at every contour node (or at ``nodes``) from
    the bins of (a - lambda)^-1 alone (_node_hats), the block route's grid
    rule; the signs and the log magnitudes."""
    eye, corners = _corners(a, _node_hats(a, contour, 1, grid, nodes, eig))
    signs, logabs = zip(*(np.linalg.slogdet(eye - m1) for (m1,) in corners))
    return np.array(signs), np.array(logabs)


def _log_det_constant(f, contour, signs, logabs):
    """(1/2 pi i) oint f dL from L's signs and log magnitudes at every node,
    L's phase unwrapped along the nodes, dL/dphi by one FFT with the
    Nyquist bin 0."""
    k = len(signs)
    phase = np.unwrap(np.angle(np.append(signs, signs[0])))
    assert abs(phase[-1] - phase[0]) < 1e-9
    freqs = np.fft.fftfreq(k, 1.0 / k)
    if k % 2 == 0:
        freqs[k // 2] = 0.0
    dl = np.fft.ifft(1j * freqs * np.fft.fft(logabs + 1j * phase[:-1]))
    return complex(np.sum(f(contour.nodes) * dl) / (1j * k))


def _per_node_log_det_constant(a, f, contour, grid=None):
    """Reference: _log_det_constant over _node_log_dets at every node."""
    return _log_det_constant(f, contour, *_node_log_dets(a, contour, grid))


def _reference_constant(a, f, contour, grid=None):
    """The full-node reference of trace_constant's route for a, every node
    evaluated with an LU inverse: slogdet + FFT for block symbols, the
    dense-corner solve for scalars."""
    if a.block_size == 1:
        return _per_node_trace_constant(a, f, contour, _node_traces(a, contour, grid))
    return _per_node_log_det_constant(a, f, contour, grid)


def _route_constant(a, f, contour):
    """trace_constant's route, node by node, for bit-for-bit comparison:
    for a Hermitian symbol on a circle about a real center with even K,
    nodes 0..K/2 evaluated and node K - j given the conjugate value of
    node j; Hermitian blocks with the eigh resolvent."""
    k = len(contour.nodes)
    hermitian = _is_hermitian(a)
    nodes = contour.nodes
    if hermitian and k % 2 == 0 and complex(contour.center).imag == 0:
        nodes = nodes[:k // 2 + 1]

    def fill(values):  # node K - j takes the conjugate value of node j
        return np.concatenate([values, values[-2:0:-1].conj()]) if len(nodes) < k else values

    eig = hermitian and a.block_size > 1
    if a.block_size == 1:
        traces = fill(_node_traces(a, contour, nodes=nodes, eig=eig))
        return _per_node_trace_constant(a, f, contour, traces)
    signs, logabs = _node_log_dets(a, contour, nodes=nodes, eig=eig)
    return _log_det_constant(f, contour, fill(signs), fill(logabs))


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
        # the last chunk of the start grid, which this symbol accepts, holds
        # one node: the route evaluates nodes 0..K/2 of this Hermitian symbol
        band = max(a.coeffs)
        m_grid = max(a.grid_size, default_grid_size(2 * band))
        per_chunk = _BATCH_SAMPLES // (m_grid * a.block_size**2)
        contour = _circle(contour.center, contour.radius, 2 * per_chunk)
    for f in (tp.SQUARE, tp.exponential()):
        ef = tp.trace_constant(a, f, contour)
        assert ef == _route_constant(a, f, contour)
        assert abs(ef - _reference_constant(a, f, contour)) <= 1e-12 * max(1.0, abs(ef))


def test_trace_constant_guard_fallback_matches_per_node():
    # a(theta) = 1.25 - r cos(theta), not Hermitian, takes the LU inverse.
    # Scaled by 3e-10, its smallest singular value on the contour is above
    # 1e-10 but below twice that times sqrt(2): the Frobenius bound does
    # not certify it and the exact SVD decides
    from toepasym.symbol import _guarded_inverse
    r = np.array([[1.0, 0.2], [0.0, 1.0]])
    base = tp.LaurentMatrixSeries(2, {0: 1.25 * np.eye(2), 1: -0.5 * r, -1: -0.5 * r})
    a = tp.LaurentMatrixSeries(2, {k: 3e-10 * blk for k, blk in base.coeffs.items()})
    assert not _is_hermitian(a)
    spectrum = tp.estimate_spectrum(base)
    contour = _circle(3e-10 * spectrum.centroid, 3e-10 * (spectrum.max_radius + 0.5), 64)
    shifted = a.sample().samples - contour.nodes[0] * np.eye(2)  # the grid it accepts
    inv, margins = _guarded_inverse(shifted)
    assert margins is not None and margins.min() > 1e-10
    ef = tp.trace_constant(a, tp.SQUARE, contour)
    assert ef == _route_constant(a, tp.SQUARE, contour)
    assert ef == _reference_constant(a, tp.SQUARE, contour)


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


def _ulp_off(a):
    """a with the first entry of its offset-1 block moved by one ulp, so
    that it is no longer exactly Hermitian."""
    coeffs = {k: np.array(blk, dtype=complex) for k, blk in a.coeffs.items()}
    coeffs[1][0, 0] = np.nextafter(coeffs[1][0, 0].real, np.inf) + 1j * coeffs[1][0, 0].imag
    return tp.LaurentMatrixSeries(a.block_size, coeffs)


def test_trace_constant_builds_corners_once(monkeypatch, rational_symbol):
    # the block symbol rejects its start grid 256 and accepts 512; it takes
    # one slogdet per node, the scalar one solve per node, on nodes 0..32
    # of 64 for exactly Hermitian symbols and on every node otherwise
    import toepasym.traces
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
    block = _lacunary_block(0.75, 4, 3)
    cases = [(block, [256, 512], "slogdet", 33), (_ulp_off(block), [256, 512], "slogdet", 64),
             (rational_symbol, [256], "solve", 33), (_ulp_off(rational_symbol), [256], "solve", 64)]
    for a, grid_list, route, corners in cases:
        contour = tp.build_contour(tp.estimate_spectrum(a), 0.5, nodes=64)
        grids.clear()
        counts.update(dict.fromkeys(counts, 0))
        tp.trace_constant(a, tp.SQUARE, contour)
        assert grids == grid_list
        assert counts == {"hankel_section": 1, "slogdet": 0, "solve": 0, route: corners}


def test_trace_constant_raises_at_grid_cap(rational_symbol):
    # at the node 1e-7 above the top 2.25 of the symbol's range, the
    # resolvent's coefficients decay like (1 - sqrt(2e-7))^k: 2^15 points
    # leave a gap ~1e-3
    contour = _circle(3.0, 0.75 - 1e-7, 2)
    assert abs(contour.nodes[1] - (2.25 + 1e-7)) < 1e-15
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
    # a(0) = diag(1.1, 2.1) for both symbols; node 32 of the circle sits
    # 1e-11 from 1.1.  The Hermitian one takes the eigh resolvent on nodes
    # 0..32, the other the LU inverse with the SVD guard on every node.
    contour = _circle(3.0, 1.9 - 1e-11, 64)
    step = 0.1 * np.eye(2)
    for hermitian, coeffs in ((False, {1: step}), (True, {1: 0.5 * step, -1: 0.5 * step})):
        a = tp.LaurentMatrixSeries(2, {0: np.diag([1.0, 2.0]), **coeffs})
        assert _is_hermitian(a) == hermitian
        with pytest.raises(tp.SpectrumTooClose,
                           match=r"^symbol range within 1\.000e-11 of node lambda=1\.1"):
            tp.trace_constant(a, tp.SQUARE, contour)


def test_trace_constant_raises_when_log_det_winds():
    # a = t^2 + 0.2 / t winds twice about every point of the small circle,
    # which clears its range (|a| >= 0.8): log det M turns along it
    a = tp.LaurentMatrixSeries(2, {2: np.eye(2), -1: 0.2 * np.eye(2)})
    contour = _circle(0j, 0.05, 64)
    assert np.abs(a.sample().samples[:, 0, 0]).min() > 0.75
    with pytest.raises(tp.SpectrumTooClose, match="winds"):
        tp.trace_constant(a, tp.SQUARE, contour)


@pytest.mark.parametrize("order", ["shuffled", "reversed"])
def test_trace_constant_rejects_reordered_nodes(order, two_block_symbol, rational_symbol):
    # both routes read the nodes as build_contour's counter-clockwise turn:
    # without the check, the block route gave -2.0858-1.0059j on the
    # shuffled nodes and +1.02 on the reversed ones for the exact -1.02
    perm = (np.random.default_rng(0).permutation(64) if order == "shuffled"
            else np.arange(64)[::-1])
    for a, exact in ((two_block_symbol, -1.02), (rational_symbol, -0.5)):
        contour = tp.build_contour(tp.estimate_spectrum(a), 0.5, nodes=64)
        moved = tp.ContourSpec(nodes=contour.nodes[perm], weights=contour.weights[perm],
                               clearance=contour.clearance, center=contour.center,
                               radius=contour.radius)
        assert tp.trace_constant(a, tp.SQUARE, contour) == pytest.approx(exact)
        with pytest.raises(ValueError, match="the contour nodes must be"):
            tp.trace_constant(a, tp.SQUARE, moved)


def test_trace_constant_does_not_read_the_weights(two_block_symbol, rational_symbol):
    # both routes weigh the nodes by (l_j - center) / K; the scalar route
    # once summed against contour.weights and gave 1.2e-10j for the exact
    # -0.5 with unit weights
    for a in (two_block_symbol, rational_symbol):
        contour = tp.build_contour(tp.estimate_spectrum(a), 0.5, nodes=64)
        unit = tp.ContourSpec(nodes=contour.nodes, weights=np.ones(64),
                              clearance=contour.clearance, center=contour.center,
                              radius=contour.radius)
        assert tp.trace_constant(a, tp.SQUARE, unit) == tp.trace_constant(a, tp.SQUARE, contour)


@st.composite
def _hermitian_blocks(draw, sizes=(2, 3)):
    """A random Hermitian symbol of one of the block ``sizes`` with offsets
    up to 3, its smallest eigenvalue at least 1 on the circle."""
    n = draw(st.sampled_from(sizes))
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


@settings(max_examples=30)
@given(_hermitian_blocks((1, 2)))
@example(tp.scalar_symbol({0: 1.0, 1: 4.5e-118j, -1: -4.5e-118j}))  # a disk of radius 9e-118
def test_log_trace_functionals_are_the_determinant_constants(a):
    # f = log ties the trace half to the determinant half: E_log = log E(a)
    # and G_log = log G(a), from routes that share no code with the
    # contour's node values.  The contour runs at the geometric mean of the
    # disk's radius R and its distance c to the branch point 0, where the
    # trapezoid rule errs by about (R / c)^(K/2) from both sides, and at
    # least c / 2 from the center, so that rounding cannot put a node on
    # the range of a nearly constant symbol.
    assume(max(a.coeffs) > 0)  # zero blocks are not stored
    spectrum = tp.estimate_spectrum(a)
    center, radius = spectrum.centroid.real, spectrum.max_radius
    assert spectrum.centroid.imag == 0 and center > radius  # the disk misses 0
    reach = max(math.sqrt(radius * center), 0.5 * center)
    contour = tp.build_contour(spectrum, reach - radius, nodes=256)
    log = tp.principal_log()
    assert abs(tp.trace_constant(a, log, contour) - np.log(tp.szego_constant(a))) <= 1e-12
    assert abs(tp.trace_mean(a, log) - tp.log_geometric_mean(a)) <= 1e-13


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
