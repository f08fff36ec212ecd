"""The benchmark workloads: inputs made from a seed, and checked operations.

Each workload is made of parts (det-scalar, trace-cli, block and
smoothness below), run one after another in every pass.

An operation is one top-level call into toepasym (one CLI subcommand,
one scan, or one constant).  ``Op.call`` is the timed call; it gets the
results of the operations before it in the same pass.  ``Op.check`` runs
after the timed interval and raises ``CheckFailed`` when the output
disagrees with an independent route (``oracles``), so checking costs no
measured time.  Sizes are fixed per workload; the seed only changes the
random phases and blocks of the generated symbols.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles


class CheckFailed(Exception):
    """An operation's output disagrees with its reference value."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    call: Callable[[dict], Any]
    check: Callable[[Any, dict], None]


def describe(name, a, **resolution):
    """Record of one generated input: support, bandwidth, grid, sections."""
    support = a.support()
    return {"input": name, "block_size": a.block_size,
            "support": [support[0], support[-1], len(support)],
            "bandwidth": a.max_offset, "grid": a.grid_size, **resolution}


def rational(tp):
    """(1 - t/2)(1 - 1/(2t)) = 1.25 - (t + 1/t)/2, det T_n in closed form."""
    return tp.scalar_symbol({0: 1.25, 1: -0.5, -1: -0.5})


def two_block(tp):
    """The test suite's non-scalar fixture (upper triangular off-diagonal blocks)."""
    r = np.array([[1.0, 0.2], [0.0, 1.0]])
    return tp.LaurentMatrixSeries(2, {0: 1.25 * np.eye(2), 1: -0.5 * r, -1: -0.5 * r.T})


def lacunary_block(tp, gamma, levels, seed):
    """Hermitian 2x2 lacunary symbol with non-commuting random blocks.

    a = c I + sum_j (A_j t^(2^j) + A_j^* t^(-2^j)) with ||A_j|| = 2^(-gamma j) / 2
    and c = 1 + sum_j 2 ||A_j||, so the smallest eigenvalue on the circle
    is at least 1 and the factorization is canonical.
    """
    rng = np.random.default_rng([seed, 2])
    coeffs, shift = {}, 1.0
    for j in range(levels + 1):
        blk = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        blk *= 2.0 ** (-gamma * j) / (2.0 * np.linalg.norm(blk, 2))
        coeffs[1 << j] = blk
        coeffs[-(1 << j)] = blk.conj().T
        shift += 2.0 * np.linalg.norm(blk, 2)
    coeffs[0] = shift * np.eye(2)
    return tp.LaurentMatrixSeries(2, coeffs, smoothness_tag=float(gamma))


def turned_zygmund(tp, gamma, levels, seed, stream=0):
    """zygmund_symbol(gamma, levels) (all phases zero) turned by a seed-drawn angle.

    a(t + t0) has the coefficients a_k exp(i k t0): every one of them
    changes with the seed, their moduli do not.  So the supports of the
    mismatch symbols b and c, which the library trims by modulus, are the
    same for every seed (44 and 46 for gamma 0.75 at levels 2), and so is
    the work of the order-3 expansion, which grows with the cube of them.
    Phases drawn per seed move those supports from 112 to 130 over seeds
    1-10 at levels 4 and the order-3 time by half, which would swamp any
    change of the program.  ``stream`` gives symbols of one seed their own
    angles.
    """
    a = tp.zygmund_symbol(gamma, levels)
    t0 = np.random.default_rng([seed, 3, stream]).uniform(0.0, 2 * np.pi)
    return tp.scalar_symbol({k: complex(blk[0, 0]) * np.exp(1j * k * t0)
                             for k, blk in a.coeffs.items()}, smoothness_tag=float(gamma))


def warm_up(tp, workdir):
    """One tiny call per layer, so lazy imports and first-call costs land in set-up."""
    a = rational(tp)
    tp.multiply(a, a)
    tp.log_det_direct(a, 4)
    tp.scalar_wiener_hopf(a)
    tp.szego_constant(a)
    tp.trace_mean(a, tp.SQUARE)
    tp.near_best_approximation(a, 1)
    from toepasym.approx import best_error_on_grid  # imports the LP solver
    best_error_on_grid(a, 1, 16)
    tp.fit_decay([1, 2, 4, 8], [1.0, 0.5, 0.25, 0.125])
    tp.parse_function_spec("exp")(1.0)
    from toepasym.cli import main
    require(main(["gen-symbol", "--rational", "0.5", "-o",
                  os.path.join(workdir, "warm.json")]) == 0, "warm-up gen-symbol failed")


def _close(value, ref, tol, what):
    err = abs(value - ref)
    require(err <= tol, f"{what}: |{value!r} - {ref!r}| = {err:.3e} > {tol:g}")


# ---------------------------------------------------------------------------
# det-scalar

# Sizes keep this part of a pass near 1 s on two cores and every operation
# under 0.3 s, so that a run holds many passes.
# multiply's cost grows with the product of the factor supports and order
# 3's with the cube of the supports of b and c, so the order-3 leg is four
# small symbols (0.05-0.15 s each) rather than one large one (0.4 s at
# levels 3, 1.7 s at levels 4).
SCAN_LEVELS, SCAN_GRID = 6, [8, 16, 32, 64, 128, 256]
P3_GAMMAS, P3_LEVELS, P3_GRID = (0.5, 0.75, 1.0, 1.5), 2, [8, 16, 32, 64, 128]
#: mismatch coefficients of every order-3 symbol fall below 1e-15 well before this
P3_TRACE_LENGTH = 512


def det_scalar_setup(tp, seed, workdir):
    scan = tp.zygmund_symbol(0.75, SCAN_LEVELS, seed)
    inputs = {"rational": rational(tp), "scan": scan}
    record = [describe("rational", inputs["rational"], sections=[0, 128]),
              describe(f"zygmund(0.75, {SCAN_LEVELS})", scan, n_grid=SCAN_GRID, p=[1, 2])]
    for i, g in enumerate(P3_GAMMAS):
        inputs[f"p3:{g}"] = turned_zygmund(tp, g, P3_LEVELS, seed, stream=i)
        record.append(describe(f"zygmund({g}, {P3_LEVELS}) turned", inputs[f"p3:{g}"],
                               n_grid=P3_GRID, p=[3]))
    return inputs, record


def _fit_points_match(fit, ref, what):
    """Every point of a decay fit equals the reference residual at that n."""
    require(len(fit.points) >= 4, f"{what}: only {len(fit.points)} fit points")
    for n, mag in fit.points:
        _close(mag, abs(ref[n]), 1e-9, f"{what} |residual| at n={n}")
    slope, _ = oracles.decay_slope(*zip(*fit.points))
    _close(fit.slope, slope, 1e-9, f"{what} slope")


def _scan_refs(inputs, key, grid, p, length=None):
    """Independent log G, log E, log det and order-1 and order-p residuals.

    ``traces`` holds the order-p correction traces t_ell at index ell - 1.
    The order-p prediction is (n+1) log G + log E - sum_{ell > n} t_ell,
    so its residual is the order-1 residual plus that tail.
    """
    cache = inputs.setdefault("refs", {})
    if key not in cache:
        a = inputs[key]
        log_g = oracles.log_geometric_mean(a)
        log_e = oracles.log_szego_series(a)
        direct = {n: oracles.hermitian_logdet(a, n) for n in grid}
        r1 = {n: direct[n] - (n + 1) * log_g - log_e for n in grid}
        traces = oracles.correction_traces(a, p, length)
        cache[key] = {"log_g": log_g, "log_e": log_e, "direct": direct, "r1": r1,
                      "traces": traces, f"r{p}": {n: r1[n] + traces[n:].sum() for n in grid}}
    return cache[key]


def det_scalar_ops(tp, inputs):
    rat, scan = inputs["rational"], inputs["scan"]
    ops = []

    def closed_form(n):
        def check(value, results):
            det = (1 - 0.5 ** (2 * (n + 2))) / 0.75
            _close(complex(np.exp(value)), det, 1e-10 * det, f"det T_{n}")
        return check

    for n in range(0, 129):
        ops.append(Op(f"rational.log_det_direct[n={n}]",
                      lambda r, n=n: tp.log_det_direct(rat, n), closed_form(n)))

    def check_szego(value, results):
        _close(value, 4.0 / 3.0, 1e-8, "E(rational)")
        _close(value, results["rational.strong_szego_series"], 1e-8,
               "E(rational) against strong_szego_series")

    ops.append(Op("rational.szego_constant", lambda r: tp.szego_constant(rat), check_szego))
    ops.append(Op("rational.strong_szego_series", lambda r: tp.strong_szego_series(rat),
                  lambda v, r: _close(v, 4.0 / 3.0, 1e-8, "series E(rational)")))

    ops.append(Op("scan.scalar_wiener_hopf", lambda r: tp.scalar_wiener_hopf(scan),
                  lambda w, r: _factor_residuals(w, scan, "scan")))
    for p in (1, 2):
        ops.append(Op(
            f"scan.logdet_remainder_scan[p={p}]",
            lambda r, p=p: tp.logdet_remainder_scan(scan, SCAN_GRID, p=p,
                                                   factors=r["scan.scalar_wiener_hopf"]),
            lambda fit, r, p=p: _fit_points_match(
                fit, _scan_refs(inputs, "scan", SCAN_GRID, 2)[f"r{p}"], f"p={p} scan")))

    def check_p3(reports, results, key):
        ref = _scan_refs(inputs, key, P3_GRID, 3, P3_TRACE_LENGTH)
        traces = ref["traces"]
        require([rep.n for rep in reports] == P3_GRID, "p=3 scan grid")
        for rep in reports:
            n = rep.n
            _close(rep.direct.real, ref["direct"][n], 1e-9 * max(1.0, abs(ref["direct"][n])),
                   f"p=3 log det T_{n}")
            _close(rep.log_G_term.real, (n + 1) * ref["log_g"], 1e-10 * (n + 1),
                   f"p=3 (n+1) log G at n={n}")
            _close(rep.correction_sum, traces[:n].sum(), 1e-12,
                   f"p=3 correction sum at n={n}")
            _close(rep.log_E_constant, ref["log_e"] - traces.sum(), 1e-9,
                   f"p=3 log E minus the correction limit at n={n}")
            _close(rep.residual, ref["r3"][n], 1e-9 * max(1.0, abs(ref["direct"][n])),
                   f"p=3 residual at n={n}")

    for g in P3_GAMMAS:
        key = f"p3:{g}"
        ops.append(Op(f"{key}.logdet_expansion_scan[p=3]",
                      lambda r, a=inputs[key]: tp.logdet_expansion_scan(a, P3_GRID, p=3),
                      lambda reports, r, key=key: check_p3(reports, r, key)))
    return ops


def _factor_residuals(w, a, what, tol=1e-8):
    """Products u_- u_+ and v_+ v_- equal a on a grid; sides and normalization hold."""
    m = 4 * max(64, a.max_offset, *(f.max_offset for f in
                                    (w.u_minus, w.u_plus, w.v_plus, w.v_minus)))
    m = 1 << (m - 1).bit_length()
    target = oracles.grid_values(a, m)
    right = oracles.grid_values(w.u_minus, m) @ oracles.grid_values(w.u_plus, m)
    left = oracles.grid_values(w.v_plus, m) @ oracles.grid_values(w.v_minus, m)
    require(float(np.max(np.abs(right - target))) <= tol, f"{what}: right product residual")
    require(float(np.max(np.abs(left - target))) <= tol, f"{what}: left product residual")
    require(all(k <= 0 for k in w.u_minus.coeffs) and all(k <= 0 for k in w.v_minus.coeffs),
            f"{what}: minus factor has positive offsets")
    require(all(k >= 0 for k in w.u_plus.coeffs) and all(k >= 0 for k in w.v_plus.coeffs),
            f"{what}: plus factor has negative offsets")
    _close(float(np.max(np.abs(w.u_minus.block(0) - np.eye(a.block_size)))), 0.0, 1e-10,
           f"{what}: u_minus(inf) = I")
    require(w.residuals.leakage <= tol, f"{what}: leakage {w.residuals.leakage:.3e}")


# ---------------------------------------------------------------------------
# trace-cli

# levels 5 (bandwidth 32) and n <= 256 keep each of the four CLI runs
# near 0.5 s on two cores
TRACE_LEVELS = 5
TRACE_FUNCTIONS = ("square", "exp", "log")
NUMPY_FUNCTIONS = {"exp": np.exp, "log": np.log}
TRACE_GRID = "8:256:geometric"
TRACE_NS = [8, 16, 32, 64, 128, 256]
CSV_HEADER = "n,direct_re,direct_im,asymptotic_re,asymptotic_im,residual_abs"


def trace_cli_setup(tp, seed, workdir):
    from toepasym.cli import main
    path = os.path.join(workdir, "symbol.json")
    argv = ["gen-symbol", "--zygmund", "0.75", "--levels", str(TRACE_LEVELS),
            "--seed", str(seed), "-o", path]
    require(main(argv) == 0, "gen-symbol failed")
    a = tp.load_symbol(path)
    inputs = {"symbol_path": path, "symbol": a, "workdir": workdir, "seed": seed}
    record = [describe(f"zygmund(0.75, {TRACE_LEVELS})", a, n_grid=TRACE_NS, nodes=128,
                       functions=list(TRACE_FUNCTIONS))]
    return inputs, record


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def trace_cli_ops(tp, inputs):
    import toepasym.cli as cli  # looked up per call, so a traced run sees cli.main
    a, workdir = inputs["symbol"], inputs["workdir"]
    ops = []

    def outputs(tag):
        return (os.path.join(workdir, f"widom_{tag}.csv"),
                os.path.join(workdir, f"widom_{tag}_fit.json"))

    def invoke(f, tag, extra=()):
        csv, fit = outputs(tag)
        argv = ["widom-trace", "--symbol", inputs["symbol_path"], "--f", f,
                "--n-grid", TRACE_GRID, "--nodes", "128", "-o", csv, "--fit-out", fit,
                *extra]
        return lambda results: cli.main(argv)

    def check(f, tag):
        def run_check(code, results):
            require(code == 0, f"widom-trace --f {f} exited {code}")
            paths = outputs(tag)
            _check_widom_csv(a, f, paths, inputs)
            digest = _digest(paths)
            inputs.setdefault("digests", {}).setdefault(tag, digest)
            require(digest == inputs["digests"][tag],
                    f"widom-trace --f {f} output differs from the first pass")
            stored = inputs.get("stored_digests", {}).get(tag)
            require(stored in (None, digest),
                    f"widom-trace --f {f} output differs from an earlier run of this seed")
            results[f"digest:{tag}"] = digest
        return run_check

    for f in TRACE_FUNCTIONS:
        ops.append(Op(f"cli.widom-trace[{f}]", invoke(f, f), check(f, f)))

    def check_serial(code, results):
        check("square", "square_serial")(code, results)
        require(results.get("digest:square_serial") == results.get("digest:square"),
                "widom-trace output with --threads 1 differs from the thread pool's")

    ops.append(Op("cli.widom-trace[square,threads=1]",
                  invoke("square", "square_serial", ("--threads", "1")), check_serial))
    return ops


def _trace_refs(a, f, inputs):
    cache = inputs.setdefault("refs", {})
    if f not in cache:
        fn = NUMPY_FUNCTIONS.get(f)
        if f == "square":
            gf, ef = oracles.square_trace_terms(a)
            direct = {n: oracles.square_trace(a, n) for n in TRACE_NS}
        else:
            gf = oracles.trace_mean(a, fn)
            ef = oracles.widom_constant_series(a, fn)
            direct = {n: oracles.hermitian_trace(a, n, fn) for n in TRACE_NS}
        cache[f] = (gf, ef, direct)
    return cache[f]


def _check_widom_csv(a, f, paths, inputs):
    csv_path, fit_path = paths
    with open(csv_path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    require(lines[0] == CSV_HEADER, f"{f}: CSV header {lines[0]!r}")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    require([int(r[0]) for r in rows] == TRACE_NS, f"{f}: CSV n column")
    gf, ef, direct = _trace_refs(a, f, inputs)
    mags = []
    for n, d_re, d_im, p_re, p_im, res in rows:
        n = int(n)
        d, p = complex(d_re, d_im), complex(p_re, p_im)
        _close(d, direct[n], 1e-9 * max(1.0, abs(direct[n])), f"{f}: tr f(T_{n})")
        pred = (n + 1) * gf + ef
        _close(p, pred, 1e-8 * max(1.0, abs(pred)), f"{f}: (n+1) G_f + E_f at n={n}")
        _close(res, abs(d - p), 1e-12 * max(1.0, abs(d)), f"{f}: residual column at n={n}")
        mags.append(res)
    with open(fit_path, encoding="ascii") as fh:
        fit = json.load(fh)
    slope, count = oracles.decay_slope(TRACE_NS, mags)
    require(len(fit["points"]) == count, f"{f}: fit point count")
    _close(fit["slope"], slope, 1e-9, f"{f}: fit slope")


# ---------------------------------------------------------------------------
# block

BLOCK_GRID = [8, 16, 32, 64, 128, 256]
BLOCK_SECTION = 256
TRACE_N = 128
SWEEP_NODES = 8


def block_setup(tp, seed, workdir):
    inputs = {"fixture": two_block(tp), "lacunary": lacunary_block(tp, 0.75, 6, seed),
              "rational": rational(tp)}
    record = [describe(name, inputs[name], section=BLOCK_SECTION, n_grid=BLOCK_GRID,
                       p=[1, 2], contour_nodes=64, trace_n=TRACE_N)
              for name in ("fixture", "lacunary")]
    record.append(describe("rational", inputs["rational"], section=BLOCK_SECTION))
    record[0]["sweep_nodes"] = SWEEP_NODES
    return inputs, record


def _sweep_contour(tp, c):
    """The circle of contour c with SWEEP_NODES trapezoid nodes."""
    nodes = c.center + c.radius * np.exp(2j * np.pi * np.arange(SWEEP_NODES) / SWEEP_NODES)
    return tp.ContourSpec(nodes=nodes, weights=(2j * np.pi / SWEEP_NODES) * (nodes - c.center),
                          clearance=c.clearance, center=c.center, radius=c.radius)


def _hermitian_range(a):
    evals = np.linalg.eigvalsh(oracles.grid_values(a, 1 << 10))
    return float(evals.min()), float(evals.max())


def block_ops(tp, inputs):
    ops = []
    for tag in ("fixture", "lacunary"):
        ops.extend(_block_symbol_ops(tp, inputs, tag))
    rat = inputs["rational"]
    ops.append(Op("rational.scalar_wiener_hopf", lambda r: tp.scalar_wiener_hopf(rat),
                  lambda w, r: _factor_residuals(w, rat, "rational scalar path")))

    def check_cross(wb, results):
        _factor_residuals(wb, rat, "rational block path")
        ws = results["rational.scalar_wiener_hopf"]
        m = 512
        for name in ("u_minus", "u_plus", "v_plus", "v_minus"):
            diff = (oracles.grid_values(getattr(ws, name), m)
                    - oracles.grid_values(getattr(wb, name), m))
            require(float(np.max(np.abs(diff))) <= 1e-8,
                    f"rational {name}: scalar and block paths disagree")

    ops.append(Op("rational.block_wiener_hopf",
                  lambda r: tp.block_wiener_hopf(rat, section=BLOCK_SECTION), check_cross))

    fixture = inputs["fixture"]

    def check_sweep(s, results):
        nodes = _sweep_contour(tp, results["fixture.build_contour"]).nodes
        require(len(s.factors) == SWEEP_NODES, "sweep node count")
        require(s.max_product_residual <= 1e-8, f"sweep residual {s.max_product_residual:.3e}")
        require(math.isfinite(s.continuity_diagnostic), "sweep continuity not finite")
        for lam, w in zip(nodes, s.factors):
            _factor_residuals(w, tp.add_constant(fixture, -lam), f"sweep at {lam:.4g}")

    ops.append(Op("fixture.factorization_sweep",
                  lambda r: tp.factorization_sweep(
                      fixture, _sweep_contour(tp, r["fixture.build_contour"]),
                      section=BLOCK_SECTION),
                  check_sweep))
    return ops


def _block_symbol_ops(tp, inputs, tag):
    a = inputs[tag]
    square = tp.SQUARE
    refs = {}

    def ref():
        if not refs:
            refs["log_g"] = oracles.log_geometric_mean(a)
            refs["direct"] = {n: oracles.hermitian_logdet(a, n) for n in BLOCK_GRID}
            refs["range"] = _hermitian_range(a)
            refs["square"] = oracles.square_trace_terms(a)
        return refs

    def check_e(value, results):
        n = BLOCK_GRID[-1]
        log_e = ref()["direct"][n] - (n + 1) * ref()["log_g"]
        _close(complex(np.log(value)), log_e, 1e-9, f"{tag}: log E against det T_{n} / G^{n + 1}")

    def check_scan(p):
        def check(reports, results):
            require([rep.n for rep in reports] == BLOCK_GRID, f"{tag} p={p}: scan grid")
            for rep in reports:
                d = ref()["direct"][rep.n]
                _close(rep.direct.real, d, 1e-9 * max(1.0, abs(d)), f"{tag}: log det T_{rep.n}")
            last = reports[-1]
            require(abs(last.residual) <= 1e-10,
                    f"{tag} p={p}: residual {abs(last.residual):.3e} at n={last.n}")
        return check

    def check_spectrum(spec, results):
        lo, hi = ref()["range"]
        pts = spec.points
        require(np.all(np.isfinite(pts)), f"{tag}: spectrum not finite")
        require(float(np.max(np.abs(pts.imag))) <= 1e-8, f"{tag}: spectrum leaves the real line")
        require(pts.real.min() >= lo - 1e-8 and pts.real.max() <= hi + 1e-8,
                f"{tag}: spectrum outside the symbol's range [{lo:.6g}, {hi:.6g}]")

    def check_contour(c, results):
        lo, hi = ref()["range"]
        require(len(c.nodes) == 64, f"{tag}: contour nodes")
        dist = np.abs(results[f"{tag}.estimate_spectrum"].points - c.center)
        require(float(np.max(dist)) <= c.radius - 0.25, f"{tag}: contour clearance")
        require(max(abs(lo - c.center), abs(hi - c.center)) < c.radius,
                f"{tag}: contour misses the symbol's range")

    def check_ef(value, results):
        # The trapezoid rule on N nodes of a circle of radius R about c
        # errs by about (r / R)^N when the integrand's singularities (the
        # symbol's eigenvalues) lie within r of c; 64 nodes leave up to
        # 1e-7 on this symbol, while 128 nodes agree to 1e-14.
        c = results[f"{tag}.build_contour"]
        lo, hi = ref()["range"]
        rho = max(abs(lo - c.center), abs(hi - c.center)) / c.radius
        scale = max(1.0, abs(value))
        _close(value, ref()["square"][1], (1e-8 + 100 * rho ** len(c.nodes)) * scale,
               f"{tag}: E_f on {len(c.nodes)} nodes")

    return [
        Op(f"{tag}.block_wiener_hopf",
           lambda r: tp.block_wiener_hopf(a, section=BLOCK_SECTION),
           lambda w, r: _factor_residuals(w, a, tag)),
        Op(f"{tag}.szego_constant", lambda r: tp.szego_constant(a), check_e),
        Op(f"{tag}.logdet_expansion_scan[p=1]",
           lambda r: tp.logdet_expansion_scan(a, BLOCK_GRID, p=1), check_scan(1)),
        Op(f"{tag}.logdet_expansion_scan[p=2]",
           lambda r: tp.logdet_expansion_scan(a, BLOCK_GRID, p=2), check_scan(2)),
        Op(f"{tag}.estimate_spectrum", lambda r: tp.estimate_spectrum(a), check_spectrum),
        Op(f"{tag}.build_contour",
           lambda r: tp.build_contour(r[f"{tag}.estimate_spectrum"], 0.5, nodes=64),
           check_contour),
        Op(f"{tag}.trace_mean[square]", lambda r: tp.trace_mean(a, square),
           lambda v, r: _close(v, ref()["square"][0], 1e-9 * max(1.0, abs(v)), f"{tag}: G_f")),
        Op(f"{tag}.trace_constant[square]",
           lambda r: tp.trace_constant(a, square, r[f"{tag}.build_contour"]), check_ef),
        Op(f"{tag}.trace_f_direct[square,n={TRACE_N}]",
           lambda r: tp.trace_f_direct(a, TRACE_N, square),
           lambda v, r: _close(v, oracles.square_trace(a, TRACE_N), 1e-9 * abs(v),
                               f"{tag}: tr T_{TRACE_N}^2")),
    ]


# ---------------------------------------------------------------------------
# smoothness

# jackson_decay_check is a single call of about 2 s, nearly all of it the
# 13 scales x 512 shifts of zygmund_seminorm; with two such calls a pass,
# wall_s spread 0.29 (interquartile range over median) over ten seeds on a
# shared two-core machine.  So the workload makes the Jackson check from the library's
# public parts, each a short call: the near-best error at each degree (the
# rate is fitted from them as jackson_decay_check fits it), the modulus of
# smoothness on the full 512-shift sweep at a few dyadic scales, and the
# Zygmund seminorm over all 13 scales on a coarse sweep.  Each exponent is
# one branch of the library's rule: no derivative (delta = gamma) and one
# derivative (delta = gamma - 1).
GAMMAS = (0.75, 1.5)
JACKSON_GRID = [4, 8, 16, 32, 64]
#: s = pi 2^-i at these i: first, middle and last of the seminorm's scales
MODULUS_SCALES = (0, 6, 12)
SEMINORM_SWEEP = 32
LP_DEGREES = (2, 4)


def _derivatives(a, gamma):
    """(a^(m), gamma - m) with m = ceil(gamma) - 1, as jackson_decay_check splits gamma."""
    m = max(math.ceil(gamma) - 1, 0)
    if m == 0:
        return a, gamma
    return a.__class__(a.block_size, {k: (1j * k) ** m * blk for k, blk in a.coeffs.items()
                                      if k != 0}, a.grid_size), gamma - m


def smoothness_setup(tp, seed, workdir):
    inputs = {}
    for g in GAMMAS:
        inputs[f"z{g}"] = tp.zygmund_symbol(g, 8, seed)
        inputs[f"d{g}"], inputs[f"delta{g}"] = _derivatives(inputs[f"z{g}"], g)
    inputs["small"] = tp.zygmund_symbol(0.75, 3, seed)
    record = [describe(f"zygmund({g}, 8)", inputs[f"z{g}"], n_grid=JACKSON_GRID,
                       dense_grid=4096, shifts=512,
                       scales=[f"pi/2^{i}" for i in MODULUS_SCALES],
                       seminorm_shifts=SEMINORM_SWEEP, delta=inputs[f"delta{g}"])
              for g in GAMMAS]
    record.append(describe("zygmund(0.75, 3)", inputs["small"], degrees=list(LP_DEGREES),
                           lp_grid=64))
    return inputs, record


def _jackson_ops(tp, inputs, g):
    a, d, delta = inputs[f"z{g}"], inputs[f"d{g}"], inputs[f"delta{g}"]
    m = max(4096, d.grid_size)
    refs = inputs.setdefault("refs", {})
    ops = []

    def error_name(n):
        return f"near_best_approximation[gamma={g},n={n}]"

    def check_error(out, results, n):
        tail = {k: v for k, v in a.coeffs.items() if abs(k) > n}
        ref = float(np.max(np.abs(oracles.grid_values(tp.LaurentMatrixSeries(1, tail), 4096))))
        _close(out[1], ref, 1e-12 * max(1.0, ref), f"gamma={g}: error at n={n}")
        require(all(abs(k) <= n for k in out[0].coeffs), f"gamma={g}: degree above {n}")

    def check_rate(out, results):
        check_error(out, results, JACKSON_GRID[-1])
        errors = [results[error_name(n)][1] for n in JACKSON_GRID]
        slope, count = oracles.decay_slope(JACKSON_GRID[1:], errors[1:], floor=1e-14)
        require(count >= 2, f"gamma={g}: {count} usable errors")
        _close(-slope, g, 0.25, f"gamma estimate for gamma={g}")

    for n in JACKSON_GRID:
        ops.append(Op(error_name(n), lambda r, n=n: tp.near_best_approximation(a, n),
                      check_rate if n == JACKSON_GRID[-1]
                      else lambda out, r, n=n: check_error(out, r, n)))

    def modulus_ref(s, sweep):
        key = ("modulus", g, s, sweep)
        if key not in refs:
            refs[key] = oracles.modulus_of_smoothness(d, s, sweep, m)
        return refs[key]

    for i in MODULUS_SCALES:
        s = np.pi * 2.0 ** (-i)

        def check_modulus(value, results, s=s, i=i):
            ref = modulus_ref(s, 512)
            _close(value, ref, 1e-10 * max(1.0, ref), f"gamma={g}: omega_2 at pi/2^{i}")

        ops.append(Op(f"modulus_of_smoothness[gamma={g},s=pi/2^{i}]",
                      lambda r, s=s: tp.modulus_of_smoothness(d, 2, s), check_modulus))

    def check_seminorm(value, results):
        ref = max(modulus_ref(np.pi * 2.0 ** (-i), SEMINORM_SWEEP) / (np.pi * 2.0 ** (-i)) ** delta
                  for i in range(13))
        _close(value, ref, 1e-10 * max(1.0, ref), f"gamma={g}: Zygmund seminorm")

    ops.append(Op(f"zygmund_seminorm[gamma={g}]",
                  lambda r: tp.zygmund_seminorm(d, delta, sweep=SEMINORM_SWEEP),
                  check_seminorm))
    return ops


def smoothness_ops(tp, inputs):
    import toepasym.approx as approx  # looked up per call, so a traced run sees it
    ops = []
    for g in GAMMAS:
        ops.extend(_jackson_ops(tp, inputs, g))
    small = inputs["small"]
    for n in LP_DEGREES:
        ops.append(Op(f"best_error_on_grid[n={n}]",
                      lambda r, n=n: approx.best_error_on_grid(small, n, 64),
                      lambda v, r: require(v > 0 and math.isfinite(v), "LP oracle value")))

        def check_near(out, results, n=n):
            err = out[1]
            lp = results[f"best_error_on_grid[n={n}]"]
            require(lp <= err * (1 + 1e-9), f"n={n}: near-best {err:.6g} below LP bound {lp:.6g}")
            require(err <= 4 * lp, f"n={n}: near-best {err:.6g} above 4 x LP {lp:.6g}")

        ops.append(Op(f"near_best_approximation[n={n}]",
                      lambda r, n=n: tp.near_best_approximation(small, n), check_near))
    return ops


def combined(*parts):
    """One workload made of several parts' inputs and operations, in order."""
    def make_inputs(tp, seed, workdir):
        inputs, record = {}, []
        for setup, _ in parts:
            more, rec = setup(tp, seed, workdir)
            require(not set(more) & set(inputs), "parts share an input name")
            inputs.update(more)
            record += rec
        return inputs, record

    def make_ops(tp, inputs):
        ops = [op for _, part_ops in parts for op in part_ops(tp, inputs)]
        require(len({op.name for op in ops}) == len(ops), "parts share an operation name")
        return ops

    return make_inputs, make_ops


#: name -> (make inputs, make operations).  Two workloads, so that each run
#: can be long (see README.md, "Steadiness"): the scalar symbols in one,
#: the 2x2 symbols in the other.
WORKLOADS = {
    "scalar": combined((det_scalar_setup, det_scalar_ops),
                       (smoothness_setup, smoothness_ops),
                       (trace_cli_setup, trace_cli_ops)),
    "block": combined((block_setup, block_ops)),
}
