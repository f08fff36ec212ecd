"""Command line front end.

Subcommands: gen-symbol, factor, logdet-scan, trace-scan, expand,
widom-trace, decay-fit, approx-scan, smoothness.  Scan data goes to CSV
(plot ready), structured reports to JSON.  Identical configuration and
seed produce byte-identical output; floats are written with 17
significant digits.  Library errors map to distinct exit codes (the
table lives in the README); usage errors exit with code 2.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import asymptotics, approx, factor, symbol, toeplitz, traces
from .errors import ConfigInvalid, ToepasymError
from .fitting import fit_decay
from .functions import parse_function_spec


def _fmt(x):
    return format(float(x), ".17g")


def parse_n_grid(spec):
    """Parse min:max:{linear|geometric}[:step] into a list of n values."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ConfigInvalid(f"bad n-grid spec {spec!r}, want min:max:kind[:step]")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigInvalid(f"bad n-grid bounds in {spec!r}") from exc
    kind = parts[2]
    if lo < 0 or hi < lo:
        raise ConfigInvalid(f"empty n-grid {spec!r}")
    if kind == "geometric":
        if lo == 0:
            raise ConfigInvalid(f"geometric n-grid {spec!r} must start at n >= 1")
        out, v = [], lo
        while v <= hi:
            out.append(v)
            v *= 2
        return out
    if kind == "linear":
        step = int(parts[3]) if len(parts) == 4 else max(1, (hi - lo) // 16)
        return list(range(lo, hi + 1, step))
    raise ConfigInvalid(f"unknown n-grid kind {kind!r}")


@dataclass
class ExperimentConfig:
    """Validated invocation of one subcommand."""

    operation: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = self.options.get("n_grid")
        if grid is not None and not grid:
            raise ConfigInvalid("empty n grid")
        paths = [p for p in (self.options.get("output"),
                             self.options.get("fit_output")) if p]
        if len(paths) != len(set(paths)):
            raise ConfigInvalid("output paths must be distinct")


def _open_output(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="ascii"), True


def _emit(path, text):
    fh, close = _open_output(path)
    try:
        fh.write(text)
    finally:
        if close:
            fh.close()


def _pmap(fn, items, threads):
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))  # ordered, so output is deterministic


# ---------------------------------------------------------------------------
# handlers

def _cmd_gen_symbol(opt):
    if opt["zygmund"] is not None:
        a = symbol.zygmund_symbol(opt["zygmund"], opt["levels"], seed=opt["seed"])
    elif opt["rational"] is not None:
        rho = opt["rational"]
        a = symbol.scalar_symbol({0: 1 + rho * rho, 1: -rho, -1: -rho})
    elif opt["two_block"] is not None:
        rho, eps = opt["two_block"]
        import numpy as np
        r = np.array([[1.0, eps], [0.0, 1.0]])
        a = symbol.LaurentMatrixSeries(2, {0: (1 + rho * rho) * np.eye(2),
                                           1: -rho * r, -1: -rho * r.T})
    else:
        raise ConfigInvalid("choose one of --zygmund, --rational, --two-block")
    _emit(opt["output"], symbol.symbol_to_json(a))
    return 0


def _cmd_factor(opt):
    a = symbol.load_symbol(opt["symbol"])
    w = factor.canonical_wiener_hopf(a, section=opt["m"])
    prefix = opt["output"]
    if opt["left"]:
        parts = {"v_plus": w.v_plus, "v_minus": w.v_minus}
    else:
        parts = {"u_minus": w.u_minus, "u_plus": w.u_plus}
    for name, series in parts.items():
        symbol.save_symbol(series, f"{prefix}_{name}.json")
    report = {
        "normalization": w.normalization,
        "product_residual_right": w.residuals.product_residual_right,
        "product_residual_left": w.residuals.product_residual_left,
        "leakage": w.residuals.leakage,
        "inverse_margin": w.residuals.inverse_margin,
    }
    with open(f"{prefix}_report.json", "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _scan_values(opt):
    lo, hi, step = opt["n_min"], opt["n_max"], opt["step"]
    if lo < 0 or hi < lo or step < 1:
        raise ConfigInvalid("need 0 <= n-min <= n-max and step >= 1")
    return list(range(lo, hi + 1, step))


def _cmd_logdet_scan(opt):
    a = symbol.load_symbol(opt["symbol"])
    ns = _scan_values(opt)
    vals = toeplitz.log_det_scan(a, ns)
    lines = ["n,re_logdet,im_logdet"]
    for n, v in zip(ns, vals):
        lines.append(f"{n},{_fmt(v.real)},{_fmt(v.imag)}")
    _emit(opt["output"], "\n".join(lines) + "\n")
    return 0


def _cmd_trace_scan(opt):
    a = symbol.load_symbol(opt["symbol"])
    f = parse_function_spec(opt["f"])
    ns = _scan_values(opt)
    vals = _pmap(lambda n: toeplitz.trace_f_direct(a, n, f), ns, opt["threads"])
    lines = ["n,re,im"]
    for n, v in zip(ns, vals):
        lines.append(f"{n},{_fmt(v.real)},{_fmt(v.imag)}")
    _emit(opt["output"], "\n".join(lines) + "\n")
    return 0


_EXPAND_HEADER = ("n,p,log_g_re,log_g_im,correction_re,correction_im,"
                  "log_e_re,log_e_im,predicted_re,predicted_im,"
                  "direct_re,direct_im,residual_re,residual_im,residual_abs")


def _cmd_expand(opt):
    a = symbol.load_symbol(opt["symbol"])
    reports = asymptotics.logdet_expansion_scan(a, opt["n_grid"], p=opt["p"])
    lines = [_EXPAND_HEADER]
    for r in reports:
        lines.append(",".join([
            str(r.n), str(r.p),
            _fmt(r.log_G_term.real), _fmt(r.log_G_term.imag),
            _fmt(r.correction_sum.real), _fmt(r.correction_sum.imag),
            _fmt(r.log_E_constant.real), _fmt(r.log_E_constant.imag),
            _fmt(r.predicted.real), _fmt(r.predicted.imag),
            _fmt(r.direct.real), _fmt(r.direct.imag),
            _fmt(r.residual.real), _fmt(r.residual.imag),
            _fmt(abs(r.residual)),
        ]))
    _emit(opt["output"], "\n".join(lines) + "\n")
    return 0


def _cmd_widom_trace(opt):
    a = symbol.load_symbol(opt["symbol"])
    f = parse_function_spec(opt["f"])
    ns = opt["n_grid"]
    spectrum = traces.estimate_spectrum(a, m=opt["spectrum_m"])
    contour = traces.build_contour(spectrum, opt["margin"], nodes=opt["nodes"])
    gf = traces.trace_mean(a, f)
    ef = traces.trace_constant(a, f, contour)
    directs = _pmap(lambda n: toeplitz.trace_f_direct(a, n, f), ns, opt["threads"])
    lines = ["n,direct_re,direct_im,asymptotic_re,asymptotic_im,residual_abs"]
    mags = []
    for n, d in zip(ns, directs):
        pred = (n + 1) * gf + ef
        mags.append(abs(d - pred))
        lines.append(",".join([str(n), _fmt(d.real), _fmt(d.imag),
                               _fmt(pred.real), _fmt(pred.imag),
                               _fmt(abs(d - pred))]))
    _emit(opt["output"], "\n".join(lines) + "\n")
    target = None
    if a.smoothness_tag is not None:
        target = -(2.0 * a.smoothness_tag - 1.0) + 0.3
    fit = fit_decay(ns, mags, target_slope=target)
    _emit(opt["fit_output"], json.dumps(fit.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_decay_fit(opt):
    with open(opt["input"], "r", encoding="ascii") as fh:
        rows = fh.read().strip().splitlines()
    header = rows[0].split(",")
    try:
        ncol = header.index(opt["n_column"])
        mcol = header.index(opt["column"])
    except ValueError as exc:
        raise ConfigInvalid(
            f"columns {opt['n_column']!r}/{opt['column']!r} not in {header}") from exc
    ns, mags = [], []
    for row in rows[1:]:
        cells = row.split(",")
        ns.append(int(cells[ncol]))
        mags.append(float(cells[mcol]))
    fit = fit_decay(ns, mags)
    _emit(opt["output"], json.dumps(fit.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_approx_scan(opt):
    a = symbol.load_symbol(opt["symbol"])
    gamma = opt["gamma"]
    ns = opt["n_grid"]
    errors = [approx.near_best_approximation(a, n)[1] for n in ns]
    cbound = max(e * n**gamma for n, e in zip(ns, errors))
    lines = ["n,error,bound"]
    for n, e in zip(ns, errors):
        lines.append(f"{n},{_fmt(e)},{_fmt(cbound * n ** (-gamma))}")
    _emit(opt["output"], "\n".join(lines) + "\n")
    return 0


def _cmd_smoothness(opt):
    a = symbol.load_symbol(opt["symbol"])
    report = approx.jackson_decay_check(a, opt["gamma"], opt["n_grid"])
    payload = {
        "gamma_estimate": report.gamma_estimate,
        "per_n_errors": [[int(n), float(e)] for n, e in report.per_n_errors],
        "seminorm_estimate": report.seminorm_estimate,
    }
    _emit(opt["output"], json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


_HANDLERS = {
    "gen-symbol": _cmd_gen_symbol,
    "factor": _cmd_factor,
    "logdet-scan": _cmd_logdet_scan,
    "trace-scan": _cmd_trace_scan,
    "expand": _cmd_expand,
    "widom-trace": _cmd_widom_trace,
    "decay-fit": _cmd_decay_fit,
    "approx-scan": _cmd_approx_scan,
    "smoothness": _cmd_smoothness,
}


def run(config):
    """Execute a validated configuration; returns the exit status."""
    handler = _HANDLERS.get(config.operation)
    if handler is None:
        raise ConfigInvalid(f"unknown operation {config.operation!r}")
    return handler(config.options)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toepasym",
        description="Block Toeplitz determinant and trace asymptotics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="worker threads for scan points (default: all cores)")

    p = sub.add_parser("gen-symbol", help="write a test symbol as JSON")
    p.add_argument("--zygmund", type=float, metavar="GAMMA")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rational", type=float, metavar="RHO")
    p.add_argument("--two-block", type=float, nargs=2, metavar=("RHO", "EPS"))
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("factor", help="canonical Wiener-Hopf factorization")
    p.add_argument("--symbol", required=True)
    p.add_argument("--left", action="store_true",
                   help="write the left factors instead of the right ones")
    p.add_argument("--m", type=int, default=256)
    p.add_argument("-o", "--output", required=True, metavar="PREFIX")

    p = sub.add_parser("logdet-scan", help="log det T_n over a range of n")
    p.add_argument("--symbol", required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("-o", "--output", default=None)
    add_common(p)

    p = sub.add_parser("trace-scan", help="tr f(T_n) over a range of n")
    p.add_argument("--symbol", required=True)
    p.add_argument("--f", required=True,
                   help="square | exp | log | poly:c0,c1,...")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("-o", "--output", default=None)
    add_common(p)

    p = sub.add_parser("expand", help="determinant expansion reports")
    p.add_argument("--symbol", required=True)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--n-grid", required=True, metavar="MIN:MAX:KIND")
    p.add_argument("-o", "--output", default=None)
    add_common(p)

    p = sub.add_parser("widom-trace", help="trace asymptotics versus dense values")
    p.add_argument("--symbol", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--n-grid", required=True, metavar="MIN:MAX:KIND")
    p.add_argument("--margin", type=float, default=0.5)
    p.add_argument("--nodes", type=int, default=256)
    p.add_argument("--spectrum-m", type=int, default=64)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--fit-out", dest="fit_output", default="widom_fit.json")
    add_common(p)

    p = sub.add_parser("decay-fit", help="log-log fit of a scan CSV column")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default="residual_abs")
    p.add_argument("--n-column", default="n")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("approx-scan", help="near-best approximation errors")
    p.add_argument("--symbol", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n-grid", required=True, metavar="MIN:MAX:KIND")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("smoothness", help="smoothness report as JSON")
    p.add_argument("--symbol", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n-grid", required=True, metavar="MIN:MAX:KIND")
    p.add_argument("-o", "--output", default=None)

    return parser


def config_from_args(args):
    options = {k: v for k, v in vars(args).items() if k != "command"}
    if "n_grid" in options and isinstance(options["n_grid"], str):
        options["n_grid"] = parse_n_grid(options["n_grid"])
    return ExperimentConfig(operation=args.command, options=options)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        return run(config)
    except ToepasymError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (FileNotFoundError, ValueError) as exc:
        print(f"ConfigInvalid: {exc}", file=sys.stderr)
        return ConfigInvalid.exit_code
