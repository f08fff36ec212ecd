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
        if len(parts) == 4:
            raise ConfigInvalid(f"geometric n-grid {spec!r} takes no step")
        if lo == 0:
            raise ConfigInvalid(f"geometric n-grid {spec!r} must start at n >= 1")
        out, v = [], lo
        while v <= hi:
            out.append(v)
            v *= 2
        return out
    if kind == "linear":
        try:
            step = int(parts[3]) if len(parts) == 4 else max(1, (hi - lo) // 16)
        except ValueError as exc:
            raise ConfigInvalid(f"bad n-grid step in {spec!r}") from exc
        if step < 1:
            raise ConfigInvalid(f"n-grid step in {spec!r} must be >= 1")
        return list(range(lo, hi + 1, step))
    raise ConfigInvalid(f"unknown n-grid kind {kind!r}")


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

def _cmd_gen_symbol(args):
    if args.zygmund is not None:
        a = symbol.zygmund_symbol(args.zygmund, args.levels, seed=args.seed)
    elif args.rational is not None:
        rho = args.rational
        a = symbol.scalar_symbol({0: 1 + rho * rho, 1: -rho, -1: -rho})
    elif args.two_block is not None:
        rho, eps = args.two_block
        import numpy as np
        r = np.array([[1.0, eps], [0.0, 1.0]])
        a = symbol.LaurentMatrixSeries(2, {0: (1 + rho * rho) * np.eye(2),
                                           1: -rho * r, -1: -rho * r.T})
    else:
        raise ConfigInvalid("choose one of --zygmund, --rational, --two-block")
    _emit(args.output, symbol.symbol_to_json(a))
    return 0


def _cmd_factor(args):
    a = symbol.load_symbol(args.symbol)
    w = factor.canonical_wiener_hopf(a, section=args.m)
    prefix = args.output
    if args.left:
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
        "inverse_margin": factor._factors_margin(
            (w.u_minus, w.u_plus, w.v_plus, w.v_minus)),
    }
    with open(f"{prefix}_report.json", "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _scan_values(args):
    lo, hi, step = args.n_min, args.n_max, args.step
    if lo < 0 or hi < lo or step < 1:
        raise ConfigInvalid("need 0 <= n-min <= n-max and step >= 1")
    return list(range(lo, hi + 1, step))


def _cmd_logdet_scan(args):
    a = symbol.load_symbol(args.symbol)
    ns = _scan_values(args)
    vals = toeplitz.log_det_scan(a, ns)
    lines = ["n,re_logdet,im_logdet"]
    for n, v in zip(ns, vals):
        lines.append(f"{n},{_fmt(v.real)},{_fmt(v.imag)}")
    _emit(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_trace_scan(args):
    a = symbol.load_symbol(args.symbol)
    f = parse_function_spec(args.f)
    ns = _scan_values(args)
    vals = _pmap(lambda n: toeplitz.trace_f_direct(a, n, f), ns, args.threads)
    lines = ["n,re,im"]
    for n, v in zip(ns, vals):
        lines.append(f"{n},{_fmt(v.real)},{_fmt(v.imag)}")
    _emit(args.output, "\n".join(lines) + "\n")
    return 0


_EXPAND_HEADER = ("n,p,log_g_re,log_g_im,correction_re,correction_im,"
                  "log_e_re,log_e_im,predicted_re,predicted_im,"
                  "direct_re,direct_im,residual_re,residual_im,residual_abs")


def _cmd_expand(args):
    a = symbol.load_symbol(args.symbol)
    reports = asymptotics.logdet_expansion_scan(a, args.n_grid, p=args.p)
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
    _emit(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_widom_trace(args):
    a = symbol.load_symbol(args.symbol)
    f = parse_function_spec(args.f)
    ns = args.n_grid
    spectrum = traces.estimate_spectrum(a, m=args.spectrum_m)
    contour = traces.build_contour(spectrum, args.margin, nodes=args.nodes)
    gf = traces.trace_mean(a, f)
    ef = traces.trace_constant(a, f, contour)
    directs = _pmap(lambda n: toeplitz.trace_f_direct(a, n, f), ns, args.threads)
    lines = ["n,direct_re,direct_im,asymptotic_re,asymptotic_im,residual_abs"]
    mags = []
    for n, d in zip(ns, directs):
        pred = (n + 1) * gf + ef
        mags.append(abs(d - pred))
        lines.append(",".join([str(n), _fmt(d.real), _fmt(d.imag),
                               _fmt(pred.real), _fmt(pred.imag),
                               _fmt(abs(d - pred))]))
    _emit(args.output, "\n".join(lines) + "\n")
    target = None
    if a.smoothness_tag is not None:
        target = -(2.0 * a.smoothness_tag - 1.0) + 0.3
    fit = fit_decay(ns, mags, target_slope=target)
    _emit(args.fit_output, json.dumps(fit.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_decay_fit(args):
    with open(args.input, "r", encoding="ascii") as fh:
        rows = fh.read().strip().splitlines()
    header = rows[0].split(",")
    try:
        ncol = header.index(args.n_column)
        mcol = header.index(args.column)
    except ValueError as exc:
        raise ConfigInvalid(
            f"columns {args.n_column!r}/{args.column!r} not in {header}") from exc
    ns, mags = [], []
    for row in rows[1:]:
        cells = row.split(",")
        ns.append(int(cells[ncol]))
        mags.append(float(cells[mcol]))
    fit = fit_decay(ns, mags)
    _emit(args.output, json.dumps(fit.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_approx_scan(args):
    a = symbol.load_symbol(args.symbol)
    gamma = args.gamma
    ns = args.n_grid
    errors = [approx.near_best_approximation(a, n)[1] for n in ns]
    cbound = max(e * n**gamma for n, e in zip(ns, errors))
    lines = ["n,error,bound"]
    for n, e in zip(ns, errors):
        lines.append(f"{n},{_fmt(e)},{_fmt(cbound * n ** (-gamma))}")
    _emit(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_smoothness(args):
    a = symbol.load_symbol(args.symbol)
    report = approx.jackson_decay_check(a, args.gamma, args.n_grid)
    payload = {
        "gamma_estimate": report.gamma_estimate,
        "per_n_errors": [[int(n), float(e)] for n, e in report.per_n_errors],
        "seminorm_estimate": report.seminorm_estimate,
    }
    _emit(args.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toepasym",
        description="Block Toeplitz determinant and trace asymptotics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="worker threads for scan points (default: all cores)")

    p = sub.add_parser("gen-symbol", help="write a test symbol as JSON")
    p.set_defaults(handler=_cmd_gen_symbol)
    p.add_argument("--zygmund", type=float, metavar="GAMMA")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rational", type=float, metavar="RHO")
    p.add_argument("--two-block", type=float, nargs=2, metavar=("RHO", "EPS"))
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("factor", help="canonical Wiener-Hopf factorization")
    p.set_defaults(handler=_cmd_factor)
    p.add_argument("--symbol", required=True)
    p.add_argument("--left", action="store_true",
                   help="write the left factors instead of the right ones")
    p.add_argument("--m", type=int, default=256)
    p.add_argument("-o", "--output", required=True, metavar="PREFIX")

    p = sub.add_parser("logdet-scan", help="log det T_n over a range of n")
    p.set_defaults(handler=_cmd_logdet_scan)
    p.add_argument("--symbol", required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("trace-scan", help="tr f(T_n) over a range of n")
    p.set_defaults(handler=_cmd_trace_scan)
    p.add_argument("--symbol", required=True)
    p.add_argument("--f", required=True,
                   help="square | exp | log | poly:c0,c1,...")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("-o", "--output", default=None)
    add_common(p)

    p = sub.add_parser("expand", help="determinant expansion reports")
    p.set_defaults(handler=_cmd_expand)
    p.add_argument("--symbol", required=True)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--n-grid", required=True, metavar="MIN:MAX:KIND")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("widom-trace", help="trace asymptotics versus dense values")
    p.set_defaults(handler=_cmd_widom_trace)
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
    p.set_defaults(handler=_cmd_decay_fit)
    p.add_argument("--input", required=True)
    p.add_argument("--column", default="residual_abs")
    p.add_argument("--n-column", default="n")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("approx-scan", help="near-best approximation errors")
    p.set_defaults(handler=_cmd_approx_scan)
    p.add_argument("--symbol", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n-grid", required=True, metavar="MIN:MAX:KIND")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("smoothness", help="smoothness report as JSON")
    p.set_defaults(handler=_cmd_smoothness)
    p.add_argument("--symbol", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n-grid", required=True, metavar="MIN:MAX:KIND")
    p.add_argument("-o", "--output", default=None)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "n_grid"):
            args.n_grid = parse_n_grid(args.n_grid)
        if args.output and args.output == getattr(args, "fit_output", None):
            raise ConfigInvalid("output paths must be distinct")
        return args.handler(args)
    except ToepasymError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (FileNotFoundError, ValueError) as exc:
        print(f"ConfigInvalid: {exc}", file=sys.stderr)
        return ConfigInvalid.exit_code
