import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import toepasym as tp
from toepasym.cli import main, parse_n_grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_n_grid():
    assert parse_n_grid("8:64:geometric") == [8, 16, 32, 64]
    assert parse_n_grid("2:10:linear:2") == [2, 4, 6, 8, 10]
    with pytest.raises(tp.ConfigInvalid):
        parse_n_grid("8:64:weird")
    with pytest.raises(tp.ConfigInvalid):
        parse_n_grid("8:64")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_gen_symbol_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run_cli(capsys, "gen-symbol", "--zygmund", "0.75",
                             "--levels", "8", "--seed", "7", "-o", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    loaded = tp.load_symbol(out1)
    assert loaded.smoothness_tag == pytest.approx(0.75)
    assert loaded.max_offset == 256


def test_gen_symbol_rational(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "gen-symbol", "--rational", "0.5", "-o", str(out))
    assert code == 0
    a = tp.load_symbol(out)
    assert a.block(0)[0, 0] == pytest.approx(1.25)
    assert a.block(1)[0, 0] == pytest.approx(-0.5)


def test_factor_cli_matches_hand_factorization(tmp_path, capsys):
    sym = tmp_path / "s.json"
    run_cli(capsys, "gen-symbol", "--rational", "0.5", "-o", str(sym))
    prefix = tmp_path / "fact"
    code, _, _ = run_cli(capsys, "factor", "--symbol", str(sym),
                         "--m", "128", "-o", str(prefix))
    assert code == 0
    u_plus = tp.load_symbol(f"{prefix}_u_plus.json")
    assert abs(u_plus.block(0)[0, 0] - 1.0) < 1e-8
    assert abs(u_plus.block(1)[0, 0] + 0.5) < 1e-8
    report = json.loads((tmp_path / "fact_report.json").read_text())
    assert report["product_residual_right"] <= 1e-8
    assert report["leakage"] <= 1e-8


def test_logdet_scan_output(tmp_path, capsys):
    sym = tmp_path / "s.json"
    run_cli(capsys, "gen-symbol", "--rational", "0.5", "-o", str(sym))
    code, out, _ = run_cli(capsys, "logdet-scan", "--symbol", str(sym),
                           "--n-min", "0", "--n-max", "4", "--step", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,re_logdet,im_logdet"
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(np.log(1.25))


def test_trace_scan_and_expand_csv(tmp_path, capsys):
    sym = tmp_path / "s.json"
    run_cli(capsys, "gen-symbol", "--rational", "0.5", "-o", str(sym))
    code, out, _ = run_cli(capsys, "trace-scan", "--symbol", str(sym),
                           "--f", "square", "--n-min", "1", "--n-max", "3",
                           "--step", "1", "--threads", "1")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,re,im"
    assert float(rows[1].split(",")[1]) == pytest.approx(3.625)

    csv_path = tmp_path / "expand.csv"
    code, _, _ = run_cli(capsys, "expand", "--symbol", str(sym), "--p", "1",
                         "--n-grid", "4:32:geometric", "-o", str(csv_path))
    assert code == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0].startswith("n,p,")
    ns = [int(r.split(",")[0]) for r in rows[1:]]
    assert ns == sorted(ns) and len(set(ns)) == len(ns)


def test_decay_fit_reads_expand_csv(tmp_path, capsys):
    sym = tmp_path / "s.json"
    run_cli(capsys, "gen-symbol", "--rational", "0.5", "-o", str(sym))
    csv_path = tmp_path / "expand.csv"
    run_cli(capsys, "expand", "--symbol", str(sym), "--p", "1",
            "--n-grid", "4:16:linear:2", "-o", str(csv_path))
    fit_path = tmp_path / "fit.json"
    code, _, _ = run_cli(capsys, "decay-fit", "--input", str(csv_path),
                         "-o", str(fit_path))
    assert code == 0
    fit = json.loads(fit_path.read_text())
    assert fit["slope"] < -4
    assert fit["flag"] == "superpolynomial"


def test_widom_trace_exact_regime_exit_code(tmp_path, capsys):
    sym = tmp_path / "s.json"
    run_cli(capsys, "gen-symbol", "--rational", "0.5", "-o", str(sym))
    out_csv = tmp_path / "w.csv"
    fit_json = tmp_path / "wf.json"
    code, _, err = run_cli(capsys, "widom-trace", "--symbol", str(sym),
                           "--f", "square", "--n-grid", "4:64:geometric",
                           "--margin", "0.5",
                           "-o", str(out_csv), "--fit-out", str(fit_json))
    # the rational fixture makes the prediction exact: the fit degenerates
    assert code == tp.FitDegenerate.exit_code
    assert "FitDegenerate" in err
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0] == "n,direct_re,direct_im,asymptotic_re,asymptotic_im,residual_abs"
    assert all(float(r.split(",")[-1]) < 1e-9 for r in rows[1:])


def test_widom_trace_log_exits_when_the_disk_holds_the_branch_point(tmp_path, capsys):
    sym = tmp_path / "s.json"
    tp.save_symbol(tp.scalar_symbol({0: 1.5 + 0.5j, 1: 0.8, -1: 0.5}), sym)
    args = ["widom-trace", "--symbol", str(sym), "--f", "log", "--n-grid",
            "8:64:geometric", "--nodes", "256", "-o", str(tmp_path / "w.csv"),
            "--fit-out", str(tmp_path / "wf.json")]
    code, _, err = run_cli(capsys, *args, "--margin", "0.5")
    assert code == tp.FNotAnalyticAtSample.exit_code == 17
    assert err.startswith("FNotAnalyticAtSample: log is not analytic on the disk")
    assert not (tmp_path / "w.csv").exists()
    code, _, err = run_cli(capsys, *args, "--margin", "0.2")
    assert code == 0, err
    rows = (tmp_path / "w.csv").read_text().strip().splitlines()[1:]
    assert all(float(r.split(",")[-1]) < 1e-6 for r in rows)


def test_approx_scan_and_smoothness(tmp_path, capsys):
    sym = tmp_path / "z.json"
    run_cli(capsys, "gen-symbol", "--zygmund", "1.0", "--levels", "8",
            "-o", str(sym))
    code, out, _ = run_cli(capsys, "approx-scan", "--symbol", str(sym),
                           "--gamma", "1.0", "--n-grid", "4:64:geometric")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,error,bound"
    for row in rows[1:]:
        _, err, bound = row.split(",")
        assert float(err) <= float(bound) + 1e-12

    code, out, _ = run_cli(capsys, "smoothness", "--symbol", str(sym),
                           "--gamma", "1.0", "--n-grid", "4:64:geometric")
    assert code == 0
    report = json.loads(out)
    assert abs(report["gamma_estimate"] - 1.0) <= 0.25


def test_cli_error_mapping(tmp_path, capsys):
    sym = tmp_path / "t.json"
    tp.save_symbol(tp.scalar_symbol({1: 1.0}), sym)
    prefix = tmp_path / "f"
    code, _, err = run_cli(capsys, "factor", "--symbol", str(sym),
                           "-o", str(prefix))
    assert code == tp.NonZeroWinding.exit_code
    assert "NonZeroWinding" in err
    code, _, err = run_cli(capsys, "logdet-scan", "--symbol",
                           str(tmp_path / "missing.json"),
                           "--n-min", "0", "--n-max", "1")
    assert code == 2


@pytest.mark.parametrize("argv, detail", [
    (["widom-trace", "--f", "square", "--n-grid", "4:16:geometric", "--nodes", "100"],
     "power of two"),
    (["widom-trace", "--f", "square", "--n-grid", "4:16:geometric", "--margin", "-1"],
     "margin must be positive"),
    (["approx-scan", "--gamma", "1.0", "--n-grid", "0:8:linear"], "degree"),
    (["expand", "--p", "0", "--n-grid", "4:16:geometric"], "p >= 1"),
    (["expand", "--p", "1", "--n-grid", "0:8:geometric"], "must start at n >= 1"),
    (["widom-trace", "--f", "square", "--n-grid", "4:16:geometric", "--margin", "inf"],
     "margin must be positive and finite"),
    (["widom-trace", "--f", "square", "--n-grid", "4:16:geometric", "--margin", "nan"],
     "margin must be positive and finite"),
    (["factor", "--m", "0"], "section must be >= 1"),
    (["expand", "--n-grid", "8:16:linear:0"], "n-grid step in '8:16:linear:0' must be >= 1"),
    (["expand", "--n-grid", "8:16:linear:-1"], "n-grid step in '8:16:linear:-1' must be >= 1"),
    (["expand", "--n-grid", "8:64:geometric:3"], "geometric n-grid '8:64:geometric:3' takes no step"),
    (["expand", "--n-grid", "8:16:linear:x"], "bad n-grid step in '8:16:linear:x'"),
])
def test_out_of_range_values_exit_config_invalid(tmp_path, capsys, argv, detail):
    sym = tmp_path / "s.json"
    run_cli(capsys, "gen-symbol", "--rational", "0.5", "-o", str(sym))
    outputs = ["-o", str(tmp_path / "out"), *(["--fit-out", str(tmp_path / "fit")]
                                             if argv[0] == "widom-trace" else [])]
    code, out, err = run_cli(capsys, argv[0], "--symbol", str(sym), *argv[1:], *outputs)
    assert code == tp.ConfigInvalid.exit_code
    assert err.startswith("ConfigInvalid: ") and detail in err
    assert out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["logdet-scan", "expand"])
def test_threads_only_on_threaded_subcommands(tmp_path, capsys, command):
    # only trace-scan and widom-trace run scan points on a thread pool
    sym = tmp_path / "s.json"
    run_cli(capsys, "gen-symbol", "--rational", "0.5", "-o", str(sym))
    grid = (["--n-min", "0", "--n-max", "4"] if command == "logdet-scan"
            else ["--n-grid", "4:32:geometric"])
    with pytest.raises(SystemExit) as info:
        main([command, "--symbol", str(sym), *grid, "--threads", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_widom_trace_shared_output_path_exits_config_invalid(tmp_path, capsys):
    sym = tmp_path / "s.json"
    run_cli(capsys, "gen-symbol", "--rational", "0.5", "-o", str(sym))
    out = tmp_path / "x"
    code, stdout, err = run_cli(capsys, "widom-trace", "--symbol", str(sym), "--f", "square",
                                "--n-grid", "4:16:geometric", "-o", str(out),
                                "--fit-out", str(out))
    assert code == 2
    assert err == "ConfigInvalid: output paths must be distinct\n"
    assert stdout == "" and not out.exists()


def test_symbol_file_with_nan_exits_config_invalid(tmp_path, capsys):
    sym = tmp_path / "s.json"
    run_cli(capsys, "gen-symbol", "--rational", "0.5", "-o", str(sym))
    data = json.loads(sym.read_text())
    data["coeffs"][0]["re"] = [[float("nan")]]
    sym.write_text(json.dumps(data))  # written as the JSON extension NaN
    code, _, err = run_cli(capsys, "logdet-scan", "--symbol", str(sym),
                           "--n-min", "0", "--n-max", "2")
    assert code == tp.ConfigInvalid.exit_code
    assert err == "ConfigInvalid: symbol blocks must be finite\n"


def test_python_dash_m_runs_cli(tmp_path):
    env = dict(os.environ)
    src = str(Path(tp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "z.json"
    run = subprocess.run([sys.executable, "-m", "toepasym", "gen-symbol", "--zygmund",
                          "0.75", "--levels", "4", "--seed", "1", "-o", str(out)],
                         env=env, capture_output=True)
    assert run.returncode == 0, run.stderr
    golden = Path(__file__).parent / "golden" / "cli" / "z.json"
    assert out.read_bytes() == golden.read_bytes()
    missing = subprocess.run([sys.executable, "-m", "toepasym", "decay-fit", "--input",
                              str(tmp_path / "missing.csv"), "-o", str(tmp_path / "f.json")],
                             env=env, capture_output=True, text=True)
    assert missing.returncode == tp.ConfigInvalid.exit_code
    assert missing.stderr.startswith("ConfigInvalid:")
