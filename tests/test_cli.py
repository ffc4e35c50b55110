import json
import os

import numpy as np
import pytest

from slspec import rates
from slspec import reconstruct as rec
from slspec.cli import main
from slspec.potentials import eval_potential


def run(args):
    return main([str(a) for a in args])


def test_forward_then_reconstruct_pipeline(tmp_path):
    spath = tmp_path / "s.json"
    rpath = tmp_path / "r.csv"
    assert run(["forward", "--potential", "square_well", "--omega", 10,
                "--out", spath]) == 0
    doc = json.loads(spath.read_text())
    assert doc["version"] == 1
    assert len(doc["xi"]) == len(doc["C"]) == 3
    assert run(["reconstruct", "--spectral", spath, "--method", "gl0",
                "--grid", "0:3:256", "--ref", "square_well",
                "--out", rpath]) == 0
    rows = rpath.read_text().strip().splitlines()
    assert rows[0].startswith("x,Q_ref,Q_rec")
    assert len(rows) == 257
    xs = [float(r.split(",")[0]) for r in rows[1:]]
    assert all(b > a for a, b in zip(xs[:-1], xs[1:]))


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run(["wkb", "--potential", "q1", "--omega", 10, "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_kernel_csv_trailer(tmp_path):
    out = tmp_path / "k.csv"
    assert run(["kernel", "--w", "1+5i", "--X", 2, "--n", 32, "--out", out]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "x,y,re_A,im_A"
    assert any(line.startswith("# diag:") for line in text)


def test_kernel_csv_at_real_w(tmp_path):
    # real w runs the solve in float64: every im_* column reads a plain zero
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert run(["kernel", "--w", 4, "--X", 2, "--n", 32, "--out", out]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    text = outs[0].read_text().splitlines()
    assert text[0] == "x,y,re_A,im_A"
    cut = next(k for k, line in enumerate(text) if line.startswith("# diag:"))
    rows = [line.split(",") for line in text[1:cut]]
    diag = [line[2:].split(",") for line in text[cut + 1:]]
    assert len(rows) == 33 * 34 // 2 and len(diag) == 33
    zero = "0.000000000000e+00"
    assert all(r[3] == zero for r in rows)
    assert all(d[2] == zero and d[4] == zero for d in diag)


def test_benchmark_rates_csv(tmp_path):
    out = tmp_path / "rates.csv"
    assert run(["benchmark", "--potential", "square_well",
                "--omegas", "5,10,20", "--method", "gl0", "--npts", 41,
                "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "omega,sup_err,L1_err"
    assert len(lines) == 5
    trailer = json.loads(lines[-1].lstrip("# "))
    assert trailer["envelope_kind"] == "gl0_rate"
    assert trailer["pass"] is True


def test_error_record_names_module_and_operation(tmp_path, capsys):
    rc = run(["forward", "--potential", "nope", "--omega", 10,
              "--out", tmp_path / "x.json"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["operation"] == "forward"
    assert err["error"]["module"] == "potentials"


@pytest.mark.parametrize("tol", [0, -1])
def test_forward_rejects_tol_not_positive(tmp_path, capsys, tol):
    rc = run(["forward", "--potential", "square_well", "--omega", 10,
              "--tol", tol, "--out", tmp_path / "x.json"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["operation"] == "forward"
    assert err["error"]["module"] == "forward"


def test_forward_tol_is_passed_through(tmp_path, q1_sd10):
    # without --tol the file is forward's own output at the default tol
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["forward", "--potential", "q1_rational", "--omega", 10, "--out", a]) == 0
    assert a.read_text() == q1_sd10.to_json() + "\n"
    assert run(["forward", "--potential", "q1_rational", "--omega", 10,
                "--tol", "1e-6", "--out", b]) == 0
    xi = np.array(json.loads(b.read_text())["xi"])
    assert len(xi) == q1_sd10.count
    assert np.max(np.abs(xi - q1_sd10.xi)) <= 2e-6


@pytest.mark.parametrize("omega", ["0", "-5", "nan"])
def test_forward_rejects_omega_not_positive(tmp_path, capsys, omega):
    rc = run(["forward", "--potential", "q1", "--omega", omega,
              "--out", tmp_path / "x.json"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["operation"] == "forward"
    assert err["error"]["module"] == "forward"


def test_schema_version_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 3, "omega": 10, "xi": [], "C": [],
                               "q0": 1.0}))
    rc = run(["reconstruct", "--spectral", bad, "--method", "gl0",
              "--grid", "0:1:8", "--out", tmp_path / "r.csv"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "version" in err["error"]["message"]


@pytest.mark.parametrize("method", ["gl0", "glm", "ll"])
def test_reconstruct_rejects_malformed_spectral_data(tmp_path, capsys, method):
    # three xi and one C: C would broadcast and the map would run
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "omega": 10.0, "xi": [0.5, 1.0, 2.0],
                               "C": [1.0], "q0": 1.0}))
    rc = run(["reconstruct", "--spectral", bad, "--method", method,
              "--grid", "0:1:8", "--out", tmp_path / "r.csv"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert (err["module"], err["operation"]) == ("reconstruct", "reconstruct")


@pytest.mark.parametrize("method", ["glm", "ll"])
def test_reconstruct_methods_match_the_library(tmp_path, q1, q1_sd10, method):
    spath, rpath = tmp_path / "s.json", tmp_path / "r.csv"
    spath.write_text(q1_sd10.to_json())
    assert run(["reconstruct", "--spectral", spath, "--method", method,
                "--grid", "0:2:17", "--ref", "q1", "--out", rpath]) == 0
    sd, grid = q1_sd10, np.linspace(0.0, 2.0, 17)
    if method == "glm":
        res = rec.reconstruct_glm(sd, grid, ref=q1)
    else:
        eps = 1.0 / sd.omega
        res = rec.lax_levermore(sd.xi * eps, sd.C, eps, grid)
    rows = np.loadtxt(rpath, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(rows[:, 0], res.grid)
    assert np.allclose(rows[:, 2], res.Q_rec, rtol=1e-11, atol=0)
    assert np.allclose(rows[:, 1], eval_potential(q1, res.grid), rtol=1e-11, atol=0)
    assert not rows[:, 6].any()


def test_benchmark_jobs_and_plot(tmp_path):
    # the CSV does not depend on the number of worker processes
    outs = [tmp_path / "one.csv", tmp_path / "two.csv"]
    for jobs, out in zip((1, 2), outs):
        assert run(["benchmark", "--potential", "q1", "--omegas", "10,12,14",
                    "--jobs", jobs, "--plot", "--out", out]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[1].with_suffix(".svg").read_text().startswith("<svg")


def test_bounds_prints_the_constants(capsys):
    assert run(["bounds", "--l", 1.5, "--s", 2]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"C_inf(1.5, 2) = {rates.vitushkin_c_inf(1.5, 2):.15e}",
                     f"C_L1(1.5, 2)  = {rates.vitushkin_c_l1(1.5, 2):.15e}"]


def test_config_file_potential(tmp_path):
    table = tmp_path / "table.csv"
    xs = np.arange(0.0, 8.0, 0.01)
    np.savetxt(table, np.column_stack([xs, (1 + xs * xs) ** -2]), delimiter=",")
    cfg = tmp_path / "pot.json"
    cfg.write_text(json.dumps({
        "potential": {
            "kind": "tabulated",
            "decay": {"a": 2.0, "k1": 4, "k2": 4},
            "table_path": "table.csv",
        }
    }))
    out = tmp_path / "w.csv"
    assert run(["wkb", "--potential", cfg, "--omega", 5, "--out", out]) == 0
    assert out.read_text().startswith("j,eta")


def test_toml_config_with_table_matches_json(tmp_path):
    table = tmp_path / "table.csv"
    xs = np.arange(0.0, 8.0, 0.01)
    np.savetxt(table, np.column_stack([xs, (1 + xs * xs) ** -2]), delimiter=",")
    (tmp_path / "pot.toml").write_text(
        '[potential]\nkind = "tabulated"\ntable_path = "table.csv"\n'
        "decay = { a = 2.0, k1 = 4, k2 = 4 }\n")
    (tmp_path / "pot.json").write_text(json.dumps({"potential": {
        "kind": "tabulated", "decay": {"a": 2.0, "k1": 4, "k2": 4},
        "table_path": "table.csv"}}))
    for cfg in ("pot.toml", "pot.json"):
        assert run(["wkb", "--potential", tmp_path / cfg, "--omega", 5,
                    "--out", tmp_path / (cfg + ".csv")]) == 0
    toml_out = (tmp_path / "pot.toml.csv").read_bytes()
    assert toml_out.startswith(b"j,eta")
    assert toml_out == (tmp_path / "pot.json.csv").read_bytes()


def test_toml_config_builtin_kind(tmp_path):
    cfg = tmp_path / "q1.toml"
    cfg.write_text('[potential]\nkind = "q1"\n')
    for spec, out in ((cfg, "toml.csv"), ("q1", "builtin.csv")):
        assert run(["wkb", "--potential", spec, "--omega", 10,
                    "--out", tmp_path / out]) == 0
    assert (tmp_path / "toml.csv").read_bytes() == (tmp_path / "builtin.csv").read_bytes()


def test_plots_are_emitted(tmp_path):
    spath = tmp_path / "s.json"
    rpath = tmp_path / "r.csv"
    run(["forward", "--potential", "square_well", "--omega", 5, "--out", spath])
    assert run(["reconstruct", "--spectral", spath, "--method", "gl0",
                "--grid", "0:2:32", "--ref", "square_well", "--out", rpath,
                "--plot"]) == 0
    svg = rpath.with_suffix(".svg")
    assert svg.exists()
    assert svg.read_text().startswith("<svg")
