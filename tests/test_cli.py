"""Command line behavior: outputs, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from qopnet import cli
from qopnet import netcore as nc


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def synth_net(tmp_path):
    net = tmp_path / "net.json"
    rep = tmp_path / "rep.json"
    assert run("synth", "--bound", "isotropic", "--d", "1", "--m", "6",
               "--seed", "7", "--pvol", "1.0", "--cutoff", "40",
               "--out", str(net), "--report", str(rep)) == 0
    return net, rep


def test_indexset_stdout(capsys):
    assert run("indexset", "--bound", "isotropic", "--d", "2", "--m", "6") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["M"] == 6 and doc["J"] == 2.0
    assert [0, 0] in doc["indices"] and [2, 0] in doc["indices"]


def test_indexset_with_rates(capsys):
    assert run("indexset", "--bound", "legendre", "--rho", "2.0,3.0",
               "--m", "4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["M"] == 4


def test_indexset_writes_file(tmp_path):
    out = tmp_path / "set.json"
    assert run("indexset", "--bound", "isotropic", "--d", "1", "--m", "3",
               "--out", str(out)) == 0
    assert json.loads(out.read_text())["indices"] == [[0], [1], [2]]


def test_pvolume_frozen_lattice_value(capsys):
    # deterministic integer lattice count, so the value is exact
    assert run("pvolume", "--bound", "isotropic", "--d", "2",
               "--tau", "128") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 0.4998779296875
    assert doc["lattice_count"] == 8385
    assert doc["extrapolated"] is True


def test_isotropic_rejects_rates(capsys):
    assert run("indexset", "--bound", "isotropic", "--rho", "2.0",
               "--m", "3") == 1
    assert "error[config]" in capsys.readouterr().err


def test_missing_dimension_is_config_error(capsys):
    assert run("indexset", "--bound", "isotropic", "--m", "5") == 1
    assert "error[config]" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        run("nonsense")
    assert err.value.code == 2


def test_synth_requires_seed(tmp_path, capsys):
    assert run("synth", "--bound", "isotropic", "--d", "1", "--m", "4",
               "--out", str(tmp_path / "x.json")) == 1
    assert "--seed is required" in capsys.readouterr().err


def test_synth_then_eval_bitwise(tmp_path, synth_net):
    net_path, _ = synth_net
    pts_path = tmp_path / "pts.csv"
    pts_path.write_text("0.1\n0.5\n0.997\n")
    vals_path = tmp_path / "vals.csv"
    assert run("eval", "--network", str(net_path), "--points", str(pts_path),
               "--out", str(vals_path)) == 0
    net = nc.load_network(net_path)
    expect = net.forward(np.loadtxt(pts_path, delimiter=",", ndmin=2))
    got = np.loadtxt(vals_path, delimiter=",", ndmin=2)
    np.testing.assert_array_equal(got, expect)


def test_eval_rejects_wrong_point_width(tmp_path, synth_net, capsys):
    net_path, _ = synth_net
    pts_path = tmp_path / "pts.csv"
    pts_path.write_text("0.1,0.2\n")
    assert run("eval", "--network", str(net_path),
               "--points", str(pts_path)) == 1
    assert "error[config]" in capsys.readouterr().err


def test_eval_missing_network_is_io_error(tmp_path, capsys):
    pts = tmp_path / "p.csv"
    pts.write_text("0.5\n")
    assert run("eval", "--network", str(tmp_path / "nope.json"),
               "--points", str(pts)) == 1
    assert "error[io]" in capsys.readouterr().err


def test_eval_corrupt_network_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    pts = tmp_path / "p.csv"
    pts.write_text("0.5\n")
    assert run("eval", "--network", str(bad), "--points", str(pts)) == 1
    assert "error[format]" in capsys.readouterr().err


def test_verify_passes_synthesized_network(synth_net, capsys):
    net_path, _ = synth_net
    assert run("verify", "--network", str(net_path),
               "--sampler", "grid", "--sampler-n", "257") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert len(doc["subnetworks"]) == 5   # six terms, zero index exact
    assert all(c["passed"] for c in doc["subnetworks"])


def test_verify_rejects_bare_network(tmp_path, capsys):
    path = tmp_path / "bare.json"
    nc.save_network(nc.identity_network(1), path)
    assert run("verify", "--network", str(path)) == 1
    assert "error[verification]" in capsys.readouterr().err


def test_halton_sampler_requires_seed(synth_net, capsys):
    net_path, _ = synth_net
    assert run("verify", "--network", str(net_path), "--sampler", "halton",
               "--sampler-n", "64") == 1
    assert "sampler-seed" in capsys.readouterr().err


def test_study_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "study.csv"
    assert run("study", "--bound", "isotropic", "--d", "1", "--m", "2,4",
               "--seed", "7", "--pvol", "1.0", "--cutoff", "40",
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("M,J,pvol,sup_error_uQ_uNN,tail_bound_u_uQ,"
                        "total_bound,complexity,units,nonzero_weights,"
                        "depth,bound_rhs,wall_time")
    assert len(lines) == 3
    side = json.loads((tmp_path / "study.csv.json").read_text())
    assert side["config_echo"]["seed"] == 7


def test_study_reruns_identically_modulo_wall_time(tmp_path):
    args = ("study", "--bound", "isotropic", "--d", "1", "--m", "2,4",
            "--seed", "7", "--pvol", "1.0", "--cutoff", "40")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    for la, lb in zip(a.read_text().splitlines(), b.read_text().splitlines()):
        assert la.rsplit(",", 1)[0] == lb.rsplit(",", 1)[0]


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "pvol": 1.0, "cutoff": 40.0}))
    out = tmp_path / "s.csv"
    assert run("study", "--config", str(cfg), "--bound", "isotropic",
               "--d", "1", "--m", "2", "--out", str(out)) == 0


def test_config_flag_overrides_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 3}))
    assert run("indexset", "--config", str(cfg), "--bound", "isotropic",
               "--d", "1", "--m", "2") == 0
    assert json.loads(capsys.readouterr().out)["M"] == 2


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run("indexset", "--config", str(cfg), "--bound", "isotropic",
               "--d", "1", "--m", "2") == 1
    assert "unknown keys" in capsys.readouterr().err


def test_study_exact_rows_exit_clean(tmp_path):
    # degree <= 1 rows are exact; float64 rounding alone must not fail them
    out = tmp_path / "exact.csv"
    assert run("study", "--bound", "isotropic", "--d", "2", "--m", "3,6",
               "--seed", "1", "--out", str(out)) == 0


def test_installed_entry_point():
    # python -m qopnet runs qopnet.cli:main, the console script's target,
    # from a checkout with no install step
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    paths = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-m", "qopnet", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip()


_TRACED_RUN = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracer
from qopnet import multiindex as mi, orthopoly as op, synth
from qopnet.sampling import SamplerSpec

t = tracer.Tracer("t")
tracer.install(t)
root = t.open("root")
bound = mi.isotropic_bound(2)
lam = mi.enumerate_quasi_optimal(bound, 6)
target = op.synthetic_expansion(bound, op.shifted_legendre(),
                                lam.threshold + 10.0, seed=0)
net, _ = synth.expansion_network(target.restrict(lam), 0.5,
                                 sampler=SamplerSpec("grid", 9),
                                 precision="dd", end_to_end=True)
net.forward([[0.25, 0.5]])
t.close(root)
values = tracer.layer_metrics(t, 1)
names = {name for name, _ in tracer.LAYER_METRICS} - {"trace.overhead_s"}
assert set(values) == names, names ^ set(values)
print(json.dumps(values))
"""


def test_traced_benchmark_run_installs_against_src(tmp_path):
    # bench/tracer.py wraps qopnet bindings by name, reads the chunk
    # defaults of both forward passes and the gadget lru_cache statistics
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(root / "src"),
         str(root / "bench")],
        capture_output=True, text=True, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode == 0, proc.stderr
    values = json.loads(proc.stdout)
    assert values["netcore.forward_calls"] == 1
    assert values["netcore.forward_dd_calls"] == 1
    assert values["synth.gadget_cache_misses"] > 0
