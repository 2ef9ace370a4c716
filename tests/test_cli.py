"""Experiment runner: config validation, exit codes, manifests, determinism."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from thickstab.cli import main
from thickstab.grid import make_grid, norm, read_field
from thickstab.stabilize import estimate_spectral_constant
from thickstab.thick import make_periodic_thick

QA_CFG = """\
[symbol]
family = halfheat

[run]
k_max = 100
"""

OBS_CFG = """\
[grid]
extent = 16.0
points = 256

[symbol]
family = halfheat

[mask]
kind = periodic
period = 1.0
fill = 0.5

[run]
T = 0.5
epsilon = 0.25
probes = 6
seed = 5
"""

STAB_CFG = """\
[grid]
extent = 16.0
points = 64

[symbol]
family = halfheat

[mask]
kind = periodic
period = 1.0
fill = 0.5

[run]
R = 2.0
T = 0.5
seed = 0
"""

KOV_CFG = """\
[grid]
extent = 16.0
points = 128

[mask]
kind = periodic
period = 1.0
fill = 0.5

[run]
R_ladder = 2.0, 4.0
seed = 0
"""

NEC_CFG = """\
[grid]
extent = 16.0
points = 256

[symbol]
family = halfheat

[mask]
kind = periodic
period = 16.0
fill = 0.5

[run]
T = 0.5
epsilon = 0.25
C = 1.0
center_start = 6.0
center_stop = 12.0
width = 0.7
"""

NEG_CFG = """\
[grid]
extent = 32.0
points = 512

[symbol]
family = saturating
knee = 1.0

[run]
radius = 0.9
T0 = 1.0
"""


def write_cfg(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_list_catalog(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("simulate", "stabilize", "observability", "necessity",
                 "negative-limit", "qa", "thick-check", "cubes",
                 "synthesize", "kovrijkine"):
        assert name in out
    assert "required:" in out


def test_list_json(capsys):
    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    entries = {e["name"]: e for e in payload["scenarios"]}
    assert len(entries) == 10
    qa = entries["qa"]
    assert set(qa["required"]) == {"symbol.family", "run.k_max"}
    assert qa["optional"]["run.scale"] == 1.0
    assert all(e["summary"] for e in payload["scenarios"])


def test_qa_run_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path, QA_CFG)
    out = tmp_path / "out"
    assert main(["qa", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "moments.csv").read_text().splitlines()
    assert lines[0] == "k,log_moment,argmax,ratio,dc_partial_sum"
    assert len(lines) == 102
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"scenario", "config", "inputs", "derived",
                             "outputs"}
    assert manifest["scenario"] == "qa"
    assert manifest["config"]["run"]["k_max"] == 100
    assert manifest["config"]["symbol"]["family"] == "halfheat"
    assert manifest["inputs"]["config_sha256"] == sha256(cfg)
    assert manifest["outputs"]["moments.csv"] == sha256(out / "moments.csv")
    # the partial sum tracks log K with a bounded offset
    s = manifest["derived"]["dc_partial_sum"]
    assert 2.0 < s - math.log(101) < 3.0


def test_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, QA_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["qa", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["qa", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "moments.csv").read_bytes() == (out2 / "moments.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    ocfg = write_cfg(tmp_path, OBS_CFG, "obs.ini")
    o1, o2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["observability", "--config", str(ocfg), "--out", str(o1)]) == 0
    assert main(["observability", "--config", str(ocfg), "--out", str(o2)]) == 0
    for name in ("probes.csv", "report.json", "manifest.json"):
        assert (o1 / name).read_bytes() == (o2 / name).read_bytes()


def test_set_overrides(tmp_path):
    cfg = write_cfg(tmp_path, "[symbol]\nfamily = halfheat\n")
    out = tmp_path / "out"
    # --set can create a missing section and key
    assert main(["qa", "--config", str(cfg), "--out", str(out),
                 "--set", "run.k_max=5"]) == 0
    assert len((out / "moments.csv").read_text().splitlines()) == 7
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["run"]["k_max"] == 5
    assert main(["qa", "--config", str(cfg), "--out", str(out),
                 "--set", "run.k_max"]) == 2
    assert main(["qa", "--config", str(cfg), "--out", str(out),
                 "--set", "k_max=5"]) == 2


def test_validation_exit_codes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OBS_CFG)
    out = tmp_path / "out"
    assert main(["frobnicate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert main(["observability", "--out", str(out)]) == 2
    assert main(["observability", "--config", str(cfg)]) == 2
    assert main(["observability", "--config", str(tmp_path / "absent.ini"),
                 "--out", str(out)]) == 2

    # a misspelled key is named before anything runs
    assert main(["observability", "--config", str(cfg), "--out", str(out),
                 "--set", "mask.gama=0.3"]) == 2
    assert "mask.gama" in capsys.readouterr().err
    # a key that exists but does not apply to the chosen family
    assert main(["observability", "--config", str(cfg), "--out", str(out),
                 "--set", "symbol.s=2.0"]) == 2
    assert "does not apply" in capsys.readouterr().err
    # missing required key
    sim = write_cfg(tmp_path, "[grid]\nextent = 16.0\npoints = 64\n"
                    "[symbol]\nfamily = halfheat\n", "sim.ini")
    assert main(["simulate", "--config", str(sim), "--out", str(out)]) == 2
    assert "run.T" in capsys.readouterr().err
    # unparseable value
    assert main(["simulate", "--config", str(sim), "--out", str(out),
                 "--set", "run.T=soon"]) == 2
    # section that the scenario does not use
    qa_bad = write_cfg(tmp_path, QA_CFG + "\n[mask]\nkind = full\n", "qb.ini")
    assert main(["qa", "--config", str(qa_bad), "--out", str(out)]) == 2
    assert "[mask]" in capsys.readouterr().err
    # malformed INI
    broken = write_cfg(tmp_path, "family = halfheat\n", "broken.ini")
    assert main(["qa", "--config", str(broken), "--out", str(out)]) == 2
    # out-of-range values caught before they reach a division or an index
    stab = write_cfg(tmp_path, STAB_CFG, "stab.ini")
    nec = write_cfg(tmp_path, NEC_CFG, "nec.ini")
    neg = write_cfg(tmp_path, NEG_CFG, "neg.ini")
    for scenario, path, bad in [
        ("stabilize", stab, "run.dt=0"),
        ("stabilize", stab, "run.csv_stride=-1"),
        ("stabilize", stab, "run.snapshot_every=-1"),
        ("necessity", nec, "run.center_count=0"),
        ("necessity", nec, "run.center_count=-1"),
        ("necessity", nec, "run.quadrature_steps=0"),
        ("negative-limit", neg, "run.quadrature_steps=0"),
    ]:
        assert main([scenario, "--config", str(path), "--out", str(out),
                     "--set", bad]) == 2, bad
        assert "error:" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """\
[grid]
extent = 16.0
points = 128

[symbol]
family = fractional
s = 1.0

[mask]
kind = periodic
period = 1.0
fill = 0.5

[run]
T = 1.0
epsilon = 0.1
slices = 8
max_cg = 1
""")
    out = tmp_path / "out"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_synthesize_rejects_zero_penalty(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """\
[grid]
extent = 16.0
points = 128

[symbol]
family = fractional
s = 1.0

[mask]
kind = periodic
period = 1.0
fill = 0.5

[run]
T = 1.0
epsilon = 0.1
penalty0 = 0
""")
    out = tmp_path / "out"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 2
    assert "penalty0" in capsys.readouterr().err


def test_stabilize_auto_constant(tmp_path):
    out = tmp_path / "out"
    # the eigensolve is dense, so the seed key is optional and has no effect
    noseed = write_cfg(tmp_path, STAB_CFG.replace("seed = 0\n", ""), "ns.ini")
    out_ns = tmp_path / "out_ns"
    assert main(["stabilize", "--config", str(noseed), "--out", str(out_ns)]) == 0

    cfg = write_cfg(tmp_path, STAB_CFG)
    assert main(["stabilize", "--config", str(cfg), "--out", str(out)]) == 0
    assert ((out / "trajectory.csv").read_bytes()
            == (out_ns / "trajectory.csv").read_bytes())
    manifest = json.loads((out / "manifest.json").read_text())
    d = manifest["derived"]
    g = make_grid(1, 16.0, 64)
    mask = make_periodic_thick(g, 1.0, 0.5)
    assert d["c_emp"] == estimate_spectral_constant(mask, 2.0, seed=0)
    assert d["C"] == 1.0
    assert abs(d["lambda"] - 2.0 * math.exp(2.0)) < 1e-9
    assert abs(d["mu"] - 2.0 * math.exp(4.0)) < 1e-9
    assert d["alpha_tilde"] == pytest.approx(2.0)
    assert d["fitted_rate"] > 0
    assert d["steps"] == 74
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,norm,lyapunov,low_norm,high_norm"
    assert len(lines) == 76  # header + 75 records at stride 1


def test_simulate_closed_form(tmp_path):
    cfg = write_cfg(tmp_path, """\
[grid]
extent = 16.0
points = 64

[symbol]
family = halfheat

[run]
T = 0.7
snapshots = 65
f0 = mode
f0_mode = 3
""")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    d = manifest["derived"]
    xi = 2.0 * math.pi * 3 / 16.0
    want = math.exp(-0.7 * xi)
    assert abs(d["final_norm"] / d["initial_norm"] - want) < 1e-12
    lines = (out / "evolution.csv").read_text().splitlines()
    assert lines[0] == "t,norm" and len(lines) == 66
    final = read_field(out / "final.tsf")
    assert abs(norm(final) - d["final_norm"]) < 1e-12
    assert manifest["config"]["run"]["f0_mode"] == 3


def test_thick_check_and_mask_hash(tmp_path):
    cfg = write_cfg(tmp_path, """\
[grid]
extent = 16.0
points = 256

[mask]
kind = periodic
period = 1.0
fill = 0.3

[run]
L = 1.0
""")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["thick-check", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["thick-check", "--config", str(cfg), "--out", str(out2)]) == 0
    d1 = json.loads((out1 / "manifest.json").read_text())["derived"]
    d2 = json.loads((out2 / "manifest.json").read_text())["derived"]
    assert d1["mask_hash"] == d2["mask_hash"]
    assert abs(d1["gamma_measured"] - 0.3) < 1e-9
    assert d1["certificate"][0] == pytest.approx(0.3)
    lines = (out1 / "thickness.csv").read_text().splitlines()
    assert lines[0] == "L,stride,gamma_measured,gamma_claimed"

    rnd = write_cfg(tmp_path, """\
[grid]
extent = 16.0
points = 256

[mask]
kind = random
gamma = 0.3
L = 2.0
seed = 42

[run]
L = 2.0
stride = 32
""", "rnd.ini")
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["thick-check", "--config", str(rnd), "--out", str(r1)]) == 0
    assert main(["thick-check", "--config", str(rnd), "--out", str(r2)]) == 0
    e1 = json.loads((r1 / "manifest.json").read_text())["derived"]
    e2 = json.loads((r2 / "manifest.json").read_text())["derived"]
    assert e1["mask_hash"] == e2["mask_hash"]
    assert e1["gamma_measured"] >= 0.3


def test_necessity_cli(tmp_path):
    cfg = write_cfg(tmp_path, NEC_CFG)
    out = tmp_path / "out"
    assert main(["necessity", "--config", str(cfg), "--out", str(out)]) == 0
    d = json.loads((out / "manifest.json").read_text())["derived"]
    assert d["xi0"] == [0.0]
    assert d["witness_index"] is not None
    assert d["growth_ratio"] >= 10.0
    lines = (out / "necessity.csv").read_text().splitlines()
    assert lines[0] == "center,required_C" and len(lines) == 10


def test_negative_limit_cli(tmp_path):
    cfg = write_cfg(tmp_path, NEG_CFG)
    out = tmp_path / "out"
    assert main(["negative-limit", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert abs(manifest["derived"]["growth_ratio"] - 40.05899872698771) < 1e-6
    assert manifest["config"]["run"]["psi_center"] == 16.0
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "h,constant,integral" and len(lines) == 5


def test_cubes_cli(tmp_path):
    cfg = write_cfg(tmp_path, """\
[grid]
extent = 16.0
points = 256

[symbol]
family = halfheat

[run]
T = 2.0
epsilon = 0.01
L = 0.25
beta_max = 2
g = mode
g_mode = 20
""")
    out = tmp_path / "out"
    assert main(["cubes", "--config", str(cfg), "--out", str(out)]) == 0
    d = json.loads((out / "manifest.json").read_text())["derived"]
    assert d["bad_cubes"] == 64 and d["total_cubes"] == 64
    assert d["bad_mass"] <= d["mass_budget"]
    lines = (out / "cubes.csv").read_text().splitlines()
    assert len(lines) == 65
    assert "np.float64" not in (out / "cubes.csv").read_text()


def test_synthesize_cli(tmp_path):
    cfg = write_cfg(tmp_path, """\
[grid]
extent = 16.0
points = 128

[symbol]
family = constant
value = 0.0

[mask]
kind = full

[run]
T = 1.0
epsilon = 0.5
slices = 8
f0 = mode
f0_mode = 3
""")
    out = tmp_path / "out"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    d = manifest["derived"]
    assert abs(d["ratio"] - 1.0 / 3.0) < 1e-9
    # ||f0||^2 = extent / 2 for a cosine mode; cost = (2/3)^2 ||f0||^2
    assert abs(d["cost"] - (4.0 / 9.0) * 8.0) < 1e-8
    outputs = manifest["outputs"]
    slices = [k for k in outputs if k.startswith("controls/slice_")]
    assert len(slices) == 8
    assert outputs["final.tsf"] == sha256(out / "final.tsf")


RANDOM_MASK = """\
[grid]
extent = 16.0
points = 1024

[mask]
kind = random
gamma = 0.3
L = 2.0
seed = 0
"""


def test_random_mask_auto_constant_cli(tmp_path):
    # an iterative estimate of this support's constant stalled, and both
    # scenarios exited 3; the dense eigensolve is exact
    stab = write_cfg(tmp_path, RANDOM_MASK + """
[symbol]
family = halfheat

[run]
R = 2.0
T = 0.5
seed = 0
""", "stab.ini")
    assert main(["stabilize", "--config", str(stab), "--out",
                 str(tmp_path / "stab")]) == 0
    manifest = json.loads((tmp_path / "stab" / "manifest.json").read_text())
    assert abs(manifest["derived"]["c_emp"] - 1.9502850044670685) < 1e-10
    kov = write_cfg(tmp_path, RANDOM_MASK + """
[run]
R_ladder = 2.0, 4.0
seed = 0
""", "kov.ini")
    assert main(["kovrijkine", "--config", str(kov), "--out",
                 str(tmp_path / "kov")]) == 0


def test_kovrijkine_cli(tmp_path):
    cfg = write_cfg(tmp_path, KOV_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["kovrijkine", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["kovrijkine", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "kovrijkine.csv").read_bytes() == (out2 / "kovrijkine.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
