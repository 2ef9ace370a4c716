"""Experiment runner: config validation, exit codes, manifests, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thickstab import cli
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


def outputs_on_disk(out):
    """The manifest's outputs, checked against the sha256 of each file on disk."""
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert outputs == {name: sha256(out / name) for name in outputs}
    return outputs


SYNTH_CFG = """\
[grid]
extent = 16.0
points = 32

[symbol]
family = constant
value = 0.0

[mask]
kind = full

[run]
T = 1.0
epsilon = 0.5
slices = 4
f0 = mode
f0_mode = 3
"""


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

    # a CRLF config parses like its LF twin; its hash is that of its own bytes
    crlf = tmp_path / "crlf.ini"
    crlf.write_bytes(QA_CFG.replace("\n", "\r\n").encode())
    out_crlf = tmp_path / "out_crlf"
    assert main(["qa", "--config", str(crlf), "--out", str(out_crlf)]) == 0
    twin = json.loads((out_crlf / "manifest.json").read_text())
    assert twin["config"] == manifest["config"]
    assert twin["outputs"] == manifest["outputs"]
    assert twin["inputs"]["config_sha256"] == sha256(crlf) != sha256(cfg)


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

    # reruns into an existing --out (here a) write the fresh runs' bytes
    # again, over a longer manifest too; synthesize covers controls/
    scfg = write_cfg(tmp_path, SYNTH_CFG, "synth.ini")
    synth = tmp_path / "s"
    assert main(["synthesize", "--config", str(scfg), "--out", str(synth)]) == 0
    assert sum(name.startswith("controls/") for name in outputs_on_disk(synth)) == 4
    for scenario, config, fresh in [("synthesize", scfg, synth), ("qa", cfg, out2)]:
        assert main([scenario, "--config", str(config), "--out", str(out1)]) == 0
        for name in [*outputs_on_disk(out1), "manifest.json"]:
            assert (out1 / name).read_bytes() == (fresh / name).read_bytes()


def test_set_overrides(tmp_path):
    cfg = write_cfg(tmp_path, "[symbol]\nfamily = halfheat\n")
    out = tmp_path / "out"
    # --set can create a missing section and key; a shorter rerun into the
    # same --out leaves no tail of the longer one
    for k_max in (100, 5):
        assert main(["qa", "--config", str(cfg), "--out", str(out),
                     "--set", f"run.k_max={k_max}"]) == 0
    assert len((out / "moments.csv").read_text().splitlines()) == 7
    outputs_on_disk(out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["run"]["k_max"] == 5
    assert main(["qa", "--config", str(cfg), "--out", str(out),
                 "--set", "run.k_max"]) == 2
    assert main(["qa", "--config", str(cfg), "--out", str(out),
                 "--set", "k_max=5"]) == 2


def test_in_process_calls_are_independent(tmp_path, capsys, monkeypatch):
    # the parser outlives a call: nothing of one call, an override or a parse
    # error, may reach the next, and each call writes what a fresh process does
    monkeypatch.setenv("COLUMNS", "80")  # help wraps alike in both processes
    cfg = write_cfg(tmp_path, QA_CFG)
    run = ["qa", "--config", str(cfg), "--out"]
    assert main([*run, str(tmp_path / "set"), "--set", "run.k_max=5"]) == 0
    assert main([*run, str(tmp_path / "plain")]) == 0
    with pytest.raises(SystemExit) as exc:
        main([*run, str(tmp_path / "bad"), "--no-such-option"])
    assert exc.value.code == 2
    assert main([*run, str(tmp_path / "again")]) == 0
    capsys.readouterr()

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))

    def fresh(*argv):
        return subprocess.run([sys.executable, "-m", "thickstab", *argv], env=env,
                              capture_output=True, check=True).stdout

    fresh(*run, str(tmp_path / "fresh"))
    files = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert files == ["manifest.json", "moments.csv"]
    for out in ("plain", "again"):
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert manifest["config"]["run"]["k_max"] == 100
        for name in files:
            assert (tmp_path / out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def printed(*argv):
        try:
            assert main(list(argv)) == 0
        except SystemExit as exc:  # --help exits from the parser
            assert exc.code == 0
        return capsys.readouterr().out.encode()

    for argv in (["--help"], ["list", "--json"]):
        assert printed(*argv) == printed(*argv) == fresh(*argv)


def test_validation_exit_codes(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, OBS_CFG)
    out = tmp_path / "out"
    assert main(["frobnicate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert main(["observability", "--out", str(out)]) == 2
    assert main(["observability", "--config", str(cfg)]) == 2
    assert main(["observability", "--config", str(tmp_path / "absent.ini"),
                 "--out", str(out)]) == 2
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes(b"[symbol]\nfamily = halfheat\n# caf\xe9\n")
    assert main(["qa", "--config", str(latin1), "--out", str(out)]) == 2
    assert f"error: cannot read config {latin1}" in capsys.readouterr().err
    # an --out that is a file, or lies under one, is named, not a traceback
    for bad_out in (cfg, cfg / "sub"):
        assert main(["observability", "--config", str(cfg), "--out", str(bad_out)]) == 2
        assert f"error: cannot create output directory {bad_out}" in capsys.readouterr().err
    # so is a file where synthesize puts controls/, and no solve is wasted on it
    held = tmp_path / "held"
    held.mkdir()
    (held / "controls").write_bytes(b"")
    synth = write_cfg(tmp_path, SYNTH_CFG, "synth.ini")
    with monkeypatch.context() as m:
        m.setattr(cli, "synthesize_control",
                  lambda *a, **k: pytest.fail("solved into an unusable --out"))
        assert main(["synthesize", "--config", str(synth), "--out", str(held)]) == 2
    assert (f"error: cannot create output directory {held / 'controls'}"
            in capsys.readouterr().err)

    # a misspelled key is named before anything runs
    assert main(["observability", "--config", str(cfg), "--out", str(out),
                 "--set", "mask.gama=0.3"]) == 2
    assert "mask.gama" in capsys.readouterr().err
    # a key that exists but does not apply to the chosen family
    assert main(["observability", "--config", str(cfg), "--out", str(out),
                 "--set", "symbol.s=2.0"]) == 2
    assert "does not apply" in capsys.readouterr().err
    assert main(["observability", "--config", str(cfg), "--out", str(out),
                 "--set", "mask.radius=1.0"]) == 2
    assert "key 'mask.radius' does not apply to kind 'periodic'" in capsys.readouterr().err
    nofill = write_cfg(tmp_path, OBS_CFG.replace("fill = 0.5\n", ""), "nofill.ini")
    assert main(["observability", "--config", str(nofill), "--out", str(out)]) == 2
    assert "needs key 'mask.fill'" in capsys.readouterr().err
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
    sim_t = write_cfg(tmp_path, "[grid]\nextent = 16.0\npoints = 64\n"
                      "[symbol]\nfamily = halfheat\n[run]\nT = 0.5\n",
                      "sim_t.ini")
    qa = write_cfg(tmp_path, QA_CFG, "qa.ini")
    obs = write_cfg(tmp_path, OBS_CFG, "obs.ini")
    cubes = write_cfg(tmp_path, "[grid]\nextent = 16.0\npoints = 64\n"
                      "[symbol]\nfamily = halfheat\n[run]\nT = 1.0\n"
                      "epsilon = 0.25\nL = 0.5\ng = mode\n", "cubes.ini")
    # range rules sit beside their keys: nothing is built for these
    def never_built(*args):
        raise AssertionError("inputs built for an out-of-range key")

    monkeypatch.setattr(cli, "_build_inputs", never_built)
    for scenario, path, bad in [
        ("stabilize", stab, "run.dt=0"),
        ("stabilize", stab, "run.csv_stride=-1"),
        ("stabilize", stab, "run.snapshot_every=-1"),
        ("stabilize", stab, "run.f0_width=0"),
        ("necessity", nec, "run.center_count=0"),
        ("necessity", nec, "run.center_count=-1"),
        ("simulate", sim_t, "run.T=0"),
        ("simulate", sim_t, "run.snapshots=1"),
        ("qa", qa, "run.k_max=0"),
        ("observability", obs, "run.xi_fraction=-1"),
        ("cubes", cubes, "run.L=0"),
        ("cubes", cubes, "run.L=-16"),
    ]:
        assert main([scenario, "--config", str(path), "--out", str(out),
                     "--set", bad]) == 2, bad
        assert f"error: key '{bad.split('=')[0]}'" in capsys.readouterr().err
    monkeypatch.undo()
    # rules that need the built inputs are the library's
    for scenario, path, bad in [
        ("necessity", nec, "run.quadrature_steps=0"),
        ("necessity", nec, "run.T=0"),
        ("negative-limit", neg, "run.quadrature_steps=0"),
        ("cubes", cubes, "run.L=0.3"),
    ]:
        assert main([scenario, "--config", str(path), "--out", str(out),
                     "--set", bad]) == 2, bad
        assert "error:" in capsys.readouterr().err


def test_observability_xi_fraction_range(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OBS_CFG)
    out = tmp_path / "out"
    for bad in ("-1", "5"):
        assert main(["observability", "--config", str(cfg), "--out", str(out),
                     "--set", f"run.xi_fraction={bad}"]) == 2, bad
        assert "xi_fraction" in capsys.readouterr().err
    assert main(["observability", "--config", str(cfg), "--out", str(out),
                 "--set", "run.xi_fraction=1"]) == 0


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


def test_stabilize_auto_constant(tmp_path, capsys):
    out = tmp_path / "out"
    # the eigensolve is dense, so the seed key is optional and has no effect
    noseed = write_cfg(tmp_path, STAB_CFG.replace("seed = 0\n", ""), "ns.ini")
    out_ns = tmp_path / "out_ns"
    assert main(["stabilize", "--config", str(noseed), "--out", str(out_ns)]) == 0

    cfg = write_cfg(tmp_path, STAB_CFG)
    assert main(["stabilize", "--config", str(cfg), "--out", str(out)]) == 0
    assert ((out / "trajectory.csv").read_bytes()
            == (out_ns / "trajectory.csv").read_bytes())
    # no output reads snapshots, so their stride changes no byte
    for stride in ("0", "1"):
        out_s = tmp_path / f"out_s{stride}"
        assert main(["stabilize", "--config", str(cfg), "--out", str(out_s),
                     "--set", f"run.snapshot_every={stride}"]) == 0
        assert ((out_s / "trajectory.csv").read_bytes()
                == (out / "trajectory.csv").read_bytes())
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

    # an explicit constant replaces the estimate; design_feedback needs C >= 1
    out_c = tmp_path / "out_c"
    assert main(["stabilize", "--config", str(cfg), "--out", str(out_c),
                 "--set", "run.C=1.5"]) == 0
    d = json.loads((out_c / "manifest.json").read_text())["derived"]
    assert d["C"] == 1.5 and "c_emp" not in d
    assert abs(d["lambda"] - 1.5 * math.exp(3.0) * 2.0) < 1e-9
    assert main(["stabilize", "--config", str(cfg), "--out", str(out_c),
                 "--set", "run.C=0.5"]) == 2
    # gains past the float range (C R > 709.78 overflows e^(CR)), and finite
    # gains whose dt asks for more steps than numpy can index
    capsys.readouterr()
    assert main(["stabilize", "--config", str(cfg), "--out", str(out_c),
                 "--set", "run.C=400"]) == 2
    assert "gains out of range at C = 400.0, R = 2.0" in capsys.readouterr().err
    assert main(["stabilize", "--config", str(cfg), "--out", str(out_c),
                 "--set", "run.C=100"]) == 2
    err = capsys.readouterr().err
    # one step-count rule: no long-run warning for a count the library refuses
    assert "cannot record" in err and "warning" not in err


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
    # T / (T / n) rounds up past n = 127899: still n steps, one row each
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--set",
                 "run.T=0.015893597189960192", "--set", "run.snapshots=127900"]) == 0
    lines = (out / "evolution.csv").read_text().splitlines()
    d = json.loads((out / "manifest.json").read_text())["derived"]
    assert len(lines) == 1 + 127900 and lines[-1] == f"0.015893597189960192,{d['final_norm']!r}"

    # F(0) = 0 leaves a constant field alone
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--set", "run.f0=constant"]) == 0
    d = json.loads((out / "manifest.json").read_text())["derived"]
    assert d["initial_norm"] == pytest.approx(4.0, rel=1e-12)  # sqrt(box measure 16)
    assert abs(d["final_norm"] - d["initial_norm"]) < 1e-12
    # a modulated gaussian, centred by default in the box
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--set", "run.f0=gaussian", "--set", "run.f0_frequency=2.0"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["run"]["f0_center"] == 8.0
    assert manifest["config"]["run"]["f0_frequency"] == 2.0
    assert 0 < manifest["derived"]["final_norm"] < manifest["derived"]["initial_norm"]
    for bad in ("-1", "32"):
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--set", f"run.f0_mode={bad}"]) == 2, bad


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


def test_cubes_cli(tmp_path, capsys):
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
    # a near-zero T has no finite half-time moments: a refusal naming T
    capsys.readouterr()
    assert main(["cubes", "--config", str(cfg), "--out", str(out),
                 "--set", "run.T=1e-300"]) == 2
    assert "T = 1e-300 is too small" in capsys.readouterr().err


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


SWEEP_GRID = "[grid]\nextent = 16.0\npoints = 64\n"
SWEEP_MASK = "[mask]\nkind = random\ngamma = 0.3\nL = 2.0\nseed = 7\n"
SWEEP_HALFHEAT = "[symbol]\nfamily = halfheat\n"
SWEEP_CFGS = {
    "simulate": SWEEP_GRID + SWEEP_HALFHEAT + "[run]\nT = 0.5\n",
    "stabilize": SWEEP_GRID + SWEEP_HALFHEAT + SWEEP_MASK + "[run]\nR = 2.0\nT = 0.5\n",
    "observability": SWEEP_GRID + SWEEP_HALFHEAT + SWEEP_MASK
    + "[run]\nT = 0.5\nepsilon = 0.25\nseed = 5\n",
    "necessity": SWEEP_GRID + SWEEP_HALFHEAT + SWEEP_MASK
    + "[run]\nT = 0.5\nepsilon = 0.25\nC = 1.0\ncenter_start = 6.0\n"
    "center_stop = 12.0\nwidth = 0.7\n",
    "negative-limit": NEG_CFG,
    "qa": QA_CFG,
    "thick-check": SWEEP_GRID + SWEEP_MASK + "[run]\nL = 2.0\n",
    "cubes": SWEEP_GRID + SWEEP_HALFHEAT + "[run]\nT = 1.0\nepsilon = 0.25\nL = 0.5\n",
    "synthesize": SWEEP_GRID + "[symbol]\nfamily = fractional\ns = 1.0\n" + SWEEP_MASK
    + "[run]\nT = 1.0\nepsilon = 0.1\nslices = 8\n",
    "kovrijkine": SWEEP_GRID + SWEEP_MASK + "[run]\nR_ladder = 1.0, 2.0\n",
}
# override -> what a refusal (exit 2) must name; the allocations these sizes
# ask for (>= 1 PiB) fail at once, before any state is filled
SWEEP = {
    "run.seed=-1": "key 'run.seed'",
    "mask.seed=-1": "key 'mask.seed'",
    "run.f0_width=1e300": "key 'run.f0_width'",
    "run.psi_width=1e300": "key 'run.psi_width'",
    "run.g_width=1e300": "key 'run.g_width'",
    f"run.quadrature_steps={10 ** 15}": f"cannot record {10 ** 15} quadrature steps",
    "run.L=1e-300": "L = 1e-300",
    f"run.snapshots={10 ** 15}": "cannot record",
    "run.T=1e-300": None,
}


def test_override_sweep_exits_cleanly(tmp_path, capsys):
    # every scenario under each override it takes ends in exit 0, 2 or 3,
    # never in an exception out of main
    ran = 0
    for scenario, text in SWEEP_CFGS.items():
        cfg = write_cfg(tmp_path, text, f"{scenario}.ini")
        sections = cli._SCENARIOS[scenario].sections
        for override, named in SWEEP.items():
            section, key = override.split("=")[0].split(".")
            if key not in sections.get(section, {}):
                continue
            ran += 1
            code = main([scenario, "--config", str(cfg), "--out",
                         str(tmp_path / scenario), "--set", override])
            err = capsys.readouterr().err
            assert code in (0, 2, 3) and "Traceback" not in err, (scenario, override)
            if scenario in ("stabilize", "kovrijkine") and override == "run.seed=-1":
                assert code == 0, err  # seed has no effect there
            elif scenario == "simulate" and key == "T":
                assert code == 0, err  # every T > 0
            elif named is not None:
                assert code == 2 and named in err, (scenario, override, err)
    assert ran == 26
