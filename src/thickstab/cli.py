"""Experiment runner: INI configs in, CSV/JSON/TSF1 artifacts out.

Usage:

    thickstab <scenario> --config cfg.ini --out results/ [--set run.T=2.0] ...
    thickstab list [--json]

A config is an INI file with up to four sections, [grid], [symbol], [mask]
and [run]; which sections and keys a scenario accepts is listed by
`thickstab list`. Every key is validated before any computation starts, and
an unknown or inapplicable key aborts with exit code 2 and a message naming
it. Numerical failures (non-convergence, overflow) exit with code 3.
The argument parser is built once per process, at import, so in-process
callers may call main repeatedly; no call's options reach the next.

Each run writes its data files plus a manifest.json that echoes the fully
resolved configuration, the sha256 of the config file, and the sha256 of the
bytes written for each artifact; every artifact, TSM1 masks too, goes through
grid._write_bytes. A rerun into the same --out overwrites each file in place;
files an earlier run left there and this run does not write stay on disk,
outside the manifest. Identical configs produce byte-identical CSVs: floats
are written with repr, line endings are LF, and every randomized scenario
takes an explicit seed.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError
from .grid import (_write_csv, _write_json, field_from_values,
                   from_coefficients, make_grid, norm, write_field)
from .observe import (classify_cubes, estimate_observability_constant,
                      kovrijkine_empirical, make_probe_set,
                      necessity_probe_scan, negative_limit_experiment,
                      synthesize_control, write_cube_csv, write_report_json)
from .qa import build_sequence, dc_partial_sum, write_moments_csv
from .stabilize import (_step_count, calibrate_constant, design_feedback,
                        estimate_spectral_constant, run_stabilization,
                        write_trajectory_csv)
from .symbols import (constant, fractional, halfheat, iterated, loglog,
                      saturating)
from .thick import (make_ball_complement, make_full, make_periodic_thick,
                    make_random_thick, mask_hash, thickness_certificate,
                    write_mask)

_REQUIRED = object()


def _float(raw: str) -> float:
    v = float(raw)
    if not np.isfinite(v):
        raise ValueError("must be finite")
    return v


def _floats(raw: str) -> tuple:
    toks = [t.strip() for t in raw.split(",") if t.strip()]
    if not toks:
        raise ValueError("empty list")
    return tuple(_float(t) for t in toks)


def _choice(*options):
    def convert(raw: str) -> str:
        v = raw.strip()
        if v not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return v
    return convert


def _at_least(convert, lo, strict=False):
    """convert, then require a value above lo (strict) or at least lo."""
    def checked(raw: str):
        v = convert(raw)
        if v < lo or (strict and v == lo):
            raise ValueError(f"must be {'>' if strict else '>='} {lo}")
        return v
    return checked


def _float_or_auto(raw: str):
    v = raw.strip()
    if v == "auto":
        return v
    return _float(v)


@dataclass(frozen=True)
class _Key:
    convert: object
    default: object = _REQUIRED
    help: str = ""

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


_GRID_KEYS = {
    "dim": _Key(int, 1, "spatial dimension (1 or 2)"),
    "extent": _Key(_float, help="side length of the periodic box"),
    "points": _Key(int, help="grid points per axis"),
}

_SYMBOL_KEYS = {
    "family": _Key(_choice("fractional", "halfheat", "loglog", "iterated",
                           "saturating", "constant"),
                   help="multiplier family F(|xi|)"),
    "s": _Key(_float, None, "exponent for fractional / loglog"),
    "delta": _Key(_float, None, "log-log tilt"),
    "p": _Key(int, None, "iteration depth"),
    "knee": _Key(_float, None, "saturating knee radius"),
    "span": _Key(_float, None, "saturating tabulation span"),
    "value": _Key(_float, None, "constant symbol value"),
}

_MASK_KEYS = {
    "kind": _Key(_choice("full", "periodic", "ball-complement", "random"),
                 help="support family"),
    "period": _Key(_float, None, "periodic cell length"),
    "fill": _Key(_float, None, "periodic filled fraction"),
    "radius": _Key(_float, None, "excluded-ball radius"),
    "cert_scale": _Key(_float, None, "window length for the measured certificate"),
    "gamma": _Key(_float, None, "random thickness target"),
    "L": _Key(_float, None, "random block length"),
    "seed": _Key(_at_least(int, 0), None, "random mask seed"),
}

# Keys that older configs set and nothing reads (the eigensolve is dense; no stabilize output
# reads snapshots), accepted with their converters and defaults so that those configs still run.
_IGNORED_KEYS = {
    "stabilize": {"snapshot_every": _Key(_at_least(int, 0), 0), "trials": _Key(int, 4),
                  "iterations": _Key(int, 200), "seed": _Key(int, None)},
    "kovrijkine": {"trials": _Key(int, 4), "iterations": _Key(int, 200), "seed": _Key(int, 0)},
}


def _field_keys(prefix: str, what: str) -> dict:
    return {
        prefix: _Key(_choice("gaussian", "mode", "constant"), "gaussian",
                     f"{what}: gaussian bump, cosine mode, or constant"),
        f"{prefix}_width": _Key(_at_least(_float, 0, strict=True), 1.0,
                                "gaussian width"),
        f"{prefix}_center": _Key(_float, None,
                                 "gaussian center (default: box center)"),
        f"{prefix}_frequency": _Key(_float, 0.0,
                                    "gaussian modulation along the first axis"),
        f"{prefix}_mode": _Key(int, 1, "cosine mode index along the first axis"),
    }


@dataclass(frozen=True)
class _Scenario:
    blurb: str
    sections: dict
    run: object
    field: str | None = None  # run-section prefix of the scenario's input field


@dataclass(frozen=True)
class _Inputs:
    """What a scenario's [grid], [symbol], [mask] sections and field build."""

    grid: object = None
    F: object = None
    mask: object = None
    field: object = None


def _build_symbol(scfg: dict):
    # family -> (constructor, its keys and defaults in argument order); built
    # per call, like the mask table, so wrappers on these names (bench/) run
    family = scfg["family"]
    make, params = {
        "fractional": (fractional, {"s": 1.0}),
        "halfheat": (halfheat, {}),
        "loglog": (loglog, {"s": 1.0, "delta": 0.5}),
        "iterated": (iterated, {"p": 2}),
        "saturating": (saturating, {"knee": 1.0, "span": 200.0}),
        "constant": (constant, {"value": 0.0}),
    }[family]
    for key, val in scfg.items():
        if key != "family" and val is not None and key not in params:
            raise ValidationError(
                f"key 'symbol.{key}' does not apply to family '{family}'")
    return make(*(d if scfg[k] is None else scfg[k] for k, d in params.items()))


def _build_mask(grid, mcfg: dict):
    # kind -> (constructor, required keys, optional keys)
    kind = mcfg["kind"]
    make, required, optional = {
        "full": (make_full, (), ()),
        "periodic": (make_periodic_thick, ("period", "fill"), ()),
        "ball-complement": (make_ball_complement, ("radius",), ("cert_scale",)),
        "random": (make_random_thick, ("gamma", "L", "seed"), ()),
    }[kind]
    for key, val in mcfg.items():
        if key != "kind" and val is not None and key not in required + optional:
            raise ValidationError(
                f"key 'mask.{key}' does not apply to kind '{kind}'")
    for key in required:
        if mcfg[key] is None:
            raise ValidationError(
                f"mask kind '{kind}' needs key 'mask.{key}'")
    return make(grid, **{k: mcfg[k] for k in required + optional
                         if mcfg[k] is not None})


def _build_field(grid, rcfg: dict, prefix: str):
    """Initial data from the shared family keys; a missing centre is
    written back into rcfg as the box centre."""
    kind = rcfg[prefix]
    center = rcfg[f"{prefix}_center"]
    if center is None:
        center = rcfg[f"{prefix}_center"] = grid.extent / 2.0
    axes = np.meshgrid(*[np.arange(grid.points) * grid.dx] * grid.dim,
                       indexing="ij")
    if kind == "gaussian":
        w = rcfg[f"{prefix}_width"]
        if not w * w < math.inf:
            raise ValidationError(f"key 'run.{prefix}_width' must have a finite square, got {w}")
        sq = sum((ax - center) ** 2 for ax in axes)
        vals = np.exp(-sq / (2.0 * w ** 2))
        freq = rcfg[f"{prefix}_frequency"]
        if freq != 0.0:
            vals = vals * np.cos(freq * (axes[0] - center))
    elif kind == "mode":
        k = rcfg[f"{prefix}_mode"]
        if not 0 <= k <= grid.points // 2 - 1:
            raise ValidationError(
                f"key 'run.{prefix}_mode' must lie in [0, {grid.points // 2 - 1}]"
                f" for this grid, got {k}")
        vals = np.cos(2.0 * np.pi * k * axes[0] / grid.extent)
    else:
        vals = np.ones(grid.shape)
    return field_from_values(grid, vals)


def _build_inputs(spec: _Scenario, cfg: dict) -> _Inputs:
    """Grid, symbol, mask and field, validated in that order."""
    grid = F = mask = field = None
    if "grid" in spec.sections:
        g = cfg["grid"]
        grid = make_grid(g["dim"], g["extent"], g["points"])
    if "symbol" in spec.sections:
        F = _build_symbol(cfg["symbol"])
    if "mask" in spec.sections:
        mask = _build_mask(grid, cfg["mask"])
    if spec.field is not None:
        field = _build_field(grid, cfg["run"], spec.field)
    return _Inputs(grid=grid, F=F, mask=mask, field=field)


# ---------------------------------------------------------------- scenarios


def _run_simulate(cfg, inp, out):
    T, rows = cfg["run"]["T"], cfg["run"]["snapshots"]
    traj = run_stabilization(inp.field, inp.F, None, None, T, dt=T / (rows - 1),
                             snapshot_every=rows - 1).trajectory
    # linspace ends on T itself; the runner's last time is (rows - 1) * (T / (rows - 1))
    return ({"initial_norm": float(traj.norms[0]), "final_norm": float(traj.norms[-1])},
            {"evolution.csv": _write_csv(out / "evolution.csv", "t,norm",
                                         zip(np.linspace(0.0, T, rows), traj.norms)),
             "final.tsf": write_field(out / "final.tsf",
                                      from_coefficients(inp.grid, traj.snapshots[-1][1]))})


def _run_stabilize(cfg, inp, out):
    F, mask, f0 = inp.F, inp.mask, inp.field
    run = cfg["run"]
    derived = {}
    C = run["C"]
    if C == "auto":
        c_emp = estimate_spectral_constant(mask, run["R"])
        C = calibrate_constant(c_emp, run["R"])
        derived["c_emp"] = c_emp
    fb = design_feedback(F, run["R"], C)
    dt = run["dt"] if run["dt"] is not None else fb.dt_max
    steps = _step_count(run["T"], dt)
    if steps > 10 ** 7:
        print(f"warning: dt = {dt:.3e} needs {steps} steps to reach "
              f"T = {run['T']}; expect a long run", file=sys.stderr)
    res = run_stabilization(f0, F, mask, fb, run["T"], dt=dt)
    records = res.trajectory.times.size
    stride = run["csv_stride"] or max(1, records // 4096)
    sha = write_trajectory_csv(res, out / "trajectory.csv", stride=stride)
    derived.update(fb.to_manifest())
    derived.update({"fitted_rate": res.fitted_rate, "dt": res.dt,
                    "steps": records - 1, "csv_stride": stride})
    return derived, {"trajectory.csv": sha}


def _run_observability(cfg, inp, out):
    run = cfg["run"]
    probes = make_probe_set(inp.grid, run["probes"], run["seed"],
                            xi_fraction=run["xi_fraction"])
    report = estimate_observability_constant(inp.F, inp.mask, run["T"],
                                             run["epsilon"], probes,
                                             run["quadrature_steps"])
    return {"C_est": report.C_est}, {
        "report.json": write_report_json(report, out / "report.json"),
        "probes.csv": _write_csv(
            out / "probes.csv", "index,center,frequency,width,lhs,obs_integral,required_C",
            ((r.index, ";".join(map(repr, probes[r.index].center)),
              ";".join(map(repr, probes[r.index].frequency)),
              probes[r.index].width, r.lhs, r.obs_integral, r.required_C)
             for r in report.probe_results))}


def _run_necessity(cfg, inp, out):
    run = cfg["run"]
    centers = np.linspace(run["center_start"], run["center_stop"],
                          run["center_count"])
    scan = necessity_probe_scan(inp.F, inp.mask, run["T"], run["epsilon"],
                                run["C"], centers, run["width"],
                                run["quadrature_steps"])
    return {
        "xi0": list(scan.xi0),
        "witness_index": scan.witness_index,
        "growth_ratio": (float(scan.required[-1] / scan.required[0])
                         if scan.required[0] > 0 else float("inf")),
    }, {"necessity.csv": _write_csv(out / "necessity.csv", "center,required_C",
                                    zip(scan.centers, scan.required))}


def _run_negative_limit(cfg, inp, out):
    run = cfg["run"]
    curve = negative_limit_experiment(inp.F, inp.field, run["radius"],
                                      run["T0"], run["h_ladder"],
                                      run["quadrature_steps"])
    return ({"growth_ratio": float(curve.constants[-1] / curve.constants[0])},
            {"curve.csv": _write_csv(out / "curve.csv", "h,constant,integral",
                                     zip(curve.h_values, curve.constants, curve.integrals))})


def _run_qa(cfg, inp, out):
    run = cfg["run"]
    seq = build_sequence(inp.F, run["k_max"], run["scale"])
    return ({"ratio_bound": seq.ratio_bound,
             "dc_partial_sum": dc_partial_sum(seq, run["k_max"] + 1)},
            {"moments.csv": write_moments_csv(seq, out / "moments.csv")})


def _run_thick_check(cfg, inp, out):
    mask = inp.mask
    run = cfg["run"]
    measured = thickness_certificate(mask, run["L"], run["stride"])
    claimed = mask.certificate[0] if mask.certificate else float("nan")
    return ({"gamma_measured": measured, "measure_fraction": mask.measure_fraction,
             "certificate": list(mask.certificate) if mask.certificate else None},
            {"mask.tsm": write_mask(out / "mask.tsm", mask),
             "thickness.csv": _write_csv(out / "thickness.csv",
                                         "L,stride,gamma_measured,gamma_claimed",
                                         [(run["L"], run["stride"], measured, claimed)])})


def _run_cubes(cfg, inp, out):
    run = cfg["run"]
    rep = classify_cubes(inp.field, inp.F, run["T"], run["epsilon"], run["L"],
                         run["beta_max"])
    return {
        "bad_cubes": int(np.sum(~rep.labels)),
        "total_cubes": int(rep.labels.size),
        "bad_mass": rep.bad_mass,
        "mass_budget": rep.mass_budget,
        "tested_weight": rep.tested_weight,
        "tail_weight": rep.tail_weight,
    }, {"cubes.csv": write_cube_csv(rep, out / "cubes.csv")}


def _run_synthesize(cfg, inp, out):
    grid, mask = inp.grid, inp.mask
    run = cfg["run"]
    _make_dir(out / "controls")  # before the solve, which an unusable path would waste
    res = synthesize_control(inp.field, inp.F, mask, run["T"], run["epsilon"],
                             slices=run["slices"], tol=run["tol"],
                             max_cg=run["max_cg"], penalty0=run["penalty0"],
                             max_penalty_steps=run["max_penalty_steps"])
    files, rows = {}, []
    for i, values in enumerate(res.controls):
        h = field_from_values(grid, values)
        name = f"controls/slice_{i:03d}.tsf"
        files[name] = write_field(out / name, h)
        rows.append((i, res.times[i], res.times[i + 1], norm(h)))
    files["control.csv"] = _write_csv(out / "control.csv", "slice,t_start,t_end,control_norm", rows)
    files["final.tsf"] = write_field(out / "final.tsf", res.final_field)
    return ({"cost": res.cost, "ratio": res.ratio, "penalty": res.penalty,
             "cg_iterations": res.cg_iterations}, files)


def _run_kovrijkine(cfg, inp, out):
    run = cfg["run"]
    fit = kovrijkine_empirical(inp.mask, run["R_ladder"], C_n=run["C_n"])
    return ({"slope": fit.slope, "intercept": fit.intercept,
             "reference_slope": fit.reference_slope},
            {"kovrijkine.csv": _write_csv(out / "kovrijkine.csv", "R,c_emp,log_c_emp", (
                (r, c, math.log(c)) for r, c in zip(fit.R_values, fit.constants)))})


_SCENARIOS = {
    "simulate": _Scenario(
        "free evolution under exp(-t F(|D|)): norm history and final field",
        {"grid": _GRID_KEYS, "symbol": _SYMBOL_KEYS,
         "run": {"T": _Key(_at_least(_float, 0, strict=True),
                           help="final time"),
                 "snapshots": _Key(_at_least(int, 2), 129,
                                   "rows in evolution.csv"),
                 **_field_keys("f0", "initial data")}},
        _run_simulate, "f0"),
    "stabilize": _Scenario(
        "closed-loop run of d_t f + F(|D|) f = -lambda 1_omega K_R f with "
        "Lyapunov records and a fitted decay rate",
        {"grid": _GRID_KEYS, "symbol": _SYMBOL_KEYS, "mask": _MASK_KEYS,
         "run": {"R": _Key(_float, help="projection radius"),
                 "C": _Key(_float_or_auto, "auto",
                           "restriction constant, or auto to measure it"),
                 "T": _Key(_float, help="final time"),
                 "dt": _Key(_at_least(_float, 0, strict=True), None,
                            "time step (default: stability cap)"),
                 "csv_stride": _Key(_at_least(int, 0), 0,
                                    "CSV row stride (0 = auto)"),
                 **_IGNORED_KEYS["stabilize"],
                 **_field_keys("f0", "initial data")}},
        _run_stabilize, "f0"),
    "observability": _Scenario(
        "Gaussian-probe estimate of the constant in ||g||^2 <= "
        "C int_0^T ||e^{-tF} g||^2_omega dt + eps ||g||^2",
        {"grid": _GRID_KEYS, "symbol": _SYMBOL_KEYS, "mask": _MASK_KEYS,
         "run": {"T": _Key(_float, help="observation time"),
                 "epsilon": _Key(_float, help="allowed mass leak, in (0,1)"),
                 "probes": _Key(int, 8, "dictionary size"),
                 "seed": _Key(_at_least(int, 0), help="probe dictionary seed"),
                 "quadrature_steps": _Key(int, 64, "time quadrature steps"),
                 "xi_fraction": _Key(_at_least(_float, 0), 0.1,
                                     "modulation spread as a fraction of the "
                                     "frequency headroom")}},
        _run_observability),
    "necessity": _Scenario(
        "probe centers marching into the hole of a non-thick support: the "
        "required constant along the schedule, with the witnessing frequency",
        {"grid": _GRID_KEYS, "symbol": _SYMBOL_KEYS, "mask": _MASK_KEYS,
         "run": {"T": _Key(_float, help="observation time"),
                 "epsilon": _Key(_float, help="allowed mass leak, in (0,1)"),
                 "C": _Key(_float, help="constant the scan tries to defeat"),
                 "center_start": _Key(_float, help="first probe center"),
                 "center_stop": _Key(_float, help="last probe center"),
                 "center_count": _Key(_at_least(int, 1), 9, "schedule length"),
                 "width": _Key(_float, help="probe width"),
                 "quadrature_steps": _Key(int, 64, "time quadrature steps")}},
        _run_necessity),
    "negative-limit": _Scenario(
        "bounded symbol with a non-negative limit: observability constants "
        "of a fixed profile blow up as the excluded ball dilates like 1/h",
        {"grid": _GRID_KEYS, "symbol": _SYMBOL_KEYS,
         "run": {"radius": _Key(_float, help="excluded-ball radius at h = 1"),
                 "T0": _Key(_float, help="observation time"),
                 "h_ladder": _Key(_floats, (1.0, 0.5, 0.25, 0.125),
                                  "comma-separated dilation ladder"),
                 "quadrature_steps": _Key(int, 64, "time quadrature steps"),
                 **_field_keys("psi", "fixed profile")}},
        _run_negative_limit, "psi"),
    "qa": _Scenario(
        "Bernstein moments M_k = sup_r r^k e^{-F(r)}: the sequence, its "
        "ratios, and the divergence partial sums",
        {"symbol": _SYMBOL_KEYS,
         "run": {"k_max": _Key(_at_least(int, 1),
                               help="largest moment order"),
                 "scale": _Key(_float, 1.0, "time scale inside the exponent")}},
        _run_qa),
    "thick-check": _Scenario(
        "measured thickness of a support over side-L windows vs the "
        "certificate it was built with",
        {"grid": _GRID_KEYS, "mask": _MASK_KEYS,
         "run": {"L": _Key(_float, help="window side length"),
                 "stride": _Key(int, 1, "window anchor stride, in cells")}},
        _run_thick_check),
    "cubes": _Scenario(
        "good/bad cube labels for the smoothed field e^{-TG} g: per-cube "
        "derivative mass against local mass, with the eps ||g||^2 budget",
        {"grid": _GRID_KEYS, "symbol": _SYMBOL_KEYS,
         "run": {"T": _Key(_float, help="smoothing time"),
                 "epsilon": _Key(_float, help="mass budget fraction, in (0,1)"),
                 "L": _Key(_at_least(_float, 0, strict=True), help="cube side length"),
                 "beta_max": _Key(int, 3, "largest tested derivative order"),
                 **_field_keys("g", "field to classify")}},
        _run_cubes, "g"),
    "synthesize": _Scenario(
        "piecewise-constant control h on omega steering ||f(T)|| below "
        "eps ||f0||, with its L^2(omega x [0,T]) cost",
        {"grid": _GRID_KEYS, "symbol": _SYMBOL_KEYS, "mask": _MASK_KEYS,
         "run": {"T": _Key(_float, help="steering horizon"),
                 "epsilon": _Key(_float, help="target norm ratio, in (0,1)"),
                 "slices": _Key(int, 32, "time slices"),
                 "tol": _Key(_float, 1e-9, "dual conjugate-gradient tolerance"),
                 "max_cg": _Key(int, 2000, "dual conjugate-gradient iteration cap"),
                 "penalty0": _Key(_float, 1.0, "initial penalty weight, > 0"),
                 "max_penalty_steps": _Key(int, 12, "penalty ladder length"),
                 **_field_keys("f0", "initial data")}},
        _run_synthesize, "f0"),
    "kovrijkine": _Scenario(
        "growth of the band-restriction constant over an R ladder, fitted "
        "against the thick-set reference slope",
        {"grid": _GRID_KEYS, "mask": _MASK_KEYS,
         "run": {"R_ladder": _Key(_floats, (2.0, 4.0, 8.0, 16.0),
                                  "comma-separated radii"),
                 "C_n": _Key(_float, 10.0, "reference-slope constant"),
                 **_IGNORED_KEYS["kovrijkine"]}},
        _run_kovrijkine),
}


def _resolve(scenario: str, raw: dict) -> dict:
    """Validate every provided key against the scenario's table and fill
    defaults. raw maps section -> {key: string}; returns typed sections."""
    spec = _SCENARIOS[scenario]
    for section in raw:
        if section not in spec.sections:
            raise ValidationError(
                f"section '[{section}]' does not apply to scenario "
                f"'{scenario}'")
    resolved = {}
    for section, keys in spec.sections.items():
        got = raw.get(section, {})
        for key in got:
            if key not in keys:
                raise ValidationError(
                    f"unknown key '{section}.{key}' for scenario '{scenario}'")
        out = {}
        for key, ks in keys.items():
            if key in got:
                try:
                    out[key] = ks.convert(got[key])
                except (ValueError, OverflowError) as exc:
                    raise ValidationError(
                        f"key '{section}.{key}': {exc} (got {got[key]!r})")
            elif ks.required:
                raise ValidationError(
                    f"scenario '{scenario}' needs key '{section}.{key}'"
                    f" ({ks.help})")
            else:
                out[key] = ks.default
        resolved[section] = out
    return resolved


def _read_config(path: Path) -> tuple:
    """The INI file's sections (UTF-8, BOM allowed, universal newlines) and its bytes' sha256."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        data = path.read_bytes()
        text = data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ValidationError(f"malformed config {path}: {exc}")
    raw = {section: dict(parser.items(section)) for section in parser.sections()}
    return raw, hashlib.sha256(data).hexdigest()


def _apply_overrides(raw: dict, sets: list) -> None:
    for item in sets:
        dotted, eq, value = item.partition("=")
        section, dot, key = dotted.partition(".")
        if not (eq and dot):
            raise ValidationError(
                f"override {item!r} is not of the form section.key=value")
        raw.setdefault(section.strip(), {})[key.strip()] = value.strip()


def _print_catalog(as_json: bool) -> None:
    catalog = []
    for name in sorted(_SCENARIOS):
        sc = _SCENARIOS[name]
        keys = [(f"{section}.{key}", ks) for section, table in sc.sections.items()
                for key, ks in table.items()]
        catalog.append({"name": name, "summary": sc.blurb,
                        "required": [k for k, ks in keys if ks.required],
                        "optional": {k: ks.default for k, ks in keys if not ks.required}})
    if as_json:
        print(json.dumps({"scenarios": catalog}, indent=2, sort_keys=True))
        return
    for entry in catalog:
        required = ", ".join(entry["required"]) or "(none)"
        print(f"{entry['name']}\n    {entry['summary']}\n    required: {required}")


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {path}: {exc}")


def _run(scenario: str, config_path: Path, out_dir: Path, sets: list) -> int:
    raw, config_sha = _read_config(config_path)
    _apply_overrides(raw, sets)
    resolved = _resolve(scenario, raw)
    _make_dir(out_dir)
    spec = _SCENARIOS[scenario]
    inputs = _build_inputs(spec, resolved)
    derived, outputs = spec.run(resolved, inputs, out_dir)
    if inputs.mask is not None:
        derived["mask_hash"] = mask_hash(inputs.mask)
    manifest = {
        "scenario": scenario,
        "config": resolved,
        "inputs": {"config_path": str(config_path), "config_sha256": config_sha},
        "derived": derived,
        "outputs": outputs,  # sorted by the writer's sort_keys
    }
    _write_json(out_dir / "manifest.json", manifest)
    return 0


# one per process: parse_args keeps no state; append copies its default list
_PARSER = argparse.ArgumentParser(prog="thickstab", description=(
    "spectral experiments around observability and feedback stabilization from thick supports"))
_PARSER.add_argument("scenario", help="a scenario name, or 'list' for the catalog")
_PARSER.add_argument("--config", help="INI config path")
_PARSER.add_argument("--out", help="output directory")
_PARSER.add_argument("--set", action="append", default=[], dest="sets", metavar="SECTION.KEY=VALUE",
                     help="override one config key (repeatable)")
_PARSER.add_argument("--json", action="store_true", help="with 'list': machine-readable catalog")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    if args.scenario == "list":
        _print_catalog(args.json)
        return 0
    try:
        if args.scenario not in _SCENARIOS:
            known = ", ".join(sorted(_SCENARIOS))
            raise ValidationError(
                f"unknown scenario '{args.scenario}' (known: {known}, list)")
        if not args.config or not args.out:
            raise ValidationError(
                "running a scenario needs both --config and --out")
        return _run(args.scenario, Path(args.config), Path(args.out),
                    args.sets)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
