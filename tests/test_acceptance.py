"""End-to-end acceptance scoreboard.

Seventeen checks, one per shipped guarantee, each printing a single
PASS/FAIL line (visible with -s; the -v test listing carries the same
verdicts). Every expected number comes from a closed form or from an
independent route computed inside the test, never from the code under test.

One check is a known honest failure: the ratio-series offset for the
half-heat moment sequence sits near 2.70, outside the advertised [0, 2]
window, for every K in the schedule. The assertion is kept at the advertised
window so the discrepancy stays on the record.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from thickstab.cli import main
from thickstab.grid import (GaussianProbe, apply_semigroup, field_from_values,
                            from_coefficients, make_grid, norm,
                            probe_admissible, project_ball, sample_probe,
                            to_coefficients)
from thickstab.observe import (classify_cubes, estimate_observability_constant,
                               kovrijkine_empirical, make_probe_set,
                               necessity_probe_scan, negative_limit_experiment,
                               shift_observability_identity_check,
                               synthesize_control)
from thickstab.qa import (build_sequence, dc_partial_sum, log_convexity_report,
                          log_moment, ratio_lower_bound_check,
                          scaling_inequality_check, tk_bound_check)
from thickstab.stabilize import (FeedbackConfig, calibrate_constant,
                                 design_feedback, duhamel_residual,
                                 estimate_spectral_constant, run_stabilization,
                                 step_closed_loop)
from thickstab.symbols import (constant, fractional, halfheat, iterated,
                               loglog, saturating, shifted)
from thickstab.thick import make_full, make_periodic_thick


def _verdict(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_heat_semigroup_closed_form():
    # F(r) = r^2 evolves a Gaussian to a wider Gaussian: width^2 -> width^2+2t
    g = make_grid(1, 40.0, 256)
    f0 = sample_probe(g, GaussianProbe(width=1.0, center=20.0, frequency=0.0))
    got = apply_semigroup(f0, fractional(1.0), 0.5)
    spread = math.sqrt(1.0 + 2.0 * 0.5)
    exact = sample_probe(g, GaussianProbe(width=spread, center=20.0,
                                          frequency=0.0))
    num = float(np.sum(np.abs(got.values - exact.values) ** 2))
    den = float(np.sum(np.abs(exact.values) ** 2))
    rel = math.sqrt(num / den)
    _verdict(1, rel <= 1e-8, f"heat evolution rel L2 error {rel:.3e}")


def test_criterion_02_probe_closed_forms():
    # 10 seeded admissible probes in each dimension, kept a few e-foldings
    # inside the admissibility margin so quadrature error stays spectral
    rng = np.random.default_rng(7)
    worst = 0.0

    g1 = make_grid(1, 16.0, 512)
    for _ in range(10):
        p = GaussianProbe(width=rng.uniform(0.1, 1.2),
                          center=rng.uniform(4.0, 12.0),
                          frequency=rng.uniform(-30.0, 30.0))
        assert probe_admissible(g1, p)
        f = sample_probe(g1, p)
        worst = max(worst, abs(norm(f) ** 2 - p.norm_squared())
                    / p.norm_squared())
        coef = to_coefficients(f).ravel()
        want = p.transform(g1.axis_xi)
        worst = max(worst, float(np.max(np.abs(np.abs(coef) - np.abs(want))))
                    / (2.0 * math.pi) ** 0.5)

    g2 = make_grid(2, 16.0, 128)
    xx, yy = np.meshgrid(g2.axis_xi, g2.axis_xi, indexing="ij")
    for _ in range(10):
        p = GaussianProbe(width=rng.uniform(0.45, 1.2),
                          center=tuple(rng.uniform(5.0, 11.0, size=2)),
                          frequency=tuple(rng.uniform(-7.0, 7.0, size=2)))
        assert probe_admissible(g2, p)
        f = sample_probe(g2, p)
        worst = max(worst, abs(norm(f) ** 2 - p.norm_squared())
                    / p.norm_squared())
        dev = np.max(np.abs(np.abs(to_coefficients(f)) - np.abs(p.transform(xx, yy))))
        worst = max(worst, float(dev) / (2.0 * math.pi))
    _verdict(2, worst <= 1e-6, f"20 probes, worst closed-form deviation {worst:.3e}")


def test_criterion_03_moment_closed_forms():
    # sup r^k e^{-r} = (k/e)^k and sup r^2 e^{-r^2} = 1/e
    seq = build_sequence(halfheat(), 100)
    devs = [abs(seq.log_moments[k] - (k * math.log(k) - k))
            for k in range(1, 101)]
    lm2 = log_moment(fractional(1.0), 2)[0]
    ok = max(devs) <= 1e-8 and abs(lm2 + 1.0) <= 1e-8
    _verdict(3, ok, f"worst |log M_k - (k ln k - k)| {max(devs):.3e}, "
             f"log M_2 {lm2:+.12f}")


def test_criterion_04_ratio_sum_window():
    """Known honest failure: the offset concentrates near 2.70, not in [0, 2]."""
    seq = build_sequence(halfheat(), 10000)
    # independent oracle: sum the closed-form ratios e^(log M_k - log M_{k+1})
    ks = np.arange(0.0, 10001.0)
    log_m = np.where(ks > 0, ks * np.log(np.maximum(ks, 1.0)) - ks, 0.0)
    offsets = {}
    for K in (10, 100, 1000, 10000):
        s = dc_partial_sum(seq, K)
        closed = float(np.sum(np.exp(log_m[:K] - log_m[1:K + 1])))
        assert abs(s - closed) <= 1e-8 * closed
        offsets[K] = s - math.log(K)
    ok = all(0.0 <= off <= 2.0 for off in offsets.values())
    _verdict(4, ok, "S_K - ln K offsets " +
             ", ".join(f"K={K}: {off:.6f}" for K, off in offsets.items()))


def test_criterion_05_log_convexity_families():
    worst = -math.inf
    for F in (fractional(0.5), fractional(1.0), fractional(2.0), halfheat(),
              loglog(1.0, 0.5), iterated(1), iterated(2), iterated(3),
              shifted(halfheat(), 1.0)):
        rep = log_convexity_report(build_sequence(F, 200))
        worst = max(worst, rep.worst_violation)
        if not rep.holds:
            _verdict(5, False, f"{F.describe()} violates at k={rep.worst_k}")
    _verdict(5, worst <= 1e-9, f"9 families, worst convexity violation {worst:.3e}")


def test_criterion_06_depth_bounds():
    ok = True
    for p in (1, 2):
        for k in (1_000, 10_000, 100_000):
            ok &= tk_bound_check(p, k)[2]
            ok &= ratio_lower_bound_check(p, k)
    _verdict(6, ok, "t_k and ratio lower bounds, p in {1,2}, k up to 1e5")


def test_criterion_07_scaling_inequality():
    ok = True
    for F in (halfheat(), loglog(1.0, 0.5)):
        for T, p in ((0.5, 2.0), (2.0, 1.0)):
            for k in (1, 5, 10, 25):
                ok &= scaling_inequality_check(F, T, p, k)[2]
    _verdict(7, ok, "rescaled-moment inequality over 16 cases")


@pytest.mark.slow
def test_criterion_08_stabilization_certificate():
    # the long run: ~1.2M steps at dt = 0.1/lam, about a minute
    g = make_grid(1, 16.0, 1024)
    mask = make_periodic_thick(g, 1.0, 0.5)
    F = halfheat()
    c_emp = estimate_spectral_constant(mask, 8.0, seed=0)
    assert abs(c_emp - 4.4873735863291) < 1e-9
    C = calibrate_constant(c_emp, 8.0)
    assert C == 1.0
    cfg = design_feedback(F, 8.0, C)
    coef = np.zeros(g.shape, dtype=complex)
    coef[0] = g.box_measure
    f0 = from_coefficients(g, coef)

    res = run_stabilization(f0, F, mask, cfg, 5.0, check_monotone=True)
    traj = res.trajectory
    V = traj.lyapunov
    steps = len(traj.times) - 1
    assert steps > 1_000_000 and res.dt <= cfg.dt_max * (1.0 + 1e-12)

    floor = np.maximum(V[:-1], 1e-300)
    a_ok = bool(np.all(V[1:] <= V[:-1] + 1e-8 * floor))
    worst_step = float(np.max(V[1:] / floor))
    contract = math.exp(-cfg.alpha_tilde * res.dt) * (1.0 + 1e-6)
    b_ok = worst_step <= contract
    env = cfg.mu * np.exp(-cfg.alpha_tilde * traj.times) * traj.norms[0] ** 2
    c_ok = bool(np.all(traj.norms ** 2 <= env * (1.0 + 1e-9)))
    d_ok = res.fitted_rate >= 0.45 * cfg.alpha_tilde

    free = run_stabilization(f0, F, mask, None, 5.0)
    stationary = abs(free.fitted_rate) <= 1e-6

    _verdict(8, a_ok and b_ok and c_ok and d_ok and stationary,
             f"{steps} steps: V monotone {a_ok}, per-step ratio "
             f"{worst_step:.9f} <= {contract:.9f}, envelope {c_ok}, "
             f"fitted {res.fitted_rate:.3f} >= {0.45 * cfg.alpha_tilde}, "
             f"uncontrolled rate {free.fitted_rate:.2e}")


def test_criterion_09_duhamel_residual():
    g = make_grid(1, 16.0, 128)
    F = halfheat()
    mask = make_periodic_thick(g, 1.0, 0.5)
    rng = np.random.default_rng(5)
    f0 = field_from_values(g, rng.standard_normal(g.shape)
                           + 1j * rng.standard_normal(g.shape))
    cfg = design_feedback(F, 1.0, C=1.0)
    res = run_stabilization(f0, F, mask, cfg, 0.5, dt=1e-3, snapshot_every=1)
    generic = duhamel_residual(res, F, mask)
    free = run_stabilization(f0, F, mask, None, 0.5, dt=1e-3, snapshot_every=1)
    linear = duhamel_residual(free, F, mask)
    _verdict(9, generic <= 1e-4 and linear <= 1e-12,
             f"closed-loop residual {generic:.3e}, semigroup-only {linear:.3e}")


def dense_spectral_constant(mask, R):
    """Independent route: full Gram matrix of band exponentials, eigensolve."""
    g = mask.grid
    idx = np.flatnonzero(g.rho.ravel() <= R)
    xi, x = g.axis_xi, g.axis_x
    frac = mask.cell_fraction.ravel()
    n = len(idx)
    M = np.empty((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            ph = np.exp(1j * (xi[idx[a]] - xi[idx[b]]) * x)
            M[a, b] = np.sum(frac * ph) / g.points
    ev = np.linalg.eigvalsh(M)
    return 1.0 / math.sqrt(ev[0]), n


def test_criterion_10_spectral_constant_oracle():
    g = make_grid(1, 16.0, 1024)
    mask = make_periodic_thick(g, 1.0, 0.5)
    dense, n = dense_spectral_constant(mask, 8.0)
    assert n <= 41
    est = estimate_spectral_constant(mask, 8.0, seed=0)
    rel = abs(est - dense) / dense
    box = estimate_spectral_constant(make_full(g), 8.0, seed=0)
    _verdict(10, rel <= 1e-8 and abs(box - 1.0) <= 1e-10,
             f"{n}-mode band: dense eigensolve vs entrywise oracle {rel:.3e}, "
             f"full box {box!r}")


def test_criterion_11_growth_ladder():
    g = make_grid(1, 16.0, 256)
    mask = make_periodic_thick(g, 1.0, 0.5)
    fit = kovrijkine_empirical(mask, (2.0, 4.0, 8.0, 16.0), seed=0)
    want = (1.414213562373095, 2.3594122665930577,
            4.615786171223051, 71.62355165761892)
    for got, ref in zip(fit.constants, want):
        assert abs(got - ref) < 1e-9 * ref
    logc = np.log(np.array(fit.constants))
    R = np.array([2.0, 4.0, 8.0, 16.0])
    slope, intercept = np.polyfit(R, logc, 1)
    resid = float(np.max(np.abs(logc - (slope * R + intercept))))
    frac = resid / (logc[-1] - logc[0])
    ok = bool(np.all(np.diff(logc) >= 0.0)) and frac <= 0.20
    _verdict(11, ok, f"log C_emp non-decreasing, fit residual {frac:.1%} of range")


def test_criterion_12_necessity_scan():
    g = make_grid(1, 16.0, 1024)
    mask = make_periodic_thick(g, 16.0, 0.5)  # support [0, 8) only
    centers = np.linspace(6.0, 12.0, 9)
    scan = necessity_probe_scan(halfheat(), mask, 0.5, 0.25, 1.0, centers, 0.7)
    req = np.array(scan.required)
    ratio = req[-1] / req[0]
    ok = bool(np.all(np.diff(req) > 0)) and ratio >= 10.0
    _verdict(12, ok, f"required_C strictly increasing, final/initial {ratio:.1f}")


def test_criterion_13_negative_limit():
    g = make_grid(1, 32.0, 512)
    psi = field_from_values(g, np.exp(-0.5 * (g.axis_x - 16.0) ** 2))
    curve = negative_limit_experiment(saturating(1.0), psi, 0.9, 1.0,
                                      (1.0, 0.5, 0.25, 0.125))
    cs = np.array(curve.constants)
    ratio = cs[-1] / cs[0]
    ok = bool(np.all(np.diff(cs) > 0)) and ratio >= 5.0
    _verdict(13, ok, f"constants strictly increasing, final/initial {ratio:.1f}")


def test_criterion_14_shift_identities():
    g = make_grid(1, 16.0, 256)
    mask = make_periodic_thick(g, 1.0, 0.5)
    probes = make_probe_set(g, 8, seed=5)
    report = estimate_observability_constant(halfheat(), mask, 0.5, 0.25,
                                             probes)
    obs_ok = all(shift_observability_identity_check(report, mu)
                 for mu in (-1.0, 0.0, 1.0))

    gs = make_grid(1, 16.0, 128)
    ms = make_periodic_thick(gs, 1.0, 0.5)
    F = halfheat()
    cfg = design_feedback(F, 2.0, C=1.0)
    rng = np.random.default_rng(4)
    f = field_from_values(gs, rng.standard_normal(gs.shape)
                          + 1j * rng.standard_normal(gs.shape))
    dt = 1e-3
    base = step_closed_loop(f, F, ms, cfg, dt).values
    scale = np.max(np.abs(base))
    worst = 0.0
    for mu in (-1.0, 0.0, 1.0):
        moved = step_closed_loop(f, shifted(F, mu), ms, cfg, dt).values
        worst = max(worst, float(np.max(np.abs(moved - math.exp(mu * dt) * base))
                                 / scale))
    _verdict(14, obs_ok and worst <= 1e-10,
             f"observability identities {obs_ok}, stepper covariance {worst:.3e}")


def test_criterion_15_control_synthesis():
    g = make_grid(1, 16.0, 128)
    x = g.axis_x
    mask = make_periodic_thick(g, 1.0, 0.5)
    f0 = field_from_values(g, np.exp(-0.5 * ((x - 5.0) / 1.2) ** 2)
                           + 0.3 * np.cos(2 * np.pi * 5 * x / 16.0))
    res = synthesize_control(f0, fractional(1.0), mask, 1.0, 0.1, slices=32)
    achieved = res.ratio <= 0.1 * (1.0 + 1e-9)
    assert abs(norm(res.final_field) / norm(f0) - res.ratio) < 1e-12

    # full box, F = 0: every mode shrinks uniformly and the optimal cost for
    # reaching ratio r in time T is (1 - r)^2 ||f0||^2 / T
    fb = field_from_values(g, np.exp(2j * np.pi * 3 * x / 16.0) + 0.5)
    flat = synthesize_control(fb, constant(0.0), make_full(g), 1.0, 0.5,
                              slices=8)
    closed = (1.0 - flat.ratio) ** 2 * norm(fb) ** 2 / 1.0
    rel = abs(flat.cost - closed) / closed
    ok = achieved and abs(flat.ratio - 1.0 / 3.0) < 1e-9 and rel <= 1e-6
    _verdict(15, ok, f"thick ratio {res.ratio:.4f} <= 0.1, "
             f"flat-case cost vs closed form {rel:.3e}")


def test_criterion_16_cube_conservation():
    g = make_grid(1, 16.0, 256)
    rng = np.random.default_rng(11)
    worst = 0.0
    saw_bad = False
    for _ in range(5):
        vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        f = project_ball(field_from_values(g, vals), 6.0)
        rep = classify_cubes(f, halfheat(), 1.0, 0.25, 0.5, 6)
        budget = 0.25 * norm(f) ** 2
        worst = max(worst, rep.bad_mass / budget)
        saw_bad |= bool(np.any(~rep.labels))
    _verdict(16, worst <= 1.0 + 1e-12 and saw_bad,
             f"5 band-limited fields, worst bad-mass/budget {worst:.3e}")


OBS_INI = """\
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

STAB_INI = """\
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


def test_criterion_17_determinism(tmp_path):
    def digests(scenario, ini, *csvs):
        out = []
        for tag in ("a", "b"):
            cfg = tmp_path / f"{scenario}.ini"
            cfg.write_text(ini)
            dest = tmp_path / f"{scenario}-{tag}"
            assert main([scenario, "--config", str(cfg),
                         "--out", str(dest)]) == 0
            out.append(tuple(hashlib.sha256((dest / n).read_bytes()).hexdigest()
                             for n in csvs))
        return out

    o1, o2 = digests("observability", OBS_INI, "probes.csv", "report.json")
    s1, s2 = digests("stabilize", STAB_INI, "trajectory.csv")
    _verdict(17, o1 == o2 and s1 == s2,
             "byte-identical CSVs on repeated runs of two scenarios")
