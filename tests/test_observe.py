"""Observability estimation, cube classification, control synthesis, and the
bounded-symbol negative experiment.

Oracles: for the smooth symbol F(r) = r^2 every probe curve is a Gaussian
integral with a closed form (lattice sums are spectrally accurate there,
which keeps the comparison honest at 1e-10), and the time integral is checked
against adaptive quadrature. The control synthesizer is checked against the
per-mode closed-form optimum on the full box, against a duality lower bound
computed from first principles on a thick mask, and by replaying its
controls through exact slice propagators.
"""

import ast
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from thickstab import grid, observe
from thickstab.errors import (ConvergenceError, MomentDivergenceError,
                              ValidationError)
from thickstab.grid import (GaussianProbe, field_from_values, make_grid, norm,
                            project_ball, restricted_norm,
                            semigroup_multiplier, to_coefficients, zero_field)
from thickstab.observe import (_cube_sums, _multi_indices, _restricted_march, classify_cubes,
                               estimate_observability_constant,
                               kovrijkine_empirical, make_probe_set,
                               necessity_probe_scan, negative_limit_experiment,
                               shift_observability_identity_check,
                               synthesize_control, write_cube_csv,
                               write_report_json)
from thickstab.qa import log_moment
from thickstab.stabilize import design_feedback, run_stabilization
from thickstab.symbols import (constant, fractional, halfheat, saturating,
                               shifted)
from thickstab.thick import (SupportMask, make_full, make_periodic_thick,
                             make_random_thick, mask_hash)


def gauss_lhs_1d(l, xi0, T):
    # int e^{-l^2 (xi - xi0)^2 - 2 T xi^2} dxi for F(r) = r^2
    return math.sqrt(math.pi / (l * l + 2 * T)) \
        * math.exp(-2 * T * l * l * xi0 * xi0 / (l * l + 2 * T))


def test_probe_curves_against_closed_forms():
    g = make_grid(1, 16.0, 512)
    p = GaussianProbe(width=0.9, center=(7.0,), frequency=(2.5,))
    T = 0.5
    rep = estimate_observability_constant(fractional(1.0), make_full(g), T,
                                          0.5, [p], quadrature_steps=2048)
    r = rep.probe_results[0]
    want = gauss_lhs_1d(0.9, 2.5, T)
    assert abs(r.lhs - want) < 1e-10 * want
    int_q, _ = quad(lambda t: gauss_lhs_1d(0.9, 2.5, t), 0.0, T, limit=200)
    assert abs(r.obs_integral - int_q) < 2e-6 * int_q
    g_sq = math.sqrt(math.pi) / 0.9
    want_req = (r.lhs - 0.5 * g_sq) / r.obs_integral
    if want_req < 0:
        want_req = 0.0
    assert abs(r.required_C - want_req) < 1e-12 * max(want_req, 1.0)

    g2 = make_grid(2, 16.0, 128)
    p2 = GaussianProbe(width=0.9, center=(7.0, 9.0), frequency=(1.5, -2.0))
    rep2 = estimate_observability_constant(fractional(1.0), make_full(g2), T,
                                           0.5, [p2], quadrature_steps=256)
    want2 = gauss_lhs_1d(0.9, 1.5, T) * gauss_lhs_1d(0.9, -2.0, T)
    assert abs(rep2.probe_results[0].lhs - want2) < 1e-10 * want2


def test_flat_symbol_full_box_constant():
    # F == 0 makes every probe curve constant: required = (1 - eps)/T exactly
    g = make_grid(1, 16.0, 256)
    probes = make_probe_set(g, 4, seed=1)
    rep = estimate_observability_constant(constant(0.0), make_full(g), 0.5,
                                          0.25, probes)
    want = (1.0 - 0.25) / 0.5
    assert abs(rep.C_est - want) < 1e-12
    for r in rep.probe_results:
        assert abs(r.required_C - want) < 1e-12
    # a support with no measure observes nothing: no finite constant works
    empty = SupportMask(grid=g, cell_fraction=np.zeros(g.shape))
    rep = estimate_observability_constant(constant(0.0), empty, 0.5, 0.25, probes)
    assert rep.C_est == math.inf


def test_estimate_validation():
    g = make_grid(1, 16.0, 256)
    mask = make_full(g)
    p = GaussianProbe(width=1.0, center=(8.0,), frequency=(0.0,))
    for eps in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ValidationError):
            estimate_observability_constant(halfheat(), mask, 0.5, eps, [p])
    with pytest.raises(ValidationError):
        estimate_observability_constant(halfheat(), mask, 0.0, 0.5, [p])
    with pytest.raises(ValidationError):
        estimate_observability_constant(halfheat(), mask, 0.5, 0.5, [p],
                                        quadrature_steps=16)
    with pytest.raises(ValidationError):
        estimate_observability_constant(halfheat(), mask, 0.5, 0.5, [])
    wide = GaussianProbe(width=3.0, center=(8.0,), frequency=(0.0,))
    with pytest.raises(ValidationError, match="not admissible"):
        estimate_observability_constant(halfheat(), mask, 0.5, 0.5, [wide])


def test_probe_set_anchor_and_determinism():
    from thickstab.grid import probe_admissible
    g = make_grid(1, 16.0, 256)
    probes = make_probe_set(g, 8, seed=5)
    assert probes[0].width == 1.3
    assert probes[0].center == (8.0,)
    assert probes[0].frequency == (0.0,)
    assert all(probe_admissible(g, p) for p in probes)
    again = make_probe_set(g, 8, seed=5)
    assert probes == again
    other = make_probe_set(g, 8, seed=6)
    assert probes != other
    g2 = make_grid(2, 16.0, 64)
    for p in make_probe_set(g2, 6, seed=3):
        assert probe_admissible(g2, p)
    for bad in (0, -1, 2.5):
        with pytest.raises(ValidationError, match="count must be a positive integer"):
            make_probe_set(g, bad, seed=1)
    # widths run from 0.5 up to extent / 12, empty on a box of side 2
    with pytest.raises(ValidationError, match="admissible width"):
        make_probe_set(make_grid(1, 2.0, 8), 4, seed=1)
    for xi_fraction in (-1.0, 5.0, float("nan")):
        with pytest.raises(ValidationError, match="xi_fraction"):
            make_probe_set(g, 4, seed=1, xi_fraction=xi_fraction)
    assert all(probe_admissible(g, p)
               for p in make_probe_set(g, 8, seed=1, xi_fraction=1.0))


@pytest.mark.parametrize("seed", [None, -1, 1.5])
def test_probe_set_needs_a_seed(seed):
    # None would draw fresh OS entropy; -1 and 1.5 reached numpy's own errors
    with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
        make_probe_set(make_grid(1, 16.0, 256), 4, seed)


def _quadrature_call(entry, steps):
    g, big = make_grid(1, 16.0, 256), make_grid(1, 32.0, 512)
    if entry == "observability":
        return estimate_observability_constant(halfheat(), make_periodic_thick(g, 1.0, 0.5), 0.5,
                                               0.25, make_probe_set(g, 3, seed=5), steps)
    if entry == "necessity":
        return necessity_probe_scan(halfheat(), make_periodic_thick(g, 16.0, 0.5), 0.5, 0.25,
                                    1.0, [7.0], 0.7, steps)
    psi = field_from_values(big, np.exp(-0.5 * (big.axis_x - 16.0) ** 2))
    return negative_limit_experiment(saturating(1.0), psi, 0.9, 1.0, (1.0,), steps)


@pytest.mark.parametrize("entry, steps", [
    ("observability", 40.5), ("necessity", 40.5), ("negative_limit", 2.5)])
def test_quadrature_steps_must_be_an_integer(entry, steps):
    # a float count reached range() in the time march as a bare TypeError
    with pytest.raises(ValidationError, match=f"quadrature_steps must be an integer, got {steps}"):
        _quadrature_call(entry, steps)


def test_quadrature_doubling_stability():
    # halving the time step moves the certified constant by < 1e-6 relative
    g = make_grid(1, 16.0, 256)
    mask = make_periodic_thick(g, 1.0, 0.5)
    probes = make_probe_set(g, 8, seed=5, xi_fraction=0.05)
    a = estimate_observability_constant(halfheat(), mask, 0.5, 0.25, probes,
                                        quadrature_steps=1024)
    b = estimate_observability_constant(halfheat(), mask, 0.5, 0.25, probes,
                                        quadrature_steps=2048)
    assert abs(a.C_est - b.C_est) < 1e-6 * b.C_est
    assert abs(a.C_est - 2.1572709355307715) < 1e-6


def test_mask_dominance_monotonicity():
    # shrinking the support pointwise can only raise the required constant
    g = make_grid(1, 16.0, 256)
    big = make_periodic_thick(g, 1.0, 0.5)
    small = make_periodic_thick(g, 1.0, 0.25)
    assert bool(np.all(small.cell_fraction <= big.cell_fraction))
    probes = make_probe_set(g, 6, seed=2)
    c_small = estimate_observability_constant(halfheat(), small, 0.5, 0.25,
                                              probes).C_est
    c_big = estimate_observability_constant(halfheat(), big, 0.5, 0.25,
                                            probes).C_est
    assert c_small >= c_big > 0


def test_shift_identity():
    g = make_grid(1, 16.0, 256)
    mask = make_periodic_thick(g, 1.0, 0.5)
    probes = make_probe_set(g, 3, seed=5)
    rep = estimate_observability_constant(halfheat(), mask, 0.5, 0.25, probes)
    for mu in (-1.0, 0.0, 1.0):
        assert shift_observability_identity_check(rep, mu)


def test_report_json(tmp_path):
    g = make_grid(1, 16.0, 256)
    mask = make_periodic_thick(g, 1.0, 0.5)
    probes = make_probe_set(g, 3, seed=5)
    rep = estimate_observability_constant(halfheat(), mask, 0.5, 0.25, probes)
    path = tmp_path / "report.json"
    write_report_json(rep, path)
    payload = json.loads(path.read_text())
    assert payload["symbol"] == "halfheat"
    assert payload["mask_hash"] == mask_hash(mask)
    assert payload["C_est"] == rep.C_est
    assert len(payload["probes"]) == 3
    assert payload["probes"][0]["width"] == 1.3
    assert payload["probes"][2]["required_C"] == rep.probe_results[2].required_C


def test_necessity_scan_into_the_void():
    # support on [0, 8) only; probes marching toward 12 see their mass decay
    # exponentially faster than any fixed constant allows
    g = make_grid(1, 16.0, 1024)
    mask = make_periodic_thick(g, 16.0, 0.5)
    centers = np.linspace(6.0, 12.0, 9)
    scan = necessity_probe_scan(halfheat(), mask, 0.5, 0.25, 1.0, centers, 0.7)
    req = np.array(scan.required)
    assert bool(np.all(np.diff(req) > 0))
    assert req[-1] / req[0] >= 10.0
    assert scan.xi0 == (0.0,)
    assert scan.witness_index == 3
    assert scan.witness == centers[3]
    assert scan.required[scan.witness_index] > 1.0
    assert all(r <= 1.0 for r in scan.required[:scan.witness_index])


def test_necessity_scan_validation():
    g = make_grid(1, 16.0, 256)
    mask = make_periodic_thick(g, 16.0, 0.5)
    with pytest.raises(ValidationError):
        necessity_probe_scan(halfheat(), mask, 0.5, 0.25, 0.0, [7.0], 0.7)
    with pytest.raises(ValidationError, match="width"):
        necessity_probe_scan(halfheat(), mask, 0.5, 0.25, 1.0, [7.0], 3.0)
    # a symbol pinned above -log(eps)/(2T) leaves no eligible modulation
    with pytest.raises(ValidationError, match="modulation"):
        necessity_probe_scan(constant(5.0), mask, 0.5, 0.25, 1.0, [7.0], 0.7)
    with pytest.raises(ValidationError, match="empty"):
        necessity_probe_scan(halfheat(), mask, 0.5, 0.25, 1.0, [], 0.7)
    with pytest.raises(ValidationError, match="quadrature step"):
        necessity_probe_scan(halfheat(), mask, 0.5, 0.25, 1.0, [7.0], 0.7, 0)
    for T in (0.0, -0.5, float("nan")):
        with pytest.raises(ValidationError, match="T must be positive"):
            necessity_probe_scan(halfheat(), mask, T, 0.25, 1.0, [7.0], 0.7)


@pytest.mark.parametrize("dim, points", [(1, 256), (2, 64)])
def test_batched_probes_match_one_probe_reports(dim, points):
    # marching the probes together changes no bit of any probe's result
    g = make_grid(dim, 16.0, points)
    mask = make_random_thick(g, 2.0, 0.3, 7)
    F = shifted(halfheat(), -0.4)
    probes = make_probe_set(g, 5, 3)
    batch = estimate_observability_constant(F, mask, 0.5, 0.25, probes)
    for i, p in enumerate(probes):
        one = estimate_observability_constant(F, mask, 0.5, 0.25, [p])
        assert batch.probe_results[i] == replace(one.probe_results[0], index=i)
        assert batch.integrands[i] == one.integrands[0]
        assert batch.times == one.times
    assert batch.C_est == max(r.required_C for r in batch.probe_results)


@pytest.mark.parametrize("dim, points", [(1, 256), (2, 64)])
def test_necessity_scan_reads_the_estimate(dim, points):
    g = make_grid(dim, 16.0, points)
    mask = make_periodic_thick(g, 16.0, 0.5)
    centers = [(c,) * dim for c in np.linspace(6.0, 12.0, 5)]
    scan = necessity_probe_scan(halfheat(), mask, 0.5, 0.25, 1.0, centers,
                                0.7, 48)
    probes = [GaussianProbe(width=0.7, center=c, frequency=scan.xi0)
              for c in centers]
    report = estimate_observability_constant(halfheat(), mask, 0.5, 0.25,
                                             probes, 48)
    assert scan.required == tuple(r.required_C for r in report.probe_results)


@pytest.mark.parametrize("dim, points", [(1, 256), (2, 16), (2, 64)])
def test_restricted_march_memory_stays_within_a_chunk(dim, points):
    # beyond its output, a long march holds its chunk of states, transformed
    # in place, and the squares: at most three times the larger of 2^13
    # complex entries and one state (about two, in 1-D and 2-D alike)
    g = make_grid(dim, 16.0, points)
    rng = np.random.default_rng(points)
    shape = (8,) + g.shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    e_step = semigroup_multiplier(g, halfheat(), 1e-3)
    frac = rng.uniform(0.0, 1.0, g.shape)
    _restricted_march(g, c.copy(), e_step, frac, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        integrand = _restricted_march(g, c, e_step, frac, 2000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert integrand.shape == (8, 2001)
    assert peak - integrand.nbytes <= 3 * 16 * max(2 ** 13, c.size)


def test_kovrijkine_growth():
    g = make_grid(1, 16.0, 256)
    mask = make_periodic_thick(g, 1.0, 0.5)
    fit = kovrijkine_empirical(mask, (2.0, 4.0, 8.0), C_n=10.0)
    assert abs(fit.constants[0] - math.sqrt(2.0)) < 1e-9
    assert abs(fit.constants[2] - 4.6157861712230925) < 1e-8
    logs = np.log(fit.constants)
    assert bool(np.all(np.diff(logs) >= 0))
    assert fit.slope > 0
    assert abs(fit.reference_slope - 10.0 * 1.0 * math.log(20.0)) < 1e-12

    bare = SupportMask(grid=g, cell_fraction=mask.cell_fraction, certificate=None)
    with pytest.raises(ValidationError, match="certificate"):
        kovrijkine_empirical(bare, (2.0, 4.0))
    with pytest.raises(ValidationError):
        kovrijkine_empirical(mask, (2.0, 4.0), C_n=1.0)
    with pytest.raises(ValidationError):
        kovrijkine_empirical(mask, (2.0,))


def test_cubes_pure_cosine_all_bad():
    # a real cosine at xi = 2 pi 20 / 16 after T = 2: the L2 mass shrinks by
    # e^{-2 T xi} while second derivatives keep the xi^4 factor, so every
    # cube fails at beta = 2 with the same threshold-normalized ratio
    g = make_grid(1, 16.0, 256)
    xi = 2.0 * np.pi * 20 / 16.0
    f = field_from_values(g, np.cos(xi * g.axis_x))
    rep = classify_cubes(f, halfheat(), 2.0, 0.01, 0.25, 2)
    assert rep.shape == (64,)
    assert int(np.count_nonzero(~rep.labels)) == 64
    assert rep.bad_fraction == 1.0
    m2 = 4.0 * math.exp(-2.0)  # sup r^2 e^{-r} at scale T/2 = 1
    want = xi**4 * 0.01 / (2.0**5 * m2 * m2)
    ratios = rep.worst_ratio.ravel()
    assert abs(float(ratios[0]) - want) < 1e-6 * want
    assert float(ratios.max() - ratios.min()) < 1e-6 * want
    assert set(rep.worst_beta) == {(2,)}
    assert rep.bad_mass <= rep.mass_budget
    assert rep.bad_mass < 1e-12  # the evolved field is uniformly tiny


def test_cubes_mixed_field_partition():
    # adding a faint standing bump near x = 8 rescues the cubes it covers;
    # the frozen good set hugs the bump (the symbol's slow spatial tails
    # spread it over several cube widths)
    g = make_grid(1, 16.0, 256)
    xi = 2.0 * np.pi * 20 / 16.0
    x = g.axis_x
    f = field_from_values(g, np.cos(xi * x)
                          + 3e-6 * np.exp(-0.5 * ((x - 8.0) / 0.6) ** 2))
    rep = classify_cubes(f, halfheat(), 2.0, 0.01, 0.5, 2)
    assert rep.shape == (32,)
    good = np.flatnonzero(rep.labels.ravel()).tolist()
    assert good == [6, 9, 10, 11, 12, 13, 14, 15, 16, 17,
                    18, 19, 20, 21, 22, 25]
    assert rep.bad_mass <= rep.mass_budget
    # labels are exactly the ratio <= 1 cubes
    assert np.array_equal(rep.labels.ravel(), rep.worst_ratio.ravel() <= 1.0)
    assert abs(rep.tested_weight + rep.tail_weight - (2.0 / 3.0)) < 1e-12


def test_cubes_mass_conservation_random_fields():
    # bad cubes can only carry an epsilon share of the initial mass
    g = make_grid(1, 16.0, 256)
    rng = np.random.default_rng(11)
    saw_bad = False
    for _ in range(5):
        vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        f = project_ball(field_from_values(g, vals), 6.0)
        rep = classify_cubes(f, halfheat(), 1.0, 0.25, 0.5, 6)
        assert rep.bad_mass <= rep.mass_budget * (1.0 + 1e-12)
        g_sq = norm(f) ** 2
        assert abs(rep.mass_budget - 0.25 * g_sq) < 1e-9 * g_sq
        saw_bad |= bool(np.any(~rep.labels))
        # cube masses tile the evolved field's total mass
        c_u = to_coefficients(f) * np.exp(-1.0 * g.rho)
        u_sq = float(np.vdot(c_u, c_u).real) / g.box_measure
        assert abs(float(rep.cube_mass.sum()) - u_sq) < 1e-9 * u_sq
    assert saw_bad  # the scenario is not vacuous: some cube does go bad


def _cubes_per_order(g, F, T, epsilon, L, beta_max):
    # the classifier with one inverse FFT and one compare per derivative order,
    # kept as the bitwise reference for the stacked pass
    lattice, n = g.grid, g.grid.dim
    W = round(L * lattice.points / lattice.extent)
    g_rho = np.maximum(F.eval(lattice.rho).ravel() - F.inf_value, 0.0)
    rho = lattice.rho.ravel()
    log_rho = np.log(rho, out=np.full_like(rho, -np.inf), where=rho > 0)
    cu = to_coefficients(g) * np.exp(-T * g_rho).reshape(lattice.shape)

    def cube_sq(c):
        v = np.fft.ifftn(c) / lattice.cell_measure
        return _cube_sums(v.real**2 + v.imag**2, W, n) * lattice.cell_measure

    u_sq = cube_sq(cu)
    log_u = np.log(np.maximum(u_sq, 1e-300))
    xi = np.ix_(*[lattice.axis_xi] * n)
    good = np.ones(u_sq.shape, dtype=bool)
    worst = np.full(u_sq.shape, -np.inf)
    worst_beta = np.zeros(u_sq.shape + (n,), dtype=int)
    for beta in _multi_indices(n, beta_max)[1:]:
        k = sum(beta)
        lm = log_moment(shifted(F, F.inf_value), k, scale=0.5 * T)[0]
        log_m = max(lm + math.log1p(1e-9), float(np.max(k * log_rho - 0.5 * T * g_rho)))
        dc = cu.copy()
        for axis, b in enumerate(beta):
            if b:
                dc *= (1j * xi[axis]) ** b
        thresh = (2 * k + n) * math.log(2.0) - math.log(epsilon) + 2.0 * log_m
        margin = np.log(np.maximum(cube_sq(dc), 1e-300)) - log_u - thresh
        good &= margin <= 0
        better = margin > worst
        worst = np.where(better, margin, worst)
        worst_beta[better] = beta
    return good, np.exp(worst), tuple(map(tuple, worst_beta.reshape(-1, n))), u_sq


@pytest.mark.parametrize("dim, points, L, beta_max, mode, T, bump", [
    (1, 256, 0.5, 1, 40, 2.0, 3e-13), (1, 256, 0.5, 2, 40, 1.0, 3e-6),
    (1, 256, 0.5, 6, 40, 1.0, 3e-6), (2, 64, 1.0, 2, 24, 2.0, 1e-6),
    (2, 64, 1.0, 3, 24, 2.0, 1e-6)])
def test_cubes_stacked_orders_match_per_order_loop(dim, points, L, beta_max, mode, T, bump):
    # every stack size gives the per-order loop's labels, worst ratios, worst
    # orders and cube masses to the bit: one order a stack, two, and all. A
    # fast wave fails its cubes and a faint bump rescues those it covers
    g = make_grid(dim, 16.0, points)
    x = np.meshgrid(*[g.axis_x] * dim, indexing="ij")
    f = field_from_values(g, sum(np.cos(2 * np.pi * mode * y / 16.0) for y in x)
                          + bump * np.exp(-0.5 * sum((y - 8.0) ** 2 for y in x) / 0.36))
    want = _cubes_per_order(f, halfheat(), T, 0.01, L, beta_max)
    assert 0 < np.count_nonzero(want[0]) < want[0].size  # some cubes good, some bad
    orders = len(_multi_indices(dim, beta_max))
    for per_stack in (1, 2, orders):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid, "_FFT_STACK", per_stack * g.points**dim)
            rep = classify_cubes(f, halfheat(), T, 0.01, L, beta_max)
        assert np.array_equal(rep.labels, want[0])
        assert np.array_equal(rep.worst_ratio, want[1])
        assert rep.worst_beta == want[2]
        assert np.array_equal(rep.cube_mass, want[3])


@pytest.mark.parametrize("dim, points", [(1, 256), (2, 64)])
def test_cubes_beta_max_zero_tests_nothing(dim, points):
    # with no derivative order to test every cube is good, its worst ratio is
    # 0 and its worst order beta = 0; the tested weight is beta = 0's alone
    g = make_grid(dim, 16.0, points)
    xi = 2.0 * np.pi * 20 / 16.0
    f = field_from_values(g, np.cos(xi * g.axis_x).reshape((-1,) + (1,) * (dim - 1))
                          * np.ones(g.shape))
    rep = classify_cubes(f, halfheat(), 2.0, 0.01, 0.5, 0)
    assert bool(rep.labels.all()) and rep.bad_mass == 0.0
    assert not np.any(rep.worst_ratio)
    assert rep.worst_beta == ((0,) * dim,) * rep.labels.size
    assert rep.tested_weight == 2.0 ** -dim


def test_cubes_memory_stays_within_a_stack():
    # beyond the report it leaves, a 2-D classification at the highest order
    # holds one stack of orders, the evolved field and the per-order cube
    # sums: at most three times the larger of 2^13 complex entries and one
    # field (the benchmark's tiling, L = 1 on 64^2, has 256 cubes)
    g = make_grid(2, 16.0, 64)
    rng = np.random.default_rng(8)
    f = field_from_values(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    classify_cubes(f, halfheat(), 1.0, 0.25, 1.0, 8)
    tracemalloc.start()
    try:
        rep = classify_cubes(f, halfheat(), 1.0, 0.25, 1.0, 8)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.labels.shape == (16, 16)
    assert peak - kept <= 3 * 16 * max(2 ** 13, g.points ** 2)


def test_observe_imports_no_private_stabilize_name():
    # the stacked FFT helpers live in grid; observe uses stabilize's public API only
    with open(observe.__file__) as fh:
        tree = ast.parse(fh.read())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and node.level == 1 and node.module == "stabilize" for a in node.names]
    assert names and not [n for n in names if n.startswith("_")]


def test_cubes_validation_and_csv(tmp_path):
    g = make_grid(1, 16.0, 256)
    f = field_from_values(g, np.ones(g.shape))
    with pytest.raises(ValidationError, match="whole number"):
        classify_cubes(f, halfheat(), 1.0, 0.25, 0.3, 2)
    for L in (0.0, 1e-300, -0.25, -16.0, float("nan"), float("inf"), 32.0):
        with pytest.raises(ValidationError, match="cube side L"):
            classify_cubes(f, halfheat(), 1.0, 0.25, L, 2)
    with pytest.raises(ValidationError):
        classify_cubes(f, halfheat(), 1.0, 0.25, 0.5, 9)
    with pytest.raises(ValidationError):
        classify_cubes(f, halfheat(), 1.0, 0.25, 0.5, -1)
    with pytest.raises(ValidationError):
        classify_cubes(f, halfheat(), 0.0, 0.25, 0.5, 2)
    with pytest.raises(ValidationError):
        classify_cubes(f, halfheat(), 1.0, 1.5, 0.5, 2)
    # near T = 0 the half-time moments run past the search cap, and the
    # refusal names T; a bounded symbol's moments diverge at every T
    with pytest.raises(ValidationError, match=r"T = 1e-300 is too small .*search cap"):
        classify_cubes(f, halfheat(), 1e-300, 0.01, 0.25, 2)
    with pytest.raises(MomentDivergenceError, match="is bounded"):
        classify_cubes(f, saturating(1.0), 1.0, 0.01, 0.25, 2)
    xi = 2.0 * np.pi * 20 / 16.0
    fm = field_from_values(g, np.cos(xi * g.axis_x)
                           + 3e-6 * np.exp(-0.5 * ((g.axis_x - 8.0) / 0.6) ** 2))
    rep = classify_cubes(fm, halfheat(), 2.0, 0.01, 0.5, 2)
    path = tmp_path / "cubes.csv"
    write_cube_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "cube,label,worst_beta,ratio"
    assert len(lines) == 33
    assert "np.float64" not in path.read_text()
    cells = lines[1 + 9].split(",")  # cube 9 is good in the frozen partition
    assert cells[1] == "good" and float(cells[3]) <= 1.0
    cells = lines[1].split(",")
    assert cells[1] == "bad" and float(cells[3]) > 1.0


def test_synthesize_full_box_closed_form():
    # F == 0, T = 1: per mode the optimal constant control gives
    # f(T) = f0 / (1 + kappa) with kappa = penalty / eps, so the first
    # penalty rung already meets eps = 0.5 with ratio exactly 1/3 and
    # cost (2/3)^2 ||f0||^2
    g = make_grid(1, 16.0, 128)
    f0 = field_from_values(g, np.exp(2j * np.pi * 3 * g.axis_x / 16.0) + 0.5)
    res = synthesize_control(f0, constant(0.0), make_full(g), 1.0, 0.5,
                             slices=8)
    assert abs(res.ratio - 1.0 / 3.0) < 1e-9
    want_cost = (4.0 / 9.0) * norm(f0) ** 2
    assert abs(res.cost - want_cost) < 1e-9 * want_cost
    assert res.penalty == 1.0
    assert res.cg_iterations == 1
    assert res.times == tuple(i / 8 for i in range(9))
    assert abs(norm(res.final_field) / norm(f0) - res.ratio) < 1e-12


def test_synthesize_zero_initial_data():
    g = make_grid(1, 16.0, 128)
    res = synthesize_control(zero_field(g), fractional(1.0),
                             make_periodic_thick(g, 1.0, 0.5), 1.0, 0.5)
    assert res.cost == 0.0 and res.ratio == 0.0 and res.cg_iterations == 0
    assert norm(res.final_field) == 0.0


def test_synthesize_rejects_a_mask_on_another_lattice():
    # the mask of the control must live on f0's grid: extent 32 (the same shape) and N 128
    # are both named, before any solve
    g = make_grid(1, 16.0, 256)
    f0 = field_from_values(g, np.exp(-0.5 * (g.axis_x - 8.0) ** 2))
    for other in (make_grid(1, 32.0, 256), make_grid(1, 16.0, 128)):
        with pytest.raises(ValidationError, match=re.escape(
                f"different lattices in one call: {g} and {other}")):
            synthesize_control(f0, fractional(1.0), make_periodic_thick(other, 1.0, 0.5),
                               1.0, 0.1)


def test_synthesize_thick_mask(monkeypatch):
    g = make_grid(1, 16.0, 128)
    mask = make_periodic_thick(g, 1.0, 0.5)
    F = fractional(1.0)
    x = g.axis_x
    f0 = field_from_values(g, np.exp(-0.5 * ((x - 5.0) / 1.2) ** 2)
                           + 0.3 * np.cos(2 * np.pi * 5 * x / 16.0))
    res = synthesize_control(f0, F, mask, 1.0, 0.1, slices=32)
    assert res.ratio <= 0.1 * (1.0 + 1e-9)
    assert abs(res.ratio - 0.021250203214616823) < 1e-6
    assert abs(res.cost - 3.0808118018205417) < 1e-5
    assert res.penalty == 10.0
    assert 1 <= res.cg_iterations <= 24  # Jacobi-preconditioned; 32 without
    # controls live on the support only
    off = mask.cell_fraction == 0.0
    for h in res.controls:
        assert np.max(np.abs(h[off])) == 0.0
    assert abs(norm(res.final_field) / norm(f0) - res.ratio) < 1e-12
    # stacks of three slices, the last one short, give the same solve
    monkeypatch.setattr(grid, "_FFT_STACK", 3 * g.points)
    again = synthesize_control(f0, F, mask, 1.0, 0.1, slices=32)
    assert again.cg_iterations == res.cg_iterations
    scale = max(np.abs(h).max() for h in res.controls)
    for a, b in zip(res.controls, again.controls, strict=True):
        assert np.abs(a - b).max() <= 1e-12 * scale
    assert abs(again.cost - res.cost) <= 1e-12 * res.cost

    # duality sanity: no control can beat (||e^{-TF}f0|| - eps ||f0||)^2 / D
    # with D the observability integral of the normalized evolved state
    c0 = to_coefficients(f0)
    e_T = np.exp(-1.0 * F.eval(g.rho))
    n_f0 = norm(f0)
    n_fT = math.sqrt(float(np.vdot(e_T * c0, e_T * c0).real) / g.box_measure)
    ghat = e_T * c0 / n_fT
    ts = np.linspace(0.0, 1.0, 257)
    integ = np.empty(ts.size)
    for i, t in enumerate(ts):
        v = np.fft.ifftn(np.exp(-t * F.eval(g.rho)) * ghat) / g.cell_measure
        integ[i] = float(np.sum(mask.cell_fraction
                                * (v.real**2 + v.imag**2))) * g.cell_measure
    lower = max(0.0, n_fT - 0.1 * n_f0) ** 2 / float(np.trapezoid(integ, ts))
    assert lower <= res.cost
    assert abs(lower - 2.2922734771080675) < 1e-6


def test_synthesize_versus_feedback_cost():
    # open-loop synthesis should cost far less than integrating the
    # closed-loop actuation lam^2 ||K_R f||^2_omega up to the time the
    # feedback first reaches the same contraction
    g = make_grid(1, 16.0, 128)
    mask = make_periodic_thick(g, 1.0, 0.5)
    F = fractional(1.0)
    x = g.axis_x
    f0 = field_from_values(g, np.exp(-0.5 * ((x - 5.0) / 1.2) ** 2)
                           + 0.3 * np.cos(2 * np.pi * 5 * x / 16.0))
    res = synthesize_control(f0, F, mask, 1.0, 0.1, slices=32)
    cfg = design_feedback(F, 4.0, C=1.0)
    run = run_stabilization(f0, F, mask, cfg, 1.0, snapshot_every=8)
    nrm = run.trajectory.norms
    hit = np.flatnonzero(nrm <= 0.1 * nrm[0])
    assert hit.size > 0
    t_star = run.trajectory.times[hit[0]]
    idx = np.flatnonzero(g.rho.ravel() <= cfg.R)
    snaps = run.trajectory.snapshots
    ts = np.array([s[0] for s in snaps])
    integ = np.empty(len(snaps))
    for i, (t, ck) in enumerate(snaps):
        z = np.zeros(g.shape, dtype=complex)
        z.reshape(-1)[idx] = ck.reshape(-1)[idx]
        v = np.fft.ifftn(z) / g.cell_measure
        integ[i] = cfg.lam**2 * float(np.sum(mask.cell_fraction
                                             * (v.real**2 + v.imag**2))) \
            * g.cell_measure
    keep = ts <= t_star + 1e-12
    cost_fb = float(np.trapezoid(integ[keep], ts[keep]))
    assert cost_fb > 0
    assert res.cost <= 10.0 * cost_fb


@pytest.mark.parametrize("make_mask", [
    lambda g: make_periodic_thick(g, 1.0, 0.5),
    lambda g: make_random_thick(g, 1.0, 0.3, 3)], ids=["periodic", "random"])
def test_synthesize_controls_replay(make_mask):
    # push the returned controls through exact slice propagators written out
    # here: c_T = e^{-TF} c0 + sum_i theta_i cell_measure fftn(frac h_i),
    # theta_i = int over slice i of e^{-(T - s) F} ds
    g = make_grid(1, 16.0, 128)
    mask = make_mask(g)
    F = fractional(1.0)
    x = g.axis_x
    f0 = field_from_values(g, np.exp(-0.5 * ((x - 5.0) / 1.2) ** 2)
                           + 0.3 * np.cos(2 * np.pi * 5 * x / 16.0))
    res = synthesize_control(f0, F, mask, 1.0, 0.1, slices=32)
    dt = 1.0 / 32
    f = F.eval(g.rho)
    unit = np.divide(-np.expm1(-dt * f), f, out=np.full(f.shape, dt),
                     where=f > 0)
    c = np.exp(-1.0 * f) * to_coefficients(f0)
    for i, h in enumerate(res.controls):
        theta = np.exp(-(1.0 - (i + 1) * dt) * f) * unit
        c = c + theta * g.cell_measure * np.fft.fftn(mask.cell_fraction * h)
    want = to_coefficients(res.final_field)
    assert np.linalg.norm(c - want) <= 1e-10 * np.linalg.norm(want)
    cost = dt * sum(restricted_norm(field_from_values(g, h), mask) ** 2
                    for h in res.controls)
    assert abs(res.cost - cost) <= 1e-12 * cost


@pytest.mark.parametrize("bad", [
    {"penalty0": 0.0}, {"penalty0": -1.0}, {"penalty0": math.nan},
    {"penalty0": math.inf}, {"max_penalty_steps": 0}, {"max_cg": 0},
    {"tol": 0.0}, {"tol": 1.0}, {"tol": math.nan}])
def test_synthesize_rejects_solver_inputs(bad):
    g = make_grid(1, 16.0, 128)
    f0 = field_from_values(g, np.exp(-0.5 * ((g.axis_x - 5.0) / 1.2) ** 2))
    with pytest.raises(ValidationError, match=next(iter(bad))):
        synthesize_control(f0, fractional(1.0), make_periodic_thick(g, 1.0, 0.5),
                           1.0, 0.1, slices=8, **bad)


def test_lattice_overflow_is_named():
    # fractional(200) overflows on this lattice; each experiment stops at the
    # lattice check instead of a NaN control solve or a divergent moment
    g = make_grid(1, 16.0, 128)
    F = fractional(200.0)
    f0 = field_from_values(g, np.exp(-0.5 * ((g.axis_x - 5.0) / 1.2) ** 2))
    calls = (
        lambda: synthesize_control(f0, F, make_periodic_thick(g, 1.0, 0.5), 1.0, 0.1),
        lambda: classify_cubes(f0, F, 1.0, 0.25, 0.5, 2),
        lambda: necessity_probe_scan(F, make_periodic_thick(g, 16.0, 0.5), 0.5, 0.25,
                                     1.0, [7.0], 0.7),
    )
    for call in calls:
        with pytest.raises(ValidationError,
                           match="non-finite value on the frequency lattice"):
            call()


def test_steep_symbol_scans_ignore_overflow():
    # fractional(40) is finite on this lattice (max 1.0e112) but overflows in
    # the infimum and moment scans far from their optima, where inf is exact
    g = make_grid(1, 16.0, 128)
    F = fractional(40.0)
    assert F.inf_value == 0.0
    assert fractional(400.0).inf_value == 0.0  # overflows in the refine bracket too
    assert math.isfinite(log_moment(F, 2, 0.5)[0])
    f0 = field_from_values(g, np.exp(-0.5 * ((g.axis_x - 5.0) / 1.2) ** 2))
    rep = classify_cubes(f0, F, 1.0, 0.25, 0.5, 2)
    assert rep.bad_mass <= rep.mass_budget


def test_synthesize_failure_paths():
    g = make_grid(1, 16.0, 128)
    mask = make_periodic_thick(g, 1.0, 0.5)
    F = fractional(1.0)
    f0 = field_from_values(g, np.exp(-0.5 * ((g.axis_x - 5.0) / 1.2) ** 2))
    with pytest.raises(ConvergenceError, match="conjugate-gradient"):
        synthesize_control(f0, F, mask, 1.0, 0.1, slices=8, max_cg=2)
    with pytest.raises(ConvergenceError, match="penalty ladder"):
        synthesize_control(f0, F, mask, 1.0, 1e-4, slices=8,
                           max_penalty_steps=2)
    with pytest.raises(ValidationError):
        synthesize_control(f0, F, mask, 0.0, 0.1)
    for bad in (0, -1, 2.5):
        with pytest.raises(ValidationError, match="slices must be a positive integer"):
            synthesize_control(f0, F, mask, 1.0, 0.1, slices=bad)


def test_negative_limit_blowup():
    # saturating symbol, shrinking ball complements: the implied constants
    # strictly increase and the 8x refinement exceeds the first by >= 5x
    g = make_grid(1, 32.0, 512)
    psi = field_from_values(g, np.exp(-0.5 * (g.axis_x - 16.0) ** 2))
    curve = negative_limit_experiment(saturating(1.0), psi, 0.9, 1.0,
                                      (1.0, 0.5, 0.25, 0.125))
    want = (5.475170500790112, 45.66663031789523,
            169.87257846909498, 219.32984812119176)
    for got, ref in zip(curve.constants, want):
        assert abs(got - ref) < 1e-8 * ref
    cs = np.array(curve.constants)
    assert bool(np.all(np.diff(cs) > 0))
    assert cs[-1] / cs[0] >= 5.0
    assert len(curve.times) == 65
    assert all(v > 0 for v in curve.integrals)


def test_negative_limit_shift_identity():
    # running with F + c scales every integrand sample by e^{-2 t c}
    g = make_grid(1, 32.0, 512)
    psi = field_from_values(g, np.exp(-0.5 * (g.axis_x - 16.0) ** 2))
    sat = saturating(1.0)
    base = negative_limit_experiment(sat, psi, 0.9, 1.0, (0.5, 0.25))
    moved = negative_limit_experiment(shifted(sat, -0.7), psi, 0.9, 1.0,
                                      (0.5, 0.25))
    worst = 0.0
    for row_b, row_m in zip(base.integrands, moved.integrands):
        for t, a, b in zip(base.times, row_b, row_m):
            want = a * math.exp(-2.0 * t * 0.7)
            worst = max(worst, abs(b - want) / max(abs(want), 1e-300))
    assert worst < 1e-10


def test_negative_limit_validation():
    g = make_grid(1, 32.0, 512)
    psi = field_from_values(g, np.exp(-0.5 * (g.axis_x - 16.0) ** 2))
    with pytest.raises(ValidationError, match="therefore bounded"):
        negative_limit_experiment(halfheat(), psi, 0.9, 1.0, (1.0, 0.5))
    with pytest.raises(ValidationError, match="non-negative limit"):
        negative_limit_experiment(shifted(saturating(1.0), 2.0), psi,
                                  0.9, 1.0, (1.0, 0.5))
    with pytest.raises(ValidationError, match="does not fit"):
        negative_limit_experiment(saturating(1.0), psi, 0.9, 1.0, (0.05,))
    with pytest.raises(ValidationError, match="quadrature step"):
        negative_limit_experiment(saturating(1.0), psi, 0.9, 1.0, (1.0,), 0)
    with pytest.raises(ValidationError):
        negative_limit_experiment(saturating(1.0), psi, 0.9, 0.0, (1.0,))
    with pytest.raises(ValidationError):
        negative_limit_experiment(saturating(1.0), psi, 0.9, 1.0, ())
    with pytest.raises(ValidationError):
        negative_limit_experiment(saturating(1.0), psi, 0.9, 1.0, (1.0, -0.5))
