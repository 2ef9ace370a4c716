"""Closed-loop stabilization: gains, spectral constants, stepping, Lyapunov decay.

The spectral-constant oracle is a dense band matrix built with explicit loops
and eigvalsh, independent of the package's closed-form Gram gather.
The Bloch-fiber constant is also checked against one dense eigvalsh of the
whole closed-form band Gram. The stepping oracles are the commuting full-box
case, where the feedback is exactly lam K_R and every mode evolves by a
scalar exponential, and a Strang step written out with plain FFTs. The
stacked Duhamel residual is checked against a loop over the snapshots.
"""

import itertools
import math

import numpy as np
import pytest

from thickstab import stabilize
from thickstab.cli import main
from thickstab.errors import (ConvergenceError, NumericalError,
                              ValidationError)
from thickstab.grid import (field_from_values, from_coefficients, make_grid, norm,
                            semigroup_multiplier, to_coefficients)
from thickstab.observe import kovrijkine_empirical
from thickstab.stabilize import (FeedbackConfig, StabilizationResult,
                                 Trajectory, calibrate_constant,
                                 design_feedback, duhamel_residual,
                                 estimate_spectral_constant, lyapunov,
                                 run_stabilization, step_closed_loop,
                                 write_trajectory_csv, _RECORD_BLOCK,
                                 _Stepper)
from thickstab.symbols import constant, halfheat, shifted
from thickstab.thick import (SupportMask, make_full, make_periodic_thick,
                             make_random_thick)


def dense_spectral_constant(mask, R):
    """Independent oracle: the mask quadratic form compressed to the <= R
    lattice, assembled entry by entry and solved densely."""
    g = mask.grid
    idx = np.flatnonzero(g.rho.ravel() <= R)
    xi = g.axis_xi
    x = g.axis_x
    frac = mask.cell_fraction.ravel()
    n = len(idx)
    M = np.empty((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            ph = np.exp(1j * (xi[idx[a]] - xi[idx[b]]) * x)
            M[a, b] = np.sum(frac * ph) / g.points
    ev = np.linalg.eigvalsh(M)
    return 1.0 / math.sqrt(ev[0]), n


def test_design_feedback_closed_forms():
    cfg = design_feedback(halfheat(), 8.0, C=1.0)
    assert cfg.inf_F == 0.0
    assert abs(cfg.alpha_R - 8.0) < 1e-9
    assert abs(cfg.alpha_tilde - 8.0) < 1e-9
    want_lam = 8.0 * math.exp(8.0)
    assert abs(cfg.lam - want_lam) < 1e-9 * want_lam
    assert abs(cfg.lam - 23847.663896333826) < 1e-6
    assert abs(cfg.mu - 2.0 * math.exp(16.0)) < 1e-6 * cfg.mu
    assert abs(cfg.predicted_rate - 4.0) < 1e-9
    assert abs(cfg.prefactor - math.sqrt(2.0) * math.exp(8.0)) < 1e-9 * cfg.prefactor
    assert abs(cfg.dt_max - 0.1 / cfg.lam) < 1e-20
    assert abs(cfg.dt_max - 4.193282848781398e-06) < 1e-18
    man = cfg.to_manifest()
    assert set(man) == {"R", "C", "inf_F", "alpha_R", "alpha_tilde",
                        "lambda", "mu", "predicted_rate"}
    assert man["lambda"] == cfg.lam


def test_design_feedback_rejects_flat_tail():
    # a constant symbol has inf_{r>=R} F = inf F, so no gain is available
    with pytest.raises(ValidationError, match="does not exceed inf F"):
        design_feedback(constant(1.0), 4.0)
    with pytest.raises(ValidationError):
        design_feedback(halfheat(), 8.0, C=0.5)


def test_feedback_config_validation():
    ok = dict(R=2.0, C=1.0, inf_F=0.0, alpha_R=2.0, alpha_tilde=2.0,
              lam=1.0, mu=2.0, predicted_rate=1.0)
    FeedbackConfig(**ok)
    for bad in ({"C": 0.9}, {"R": 0.0}, {"alpha_tilde": 0.0},
                {"lam": 0.0}, {"mu": 1.5}, {"lam": math.inf}, {"mu": math.inf},
                {"mu": math.nan}):
        with pytest.raises(ValidationError):
            FeedbackConfig(**{**ok, **bad})
    # gains past the float range are named, not returned as inf (mu) or
    # raised as a bare OverflowError from e^(CR) (C R > 709.78)
    for R, C in ((8.0, 50.0), (2.0, 400.0)):
        with pytest.raises(ValidationError, match=f"gains out of range at C = {C}, R = {R}"):
            design_feedback(halfheat(), R, C)


def test_calibrate_constant():
    # R large relative to log c_emp: C = 1 suffices
    assert calibrate_constant(4.487373586329097, 8.0) == 1.0
    # forced above 1: smallest C with log C + C R = 2 log c_emp
    c = calibrate_constant(math.exp(2.0), 1.0)
    assert abs(c - 2.926271062443501) < 1e-9
    assert abs(math.log(c) + c * 1.0 - 4.0) < 1e-10
    assert math.log(c - 1e-6) + (c - 1e-6) * 1.0 < 4.0
    # C is the smallest float meeting the target: its predecessor falls short
    for c_emp, R in ((math.exp(2.0), 1.0), (50.0, 0.5), (1e3, 2.0), (1e6, 0.1), (3.0, 0.25)):
        c = calibrate_constant(c_emp, R)
        g = lambda x: math.log(x) + x * R - 2.0 * math.log(c_emp)
        assert c > 1.0 and g(c) >= 0 > g(math.nextafter(c, 0.0)), (c_emp, R)
    with pytest.raises(ValidationError):
        calibrate_constant(0.0, 8.0)
    with pytest.raises(ValidationError):
        calibrate_constant(2.0, -1.0)


def test_spectral_constant_matches_dense_oracle():
    # band at R = 8 on extent 16 holds 41 modes on either grid
    g = make_grid(1, 16.0, 256)
    mask = make_periodic_thick(g, 1.0, 0.5)
    dense, n = dense_spectral_constant(mask, 8.0)
    assert n == 41
    est = estimate_spectral_constant(mask, 8.0)
    assert abs(est - dense) < 1e-8 * dense
    assert abs(dense - 4.6157861712230925) < 1e-9

    g2 = make_grid(1, 16.0, 1024)
    mask2 = make_periodic_thick(g2, 1.0, 0.5)
    dense2, _ = dense_spectral_constant(mask2, 8.0)
    est2 = estimate_spectral_constant(mask2, 8.0)
    assert abs(est2 - dense2) < 1e-8 * dense2
    assert abs(dense2 - 4.4873735863291) < 1e-9


def test_spectral_constant_full_box_is_one():
    g = make_grid(1, 16.0, 256)
    est = estimate_spectral_constant(make_full(g), 8.0)
    assert abs(est - 1.0) < 1e-10


def test_spectral_constant_validation():
    g = make_grid(1, 16.0, 128)
    mask = make_periodic_thick(g, 1.0, 0.5)
    with pytest.raises(ValidationError):
        estimate_spectral_constant(mask, 0.0)
    with pytest.raises(ValidationError):
        estimate_spectral_constant(mask, g.xi_max * 1.01)
    empty = SupportMask(grid=g, cell_fraction=np.zeros(g.shape), certificate=None)
    with pytest.raises(ValidationError, match="measure zero"):
        estimate_spectral_constant(empty, 4.0)
    # all 128 modes of the grid against 64 support cells: no finite constant
    with pytest.raises(ConvergenceError, match="128 modes.*only 64 grid cells"):
        estimate_spectral_constant(mask, g.xi_max)
    # on the line x = 0 the modes (-1, 0), (0, 0), (1, 0) coincide. A uniform
    # line repeats every cell along it, so those three modes share a Bloch
    # fiber against one support cell per period: rank-deficient by count
    g2 = make_grid(2, 16.0, 16)
    line = np.zeros(g2.shape)
    line[0] = 1.0
    with pytest.raises(ConvergenceError, match="5 modes, 3 of them in fiber "
                       "r = \\(0, 0\\) of 16 against 1 cells per period"):
        estimate_spectral_constant(
            SupportMask(grid=g2, cell_fraction=line, certificate=None), 0.5)
    # graded along the line it has no shorter period and 16 cells for the 5
    # modes, so the count passes, but the 5-mode band Gram is singular
    line[0] = np.linspace(0.5, 1.0, 16)
    with pytest.raises(NumericalError, match="singular"):
        estimate_spectral_constant(
            SupportMask(grid=g2, cell_fraction=line, certificate=None), 0.5)


@pytest.mark.parametrize("dim, points, kind, R, want", [
    (1, 1024, "random", 2.0, 1.9502850044670685),
    (1, 1024, "random", 4.0, 2.12046703015224),
    (2, 64, "random", 2.0, 2.1369362429225416),
    (2, 64, "random", 4.0, 4.00654450737958),
    (2, 128, "periodic", 8.0, 12.986092628883558),
])
def test_spectral_constant_former_stalls(dim, points, kind, R, want):
    # supports on which an inverse power iteration stalled (clustered
    # sigma_min); the dense eigensolve has no convergence to lose
    g = make_grid(dim, 16.0, points)
    mask = (make_random_thick(g, 2.0, 0.3, 0) if kind == "random"
            else make_periodic_thick(g, 1.0, 0.5))
    assert abs(estimate_spectral_constant(mask, R) - want) < 1e-10 * want


@pytest.mark.parametrize("kind, cells", [("periodic", 1024), ("random", 1280)])
def test_spectral_constant_rank_deficient_band(kind, cells):
    # the R = 8 band of a 64^2 grid holds 1305 modes, more than the support
    # has cells, so the band Gram matrix is singular at this resolution
    g = make_grid(2, 16.0, 64)
    mask = (make_random_thick(g, 2.0, 0.3, 0) if kind == "random"
            else make_periodic_thick(g, 1.0, 0.5))
    with pytest.raises(ConvergenceError,
                       match=f"1305 modes.*only {cells} grid cells.*rank-deficient"
                       ) as err:
        estimate_spectral_constant(mask, 8.0)
    # the periodic support's diagnosis names the Bloch fiber that fails:
    # 7 modes against the 4 support cells of one period
    if kind == "periodic":
        assert "7 of them in fiber r = (" in str(err.value)
        assert "against 4 cells per period" in str(err.value)
    else:
        assert "fiber" not in str(err.value)


def test_lyapunov_closed_form():
    g = make_grid(1, 16.0, 64)
    cfg = design_feedback(halfheat(), 2.0, C=1.0)
    x = g.axis_x
    # xi = 2 pi 3 / 16 = 1.18 sits below R = 2, xi = 2 pi 20 / 16 above
    f = field_from_values(g, 2.0 * np.exp(2j * np.pi * 3 * x / 16.0)
                          + 3.0 * np.exp(2j * np.pi * 20 * x / 16.0))
    want = cfg.mu * 4.0 * 16.0 + 9.0 * 16.0
    assert abs(lyapunov(f, cfg) - want) < 1e-9 * want


def test_step_without_feedback_is_exact_semigroup():
    from thickstab.grid import apply_semigroup
    g = make_grid(1, 16.0, 128)
    rng = np.random.default_rng(2)
    f = field_from_values(g, rng.standard_normal(g.shape)
                          + 1j * rng.standard_normal(g.shape))
    mask = make_periodic_thick(g, 1.0, 0.5)
    a = step_closed_loop(f, halfheat(), mask, None, 0.3)
    b = apply_semigroup(f, halfheat(), 0.3)
    assert np.array_equal(a.values, b.values)
    with pytest.raises(ValidationError):
        step_closed_loop(f, halfheat(), mask, None, 0.0)


def test_commuting_step_is_fifth_order():
    # full box: the feedback is exactly lam K_R, so each band mode should
    # evolve by e^{-(F + lam) dt}; the degree-4 stage polynomial leaves a
    # (lam dt)^5 / 120 defect
    g = make_grid(1, 16.0, 64)
    F = halfheat()
    full = make_full(g)
    cfg = design_feedback(F, 2.0, C=1.0)
    rng = np.random.default_rng(3)
    f = field_from_values(g, rng.standard_normal(g.shape)
                          + 1j * rng.standard_normal(g.shape))
    c0 = to_coefficients(f)
    band = (g.rho <= 2.0).astype(float)

    def step_error(lam_dt):
        dt = lam_dt / cfg.lam
        stepped = to_coefficients(step_closed_loop(f, F, full, cfg, dt))
        ref = c0 * np.exp(-dt * g.rho) * np.exp(-dt * cfg.lam * band)
        return np.linalg.norm(stepped - ref) / np.linalg.norm(c0)

    e_coarse = step_error(0.1)
    e_half = step_error(0.05)
    e_fine = step_error(0.02)
    assert e_coarse < 1e-7
    assert e_fine < 1e-10
    assert 20.0 < e_coarse / e_half < 45.0


def test_step_dt_cap():
    g = make_grid(1, 16.0, 64)
    cfg = design_feedback(halfheat(), 2.0, C=1.0)
    mask = make_periodic_thick(g, 1.0, 0.5)
    f = field_from_values(g, np.ones(g.shape))
    with pytest.raises(ValidationError, match="exceeds dt_max"):
        step_closed_loop(f, halfheat(), mask, cfg, cfg.dt_max * 1.5)


def strang_step_reference(c, e_half, frac, idx, lam, dt, adjoint):
    """One Strang step written out with plain FFTs: half-multiplier, the four
    explicit stages of w' = -lam G w as the power sum
    sum_j (-dt lam)^j / j! G^{j-1} w, injection, half-multiplier."""
    def mask_form(a):
        return np.fft.fftn(frac * np.fft.ifftn(a))

    def gram(w):
        z = np.zeros(c.shape, dtype=complex)
        z.reshape(-1)[idx] = w
        return mask_form(z).reshape(-1)[idx]

    c = c * e_half
    w = (mask_form(c) if adjoint else c).reshape(-1)[idx]
    u, coeff = np.zeros_like(w), 1.0
    for j in range(1, 5):
        coeff *= -dt * lam / j
        u = u + coeff * w
        w = gram(w)
    if adjoint:
        c.reshape(-1)[idx] += u
    else:
        band = np.zeros(c.shape, dtype=complex)
        band.reshape(-1)[idx] = u
        c = c + mask_form(band)
    return c * e_half


def test_band_matrix_mode_cap():
    # the 2-D lattice inside radius 12 holds 2941 modes. On the periodic
    # support they fall into 256 Bloch fibers of at most 13 modes, so the
    # constant is finite; the band holds the R = 8 band, so sigma_min can
    # only fall and the constant only rise above the 128^2, R = 8 pin
    g = make_grid(2, 16.0, 128)
    periodic = make_periodic_thick(g, 1.0, 0.5)
    c = estimate_spectral_constant(periodic, 12.0)
    assert np.isfinite(c) and c >= 12.986092628883558
    # a random support is one fiber of 2941 modes, over the dense
    # eigensolve's block budget; the stepper takes any band
    random = make_random_thick(g, 2.0, 0.3, 0)
    with pytest.raises(ValidationError, match="2941 modes.*block budget of 2048"):
        estimate_spectral_constant(random, 12.0)
    F = halfheat()
    cfg = FeedbackConfig(R=12.0, C=1.0, inf_F=0.0, alpha_R=12.0,
                         alpha_tilde=12.0, lam=1.0, mu=2.0,
                         predicted_rate=6.0)
    idx = np.flatnonzero(g.rho.ravel() <= 12.0)
    assert len(idx) == 2941
    rng = np.random.default_rng(7)
    f = field_from_values(g, rng.standard_normal(g.shape)
                          + 1j * rng.standard_normal(g.shape))
    dt = cfg.dt_max
    e_half = semigroup_multiplier(g, F, 0.5 * dt)
    for mask in (periodic, random):
        for adjoint in (False, True):
            got = to_coefficients(step_closed_loop(f, F, mask, cfg, dt,
                                                   adjoint_order=adjoint))
            assert np.all(np.isfinite(got))
            want = strang_step_reference(to_coefficients(f), e_half,
                                         mask.cell_fraction, idx, cfg.lam, dt,
                                         adjoint)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def closed_form_band_gram(mask, R):
    """The whole band Gram G[a, b] = frac_hat(k_a - k_b) / N^dim, one dense
    matrix with no fiber split."""
    g = mask.grid
    k = np.unravel_index(np.flatnonzero(g.rho.ravel() <= R), g.shape)
    fhat = np.fft.fftn(mask.cell_fraction) / mask.cell_fraction.size
    return fhat[tuple((a[:, None] - a[None, :]) % g.points for a in k)]


@pytest.mark.parametrize("dim, points, kind, R", [
    (1, 1024, "periodic", 2.0), (1, 1024, "periodic", 4.0),
    (1, 1024, "periodic", 8.0), (2, 64, "periodic", 2.0),
    (2, 64, "periodic", 4.0), (1, 1024, "tiled", 8.0), (2, 64, "tiled", 4.0),
])
def test_fiber_constant_matches_dense_eigensolve(dim, points, kind, R):
    # the periodic supports of the benchmark's band sweep, and random cells
    # tiled with period 8, whose equal-sized fiber blocks differ: the minimum
    # over the Bloch fiber blocks is the least eigenvalue of the band Gram
    g = make_grid(dim, 16.0, points)
    if kind == "periodic":
        mask = make_periodic_thick(g, 1.0, 0.5)
    else:
        cells = np.random.default_rng(3).uniform(0.2, 1.0, (8,) * dim)
        mask = SupportMask(grid=g,
                           cell_fraction=np.tile(cells, (points // 8,) * dim))
    ev = np.linalg.eigvalsh(closed_form_band_gram(mask, R))
    want = 1.0 / math.sqrt(ev[0])
    assert abs(estimate_spectral_constant(mask, R) - want) <= 1e-12 * want


def test_period_detection_is_exact():
    F = halfheat()
    rng = np.random.default_rng(11)

    def check(mask, R, fibers, steps=20):
        g = mask.grid
        cfg = FeedbackConfig(R=R, C=1.0, inf_F=0.0, alpha_R=R, alpha_tilde=R,
                             lam=50.0, mu=2.0, predicted_rate=0.5 * R)
        dt = cfg.dt_max
        e_half = semigroup_multiplier(g, F, 0.5 * dt)
        idx = np.flatnonzero(g.rho.ravel() <= R)
        c0 = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        for adjoint in (False, True):
            stepper = _Stepper(g, F, mask, cfg, dt, adjoint_order=adjoint)
            assert stepper.order.shape[0] == fibers
            c, want = stepper.enter(c0), c0
            for _ in range(steps):
                stepper.step(c)
                want = strang_step_reference(want, e_half, mask.cell_fraction,
                                             idx, cfg.lam, dt, adjoint)
            got = stepper.leave(c)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    g = make_grid(1, 16.0, 256)
    periodic = make_periodic_thick(g, 1.0, 0.5)
    # period 16 points: 16 fibers, the residues mod 16
    assert periodic.periods == (16,)
    check(periodic, 8.0, 16)
    # one cell off by one ulp: no shorter period, one fiber
    frac = periodic.cell_fraction.copy()
    frac[37] = np.nextafter(frac[37], 0.5)
    nudged = SupportMask(grid=g, cell_fraction=frac, certificate=None)
    assert nudged.periods == (256,)
    check(nudged, 8.0, 1)
    # periodic along the second axis only: fibers along that axis only
    g2 = make_grid(2, 16.0, 32)
    frac2 = np.tile(rng.uniform(0.0, 1.0, (32, 8)), (1, 4))
    one_axis = SupportMask(grid=g2, cell_fraction=frac2, certificate=None)
    assert one_axis.periods == (32, 8)
    check(one_axis, 6.0, 4)


def test_shift_covariance_of_stepper():
    # replacing F by F - mu multiplies one Strang step by e^{mu dt} exactly:
    # both half multipliers pick up e^{mu dt / 2} and the feedback block
    # never sees the symbol
    g = make_grid(1, 16.0, 128)
    F = halfheat()
    mask = make_periodic_thick(g, 1.0, 0.5)
    cfg = design_feedback(F, 2.0, C=1.0)
    rng = np.random.default_rng(4)
    f = field_from_values(g, rng.standard_normal(g.shape)
                          + 1j * rng.standard_normal(g.shape))
    dt = 1e-3
    base = step_closed_loop(f, F, mask, cfg, dt).values
    scale = np.max(np.abs(base))
    for mu in (-1.0, 0.7, 1.0):
        moved = step_closed_loop(f, shifted(F, mu), mask, cfg, dt).values
        rel = np.max(np.abs(moved - math.exp(mu * dt) * base)) / scale
        assert rel < 1e-10


def test_duhamel_residual_commuting():
    g = make_grid(1, 16.0, 128)
    F = halfheat()
    full = make_full(g)
    cfg = FeedbackConfig(R=2.0, C=1.0, inf_F=0.0, alpha_R=2.0,
                         alpha_tilde=2.0, lam=0.5, mu=2.0, predicted_rate=1.0)
    rng = np.random.default_rng(5)
    f0 = field_from_values(g, rng.standard_normal(g.shape)
                           + 1j * rng.standard_normal(g.shape))
    res = run_stabilization(f0, F, full, cfg, 0.25, dt=1e-3, snapshot_every=1)
    assert duhamel_residual(res, F, full) < 1e-8


def test_duhamel_residual_generic_and_adjoint():
    g = make_grid(1, 16.0, 128)
    F = halfheat()
    mask = make_periodic_thick(g, 1.0, 0.5)
    cfg = design_feedback(F, 1.0, C=1.0)  # lam = e
    rng = np.random.default_rng(5)
    f0 = field_from_values(g, rng.standard_normal(g.shape)
                           + 1j * rng.standard_normal(g.shape))
    res = run_stabilization(f0, F, mask, cfg, 0.5, dt=1e-3, snapshot_every=1)
    assert duhamel_residual(res, F, mask) < 1e-6
    adj = run_stabilization(f0, F, mask, cfg, 0.5, dt=1e-3, snapshot_every=1,
                            adjoint_order=True)
    assert duhamel_residual(adj, F, mask) < 1e-6

    free = run_stabilization(f0, F, mask, None, 0.5, dt=1e-3, snapshot_every=1)
    assert duhamel_residual(free, F, mask) < 1e-12

    bare = run_stabilization(f0, F, mask, None, 0.5, dt=1e-3)
    with pytest.raises(ValidationError, match="snapshot"):
        duhamel_residual(bare, F, mask)


def duhamel_loop(result, F, mask):
    """The Duhamel residual one snapshot at a time through the public
    multipliers. The residual is a difference of nearly equal vectors, so its
    last digits follow the order of the sum: the trapezoid sum is accumulated
    on its own and in time order."""
    snaps = result.trajectory.snapshots
    ts = np.array([t for t, _ in snaps])
    g, T, cfg = result.trajectory.grid, ts[-1], result.config
    rhs = semigroup_multiplier(g, F, T) * snaps[0][1]
    if cfg is not None:
        band = (g.rho <= cfg.R).astype(float)
        frac = mask.cell_fraction
        w = np.empty(len(ts))
        w[0], w[-1] = 0.5 * (ts[1] - ts[0]), 0.5 * (ts[-1] - ts[-2])
        w[1:-1] = 0.5 * (ts[2:] - ts[:-2])
        acc = np.zeros(g.shape, dtype=complex)
        for wi, (t, c) in zip(w, snaps):
            if result.adjoint_order:
                b = band * np.fft.fftn(frac * np.fft.ifftn(cfg.lam * c))
            else:
                b = np.fft.fftn(frac * np.fft.ifftn(cfg.lam * c * band))
            acc += wi * semigroup_multiplier(g, F, T - t) * b
        rhs = rhs - acc
    return (np.linalg.norm((snaps[-1][1] - rhs).ravel())
            / np.linalg.norm(snaps[0][1].ravel()))


@pytest.mark.parametrize("dim, points", [(1, 128), (2, 32)])
def test_duhamel_residual_matches_snapshot_loop(dim, points):
    # the stacked residual against a loop over the snapshots: forward and
    # adjoint order and a free run. Stacks hold 32 (1-D) or 4 (2-D)
    # snapshots, so the run's 201 end in a short stack
    g = make_grid(dim, 16.0, points)
    F = halfheat()
    mask = make_random_thick(g, 2.0, 0.3, 1)
    cfg = design_feedback(F, 1.0, C=1.0)
    rng = np.random.default_rng(9)
    f0 = field_from_values(g, rng.standard_normal(g.shape)
                           + 1j * rng.standard_normal(g.shape))
    for conf, adjoint in ((cfg, False), (cfg, True), (None, False)):
        res = run_stabilization(f0, F, mask, conf, 0.2, dt=1e-3,
                                snapshot_every=1, adjoint_order=adjoint)
        got = duhamel_residual(res, F, mask)
        want = duhamel_loop(res, F, mask)
        assert abs(got - want) <= 1e-10 * want


def test_duhamel_requires_spanning_snapshots():
    g = make_grid(1, 16.0, 64)
    c = np.zeros(g.shape, dtype=complex)
    traj = Trajectory(grid=g, times=np.array([0.0, 0.1, 0.2, 0.3]),
                      norms=np.ones(4), lyapunov=np.ones(4),
                      low_norms=np.zeros(4), high_norms=np.ones(4),
                      snapshots=((0.0, c), (0.1, c), (0.2, c)))
    res = StabilizationResult(trajectory=traj, fitted_rate=0.0,
                              config=None, dt=0.1)
    with pytest.raises(ValidationError, match="span"):
        duhamel_residual(res, halfheat(), make_full(g))


def test_fitted_rate_single_mode():
    # one lattice mode decays at exactly F(|xi|); here xi = pi
    g = make_grid(1, 16.0, 64)
    x = g.axis_x
    f0 = field_from_values(g, np.exp(2j * np.pi * 8 * x / 16.0))
    mask = make_full(g)
    res = run_stabilization(f0, halfheat(), mask, None, 1.0)
    assert abs(res.fitted_rate - math.pi) < 1e-8
    # the fit over the trailing half isolates the slow mode of a two-mode
    # mixture, better on a longer run
    f1 = field_from_values(g, np.exp(2j * np.pi * 2 * x / 16.0)
                           + np.exp(2j * np.pi * 40 * x / 16.0))
    slow = 2.0 * np.pi * 2 / 16.0
    late = run_stabilization(f1, halfheat(), mask, None, 2.0)
    early = run_stabilization(f1, halfheat(), mask, None, 0.1)
    assert late.fitted_rate < early.fitted_rate
    assert abs(late.fitted_rate - slow) < 1e-3
    traj = late.trajectory
    tail = traj.times >= 1.0 - 1e-12
    want = -np.polyfit(traj.times[tail], np.log(traj.norms[tail]), 1)[0]
    assert abs(late.fitted_rate - want) < 1e-9 * slow
    assert np.count_nonzero(tail) == 501
    # a span of 1e-300 over 128 steps: polyfit's column scaling would underflow
    tiny = run_stabilization(f0, halfheat(), mask, None, 1e-300, dt=1e-300 / 128)
    assert tiny.trajectory.times.size == 129 and math.isfinite(tiny.fitted_rate)
    # a Gaussian's tail log-norms are equal to the last bit over these spans,
    # so no rate is measurable (a fit of that rounding reads -7.2e283, +8.8e182
    # and -1.1e11); over T = 0.7 the fit is the plain one, to the bit
    gauss = field_from_values(g, np.exp(-(x - 8.0) ** 2))
    for T in (1e-300, 1e-200, 1e-30):
        res = run_stabilization(gauss, halfheat(), None, None, T, dt=T / 128)
        assert np.ptp(res.trajectory.norms[64:]) == 0.0 and res.fitted_rate == 0.0
    # just above rounding the fit's error is about 10 eps over the tail's
    # span: T = 1e-14 and 1e-13 span 22 and 172 eps and would read 1.10 and
    # 0.85, so no rate; T = 1e-12 spans 1,598 eps and reads the short-time
    # rate, the |c|^2-weighted mean of F over the lattice
    w = np.abs(to_coefficients(gauss)) ** 2
    short = float(np.sum(g.rho * w) / np.sum(w))  # 0.78755
    for T in (1e-14, 1e-13):
        res = run_stabilization(gauss, halfheat(), None, None, T, dt=T / 128)
        assert np.ptp(res.trajectory.norms[64:]) > 0.0 and res.fitted_rate == 0.0
    res = run_stabilization(gauss, halfheat(), None, None, 1e-12, dt=1e-12 / 128)
    assert abs(res.fitted_rate / short - 1.0) < 5e-3
    res = run_stabilization(gauss, halfheat(), None, None, 0.7, dt=0.7 / 128)
    assert res.fitted_rate == 0.4863571985433058


def test_run_validation_and_snapshot_endpoints():
    g = make_grid(1, 16.0, 64)
    f0 = field_from_values(g, np.ones(g.shape))
    mask = make_full(g)
    with pytest.raises(ValidationError):
        run_stabilization(f0, halfheat(), mask, None, 0.0)
    # 1e18 steps: recording them cannot be allocated, and nothing is touched
    with pytest.raises(ValidationError, match=r"cannot record \d+ steps to "
                       r"T = 1.0 at dt = 1.000e-18"):
        run_stabilization(f0, halfheat(), mask, None, 1.0, dt=1e-18)
    with pytest.raises(ValidationError):
        run_stabilization(f0, halfheat(), mask, None, 1.0, dt=-0.1)
    with pytest.raises(ValidationError, match="subnormal"):  # T/dt cannot count its steps
        run_stabilization(f0, halfheat(), mask, None, 1e-320, dt=1e-320 / 128)
    with pytest.raises(ValidationError, match="needs the support mask"):
        run_stabilization(f0, halfheat(), None, design_feedback(halfheat(), 2.0), 1.0)
    # T / dt rounds up past n here; the count is still n
    T, n = 0.015893597189960192, 127899
    assert T / (T / n) > n
    res = run_stabilization(f0, halfheat(), None, None, T, dt=T / n)
    assert res.trajectory.times.size == n + 1
    res = run_stabilization(f0, halfheat(), mask, None, 1.0, dt=0.01,
                            snapshot_every=7)
    ts = [t for t, _ in res.trajectory.snapshots]
    assert ts[0] == 0.0
    assert abs(ts[-1] - 1.0) < 1e-12
    ks = [round(t / res.dt) for t in ts]
    assert ks[:3] == [0, 7, 14] and ks[-2:] == [98, 100]


@pytest.mark.filterwarnings("error")
def test_nonfinite_state_is_reported():
    # e^{-t(F - 100)} grows like e^{100 t}; the squared norm overflows at
    # t ~ 3.5 and the state itself past t ~ 7, inside the same block of
    # steps, which must still name the first step and warn nothing
    g = make_grid(1, 16.0, 64)
    f0 = field_from_values(g, np.ones(g.shape))
    with pytest.raises(NumericalError,
                       match=r"non-finite at step 441 \(t = 3\.528\)"):
        run_stabilization(f0, shifted(halfheat(), 100.0), make_full(g),
                          None, 8.0)


def test_certificate_run_short_horizon():
    # the V decay chain on a half-filled periodic support: per-step
    # monotonicity, the e^{-alpha_tilde dt} contraction factor, and the
    # mu e^{-alpha_tilde t} norm envelope
    g = make_grid(1, 16.0, 256)
    F = halfheat()
    mask = make_periodic_thick(g, 1.0, 0.5)
    c_emp = estimate_spectral_constant(mask, 8.0)
    cfg = design_feedback(F, 8.0, C=calibrate_constant(c_emp, 8.0))
    assert cfg.C == 1.0
    x = g.axis_x
    f0 = field_from_values(g, np.exp(2j * np.pi * 1 * x / 16.0)
                           + 0.5 * np.exp(2j * np.pi * 40 * x / 16.0) + 0.25)
    res = run_stabilization(f0, F, mask, cfg, 0.05, check_monotone=True)
    assert res.dt <= cfg.dt_max * (1 + 1e-12)
    V = res.trajectory.lyapunov
    ratio = V[1:] / V[:-1]
    assert float(ratio.max()) <= math.exp(-cfg.alpha_tilde * res.dt) * (1 + 1e-6)
    nrm = res.trajectory.norms
    env = cfg.mu * np.exp(-cfg.alpha_tilde * res.trajectory.times) * nrm[0] ** 2
    assert bool((nrm ** 2 <= env * (1 + 1e-9)).all())
    assert res.fitted_rate > 0.45 * cfg.alpha_tilde


def test_monotone_guard_catches_undersized_gains():
    # gains violating mu = 2 C^2 e^{2CR} let the support coupling pump the
    # high band: initialize along the worst band eigenvector plus an
    # anticorrelated high tail and V rises on the first step
    g = make_grid(1, 16.0, 128)
    mask = make_periodic_thick(g, 4.0, 0.25)
    idx = np.flatnonzero(g.rho.ravel() <= 4.0)
    n = len(idx)
    M = np.empty((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            ph = np.exp(1j * (g.axis_xi[idx[a]] - g.axis_xi[idx[b]]) * g.axis_x)
            M[a, b] = np.sum(mask.cell_fraction * ph) / g.points
    _, vecs = np.linalg.eigh(M)
    clow = np.zeros(g.shape, dtype=complex)
    clow.reshape(-1)[idx] = vecs[:, 0]
    vlow = np.fft.ifftn(clow)
    chigh = np.fft.fftn(mask.cell_fraction * vlow)
    chigh.reshape(-1)[idx] = 0.0
    chigh *= np.linalg.norm(clow) / np.linalg.norm(chigh)
    f0 = field_from_values(g, np.fft.ifftn((clow - 4.0 * chigh) / g.dx))
    cfg = FeedbackConfig(R=4.0, C=1.0, inf_F=0.0, alpha_R=4.0,
                         alpha_tilde=4.0, lam=20.0, mu=2.0, predicted_rate=2.0)
    with pytest.raises(NumericalError,
                       match="Lyapunov functional increased at step 1:"):
        run_stabilization(f0, constant(0.01), mask, cfg, 0.05, dt=0.005,
                          check_monotone=True)
    # same run without the guard completes and reports the rise in the record
    res = run_stabilization(f0, constant(0.01), mask, cfg, 0.05, dt=0.005)
    V = res.trajectory.lyapunov
    assert float(V[1]) > float(V[0])


@pytest.mark.parametrize("rows", [1, 3, 151, 152, 1024])
def test_monotone_guard_names_first_rise_in_any_block(monkeypatch, rows):
    # F = |xi| - 1 grows the mean and damps the xi = pi/2 mode, so V falls
    # and then first rises at step 152; with 151 states per record block
    # that rise is the first new state of the second block
    g = make_grid(1, 16.0, 64)
    f0 = field_from_values(g, np.cos(2 * np.pi * 4 * g.axis_x / 16.0) + 0.05)
    F, full = shifted(halfheat(), 1.0), make_full(g)
    V = run_stabilization(f0, F, full, None, 2.0, dt=0.01).trajectory.lyapunov
    assert np.flatnonzero(V[1:] > V[:-1] * (1.0 + 1e-8))[0] + 1 == 152
    monkeypatch.setattr("thickstab.stabilize._RECORD_BLOCK", rows * g.points)
    with pytest.raises(NumericalError,
                       match="Lyapunov functional increased at step 152:"):
        run_stabilization(f0, F, full, None, 2.0, dt=0.01, check_monotone=True)


def _record_case(path):
    """(grid, mask, cfg) on N = 1024 points for each path of the stepper."""
    g = make_grid(1, 16.0, 1024)
    if path == "fold":
        return g, make_periodic_thick(g, 1.0, 0.5), design_feedback(
            halfheat(), 8.0, C=1.0)
    # 561 band modes on a support with no period: N n > _DENSE_STEP_MAX
    cfg = FeedbackConfig(R=110.0, C=1.0, inf_F=0.0, alpha_R=55.0,
                         alpha_tilde=55.0, lam=5.0, mu=2.0, predicted_rate=27.5)
    mask = make_random_thick(g, 1.0, 0.5, seed=3)
    return g, mask, (cfg if path == "matrix-free" else None)


@pytest.mark.parametrize("path", ["fold", "matrix-free", "free"])
@pytest.mark.parametrize("adjoint", [False, True])
def test_block_records_match_per_step_loop(path, adjoint):
    # run_stabilization records in blocks of _RECORD_BLOCK // N states; a
    # per-step loop over _Stepper.step with np.vdot norms is the reference
    g, mask, cfg = _record_case(path)
    F = halfheat()
    rng = np.random.default_rng(11)
    f0 = field_from_values(g, rng.standard_normal(g.shape)
                           + 1j * rng.standard_normal(g.shape))
    rows = _RECORD_BLOCK // g.points
    assert rows == 64
    dt = 0.5 * cfg.dt_max if cfg is not None else 1e-4
    # shorter than a block, one step short of a block, exactly one block,
    # and a partial last block
    for n in (5, rows - 1, rows, 2 * rows + 10):
        res = run_stabilization(f0, F, mask, cfg, n * dt, dt=dt,
                                snapshot_every=7, adjoint_order=adjoint)
        assert res.trajectory.times.size == n + 1
        stepper = _Stepper(g, F, mask, cfg, res.dt, adjoint_order=adjoint)
        assert (stepper.op is None) == (path != "fold")
        c = stepper.enter(to_coefficients(f0))
        norm_sq, low_sq, snaps = [], [], []
        for k in range(n + 1):
            if k:
                stepper.step(c)
            flat = c.reshape(-1)
            low = flat[stepper.band]
            norm_sq.append(np.vdot(flat, flat).real / g.box_measure)
            low_sq.append(np.vdot(low, low).real / g.box_measure)
            if k % 7 == 0 or k == n:
                snaps.append((res.trajectory.times[k], stepper.leave(c)))
        norm_sq, low_sq = np.array(norm_sq), np.array(low_sq)
        mu = 1.0 if cfg is None else cfg.mu
        lyap = mu * low_sq + np.maximum(norm_sq - low_sq, 0.0)
        traj = res.trajectory
        for got, want in ((traj.norms, np.sqrt(norm_sq)),
                          (traj.low_norms, np.sqrt(low_sq)),
                          (traj.lyapunov, lyap)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert len(traj.snapshots) == len(snaps)
        for (t, got), (t_want, want) in zip(traj.snapshots, snaps):
            assert t == t_want and np.array_equal(got, want)


def _chunk_case(support):
    """(grid, mask, cfg) whose fold tables hold K > 1 powers on long runs."""
    if support == "1-D periodic":  # criterion 08: 16 fibers x 64 points x 3
        g = make_grid(1, 16.0, 1024)
        return g, make_periodic_thick(g, 1.0, 0.5), design_feedback(
            halfheat(), 8.0, C=1.0)
    if support == "1-D one fiber":
        g = make_grid(1, 16.0, 256)
        mask = make_random_thick(g, 1.0, 0.5, seed=3)
    elif support == "2-D periodic":
        g = make_grid(2, 16.0, 32)
        mask = make_periodic_thick(g, 2.0, 0.5)
    return g, mask, design_feedback(halfheat(), 2.0, C=1.0)


def _recorded_states(stepper, c, n):
    """The n > K states after c in the stepper's layout: S^K c from the tables'
    K-step pair (h_chunk, e_chunk), the states before and after it single steps."""
    K = stepper.chunk
    x = np.array([c, c])
    stepper.advance(x, (stepper.h_chunk, stepper.e_chunk))
    before, after = np.array([c] * K), np.array([x[1]] * (n - K + 1))
    stepper.advance(before)
    stepper.advance(after)
    states = [*before[1:], *after]
    assert len(states) == n
    return states


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("support", ["1-D periodic", "1-D one fiber",
                                     "2-D periodic"])
def test_chunked_steps_match_single_steps(support, adjoint):
    # a long-run stepper forms S^K c = diag(e_rest^K) c + H_K c_band (or its
    # adjoint) from the tables, and other steps one at a time; k single steps
    # of a one-step stepper are the reference, through a full chunk and one
    # step into the next
    g, mask, cfg = _chunk_case(support)
    F, dt = halfheat(), 0.5 * cfg.dt_max
    chunked = _Stepper(g, F, mask, cfg, dt, adjoint, steps=2 ** 20)
    single = _Stepper(g, F, mask, cfg, dt, adjoint)
    K = chunked.chunk
    assert K > 1 and single.chunk == 1
    rng = np.random.default_rng(4)
    c = chunked.enter(rng.standard_normal(g.shape)
                      + 1j * rng.standard_normal(g.shape))
    for k, got in enumerate(_recorded_states(chunked, c.copy(), K + 1), 1):
        single.step(c)
        err = np.linalg.norm(got - c) / np.linalg.norm(c)
        assert err <= 1e-13, (k, err)


@pytest.mark.parametrize("mask_seed", [3, None])
def test_adjoint_powers_are_hermitian_transposes(mask_seed):
    # S_adj = S_fwd^H, so every power a long-run stepper gives, through the
    # tables' S^K at K and K + 1, is the conjugate transpose of the forward
    # one: dense S^k from basis vectors
    g = make_grid(1, 16.0, 64)
    mask = (make_periodic_thick(g, 1.0, 0.5) if mask_seed is None
            else make_random_thick(g, 1.0, 0.5, seed=mask_seed))
    cfg = design_feedback(halfheat(), 2.0, C=1.0)
    powers = []
    for adjoint in (False, True):
        stepper = _Stepper(g, halfheat(), mask, cfg, cfg.dt_max, adjoint,
                           steps=2 ** 10)
        K = stepper.chunk
        assert K == 32
        cols = []
        for e in np.eye(g.points, dtype=complex):
            c = stepper.enter(e).reshape(stepper.order.shape)
            states = _recorded_states(stepper, c, K + 1)
            cols.append(np.array([stepper.leave(r).reshape(-1) for r in states]))
        powers.append(np.stack(cols, axis=-1))  # (K + 1, N, N), S^k columns
    fwd, adj = powers
    for k in range(K + 1):
        want = fwd[k].conj().T
        assert np.linalg.norm(adj[k] - want) <= 1e-13 * np.linalg.norm(want), k + 1


def test_chunk_size_rule():
    # K = 1 below 2^10 steps; above, K^2 <= steps and K tables H_k of
    # fibers x points x widest band entries fit in 3 * 2^14. A record pass
    # takes J <= K chunk starts, fewer if the starts and their products with
    # the tables (two in the forward order, one in the adjoint) would pass
    # _RECORD_BLOCK entries; starts holds one more row, for the next pass's start
    g, mask, cfg = _chunk_case("1-D periodic")
    F, dt = halfheat(), cfg.dt_max
    for steps, K in ((1, 1), (2 ** 10 - 1, 1), (2 ** 10, 16), (2 ** 20, 16)):
        stepper = _Stepper(g, F, mask, cfg, dt, steps=steps)
        assert stepper.chunk == K and stepper.op.shape == (16, 3, 64)
        assert K == 1 or (stepper.wt.shape == (16, K * 3, 64)
                          and stepper.bt.shape == (16, 3, K * 3)
                          and len(stepper.starts) == 16 + 1)
    # 16 fibers x 4 points x 1 band mode: 768 tables fit, so sqrt(steps) rules;
    # a start and its products take 16 (4 + 2 K) entries forward, 16 (4 + K)
    # in the adjoint order
    g = make_grid(1, 16.0, 64)
    mask, cfg = make_periodic_thick(g, 1.0, 0.5), design_feedback(F, 2.0)
    for steps, K, starts in ((2 ** 10 - 1, 1, None), (2 ** 10, 32, (32, 32)),
                             (2 ** 12, 64, (31, 60)), (2 ** 20, 768, (2, 5))):
        for adjoint in (False, True):
            stepper = _Stepper(g, F, mask, cfg, cfg.dt_max, adjoint, steps)
            assert stepper.chunk == K
            assert K == 1 or len(stepper.starts) == starts[adjoint] + 1


def _per_step_records(g, F, mask, cfg, dt, adjoint, f0, n, every=0):
    """norm^2, band norm^2 and snapshots (every k-th step and the last) of n
    single steps of a one-step stepper, with np.vdot norms."""
    stepper = _Stepper(g, F, mask, cfg, dt, adjoint)
    c = stepper.enter(to_coefficients(f0))
    norm_sq, low_sq, snaps = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n + 1):
            if k:
                stepper.step(c)
            low = c.reshape(-1)[stepper.band]
            norm_sq.append(np.vdot(c, c).real / g.box_measure)
            low_sq.append(np.vdot(low, low).real / g.box_measure)
            if every and (k % every == 0 or k == n):
                snaps.append(stepper.leave(c))
    return np.array(norm_sq), np.array(low_sq), snaps


@pytest.mark.parametrize("adjoint", [False, True])
def test_long_run_matches_per_step_loop(monkeypatch, adjoint):
    # one record block plus 31 steps, and two blocks plus 37, read their
    # records from the K-step tables (K = 16, 17, 24, each with a partial last
    # chunk), in passes of up to K chunk starts; the per-step loop over a
    # one-step stepper is the reference for norms, band norms and V. Only the
    # partial last chunk of a pass steps one step at a time, so a run takes
    # fewer than n single steps (advance's one-step calls). A run with
    # snapshots, every step, every 7 and every 97 steps, which no K divides,
    # takes its n single steps and holds the per-step loop's states bit for
    # bit, but for entries below _FLUSH_BELOW, which the flush may zero (the
    # adjoint one-fiber run reaches 1e-308); criterion 08's 1100-step run with
    # a snapshot every step too
    F, single, advance = halfheat(), [], _Stepper.advance

    def counted(self, rows, *pair):
        single.append(0 if pair else len(rows) - 1)
        advance(self, rows, *pair)

    monkeypatch.setattr(_Stepper, "advance", counted)
    for (support, K), (n, blocks) in itertools.product(
            (("1-D periodic", 16), ("1-D one fiber", 17), ("2-D periodic", 24)),
            ((2 ** 10 + 31, 1), (2 * 2 ** 10 + 37, 2))):
        g, mask, cfg = _chunk_case(support)
        rng = np.random.default_rng(12)
        f0 = field_from_values(g, rng.standard_normal(g.shape)
                               + 1j * rng.standard_normal(g.shape))
        stepper = _Stepper(g, F, mask, cfg, cfg.dt_max, adjoint, n)
        assert stepper.chunk == K and n // stepper.block == blocks and n % K > 0
        assert stepper.block > K * (len(stepper.starts) - 1)  # several passes a block
        norm_sq, low_sq, snaps = _per_step_records(g, F, mask, cfg, cfg.dt_max,
                                                   adjoint, f0, n, every=1)
        for every in (0, 1, 7, 97):
            single.clear()
            res = run_stabilization(f0, F, mask, cfg, n * cfg.dt_max,
                                    dt=cfg.dt_max, snapshot_every=every,
                                    adjoint_order=adjoint)
            assert sum(single) == n if every else 0 < sum(single) < n, (support, n, every)
            traj = res.trajectory
            assert traj.times.size == n + 1 and res.dt == cfg.dt_max
            for got, want in ((traj.norms, np.sqrt(norm_sq)),
                              (traj.low_norms, np.sqrt(low_sq)),
                              (traj.lyapunov, cfg.mu * low_sq + norm_sq - low_sq)):
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0,
                                           err_msg=support)
            ks = [round(t / res.dt) for t, _ in traj.snapshots]
            assert ks == ([*range(0, n, every), n] if every else [])
            for (t, got), k in zip(traj.snapshots, ks):
                tiny = np.abs(snaps[k]) < stabilize._FLUSH_BELOW
                assert np.array_equal(np.where(tiny, 0.0, got), np.where(tiny, 0.0, snaps[k]))
                assert np.all(np.abs(got[tiny]) < stabilize._FLUSH_BELOW), (support, every, k)
    g, mask, cfg = _chunk_case("1-D periodic")
    single.clear()
    run_stabilization(field_from_values(g, np.ones(g.shape)), F, mask, cfg, 1100 * cfg.dt_max,
                      dt=cfg.dt_max, snapshot_every=1, adjoint_order=adjoint)
    assert sum(single) == 1100


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("shift, match", [
    (100.0, "state became non-finite at step 536 "),
    (3.0, "Lyapunov functional increased at step (113|95):")])
def test_long_run_guards_name_the_per_step_step(monkeypatch, shift, match, adjoint):
    # the table records of a 1100-step fold run name the same step as the
    # per-step loop: F - 100 overflows mid-chunk (536 = 31 K + 9), and
    # F - 3 outgrows the gains designed for its tail, so V first rises at
    # step 113 (forward) or 95 (adjoint), both mid-chunk at K = 17. The
    # passes hold 17 chunk starts, then, on a smaller budget, 2, so that
    # every failure lands in a later pass than the first
    g, mask, _ = _chunk_case("1-D one fiber")
    F = shifted(halfheat(), shift)
    cfg = design_feedback(F, 2.0, C=1.0)
    rng = np.random.default_rng(5)
    f0 = field_from_values(g, rng.standard_normal(g.shape)
                           + 1j * rng.standard_normal(g.shape))
    n = 1100
    assert _Stepper(g, F, mask, cfg, cfg.dt_max, adjoint, n).chunk == 17
    norm_sq, low_sq, _ = _per_step_records(g, F, mask, cfg, cfg.dt_max,
                                           adjoint, f0, n)
    with np.errstate(over="ignore", invalid="ignore"):
        v = cfg.mu * low_sq + norm_sq - low_sq
        rise = np.flatnonzero(v[1:] > v[:-1] * (1.0 + 1e-8)) + 1
    bad = np.flatnonzero(~np.isfinite(norm_sq))
    step = bad[0] if bad.size else rise[0]
    want = f"non-finite at step {step} " if bad.size else f"at step {step}:"
    for starts, budget in ((17, _RECORD_BLOCK), (2, 1300)):
        monkeypatch.setattr("thickstab.stabilize._RECORD_BLOCK", budget)
        assert len(_Stepper(g, F, mask, cfg, cfg.dt_max, adjoint, n).starts) == starts + 1
        with pytest.raises(NumericalError, match=match) as err:
            run_stabilization(f0, F, mask, cfg, n * cfg.dt_max, dt=cfg.dt_max,
                              adjoint_order=adjoint, check_monotone=True)
        assert want in str(err.value)
    assert step > 2 * 17


def test_trajectory_csv_stride(tmp_path):
    g = make_grid(1, 16.0, 64)
    f0 = field_from_values(g, np.ones(g.shape))
    res = run_stabilization(f0, halfheat(), make_full(g), None, 1.0, dt=0.1)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(res, path, stride=3)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,norm,lyapunov,low_norm,high_norm"
    assert len(lines) == 1 + 5  # rows 0, 3, 6, 9 and the final row 10
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert "np.float64" not in path.read_text()
    write_trajectory_csv(res, path, stride=1)
    assert len(path.read_text().splitlines()) == 12
    for bad in (0, -1, 2.5):
        with pytest.raises(ValidationError, match="stride must be a positive integer"):
            write_trajectory_csv(res, path, stride=bad)


def test_mask_fractions_are_transformed_once(monkeypatch, tmp_path):
    # a mask takes its DFT when it is built; the estimator (fiber blocks and
    # one real block), a fold stepper's set-up, a 4-rung Kovrijkine ladder
    # and the CLI's stabilize with C = auto read it and transform no fractions
    fftn, seen = np.fft.fftn, []

    def recording(a, *args, **kwargs):
        if not np.iscomplexobj(a):
            seen.append(np.array(a))
        return fftn(a, *args, **kwargs)

    def count(frac):  # transforms of exactly these fractions since the last count
        n = sum(x.shape == frac.shape and np.array_equal(x, frac) for x in seen)
        seen.clear()
        return n

    monkeypatch.setattr(np.fft, "fftn", recording)
    g = make_grid(1, 16.0, 1024)
    mask = make_periodic_thick(g, 1.0, 0.5)
    assert count(mask.cell_fraction) == 1
    random = make_random_thick(make_grid(1, 16.0, 256), 1.0, 0.5, seed=3)
    assert count(random.cell_fraction) == 1
    estimate_spectral_constant(random, 4.0)
    assert count(random.cell_fraction) == 0
    assert estimate_spectral_constant(mask, 8.0) == pytest.approx(4.4873735863291, abs=1e-9)
    assert count(mask.cell_fraction) == 0
    cfg = design_feedback(halfheat(), 8.0, C=1.0)
    for adjoint in (False, True):
        assert _Stepper(g, halfheat(), mask, cfg, cfg.dt_max, adjoint, 2 ** 12).op is not None
        assert count(mask.cell_fraction) == 0
    assert len(kovrijkine_empirical(mask, (2.0, 4.0, 8.0, 16.0)).constants) == 4
    assert count(mask.cell_fraction) == 0
    ini = tmp_path / "stab.ini"
    ini.write_text("[grid]\nextent = 16.0\npoints = 64\n\n[symbol]\nfamily = halfheat\n\n"
                   "[mask]\nkind = periodic\nperiod = 1.0\nfill = 0.5\n\n[run]\nR = 2.0\nT = 0.5\n")
    frac = make_periodic_thick(make_grid(1, 16.0, 64), 1.0, 0.5).cell_fraction
    seen.clear()
    assert main(["stabilize", "--config", str(ini), "--out", str(tmp_path / "out")]) == 0
    assert count(frac) == 1  # the CLI's own mask, built once


@pytest.mark.parametrize("adjoint", [False, True])
def test_flush_keeps_records_bitwise(monkeypatch, adjoint):
    # criterion 08's support at R = 6 on 128 points, from a unit mode outside
    # the band (k = 17) and a mode at 1e-307 in another Bloch fiber (k = 18):
    # that fiber's entries reach the subnormal range while the state's largest
    # entry stays above 1e-3. Zeroing the carried state's entries below
    # _FLUSH_BELOW after each record block changes the state that the next
    # block starts from, and leaves every recorded number as it was.
    g, F = make_grid(1, 16.0, 128), halfheat()
    mask, cfg = make_periodic_thick(g, 1.0, 0.5), design_feedback(F, 6.0, C=1.0)
    coef = np.zeros(g.shape, dtype=complex)
    coef[17], coef[18] = g.box_measure, 1e-307 * g.box_measure
    f0, record, starts = from_coefficients(g, coef), _Stepper.record, []

    def recording(self, c, *args):  # the state each record block starts from
        starts[-1].append(np.abs(c))
        return record(self, c, *args)

    monkeypatch.setattr(_Stepper, "record", recording)
    runs = []
    for below in (stabilize._FLUSH_BELOW, 0.0):  # nothing is below 0: no flush
        monkeypatch.setattr(stabilize, "_FLUSH_BELOW", below)
        starts.append([])
        runs.append(run_stabilization(f0, F, mask, cfg, 1.0, adjoint_order=adjoint))
    flushed, plain = starts
    assert len(plain) > 20 and min(a.max() for a in plain) > 1e-3
    assert all(np.any((0 < a) & (a < np.finfo(float).tiny)) for a in plain[1:])
    assert not any(np.any((0 < a) & (a < 1e-290)) for a in flushed[1:])
    assert all(np.count_nonzero(a) < np.count_nonzero(b)
               for a, b in zip(flushed[1:], plain[1:]))
    for name in ("norms", "lyapunov", "low_norms", "high_norms"):
        assert (getattr(runs[0].trajectory, name).tobytes()
                == getattr(runs[1].trajectory, name).tobytes()), name
    assert runs[0].fitted_rate == runs[1].fitted_rate


@pytest.mark.parametrize("points, R, T, adjoint", [
    (64, 2.0, 200.0, False), (64, 2.0, 200.0, True), (512, 7.0, 2.0, True)])
def test_dead_run_flushes_to_zero(monkeypatch, points, R, T, adjoint):
    # from the constant mode, on criterion 08's support, the norm reads 0 long
    # before T. The flush guard reads the initial state, so the flush keeps
    # zeroing the decayed state, which ends exactly zero; left unflushed, the
    # 512-point run keeps subnormal entries that a step rounds back to
    # themselves. The records are those of the unflushed run, bit for bit
    g, F = make_grid(1, 16.0, points), halfheat()
    mask, cfg = make_periodic_thick(g, 1.0, 0.5), design_feedback(F, R, C=1.0)
    f0, record, ends = field_from_values(g, np.ones(g.shape)), _Stepper.record, []

    def recording(self, c, *args):  # the last state of each block, flushed in place
        out = record(self, c, *args)
        ends.append(out[0])
        return out

    monkeypatch.setattr(_Stepper, "record", recording)
    runs, last = [], []
    for below in (stabilize._FLUSH_BELOW, 0.0):  # nothing is below 0: no flush
        monkeypatch.setattr(stabilize, "_FLUSH_BELOW", below)
        runs.append(run_stabilization(f0, F, mask, cfg, T, adjoint_order=adjoint).trajectory)
        last.append(ends[-1].copy())
    assert len(runs[0].norms) > 2 ** 10 and not runs[0].norms[len(runs[0].norms) // 2:].any()
    assert not last[0].any()
    assert points == 64 or last[1].any()
    for name in ("norms", "lyapunov", "low_norms", "high_norms"):
        assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes(), name


@pytest.mark.parametrize("adjoint", [False, True])
def test_tiny_run_keeps_snapshots_bitwise(monkeypatch, adjoint):
    # a state that starts below _FLUSH_GUARD is never flushed: its high modes
    # pass below _FLUSH_BELOW, and its snapshots and records stay those of a
    # run with no flush, bit for bit
    g, F = make_grid(1, 16.0, 64), halfheat()
    mask, cfg = make_periodic_thick(g, 1.0, 0.5), design_feedback(F, 2.0, C=1.0)
    rng = np.random.default_rng(7)
    f0 = field_from_values(g, 1e-260 * rng.standard_normal(g.shape))
    runs = []
    for below in (stabilize._FLUSH_BELOW, 0.0):
        monkeypatch.setattr(stabilize, "_FLUSH_BELOW", below)
        runs.append(run_stabilization(f0, F, mask, cfg, 10.0, snapshot_every=100,
                                      adjoint_order=adjoint).trajectory)
    snaps = np.array([x for _, x in runs[1].snapshots])
    assert np.any((0 < np.abs(snaps)) & (np.abs(snaps) < 1e-290))
    assert np.array_equal(np.array([x for _, x in runs[0].snapshots]), snaps)
    for name in ("norms", "lyapunov", "low_norms", "high_norms"):
        assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes(), name
