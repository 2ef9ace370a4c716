"""Closed-loop stabilization: gains, spectral constants, stepping, Lyapunov decay.

The spectral-constant oracle is a dense band matrix built with explicit loops
and eigvalsh, independent of the package's closed-form Gram gather.
The Bloch-fiber constant is also checked against one dense eigvalsh of the
whole closed-form band Gram. The stepping oracles are the commuting full-box
case, where the feedback is exactly lam K_R and every mode evolves by a
scalar exponential, and a Strang step written out with plain FFTs. The
stacked Duhamel residual is checked against a loop over the snapshots.
"""

import math

import numpy as np
import pytest

from thickstab.errors import (ConvergenceError, NumericalError,
                              ValidationError)
from thickstab.grid import (field_from_values, make_grid, norm,
                            semigroup_multiplier, to_coefficients)
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
                {"lam": 0.0}, {"mu": 1.5}):
        with pytest.raises(ValidationError):
            FeedbackConfig(**{**ok, **bad})


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
    empty = SupportMask(grid=g, cell_fraction=np.zeros(g.shape),
                        certificate=None, spec=None)
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
            SupportMask(grid=g2, cell_fraction=line, certificate=None,
                        spec=None), 0.5)
    # graded along the line it has no shorter period and 16 cells for the 5
    # modes, so the count passes, but the 5-mode band Gram is singular
    line[0] = np.linspace(0.5, 1.0, 16)
    with pytest.raises(NumericalError, match="singular"):
        estimate_spectral_constant(
            SupportMask(grid=g2, cell_fraction=line, certificate=None,
                        spec=None), 0.5)


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
    nudged = SupportMask(grid=g, cell_fraction=frac, certificate=None, spec=None)
    assert nudged.periods == (256,)
    check(nudged, 8.0, 1)
    # periodic along the second axis only: fibers along that axis only
    g2 = make_grid(2, 16.0, 32)
    frac2 = np.tile(rng.uniform(0.0, 1.0, (32, 8)), (1, 4))
    one_axis = SupportMask(grid=g2, cell_fraction=frac2, certificate=None,
                           spec=None)
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
    # thinning the quadrature to 60 points degrades but stays small
    assert duhamel_residual(res, F, mask, max_points=60) < 1e-4
    adj = run_stabilization(f0, F, mask, cfg, 0.5, dt=1e-3, snapshot_every=1,
                            adjoint_order=True)
    assert duhamel_residual(adj, F, mask) < 1e-6

    free = run_stabilization(f0, F, mask, None, 0.5, dt=1e-3, snapshot_every=1)
    assert duhamel_residual(free, F, mask) < 1e-12

    bare = run_stabilization(f0, F, mask, None, 0.5, dt=1e-3)
    with pytest.raises(ValidationError, match="snapshot"):
        duhamel_residual(bare, F, mask)


def duhamel_loop(result, F, mask, max_points=None):
    """The Duhamel residual one snapshot at a time through the public
    multipliers, thinned like the package's. The residual is a difference of
    nearly equal vectors, so its last digits follow the order of the sum:
    the trapezoid sum is accumulated on its own and in time order."""
    snaps = list(result.trajectory.snapshots)
    if max_points is not None and len(snaps) > max_points:
        keep = np.linspace(0, len(snaps) - 1, max_points).round().astype(int)
        snaps = [snaps[i] for i in np.unique(keep)]
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
    # adjoint order, thinned to 60 points and a free run. Stacks hold 32
    # (1-D) or 4 (2-D) snapshots, so the run's 201 end in a short stack
    g = make_grid(dim, 16.0, points)
    F = halfheat()
    mask = make_random_thick(g, 2.0, 0.3, 1)
    cfg = design_feedback(F, 1.0, C=1.0)
    rng = np.random.default_rng(9)
    f0 = field_from_values(g, rng.standard_normal(g.shape)
                           + 1j * rng.standard_normal(g.shape))
    for conf, adjoint, max_points in ((cfg, False, None), (cfg, True, None),
                                      (cfg, False, 60), (cfg, True, 60),
                                      (None, False, None)):
        res = run_stabilization(f0, F, mask, conf, 0.2, dt=1e-3,
                                snapshot_every=1, adjoint_order=adjoint)
        got = duhamel_residual(res, F, mask, max_points=max_points)
        want = duhamel_loop(res, F, mask, max_points)
        assert abs(got - want) <= 1e-10 * want


def test_duhamel_max_points_validation():
    # at least 3 snapshots, as the run itself must store: 0 used to end in an
    # IndexError, -3 in a numpy ValueError and 1 in a misleading "span" error
    g = make_grid(1, 16.0, 64)
    F = halfheat()
    mask = make_periodic_thick(g, 1.0, 0.5)
    f0 = field_from_values(g, np.exp(-((g.axis_x - 8.0) ** 2)))
    res = run_stabilization(f0, F, mask, design_feedback(F, 1.0), 0.05,
                            dt=1e-3, snapshot_every=1)
    for bad in (0, -3, 1, 2, 2.5, 60.0, "60", True):
        with pytest.raises(ValidationError, match="max_points must be an "
                           f"integer >= 3, got {bad!r}"):
            duhamel_residual(res, F, mask, max_points=bad)
    assert np.isfinite(duhamel_residual(res, F, mask, max_points=3))
    assert duhamel_residual(res, F, mask, max_points=np.int64(40)) < 1e-4


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
    # tail fitting isolates the slow mode of a two-mode mixture
    f1 = field_from_values(g, np.exp(2j * np.pi * 2 * x / 16.0)
                           + np.exp(2j * np.pi * 40 * x / 16.0))
    slow = 2.0 * np.pi * 2 / 16.0
    late = run_stabilization(f1, halfheat(), mask, None, 2.0,
                             tail_fraction=0.25)
    full_fit = run_stabilization(f1, halfheat(), mask, None, 2.0,
                                 tail_fraction=1.0)
    assert late.fitted_rate < full_fit.fitted_rate
    assert abs(late.fitted_rate - slow) < 1e-3


def test_run_validation_and_snapshot_endpoints():
    g = make_grid(1, 16.0, 64)
    f0 = field_from_values(g, np.ones(g.shape))
    mask = make_full(g)
    with pytest.raises(ValidationError):
        run_stabilization(f0, halfheat(), mask, None, 0.0)
    with pytest.raises(ValidationError):
        run_stabilization(f0, halfheat(), mask, None, 1.0, tail_fraction=0.0)
    with pytest.raises(ValidationError):
        run_stabilization(f0, halfheat(), mask, None, 1.0, dt=-0.1)
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
    with pytest.raises(ValidationError):
        write_trajectory_csv(res, path, stride=0)
