"""Property checks on random grids, masks and radii (hypothesis).

The closed-form band Gram, fiber block by fiber block, must act like the
FFT-applied mask form on the band, the closed-loop stepper (fiber fold or
matrix-free) must agree with a Strang step written out from that form and
commute with a shift by one period of the mask, and the restricted-norm
march must agree with a plain per-step loop through the public field
functions. The cube classifier's window sums must match a loop over the
cubes. The coefficient transform must keep Parseval's identity, and the
semigroup multipliers must compose. The control synthesizer's FFT-applied
Gramian must match its dense closed form, and a dense solve of the dual
system must give the synthesizer's ratio and cost.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thickstab.errors import ConvergenceError
from thickstab.grid import (field_from_values, from_coefficients, make_grid,
                            norm, restricted_norm, semigroup_multiplier,
                            to_coefficients)
from thickstab.observe import (_cube_sums, _restricted_march,
                               synthesize_control)
from thickstab.stabilize import (_DENSE_STEP_MAX, FeedbackConfig, _Stepper,
                                 _apply_band_gram, _band_indices, _fiber_form,
                                 _fibers, _mask_form)
from thickstab.symbols import (constant, fractional, halfheat, iterated,
                               loglog, saturating)
from thickstab.thick import SupportMask

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)


def _mask(draw, grid, period=None):
    """Seeded cell fractions, fractional or a 0/1 set, drawn on one period
    of `period` points per axis (the whole grid by default) and tiled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    period = period or grid.points
    frac = rng.uniform(0.0, 1.0, (period,) * grid.dim)
    if draw(st.booleans()):
        frac = (frac < draw(st.floats(0.05, 0.95))).astype(float)
    frac = np.tile(frac, (grid.points // period,) * grid.dim)
    return SupportMask(grid=grid, cell_fraction=frac), rng


@st.composite
def grid_and_mask(draw):
    """A 1-D or 2-D grid with a seeded mask, repeating with a drawn period
    or not at all."""
    dim = draw(st.sampled_from((1, 2)))
    points = draw(st.sampled_from((8, 16, 32, 64) if dim == 1 else (8, 16, 32)))
    grid = make_grid(dim, draw(st.floats(2.0, 40.0)), points)
    period = draw(st.sampled_from((points, points // 2, points // 8)))
    return (grid,) + _mask(draw, grid, period)


@PROPERTY_SETTINGS
@given(grid_and_mask(), st.floats(0.0, 1.0))
def test_band_gram_matches_fft_matvec(case, r_fraction):
    grid, mask, rng = case
    frac = mask.cell_fraction
    idx = _band_indices(grid, r_fraction * grid.xi_max)
    w = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
    z = np.zeros(grid.shape, dtype=complex)
    want = np.zeros(z.size, dtype=complex)
    want[idx] = _apply_band_gram(grid, frac, idx, w, z)
    lattice = np.zeros(z.size, dtype=complex)
    lattice[idx] = w
    # block by block: the band modes of each Bloch fiber
    band, counts, _ = _fibers(mask, idx)
    fhat = np.fft.fftn(frac) / frac.size
    for fiber in np.split(band, np.cumsum(counts)[:-1]):
        if len(fiber):
            got = _fiber_form(fhat, fiber[None], fiber[None])[0] @ lattice[fiber]
            # the mask form is a contraction, so ||w|| is the scale
            assert np.linalg.norm(got - want[fiber]) <= 1e-12 * np.linalg.norm(w)


@PROPERTY_SETTINGS
@given(grid_and_mask(), st.sampled_from(("halfheat", "fractional")),
       st.floats(0.01, 1.0), st.integers(1, 12))
def test_restricted_march_matches_per_step_loop(case, family, dt, steps):
    grid, mask, rng = case
    F = halfheat() if family == "halfheat" else fractional(1.0)
    e_step = semigroup_multiplier(grid, F, dt)
    c0 = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    c = c0.copy()
    got = _restricted_march(grid, c, e_step, mask.cell_fraction, steps)

    ref = c0.copy()
    want = np.empty(steps + 1)
    for k in range(steps + 1):
        if k > 0:
            ref = ref * e_step
        want[k] = restricted_norm(from_coefficients(grid, ref), mask) ** 2
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.array_equal(c, ref)


# (fiber fold?, dim, points, R range as a fraction of xi_max, tile periods);
# an empty period list leaves the mask untiled (one fiber)
STEPPER_CASES = (
    (True, 1, 64, 0.01, 1.0, ()), (True, 1, 1024, 0.01, 0.45, ()),
    (True, 2, 16, 0.01, 1.0, ()), (True, 2, 32, 0.01, 0.75, ()),
    (True, 2, 64, 0.01, 0.15, ()), (True, 1, 1024, 0.01, 1.0, (8, 16, 64)),
    (True, 2, 32, 0.01, 1.0, (4, 8)), (True, 2, 64, 0.01, 1.0, (4, 8)),
    (False, 1, 1024, 0.55, 1.0, ()), (False, 2, 32, 0.85, 1.0, ()),
    (False, 2, 64, 0.25, 0.5, ()), (False, 2, 64, 0.5, 0.75, ()),
    (False, 2, 64, 0.45, 1.0, (32,)))


@st.composite
def stepper_case(draw, tiled=False):
    """A grid, radius and mask on a drawn side of the fold/matrix-free
    crossover, with the tile period (the grid size when untiled). The case
    is a wide integer mod the case count: hypothesis draws small indices
    far more often than large ones."""
    cases = [c for c in STEPPER_CASES if c[5] or not tiled]
    dense, dim, points, lo, hi, periods = cases[
        draw(st.integers(0, 2**32 - 1)) % len(cases)]
    grid = make_grid(dim, draw(st.floats(2.0, 40.0)), points)
    R = draw(st.floats(lo, hi)) * grid.xi_max
    period = draw(st.sampled_from(periods)) if periods else points
    return (grid, R, dense, period) + _mask(draw, grid, period)


def _test_config(R, lam):
    return FeedbackConfig(R=R, C=1.0, inf_F=0.0, alpha_R=1.0, alpha_tilde=1.0,
                          lam=lam, mu=2.0, predicted_rate=0.5)


@PROPERTY_SETTINGS
@given(stepper_case(), st.booleans(), st.floats(0.1, 100.0),
       st.floats(0.1, 1.0))
def test_stepper_matches_strang_reference(case, adjoint, lam, dt_fraction):
    grid, R, dense, _, mask, rng = case
    frac = mask.cell_fraction
    idx = _band_indices(grid, R)
    _, counts, _ = _fibers(mask, idx)
    assert (frac.size * counts.max() <= _DENSE_STEP_MAX) == dense
    F = halfheat()
    cfg = _test_config(R, lam)
    dt = dt_fraction * cfg.dt_max
    stepper = _Stepper(grid, F, mask, cfg, dt, adjoint_order=adjoint)
    assert (stepper.op is not None) == dense
    e_half = semigroup_multiplier(grid, F, 0.5 * dt)
    z = np.zeros(grid.shape, dtype=complex)

    def stages(w):
        # four explicit stages of w' = -lam G w: sum_j (-dt lam)^j / j! G^{j-1} w
        out, coeff = np.zeros_like(w), 1.0
        for j in range(1, 5):
            coeff *= -dt * lam / j
            out += coeff * w
            w = _apply_band_gram(grid, frac, idx, w, z)
        return out

    c0 = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    c, ref = stepper.enter(c0), c0.copy()
    for _ in range(50):
        stepper.step(c)
        ref = ref * e_half
        if adjoint:
            v = np.fft.fftn(frac * np.fft.ifftn(ref)).reshape(-1)[idx]
            ref.reshape(-1)[idx] += stages(v)
        else:
            band = np.zeros(grid.shape, dtype=complex)
            band.reshape(-1)[idx] = stages(ref.reshape(-1)[idx])
            ref = ref + np.fft.fftn(frac * np.fft.ifftn(band))
        ref = ref * e_half
    c = stepper.leave(c)
    assert np.linalg.norm(c - ref) <= 1e-12 * np.linalg.norm(ref)


@PROPERTY_SETTINGS
@given(stepper_case(tiled=True), st.booleans(), st.floats(0.1, 100.0),
       st.integers(0, 1))
def test_stepper_commutes_with_period_shift(case, adjoint, lam, axis):
    # the fiber layout rests on this: 1_omega commutes with a shift by one
    # period of the mask, and K_R and the multipliers with every shift
    grid, R, _, period, mask, rng = case
    axis = min(axis, grid.dim - 1)
    cfg = _test_config(R, lam)
    stepper = _Stepper(grid, halfheat(), mask, cfg, cfg.dt_max,
                       adjoint_order=adjoint)

    def run(f):
        c = stepper.enter(to_coefficients(f))
        for _ in range(10):
            stepper.step(c)
        return from_coefficients(grid, stepper.leave(c)).values

    f = field_from_values(grid, rng.standard_normal(grid.shape)
                          + 1j * rng.standard_normal(grid.shape))
    rolled = field_from_values(grid, np.roll(f.values, period, axis))
    want = np.roll(run(f), period, axis)
    assert np.linalg.norm(run(rolled) - want) <= 1e-12 * np.linalg.norm(want)


@PROPERTY_SETTINGS
@given(st.sampled_from((1, 2)), st.integers(1, 8), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_cube_sums_match_brute_force(dim, W, cubes, seed):
    sq = np.random.default_rng(seed).uniform(0.0, 1.0, (cubes * W,) * dim)
    got = _cube_sums(sq, W, dim)
    assert got.shape == (cubes,) * dim
    for q in np.ndindex(got.shape):
        want = sq[tuple(slice(i * W, (i + 1) * W) for i in q)].sum()
        assert abs(got[q] - want) <= 1e-12 * want


@st.composite
def any_grid(draw):
    dim = draw(st.sampled_from((1, 2)))
    points = draw(st.sampled_from((8, 16, 32, 64, 1024) if dim == 1
                                  else (8, 16, 32, 64)))
    return make_grid(dim, draw(st.floats(2.0, 40.0)), points)


@st.composite
def symbol(draw):
    family = draw(st.sampled_from(("halfheat", "fractional", "loglog",
                                   "iterated", "saturating", "constant")))
    if family == "halfheat":
        return halfheat()
    if family == "fractional":
        return fractional(draw(st.floats(0.1, 2.0)))
    if family == "loglog":
        return loglog(draw(st.floats(0.5, 2.0)), draw(st.floats(0.0, 3.0)))
    if family == "iterated":
        return iterated(draw(st.integers(1, 4)))
    if family == "saturating":
        return saturating(draw(st.floats(0.5, 4.0)), 200.0)
    return constant(draw(st.floats(-2.0, 5.0)))


@PROPERTY_SETTINGS
@given(any_grid(), st.integers(0, 2**32 - 1))
def test_parseval(grid, seed):
    rng = np.random.default_rng(seed)
    f = field_from_values(grid, rng.standard_normal(grid.shape)
                          + 1j * rng.standard_normal(grid.shape))
    c = to_coefficients(f)
    assert abs(norm(f) ** 2 - np.vdot(c, c).real / grid.box_measure) \
        <= 1e-12 * norm(f) ** 2
    # and back: coefficients drawn directly map to a field of the same norm
    c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    sq = np.vdot(c, c).real / grid.box_measure
    assert abs(norm(from_coefficients(grid, c)) ** 2 - sq) <= 1e-12 * sq


@PROPERTY_SETTINGS
@given(any_grid(), symbol(), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_semigroup_composition(grid, F, s, t):
    got = semigroup_multiplier(grid, F, s) * semigroup_multiplier(grid, F, t)
    want = semigroup_multiplier(grid, F, s + t)
    # relative 1e-12; products below the normal range lose relative digits
    # to gradual underflow, so they are held to that range's floor instead
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=np.finfo(float).tiny)


@st.composite
def dual_case(draw):
    """A small grid (1-D up to 64 points, 2-D 8 x 8) with a seeded mask,
    tiled with a drawn period or not at all, and a control problem on it."""
    dim = draw(st.sampled_from((1, 2)))
    points = draw(st.sampled_from((8, 16, 32, 64))) if dim == 1 else 8
    grid = make_grid(dim, draw(st.floats(2.0, 20.0)), points)
    period = draw(st.sampled_from((points, points // 2, points // 4)))
    mask, rng = _mask(draw, grid, period)
    F = draw(st.sampled_from((halfheat(), fractional(1.0))))
    return (grid, mask, rng, F, draw(st.floats(0.1, 2.0)),
            draw(st.integers(1, 8)), draw(st.floats(0.1, 0.9)))


@PROPERTY_SETTINGS
@given(dual_case())
def test_dense_dual_oracle(case):
    grid, mask, rng, F, T, slices, eps = case
    frac, dt = mask.cell_fraction, T / slices
    f = F.eval(grid.rho).ravel()
    # theta_i = int over slice i of e^{-(T - s) F} ds, in closed form
    unit = np.divide(-np.expm1(-dt * f), f, out=np.full(f.shape, dt),
                     where=f > 0)
    theta = np.stack([np.exp(-(T - (i + 1) * dt) * f) * unit
                      for i in range(slices)])
    # G = T o (Theta^T Theta) with T[k, j] = frac_hat(k - j) / N^d
    k = np.indices(grid.shape).reshape(grid.dim, -1)
    diff = tuple((a[:, None] - a[None, :]) % grid.points for a in k)
    G = (np.fft.fftn(frac) / frac.size)[diff] * (theta.T @ theta)
    scale = max(np.abs(G).max(), np.finfo(float).tiny)
    assert np.abs(G - G.conj().T).max() <= 1e-12 * scale
    z = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    gz = sum(t.reshape(grid.shape)
             * _mask_form(frac, t.reshape(grid.shape) * z) for t in theta)
    assert np.linalg.norm(G @ z.ravel() - gz.ravel()) \
        <= 1e-12 * np.linalg.norm(gz)

    f0 = field_from_values(grid, rng.standard_normal(grid.shape)
                           + 1j * rng.standard_normal(grid.shape))
    c0 = to_coefficients(f0).ravel()
    try:
        res = synthesize_control(f0, F, mask, T, eps, slices=slices)
        penalty = res.penalty
    except ConvergenceError as exc:
        assert "penalty ladder" in str(exc)
        res, penalty = None, 1e11  # the last of the twelve default rungs
    kappa = penalty / eps
    zz = np.linalg.solve(dt * np.eye(f.size) + kappa * G, np.exp(-T * f) * c0)
    # f(T) = y - kappa G z = dt z, and the cost is dt kappa^2 z^H G z / box
    ratio = dt * np.linalg.norm(zz) / np.linalg.norm(c0)
    if res is None:
        assert ratio > eps
        return
    cost = dt * kappa**2 * np.vdot(zz, G @ zz).real / grid.box_measure
    assert abs(res.ratio - ratio) <= 1e-8 * ratio
    assert abs(res.cost - cost) <= 1e-8 * cost
