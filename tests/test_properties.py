"""Property checks on random grids, masks and radii (hypothesis).

The closed-form band Gram must act like the FFT-applied mask form on the
band, the closed-loop stepper (dense or FFT) must agree with a Strang step
written out from that form, and the restricted-norm march must agree with a
plain per-step loop through the public field functions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thickstab.grid import (from_coefficients, make_grid, restricted_norm,
                            semigroup_multiplier)
from thickstab.observe import _restricted_march
from thickstab.stabilize import (_DENSE_STEP_MAX, FeedbackConfig, _Stepper,
                                 _apply_band_gram, _band_gram, _band_indices)
from thickstab.symbols import fractional, halfheat
from thickstab.thick import SupportMask

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)


def _mask(draw, grid):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frac = rng.uniform(0.0, 1.0, grid.shape)
    if draw(st.booleans()):
        frac = (frac < draw(st.floats(0.05, 0.95))).astype(float)
    return SupportMask(grid=grid, cell_fraction=frac), rng


@st.composite
def grid_and_mask(draw):
    """A 1-D or 2-D grid with a seeded mask: fractional cells or a 0/1 set."""
    dim = draw(st.sampled_from((1, 2)))
    points = draw(st.sampled_from((8, 16, 32, 64) if dim == 1 else (8, 16, 32)))
    grid = make_grid(dim, draw(st.floats(2.0, 40.0)), points)
    return (grid,) + _mask(draw, grid)


@PROPERTY_SETTINGS
@given(grid_and_mask(), st.floats(0.0, 1.0))
def test_band_gram_matches_fft_matvec(case, r_fraction):
    grid, mask, rng = case
    idx = _band_indices(grid, r_fraction * grid.xi_max)
    gram = _band_gram(grid, mask.cell_fraction, idx)
    w = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
    z = np.zeros(grid.shape, dtype=complex)
    want = _apply_band_gram(grid, mask.cell_fraction, idx, w, z)
    # the mask form is a contraction, so ||w|| is the scale of both sides
    assert np.linalg.norm(gram @ w - want) <= 1e-12 * np.linalg.norm(w)


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


@st.composite
def stepper_case(draw):
    """A grid, mask and radius on a drawn side of the dense/FFT crossover."""
    dense = draw(st.booleans())
    dim, points, lo, hi = draw(st.sampled_from(
        ((1, 64, 0.01, 1.0), (1, 1024, 0.01, 0.1), (2, 16, 0.01, 1.0),
         (2, 32, 0.01, 0.3)) if dense else
        ((1, 1024, 0.2, 0.6), (2, 32, 0.5, 0.8), (2, 64, 0.15, 0.3))))
    grid = make_grid(dim, draw(st.floats(2.0, 40.0)), points)
    R = draw(st.floats(lo, hi)) * grid.xi_max
    return (grid, R, dense) + _mask(draw, grid)


@PROPERTY_SETTINGS
@given(stepper_case(), st.booleans(), st.floats(0.1, 100.0),
       st.floats(0.1, 1.0))
def test_stepper_matches_strang_reference(case, adjoint, lam, dt_fraction):
    grid, R, dense, mask, rng = case
    frac = mask.cell_fraction
    idx = _band_indices(grid, R)
    assert (frac.size * len(idx) <= _DENSE_STEP_MAX) == dense
    F = halfheat()
    cfg = FeedbackConfig(R=R, C=1.0, inf_F=0.0, alpha_R=1.0, alpha_tilde=1.0,
                         lam=lam, mu=2.0, predicted_rate=0.5)
    dt = dt_fraction * cfg.dt_max
    stepper = _Stepper(grid, F, mask, cfg, dt, adjoint_order=adjoint)
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
    c, ref = c0.copy(), c0.copy()
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
    assert np.linalg.norm(c - ref) <= 1e-12 * np.linalg.norm(ref)
