"""Property checks on random grids, masks and radii (hypothesis).

The closed-form band Gram must act like the FFT-applied mask form on the
band, and the restricted-norm march must agree with a plain per-step loop
through the public field functions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thickstab.grid import (from_coefficients, make_grid, restricted_norm,
                            semigroup_multiplier)
from thickstab.observe import _restricted_march
from thickstab.stabilize import _apply_band_gram, _band_gram, _band_indices
from thickstab.symbols import fractional, halfheat
from thickstab.thick import SupportMask

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)


@st.composite
def grid_and_mask(draw):
    """A 1-D or 2-D grid with a seeded mask: fractional cells or a 0/1 set."""
    dim = draw(st.sampled_from((1, 2)))
    points = draw(st.sampled_from((8, 16, 32, 64) if dim == 1 else (8, 16, 32)))
    extent = draw(st.floats(2.0, 40.0))
    grid = make_grid(dim, extent, points)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frac = rng.uniform(0.0, 1.0, grid.shape)
    if draw(st.booleans()):
        frac = (frac < draw(st.floats(0.05, 0.95))).astype(float)
    return grid, SupportMask(grid=grid, cell_fraction=frac), rng


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
