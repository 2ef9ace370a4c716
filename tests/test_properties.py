"""Property checks on random grids, masks and radii (hypothesis).

The closed-form band Gram, fiber block by fiber block, must act like the
FFT-applied mask form on the band, and the stepper's rectangular blocks
must equal a dense modular gather exactly. Every fiber's block must be the
one circulant of the mask's DFT on the fiber's local indices. The fiber
layout must equal a stable sort of the lattice by fiber (an oracle kept
here), on masks periodic along every axis, one axis or none, and its
classes must group exactly the fibers with the same band local indices. The
blocks built once per class of fibers must equal a fiber-by-fiber build, and
its spectral constants a fiber-by-fiber eigensolve, to the bit. For a support
with no period,
its real block in the basis cos(k.x), sin(k.x) must be exactly symmetric,
equal W^H G W entry by entry and have the spectrum of the dense complex
Gram G, and the spectral constant must be 1/sqrt of its least
eigenvalue, Nyquist modes in the band or not. The
closed-loop stepper (fiber fold or matrix-free) must agree with a Strang
step written out from that form and commute with a shift by one period of
the mask, and each row of a stacked
restricted-norm march must agree with a plain per-step loop through the
public field functions, and equal one inverse FFT per time to the bit
across the march's chunks of times. The cube classifier's window sums must
match a loop over the cubes. The coefficient transform must keep Parseval's identity, and the
semigroup multipliers must compose. The control synthesizer's stacked
Gramian apply must match its dense closed form at every stack size, its
closed-form diagonal must match the dense diagonal, and a dense solve of the
dual system must give the synthesizer's ratio and cost.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickstab import grid as grid_module, observe
from thickstab.errors import ConvergenceError
from thickstab.grid import (field_from_values, from_coefficients, make_grid,
                            norm, restricted_norm, semigroup_multiplier,
                            to_coefficients)
from thickstab.observe import (_cube_sums, _restricted_march,
                               synthesize_control)
from thickstab.stabilize import (_DENSE_STEP_MAX, FeedbackConfig, _Stepper,
                                 _apply_band_gram, _band_indices, _fiber_form,
                                 _fibers, _real_form, _stages, design_feedback,
                                 estimate_spectral_constant)
from thickstab.symbols import (constant, fractional, halfheat, iterated,
                               loglog, saturating)
from thickstab.thick import (SupportMask, make_full, make_periodic_thick,
                             make_random_thick)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)


def _oracle_fibers(mask, points):
    """The flat lattice indices points sorted stably by Bloch fiber r = k mod M
    (M = N / period per axis), the number of them in each fiber and M: the
    reference for stabilize._fibers's index-arithmetic layout."""
    m = tuple(n // p for n, p in zip(mask.grid.shape, mask.periods))
    k = np.unravel_index(points, mask.grid.shape)
    fiber = np.ravel_multi_index([a % r for a, r in zip(k, m)], m)
    return (points[np.argsort(fiber, kind="stable")],
            np.bincount(fiber, minlength=math.prod(m)), m)


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
    want[idx] = _apply_band_gram(frac, idx, w, z)
    lattice = np.zeros(z.size, dtype=complex)
    lattice[idx] = w
    # block by block: the band modes of each Bloch fiber
    band, counts, _ = _oracle_fibers(mask, idx)
    fhat = np.fft.fftn(frac) / frac.size
    for fiber in np.split(band, np.cumsum(counts)[:-1]):
        if len(fiber):
            got = _fiber_form(fhat, fiber[None], fiber[None])[0] @ lattice[fiber]
            # the mask form is a contraction, so ||w|| is the scale
            assert np.linalg.norm(got - want[fiber]) <= 1e-12 * np.linalg.norm(w)


def _dense_gram(mask, band):
    """The complex band Gram G[a, b] = frac_hat(k_a - k_b) / N^dim."""
    k = np.unravel_index(band, mask.grid.shape)
    fhat = np.fft.fftn(mask.cell_fraction) / mask.cell_fraction.size
    return fhat[tuple((a[:, None] - a[None, :]) % mask.grid.points for a in k)]


@pytest.mark.parametrize("dim, points, period", [(1, 64, 8), (2, 16, 4), (1, 64, 64), (2, 16, 16)])
def test_rectangular_fiber_blocks_match_dense_gather(dim, points, period):
    # the stepper's blocks: every point of a fiber against its band columns,
    # padded to the widest band; tiled masks have several fibers, untiled one
    grid = make_grid(dim, 16.0, points)
    rng = np.random.default_rng(points + period)
    frac = np.tile(rng.uniform(0.0, 1.0, (period,) * dim), (points // period,) * dim)
    mask = SupportMask(grid=grid, cell_fraction=frac)
    cfg = _test_config(0.3 * grid.xi_max, 1.0)
    stepper = _Stepper(grid, halfheat(), mask, cfg, cfg.dt_max)
    order, b = stepper.order, stepper.op.shape[1]
    assert order.shape[0] == (points // period) ** dim and b < order.shape[1]
    gram = _dense_gram(mask, np.arange(grid.points ** dim))
    got = _fiber_form(np.fft.fftn(frac) / frac.size, order, order[:, :b])
    assert np.array_equal(got, gram[order[:, :, None], order[:, None, :b]])


@pytest.mark.parametrize("dim, points, period", [(1, 64, 8), (2, 16, 4), (1, 64, 64), (2, 16, 16)])
def test_every_fiber_carries_one_circulant(dim, points, period):
    # mode k = r + M j meets k' = r + M j' through c[j - j'], c the mask's DFT on
    # the multiples of M (to rounding, the DFT of one period): whole fiber blocks,
    # tiled or untiled (one fiber, M = 1), in each fiber's local order
    grid = make_grid(dim, 16.0, points)
    rng = np.random.default_rng(points + period)
    cell = rng.uniform(0.0, 1.0, (period,) * dim)
    mask = SupportMask(grid=grid, cell_fraction=np.tile(cell, (points // period,) * dim))
    fhat = np.fft.fftn(mask.cell_fraction) / mask.cell_fraction.size
    order, counts, m = _oracle_fibers(mask, np.arange(grid.points ** dim))
    assert len(counts) == (points // period) ** dim and set(counts) == {period ** dim}
    c = fhat[(slice(None, None, m[0]),) * dim]
    np.testing.assert_allclose(c, np.fft.fftn(cell) / cell.size, rtol=0.0, atol=1e-15)
    for fiber in order.reshape(len(counts), -1):
        j = [a // m[0] for a in np.unravel_index(fiber, grid.shape)]
        want = c[tuple((a[:, None] - a[None, :]) % period for a in j)]
        assert np.array_equal(_fiber_form(fhat, fiber, fiber), want)


def _tiled_mask(grid, periods, seed):
    """Seeded cell fractions on one cell of periods points per axis, tiled."""
    cell = np.random.default_rng(seed).uniform(0.2, 1.0, periods)
    mask = SupportMask(grid=grid, cell_fraction=np.tile(cell, [grid.points // p for p in periods]))
    assert mask.periods == tuple(periods)
    return mask


@pytest.mark.parametrize("dim, points, periods", [
    (1, 64, (8,)), (1, 64, (64,)), (1, 64, (1,)), (2, 16, (4, 4)), (2, 16, (4, 16)),
    (2, 16, (16, 2)), (2, 32, (8, 1))])
def test_fiber_layout_and_classes_match_stable_sort(dim, points, periods):
    # periodic along every axis, along one axis only, or constant along one;
    # each row is a fiber by local index j, and a class holds exactly the
    # fibers whose band modes have the same j, named by its first fiber
    grid = make_grid(dim, 16.0, points)
    mask = _tiled_mask(grid, periods, points + sum(periods))
    want, _, m = _oracle_fibers(mask, np.arange(points ** dim))
    for R in (0.5, 2.0, 0.3 * grid.xi_max, grid.xi_max):
        order, band, (of, reps) = _fibers(mask, R)
        assert np.array_equal(order, want.reshape(math.prod(m), -1))
        assert np.array_equal(band, grid.rho.ravel()[order] <= R)
        keys = [tuple(tuple(a // b) for a, b in zip(np.unravel_index(row[inside], grid.shape), m))
                for row, inside in zip(order, band)]  # the band modes' local indices j
        firsts = {}
        for f, key in enumerate(keys):
            firsts.setdefault(key, f)
        assert list(of) == [firsts[key] for key in keys]
        assert list(reps) == sorted(firsts.values())


def _per_fiber_fold(grid, F, mask, cfg, dt, adjoint):
    """The fold's step blocks and e_full built fiber by fiber: the reference
    for the build once per class of fibers."""
    e_half = semigroup_multiplier(grid, F, 0.5 * dt)
    frac = mask.cell_fraction
    coeffs = np.cumprod([-dt * cfg.lam / j for j in range(1, 5)])
    order, _, m = _oracle_fibers(mask, np.argsort(grid.rho.ravel() > cfg.R, kind="stable"))
    order = order.reshape(math.prod(m), -1)
    counts = np.count_nonzero(grid.rho.ravel()[order] <= cfg.R, axis=1)
    b = int(counts.max())
    in_band = np.arange(order.shape[1]) < counts[:, None]
    t = _fiber_form(np.fft.fftn(frac) / frac.size, order, order[:, :b])
    t *= in_band[:, None, :b]
    e = e_half.reshape(-1)[order]
    q = _stages(np.eye(b), lambda w: t[:, :b] @ w, coeffs)
    p = e[:, :, None] * (t @ q) * e[:, None, :b]
    op = p.conj() if adjoint else np.ascontiguousarray(p.transpose(0, 2, 1))
    return op, (e * e).astype(complex), in_band


@pytest.mark.parametrize("dim, points, kind, R", [
    (1, 1024, "periodic", 2.0), (1, 1024, "periodic", 4.0), (1, 1024, "periodic", 8.0),
    (2, 64, "periodic", 2.0), (2, 64, "periodic", 4.0), (2, 64, "periodic", 8.0),
    (1, 1024, "random", 4.0)])
@pytest.mark.parametrize("adjoint", [False, True])
def test_class_build_equals_per_fiber_build(dim, points, kind, R, adjoint):
    # the benchmark's supports: step blocks, multipliers and K-step tables of a
    # 2^10-step run to the bit (2-D R = 8 takes K = 1 and has no tables)
    grid = make_grid(dim, 16.0, points)
    mask = (make_periodic_thick(grid, 1.0, 0.5) if kind == "periodic"
            else make_random_thick(grid, 2.0, 0.3, 0))
    F, cfg = halfheat(), design_feedback(halfheat(), R, 1.0)
    stepper = _Stepper(grid, F, mask, cfg, cfg.dt_max, adjoint, 2 ** 10)
    op, e_full, in_band = _per_fiber_fold(grid, F, mask, cfg, cfg.dt_max, adjoint)
    assert np.array_equal(stepper.op, op) and np.array_equal(stepper.e_full, e_full)
    assert (stepper.chunk > 1) == (R < 8.0 or dim == 1)
    if stepper.chunk > 1:
        ref = _Stepper(grid, F, mask, cfg, cfg.dt_max, adjoint)
        ref.op, ref.e_full, ref.chunk = op, e_full, stepper.chunk
        ref._tables(op.swapaxes(1, 2) if adjoint else op, in_band)
        for name in ("h_chunk", "e_chunk", "e2") + (("ht",) if adjoint else ("bt", "wt")):
            assert np.array_equal(getattr(stepper, name), getattr(ref, name)), name


def _per_fiber_constant(mask, R):
    """The spectral constant from one eigvalsh per Bloch fiber block."""
    band, counts, _ = _oracle_fibers(mask, _band_indices(mask.grid, R))
    fhat = np.fft.fftn(mask.cell_fraction) / mask.cell_fraction.size
    blocks = ([_real_form(fhat, band)] if len(counts) == 1 else
              [_fiber_form(fhat, x, x) for x in np.split(band, np.cumsum(counts)[:-1]) if len(x)])
    return 1.0 / math.sqrt(min(np.linalg.eigvalsh(x)[0] for x in blocks))


@pytest.mark.parametrize("adjoint", [False, True])
def test_one_axis_period_equals_per_fiber_build(adjoint):
    # periodic along the first axis only: fibers of unequal extent per axis
    grid, F = make_grid(2, 16.0, 32), halfheat()
    mask = _tiled_mask(grid, (4, 32), 7)
    for R in (2.0, 4.0):
        cfg = design_feedback(F, R, 1.0)
        stepper = _Stepper(grid, F, mask, cfg, cfg.dt_max, adjoint, 2 ** 10)
        op, e_full, _ = _per_fiber_fold(grid, F, mask, cfg, cfg.dt_max, adjoint)
        assert np.array_equal(stepper.op, op) and np.array_equal(stepper.e_full, e_full)
        assert estimate_spectral_constant(mask, R) == _per_fiber_constant(mask, R)


def test_class_constants_equal_per_fiber_eigensolves():
    # the band sweep's estimates and Kovrijkine ladder; the benchmark pins the
    # ladder to 1e-9, and its pins were printed to 16 digits, not to the bit
    for dim, points, radii in ((1, 1024, (2.0, 4.0, 8.0)), (2, 64, (2.0, 4.0))):
        grid = make_grid(dim, 16.0, points)
        for mask in (make_periodic_thick(grid, 1.0, 0.5), make_random_thick(grid, 2.0, 0.3, 0)):
            for R in radii:
                assert estimate_spectral_constant(mask, R) == _per_fiber_constant(mask, R)
    # at 2-D R = 8 the band outnumbers the cells of one period in a fiber
    with pytest.raises(ConvergenceError, match=r"7 of them in fiber r = \(0, 4\) of 256"):
        estimate_spectral_constant(make_periodic_thick(make_grid(2, 16.0, 64), 1.0, 0.5), 8.0)
    mask = make_periodic_thick(make_grid(1, 16.0, 256), 1.0, 0.5)
    ladder = (2.0, 4.0, 8.0, 16.0)
    pins = (1.414213562373095, 2.3594122665930577, 4.615786171223051, 71.62355165761892)
    want = tuple(_per_fiber_constant(mask, R) for R in ladder)
    assert observe.kovrijkine_empirical(mask, ladder).constants == want
    np.testing.assert_allclose(want, pins, rtol=1e-9, atol=0.0)


def _real_basis(grid, band):
    """The unitary W of _real_form over the band positions, written out mode
    by mode: e_k on the fixed modes (2k = 0), then (e_k + e_-k)/sqrt2 for one
    k of each pair {k, -k}, the one of lower flat index, then i (e_k - e_-k)/sqrt2."""
    k = np.unravel_index(band, grid.shape)
    where = {int(p): i for i, p in enumerate(band)}
    minus = [where[int(np.ravel_multi_index([-a[i] % grid.points for a in k], grid.shape))]
             for i in range(len(band))]
    fixed = [i for i, j in enumerate(minus) if i == j]
    pairs = [i for i, j in enumerate(minus) if band[j] > band[i]]
    w, s = np.zeros((len(band),) * 2, dtype=complex), np.sqrt(0.5)
    for col, i in enumerate(fixed):
        w[i, col] = 1.0
    for col, i in enumerate(pairs, len(fixed)):
        w[i, col] = w[minus[i], col] = s
        w[i, col + len(pairs)], w[minus[i], col + len(pairs)] = 1j * s, -1j * s
    return w


REAL_FORM_GRIDS = ((1, 8), (1, 16), (1, 32), (1, 64), (1, 128), (2, 8),
                   (2, 10), (2, 12), (2, 16), (2, 20))


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.floats(2.0, 40.0),
       st.one_of(st.just(1.0), st.floats(1e-3, 1.0)), st.data())
def test_real_form_keeps_the_band_spectrum(case, extent, r_fraction, data):
    # one-fiber masks (period = points); r_fraction = 1 takes the Nyquist
    # modes into the band, so it holds 2 (1-D) or 3 (2-D) fixed modes 2k = 0.
    # The grid is a wide integer mod the grid count (see stepper_case)
    dim, points = REAL_FORM_GRIDS[case % len(REAL_FORM_GRIDS)]
    grid = make_grid(dim, extent, points)
    mask, _ = _mask(data.draw, grid)
    R = r_fraction * grid.xi_max
    band = _band_indices(grid, R)
    block = _real_form(np.fft.fftn(mask.cell_fraction) / mask.cell_fraction.size,
                       band)
    assert block.shape == (len(band),) * 2 and block.dtype == float
    assert np.array_equal(block, block.T)
    ev = np.linalg.eigvalsh(block)
    want = np.linalg.eigvalsh(_dense_gram(mask, band))
    assert np.abs(ev - want).max() <= 1e-12 * want[-1]
    if mask.periods != grid.shape:  # a 0/1 draw can repeat on small grids
        return
    try:
        c = estimate_spectral_constant(mask, R)
    except ConvergenceError:
        # more modes than support cells, or a numerically singular block
        assert ev[0] <= len(band) * np.finfo(float).eps * ev[-1]
    else:
        assert abs(c - 1.0 / np.sqrt(ev[0])) <= 1e-12 * c


@pytest.mark.parametrize("r_fraction", [1.0, 0.6])
@pytest.mark.parametrize("dim, points", REAL_FORM_GRIDS)
def test_real_form_is_the_gram_in_the_real_basis(dim, points, r_fraction):
    # entry by entry, not only the spectrum: a sign flip of both cos/sin
    # blocks keeps every eigenvalue and the symmetry, but not W^H G W
    grid = make_grid(dim, 16.0, points)
    frac = np.random.default_rng(points).uniform(0.0, 1.0, grid.shape)
    mask = SupportMask(grid=grid, cell_fraction=frac)
    band = _band_indices(grid, r_fraction * grid.xi_max)
    w = _real_basis(grid, band)
    want = w.conj().T @ _dense_gram(mask, band) @ w
    block = _real_form(np.fft.fftn(frac) / frac.size, band)
    assert np.abs(want - block).max() <= 1e-15


@pytest.mark.parametrize("dim, points", [(1, 128), (2, 16)])
def test_real_form_of_the_full_box(dim, points):
    # the band at xi_max holds the fixed modes 0 and the Nyquist modes on
    # the axes (2 in 1-D, 3 in 2-D); for the full box the block is the identity
    grid = make_grid(dim, 16.0, points)
    band = _band_indices(grid, grid.xi_max)
    k = np.unravel_index(band, grid.shape)
    assert np.count_nonzero(np.all([2 * a % points == 0 for a in k], axis=0)) \
        == dim + 1
    block = _real_form(np.fft.fftn(np.ones(grid.shape)) / points ** dim, band)
    np.testing.assert_allclose(block, np.eye(len(band)), rtol=0.0, atol=1e-15)
    assert estimate_spectral_constant(make_full(grid), grid.xi_max) == 1.0
    # a one-fiber support of full-box fractions but one graded cell takes
    # the real path and stays close to 1
    frac = np.ones(grid.shape)
    frac.flat[0] = 0.5
    mask = SupportMask(grid=grid, cell_fraction=frac)
    assert mask.periods == grid.shape
    c = estimate_spectral_constant(mask, grid.xi_max)
    assert abs(c - 1.0 / np.sqrt(np.linalg.eigvalsh(
        _dense_gram(mask, band))[0])) <= 1e-12 * c


@PROPERTY_SETTINGS
@given(grid_and_mask(), st.sampled_from(("halfheat", "fractional")),
       st.floats(0.01, 1.0), st.integers(1, 12), st.integers(1, 4),
       st.booleans(), st.booleans())
def test_restricted_march_matches_per_step_loop(case, family, dt, steps, rows,
                                                row_steps, row_masks):
    # each row of the stack against its own loop; the multiplier and the
    # mask are either shared by every row or given one per row
    grid, mask, rng = case
    F = halfheat() if family == "halfheat" else fractional(1.0)
    steps_by_row = [semigroup_multiplier(grid, F, dt / (j + 1) if row_steps
                                         else dt) for j in range(rows)]
    masks = [SupportMask(grid=grid,
                         cell_fraction=rng.uniform(0.0, 1.0, grid.shape))
             if row_masks else mask for _ in range(rows)]
    e_step = np.stack(steps_by_row) if row_steps else steps_by_row[0]
    frac = (np.stack([m.cell_fraction for m in masks]) if row_masks
            else mask.cell_fraction)
    shape = (rows,) + grid.shape
    c0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c = c0.copy()
    got = _restricted_march(grid, c, e_step, frac, steps)
    assert got.shape == (rows, steps + 1)

    for j in range(rows):
        ref = c0[j].copy()
        want = np.empty(steps + 1)
        for k in range(steps + 1):
            if k > 0:
                ref = ref * steps_by_row[j]
            want[k] = restricted_norm(from_coefficients(grid, ref), masks[j]) ** 2
        np.testing.assert_allclose(got[j], want, rtol=1e-12, atol=0.0)
        assert np.array_equal(c[j], ref)


def _march_per_step(grid, c, e_step, frac, steps):
    # the march with one inverse FFT per time, kept as the bitwise reference
    axes = tuple(range(1, c.ndim))
    integrand = np.empty((len(c), steps + 1))
    for k in range(steps + 1):
        if k > 0:
            c *= e_step
        vals = np.fft.ifftn(c, axes=axes) / grid.cell_measure
        sq = frac * (vals.real**2 + vals.imag**2)
        integrand[:, k] = sq.reshape(len(c), -1).sum(axis=1) * grid.cell_measure
    return integrand


@pytest.mark.parametrize("dim, points, rows", [(1, 64, 3), (1, 256, 5), (2, 16, 2),
                                               (2, 32, 3)])
@pytest.mark.parametrize("row_steps, row_masks", [(False, False), (True, False),
                                                  (False, True), (True, True)])
def test_restricted_march_chunks_match_per_step_loop(dim, points, rows, row_steps,
                                                     row_masks):
    # the march spans three whole chunks of times and ends on a partial one;
    # every norm and the final state equal the per-step loop's to the bit
    grid = make_grid(dim, 16.0, points)
    rng = np.random.default_rng(points + rows)
    shape = (rows,) + grid.shape
    per_chunk = grid_module._FFT_STACK // (rows * grid.points)
    assert per_chunk > 1
    steps = 3 * per_chunk + per_chunk // 2 - 1  # steps + 1 times
    assert (steps + 1) % per_chunk
    F = halfheat()
    e_step = (np.stack([semigroup_multiplier(grid, F, 0.01 / (j + 1))
                        for j in range(rows)]) if row_steps
              else semigroup_multiplier(grid, F, 0.01))
    frac = rng.uniform(0.0, 1.0, shape if row_masks else grid.shape)
    c0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c, ref = c0.copy(), c0.copy()
    got = _restricted_march(grid, c, e_step, frac, steps)
    want = _march_per_step(grid, ref, e_step, frac, steps)
    assert got.shape == (rows, steps + 1) and got.flags.c_contiguous
    assert np.array_equal(got, want)
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
    _, counts, _ = _oracle_fibers(mask, idx)
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
            w = _apply_band_gram(frac, idx, w, z)
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
    # the synthesizer's stacked apply, with stacks of one slice, of three
    # (a short last stack whenever 3 does not divide slices) and of all
    theta_grid = theta.reshape((slices,) + grid.shape)
    z = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    want = G @ z.ravel()
    for per_stack in (1, 3, slices):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid_module, "_FFT_STACK", per_stack * z.size)
            gz = observe._gramian_apply(theta_grid, frac, z)
        assert np.linalg.norm(want - gz.ravel()) <= 1e-12 * np.linalg.norm(want)
    # the Jacobi preconditioner's closed-form diagonal
    diag = observe._gramian_diagonal(theta_grid, frac).ravel()
    assert np.abs(diag - np.diag(G).real).max() <= 1e-12 * scale

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
