"""Control supports on the periodic box: masks, thickness certificates, TSM1.

A support is stored as the covered fraction of every grid cell, so measures
and restricted norms are exact for the geometries built here (up to float
rounding on cells the boundary cuts). Thickness of a mask is certified by
scanning cyclic windows of a given side length: gamma_min is the worst window
measure divided by the window volume.

Certificates are triples (gamma, L, stride). Stride 1 means every
cell-aligned cyclic window of side L was checked. Random per-block masks are
certified at block-aligned stride L/dx instead, which is what their
construction actually guarantees; a block certificate still implies fully
cyclic thickness at (gamma / 2^dim, 2 L) since every window of side 2L
contains a whole block.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import Grid, _read_snapshot, _readonly, _snapshot_bytes

_TSM1_MAGIC = b"TSM1"
_SUBSAMPLES = 16  # sub-cell lattice per axis on cells a ball boundary cuts


def _periods(frac: np.ndarray) -> tuple:
    """Smallest exact period of the cell fractions along each axis, in grid
    points (the axis length if none is shorter); there is no tolerance."""
    n = frac.shape[0]
    divisors = np.flatnonzero(n % np.arange(1, n + 1) == 0) + 1
    out = []
    for axis in range(frac.ndim):
        f = np.moveaxis(frac, axis, 0)
        out.append(int(next(q for q in divisors if (f[q:] == f[:n - q]).all())))
    return tuple(out)


@dataclass(frozen=True)
class SupportMask:
    """Per-cell covered fractions of a control support on one grid, with
    the exact period of the fractions along each axis (periods)."""

    grid: Grid
    cell_fraction: np.ndarray
    certificate: tuple | None = None
    spec: dict | None = None

    def __post_init__(self):
        frac = np.asarray(self.cell_fraction, dtype=float)
        if frac.shape != self.grid.shape:
            raise ValidationError(
                f"cell_fraction shape {frac.shape} does not match grid {self.grid.shape}")
        if np.any(~np.isfinite(frac)) or frac.min() < -1e-9 or frac.max() > 1.0 + 1e-9:
            raise ValidationError("cell fractions must lie in [0, 1]")
        frac = np.clip(frac, 0.0, 1.0)
        object.__setattr__(self, "cell_fraction", _readonly(frac))
        object.__setattr__(self, "total_measure",
                           float(frac.sum() * self.grid.cell_measure))
        object.__setattr__(self, "periods", _periods(frac))

    @property
    def measure_fraction(self) -> float:
        return self.total_measure / self.grid.box_measure


def make_full(grid: Grid) -> SupportMask:
    """The whole box; certified gamma = 1 at the box scale."""
    return SupportMask(grid=grid, cell_fraction=np.ones(grid.shape),
                       certificate=(1.0, grid.extent, 1), spec={"kind": "full"})


def _periodic_coverage(x: np.ndarray, period: float, width: float) -> np.ndarray:
    """Measure of (union of [m p, m p + width)) intersected with [0, x)."""
    whole = np.floor(x / period + 1e-12)
    rem = x - whole * period
    return whole * width + np.minimum(np.maximum(rem, 0.0), width)


def make_periodic_thick(grid: Grid, period: float, fill: float) -> SupportMask:
    """Union of an interval of relative length fill repeated with the period.

    In 2-D the pattern is the product set, which is (fill^2)-thick at the
    period scale; every cell's covered fraction is computed from the exact
    interval-overlap formula, so the certificate is exact, not sampled.
    """
    if not (np.isfinite(period) and 0 < period <= grid.extent):
        raise ValidationError(f"period must lie in (0, extent], got {period}")
    reps = grid.extent / period
    if abs(reps - round(reps)) > 1e-9:
        raise ValidationError(
            f"period must divide the box extent (extent/period = {reps})")
    if not (np.isfinite(fill) and 0 < fill <= 1):
        raise ValidationError(f"fill must lie in (0, 1], got {fill}")
    width = fill * period
    edges = np.arange(grid.points + 1) * grid.dx
    cov = _periodic_coverage(edges, period, width)
    axis = (cov[1:] - cov[:-1]) / grid.dx
    frac = math.prod(np.ix_(*[axis] * grid.dim))  # outer product over the axes
    return SupportMask(
        grid=grid, cell_fraction=frac,
        certificate=(fill**grid.dim, period, 1),
        spec={"kind": "periodic", "period": float(period), "fill": float(fill)},
    )


def _axis_cyclic_extremes(grid: Grid, center: float) -> tuple:
    """Per cell, the min and max cyclic distance from the cell to the center."""
    ell = grid.extent
    a = grid.axis_x
    b = a + grid.dx

    def d(x):
        t = np.mod(x - center, ell)
        return np.minimum(t, ell - t)

    da, db = d(a), d(b)
    lo = np.minimum(da, db)
    hi = np.maximum(da, db)
    contains_center = np.mod(center - a, ell) < grid.dx
    contains_anti = np.mod(center + 0.5 * ell - a, ell) < grid.dx
    lo = np.where(contains_center, 0.0, lo)
    hi = np.where(contains_anti, 0.5 * ell, hi)
    return lo, hi


def make_ball_complement(grid: Grid, radius: float, center: tuple | None = None,
                         cert_scale: float | None = None) -> SupportMask:
    """Everything outside the (cyclic) ball of the given radius.

    Cells fully inside or outside are classified exactly from per-axis
    distance extremes; cells the sphere cuts are measured on a 16^dim
    lattice of sub-cell centers. Pass cert_scale to have the thickness of the
    result measured at that window side and attached as its certificate.
    """
    if not (np.isfinite(radius) and 0 < radius < 0.5 * grid.extent):
        raise ValidationError(
            f"radius must lie in (0, extent/2) for a cyclic ball, got {radius}")
    if center is None:
        center = (0.5 * grid.extent,) * grid.dim
    center = tuple(float(c) for c in center)
    if len(center) != grid.dim:
        raise ValidationError(f"center needs {grid.dim} coordinates, got {len(center)}")
    lo, hi = zip(*(_axis_cyclic_extremes(grid, c) for c in center))
    lo2 = sum(np.ix_(*[d**2 for d in lo]))  # sum over axes of the squares
    hi2 = sum(np.ix_(*[d**2 for d in hi]))
    r2 = radius * radius
    frac = np.where(hi2 <= r2, 0.0, 1.0)  # fully inside the ball -> excluded
    cut = (lo2 < r2) & (hi2 > r2)
    if np.any(cut):
        offs = (np.arange(_SUBSAMPLES) + 0.5) / _SUBSAMPLES * grid.dx
        idx = np.argwhere(cut)
        for cell in idx:
            d2 = sum(np.ix_(*[_cyc_delta(grid.axis_x[i] + offs, c, grid.extent) ** 2
                              for i, c in zip(cell, center)]))
            outside = np.count_nonzero(d2 > r2)
            frac[tuple(cell)] = outside / _SUBSAMPLES**grid.dim
    spec = {"kind": "ball-complement", "radius": float(radius), "center": center}
    cert = None
    if cert_scale is not None:
        gamma_min = _window_min_fraction(frac, grid, float(cert_scale), 1)
        cert = (gamma_min, float(cert_scale), 1)
    return SupportMask(grid=grid, cell_fraction=frac, certificate=cert, spec=spec)


def _cyc_delta(x: np.ndarray, c: float, ell: float) -> np.ndarray:
    t = np.mod(x - c, ell)
    return np.minimum(t, ell - t)


def make_random_thick(grid: Grid, L: float, gamma: float, seed: int) -> SupportMask:
    """Seeded random selection of whole cells, block by block of side L.

    Each L-block independently receives ceil(gamma W^dim) distinct cells
    (W = L/dx), so every block-aligned window carries measure >= gamma L^dim;
    that is exactly what the attached certificate (gamma, L, stride=W) states.
    """
    if not (np.isfinite(gamma) and 0 < gamma <= 1):
        raise ValidationError(f"gamma must lie in (0, 1], got {gamma}")
    W = _cells_per_window(grid, L)
    blocks = grid.extent / L
    if abs(blocks - round(blocks)) > 1e-9:
        raise ValidationError(f"L must divide the box extent (extent/L = {blocks})")
    B = int(round(blocks))
    cells_per_block = W**grid.dim
    m = int(math.ceil(gamma * cells_per_block - 1e-9))
    rng = np.random.default_rng(seed)
    frac = np.zeros(grid.shape)
    for block in np.ndindex(*(B,) * grid.dim):  # row-major: the RNG draw order
        chosen = rng.choice(cells_per_block, size=m, replace=False)
        cells = np.unravel_index(chosen, (W,) * grid.dim)
        frac[tuple(b * W + c for b, c in zip(block, cells))] = 1.0
    return SupportMask(
        grid=grid, cell_fraction=frac,
        certificate=(float(gamma), float(L), W),
        spec={"kind": "random", "L": float(L), "gamma": float(gamma), "seed": int(seed)},
    )


def _cells_per_window(grid: Grid, L: float) -> int:
    if not (np.isfinite(L) and 0 < L <= grid.extent):
        raise ValidationError(f"window side must lie in (0, extent], got {L}")
    w = L / grid.dx
    if abs(w - round(w)) > 1e-9:
        raise ValidationError(
            f"window side must be a whole number of cells (L/dx = {w})")
    return int(round(w))


def _cyclic_window_sums_1d(a: np.ndarray, W: int, axis: int = 0) -> np.ndarray:
    """S[i] = sum of W consecutive entries starting at i, cyclically."""
    a = np.moveaxis(a, axis, 0)
    ext = np.concatenate([a, a[:W - 1]], axis=0) if W > 1 else a
    cs = np.cumsum(ext, axis=0)
    out = np.empty_like(a)
    out[0] = cs[W - 1]
    out[1:] = cs[W:] - cs[:len(a) - 1]
    return np.moveaxis(out, 0, axis)


def _window_min_fraction(frac: np.ndarray, grid: Grid, L: float, stride: int) -> float:
    W = _cells_per_window(grid, L)
    if not (isinstance(stride, (int, np.integer)) and stride >= 1):
        raise ValidationError(f"stride must be a positive integer, got {stride}")
    sums = frac
    for axis in range(grid.dim):
        sums = _cyclic_window_sums_1d(sums, W, axis=axis)
    sub = sums[(slice(None, None, stride),) * grid.dim]
    return float(sub.min() * grid.cell_measure / L**grid.dim)


def thickness_certificate(mask: SupportMask, L: float, stride: int = 1) -> float:
    """Worst cyclic L-window measure of the mask divided by L^dim.

    Windows are anchored at every stride-th cell per axis; stride 1 checks
    them all. The window side must be a whole number of cells.
    """
    return _window_min_fraction(mask.cell_fraction, mask.grid, L, stride)


# ---------------------------------------------------------------------------
# Mask snapshots: the TSM1 layout of grid.py, with f64 cell fractions.


def write_mask(path, mask: SupportMask) -> None:
    with open(path, "wb") as fh:
        fh.write(_snapshot_bytes(_TSM1_MAGIC, mask.grid, mask.cell_fraction, "<f8"))


def read_mask(path) -> SupportMask:
    grid, frac = _read_snapshot(path, _TSM1_MAGIC, "<f8")
    return SupportMask(grid=grid, cell_fraction=frac)


def mask_hash(mask: SupportMask) -> str:
    """Content hash of the mask: sha256 of the bytes write_mask writes."""
    data = _snapshot_bytes(_TSM1_MAGIC, mask.grid, mask.cell_fraction, "<f8")
    return hashlib.sha256(data).hexdigest()
