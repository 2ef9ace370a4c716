"""Periodic spectral grids, fields, Fourier-multiplier semigroups, Gaussian probes.

A box [0, extent)^dim with an even number of points per axis stands in for
free space; functions whose mass stays well inside the box behave like their
continuum counterparts to spectral accuracy. The transform convention is

    g_hat(xi) = integral e^{-i x.xi} g(x) dx,

so Plancherel reads ||g_hat|| = (2 pi)^{dim/2} ||g||. Discrete coefficients
are dx^dim * FFT(values) on the frequency lattice xi_k = 2 pi k / extent,
k in {-N/2, ..., N/2 - 1} per axis (stored in FFT order), and

    sum |g|^2 dx^dim  =  (2 pi)^{-dim} sum |coef|^2 (2 pi / extent)^dim

holds exactly on the lattice.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_TSF1_MAGIC = b"TSF1"
_SNAPSHOT_HEADER = "<4sIId"
_FLOATS = (float, np.floating)  # CSV cells written with repr(float(v))


def _check_positive(**values) -> None:
    """Reject any keyword value that is not finite and > 0, by its name."""
    for name, x in values.items():
        if not (np.isfinite(x) and x > 0):
            raise ValidationError(f"{name} must be positive, got {x}")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, extent)^dim.

    Derived arrays (frequency axes in FFT order, the radial lattice |xi|,
    physical coordinate axes) are computed once at construction.
    """

    dim: int
    extent: float
    points: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValidationError(f"dim must be 1 or 2, got {self.dim}")
        if self.points < 4 or self.points % 2 != 0:
            raise ValidationError(f"points must be even and >= 4, got {self.points}")
        if not (np.isfinite(self.extent) and self.extent > 0):
            raise ValidationError(f"extent must be positive and finite, got {self.extent}")
        dx = self.extent / self.points
        axis_x = np.arange(self.points) * dx
        axis_xi = 2.0 * np.pi * np.fft.fftfreq(self.points, d=dx)
        if self.dim == 1:
            rho = np.abs(axis_xi)
        else:
            rho = np.sqrt(axis_xi[:, None] ** 2 + axis_xi[None, :] ** 2)
        for name, value in (
            ("dx", dx),
            ("shape", (self.points,) * self.dim),
            ("axis_x", _readonly(axis_x)),
            ("axis_xi", _readonly(axis_xi)),
            ("rho", _readonly(rho)),
            ("xi_max", np.pi * self.points / self.extent),
            ("cell_measure", dx**self.dim),
        ):
            object.__setattr__(self, name, value)

    @property
    def box_measure(self) -> float:
        return self.extent**self.dim


def make_grid(dim: int, extent: float, points: int) -> Grid:
    """Build a periodic grid; see Grid for the lattice conventions."""
    return Grid(dim=dim, extent=float(extent), points=int(points))


@dataclass(frozen=True)
class SpectralField:
    """Complex field sampled on a grid's physical lattice (row-major)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.shape:
            raise ValidationError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        v = np.ascontiguousarray(v)
        v.flags.writeable = False  # fields are immutable once built
        object.__setattr__(self, "values", v)


def field_from_values(grid: Grid, values) -> SpectralField:
    return SpectralField(grid=grid, values=values)


def zero_field(grid: Grid) -> SpectralField:
    return SpectralField(grid=grid, values=np.zeros(grid.shape, dtype=complex))


def inner(f: SpectralField, g: SpectralField) -> complex:
    """L2 pairing <f, g> = sum f conj(g) dx^dim."""
    _same_grid(f, g)
    return complex(np.vdot(g.values, f.values) * f.grid.cell_measure)


def norm(f: SpectralField) -> float:
    """L2 norm with cell-measure weights."""
    return float(np.linalg.norm(f.values.ravel()) * math.sqrt(f.grid.cell_measure))


def restricted_norm(f: SpectralField, mask) -> float:
    """L2 norm over a support mask: sqrt(sum fraction*|f|^2 dx^dim).

    `mask` is a SupportMask or a bare fraction array on the same lattice.
    """
    frac = getattr(mask, "cell_fraction", mask)
    frac = np.asarray(frac, dtype=float)
    if frac.shape != f.grid.shape:
        raise ValidationError(f"mask shape {frac.shape} != grid shape {f.grid.shape}")
    s = float(np.sum(frac * (f.values.real**2 + f.values.imag**2)))
    return math.sqrt(s * f.grid.cell_measure)


def to_coefficients(f: SpectralField) -> np.ndarray:
    """Discrete transform samples dx^dim * FFT(values) on the frequency lattice."""
    return np.fft.fftn(f.values) * f.grid.cell_measure


def from_coefficients(grid: Grid, coef: np.ndarray) -> SpectralField:
    values = np.fft.ifftn(np.asarray(coef, dtype=complex)) / grid.cell_measure
    return SpectralField(grid=grid, values=values)


def semigroup_multiplier(grid: Grid, symbol, t: float, freq_scale: float = 1.0) -> np.ndarray:
    """Array e^{-t F(|xi| * freq_scale)} on the frequency lattice."""
    _check_times(t)
    return np.exp(-t * _symbol_values(grid, symbol, freq_scale))


def _check_times(t) -> None:
    """Reject a semigroup time, or any of an array of them, that is not a
    finite number >= 0, naming the first bad one."""
    t = np.asarray(t, dtype=float)
    for bad, what in ((~np.isfinite(t), "time must be finite"),
                      (t < 0, "semigroup time must be >= 0")):
        if np.any(bad):
            raise ValidationError(f"{what}, got {t[bad][0]}")


def _symbol_values(grid: Grid, symbol, freq_scale: float = 1.0) -> np.ndarray:
    """F(|xi| * freq_scale) on the frequency lattice, checked finite."""
    vals = symbol.eval(grid.rho * freq_scale)
    if not np.all(np.isfinite(vals)):
        raise ValidationError("symbol evaluated to a non-finite value on the frequency lattice")
    return vals


def apply_multiplier(f: SpectralField, multiplier: np.ndarray) -> SpectralField:
    out = np.fft.ifftn(np.fft.fftn(f.values) * multiplier)
    return SpectralField(grid=f.grid, values=out)


def apply_semigroup(f: SpectralField, symbol, t: float) -> SpectralField:
    """Evolve f under d_t f + F(|D|) f = 0 for time t (exact in frequency)."""
    return apply_multiplier(f, semigroup_multiplier(f.grid, symbol, t))


def ball_multiplier(grid: Grid, radius: float) -> np.ndarray:
    """0/1 multiplier of the closed frequency ball |xi| <= radius (ties kept)."""
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    return (grid.rho <= radius).astype(float)


def project_ball(f: SpectralField, radius: float) -> SpectralField:
    """Orthogonal projection onto modes with |xi| <= radius."""
    return apply_multiplier(f, ball_multiplier(f.grid, radius))


# ---------------------------------------------------------------------------
# Gaussian probes


@dataclass(frozen=True)
class GaussianProbe:
    """Modulated Gaussian g(x) = l^{-dim} exp(i x.xi0 - |x - x0|^2 / (2 l^2)).

    Closed forms (free space): transform
    (2 pi)^{dim/2} exp(-i x0.(xi - xi0) - l^2 |xi - xi0|^2 / 2) and squared
    norm (pi / l^2)^{dim/2}. On the periodic box these hold to quadrature
    accuracy for admissible probes; accuracy degrades to ~e^{-(l xi_max)^2}
    at the exact admissibility margin, so precision work should keep
    l * xi_max >= 5 or so.
    """

    width: float
    center: tuple
    frequency: tuple

    def __post_init__(self):
        if not (np.isfinite(self.width) and self.width > 0):
            raise ValidationError(f"probe width must be positive, got {self.width}")
        object.__setattr__(self, "center", tuple(float(c) for c in np.atleast_1d(self.center)))
        object.__setattr__(self, "frequency", tuple(float(q) for q in np.atleast_1d(self.frequency)))
        if len(self.center) != len(self.frequency):
            raise ValidationError("center and frequency must have the same dimension")

    @property
    def dim(self) -> int:
        return len(self.center)

    def norm_squared(self) -> float:
        return (math.pi / self.width**2) ** (self.dim / 2.0)

    def transform(self, *xi_axes) -> np.ndarray:
        """Closed-form transform evaluated on a frequency mesh (one array per axis)."""
        if len(xi_axes) != self.dim:
            raise ValidationError(f"expected {self.dim} frequency axes, got {len(xi_axes)}")
        phase = np.zeros(np.broadcast_shapes(*[np.shape(a) for a in xi_axes]), dtype=complex)
        quad = np.zeros_like(phase, dtype=float)
        for ax, x0, q0 in zip(xi_axes, self.center, self.frequency):
            d = np.asarray(ax) - q0
            phase = phase - 1j * x0 * d
            quad = quad + d * d
        return (2.0 * math.pi) ** (self.dim / 2.0) * np.exp(phase - 0.5 * self.width**2 * quad)


def probe_admissible(grid: Grid, probe: GaussianProbe) -> bool:
    """Mass 6 widths from the box scale and 3 frequency widths from Nyquist."""
    if probe.dim != grid.dim:
        return False
    if 6.0 * probe.width > grid.extent / 2.0:
        return False
    xi0 = math.sqrt(sum(q * q for q in probe.frequency))
    return xi0 + 3.0 / probe.width <= grid.xi_max


def sample_probe(grid: Grid, probe: GaussianProbe) -> SpectralField:
    """Sample the probe on the lattice, periodized with one image per axis.

    Raises ValidationError for inadmissible probes (width too large for the
    box, or modulation too close to the Nyquist radius).
    """
    if probe.dim != grid.dim:
        raise ValidationError(f"probe dim {probe.dim} != grid dim {grid.dim}")
    if not probe_admissible(grid, probe):
        raise ValidationError(
            "inadmissible probe: need 6*width <= extent/2 and |xi0| + 3/width <= xi_max"
        )
    l2 = probe.width**2
    mesh = np.meshgrid(*[grid.axis_x] * grid.dim, indexing="ij")
    total = np.zeros(grid.shape, dtype=complex)
    offsets = (-grid.extent, 0.0, grid.extent)
    for shift in np.stack(np.meshgrid(*[offsets] * grid.dim, indexing="ij"), axis=-1).reshape(-1, grid.dim):
        arg = np.zeros(grid.shape, dtype=complex)
        for ax_vals, s, x0, q0 in zip(mesh, shift, probe.center, probe.frequency):
            y = ax_vals + s
            arg = arg + 1j * q0 * y - (y - x0) ** 2 / (2.0 * l2)
        total += np.exp(arg)
    return SpectralField(grid=grid, values=total / probe.width**grid.dim)


# ---------------------------------------------------------------------------
# Artifact formats. CSV: a header line, then one comma-joined line per row,
# LF endings, floats written with repr so reruns compare byte for byte. JSON:
# indent 2, sorted keys, trailing LF. Snapshots: magic, u32 dim, u32 points,
# f64 extent, then points^dim little-endian values, row-major; TSF1 holds
# complex128 field values (re, im interleaved), TSM1 f64 cell fractions.


def _write_csv(path, header: str, rows) -> None:
    lines = [header] + [",".join([repr(float(v)) if isinstance(v, _FLOATS) else str(v)
                                  for v in row]) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, payload) -> None:
    # numpy scalars are written as the Python values their .item() gives
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=np.generic.item)
        fh.write("\n")


def _snapshot_bytes(magic: bytes, grid: Grid, values, dtype: str) -> bytes:
    header = struct.pack(_SNAPSHOT_HEADER, magic, grid.dim, grid.points, grid.extent)
    return header + np.ascontiguousarray(values, dtype=dtype).tobytes()


def _read_snapshot(path, magic: bytes, dtype: str) -> tuple:
    """(grid, values) from a snapshot file; ValidationError on a bad magic
    or on a file whose length is not the one its header says."""
    name = magic.decode()
    with open(path, "rb") as fh:
        raw = fh.read()
    start = struct.calcsize(_SNAPSHOT_HEADER)
    if len(raw) < start:
        raise ValidationError(f"truncated {name} file")
    got, dim, points, extent = struct.unpack_from(_SNAPSHOT_HEADER, raw)
    if got != magic:
        raise ValidationError(f"not a {name} file: bad magic {got!r}")
    grid = make_grid(dim, extent, points)
    size = np.dtype(dtype).itemsize * points**dim
    body = raw[start:]
    if len(body) < size:
        raise ValidationError(f"truncated {name} file")
    if len(body) > size:
        raise ValidationError(
            f"{name} file has {len(body) - size} bytes past its {size}-byte body")
    return grid, np.frombuffer(body, dtype=dtype).reshape(grid.shape)


def write_field(path, f: SpectralField) -> None:
    with open(path, "wb") as fh:
        fh.write(_snapshot_bytes(_TSF1_MAGIC, f.grid, f.values, "<c16"))


def read_field(path) -> SpectralField:
    grid, values = _read_snapshot(path, _TSF1_MAGIC, "<c16")
    return SpectralField(grid=grid, values=values)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _same_grid(f: SpectralField, g: SpectralField) -> None:
    if f.grid != g.grid:
        raise ValidationError("fields live on different grids")
