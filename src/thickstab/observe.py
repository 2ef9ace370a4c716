"""Observability estimates, cube classification, and dual control synthesis.

The observability side asks how much of ||e^{-TF} g||^2 a time integral of
restricted norms int_0^T ||e^{-tF} g||^2_omega dt can recover: each Gaussian
probe g yields required_C = (||e^{-TF}g||^2 - eps ||g||^2)_+ / integral, and a
probe dictionary certifies a lower bound on any workable constant. The dual
direction synthesizes an approximate null-control by penalized least squares
over piecewise-constant-in-time controls.

Cube classification splits the box into side-L cubes and tests, for the
damped field u = e^{-TG} g with G = F - inf F, whether every tested
derivative order satisfies ||d^beta u||^2_Q <= 2^(2|beta|+n)/eps *
(M_{|beta|})^2 ||u||^2_Q with the moments taken at half time. The mass
carried by the failing cubes is then at most eps * ||g||^2 summed over the
tested orders, a bound the report states alongside the labels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .grid import (GaussianProbe, Grid, SpectralField, from_coefficients,
                   probe_admissible, sample_probe, semigroup_multiplier,
                   to_coefficients)
from .qa import log_moment
from .stabilize import estimate_spectral_constant
from .symbols import MultiplierSymbol, shifted
from .thick import SupportMask, make_ball_complement, mask_hash


# ---------------------------------------------------------------------------
# Probe-based constant estimation


@dataclass(frozen=True)
class ProbeResult:
    index: int
    lhs: float
    obs_integral: float
    required_C: float


@dataclass(frozen=True)
class ObservabilityReport:
    symbol: MultiplierSymbol
    mask: SupportMask
    T: float
    epsilon: float
    quadrature_steps: int
    probes: tuple
    times: tuple
    integrands: tuple
    probe_results: tuple
    C_est: float


def _check_epsilon(epsilon: float) -> float:
    if not (np.isfinite(epsilon) and 0 < epsilon < 1):
        raise ValidationError(f"epsilon must lie in (0, 1), got {epsilon}")
    return float(epsilon)


def _restricted_march(grid: Grid, c: np.ndarray, e_step: np.ndarray,
                      frac: np.ndarray, steps: int) -> np.ndarray:
    """Restricted squared norms ||e^{-k dt F} f||^2_omega for k = 0..steps.

    c holds the coefficients of f and is advanced in place by the one-step
    multiplier e_step, so it ends as the coefficients at the final time.
    """
    integrand = np.empty(steps + 1)
    for k in range(steps + 1):
        if k > 0:
            c *= e_step
        vals = np.fft.ifftn(c) / grid.cell_measure
        integrand[k] = float(np.sum(frac * (vals.real**2 + vals.imag**2))) \
            * grid.cell_measure
    return integrand


def _probe_curves(symbol, mask, T, steps, probe):
    """March the probe through the semigroup; return (norm_g^2, lhs, integrand)."""
    grid = mask.grid
    c = to_coefficients(sample_probe(grid, probe))
    box = grid.box_measure
    g_sq = float(np.vdot(c, c).real) / box
    e_step = semigroup_multiplier(grid, symbol, T / steps)
    integrand = _restricted_march(grid, c, e_step, mask.cell_fraction, steps)
    lhs = float(np.vdot(c, c).real) / box
    return g_sq, lhs, integrand


def _required_constant(lhs, g_sq, integral, epsilon):
    deficit = lhs - epsilon * g_sq
    if deficit <= 0:
        return 0.0
    if integral <= 0:
        return math.inf
    return deficit / integral


def estimate_observability_constant(F: MultiplierSymbol, mask: SupportMask,
                                    T: float, epsilon: float, probes,
                                    quadrature_steps: int = 64) -> ObservabilityReport:
    """Certified lower bound on the constant relating ||e^{-TF}g||^2 to the
    restricted time integral, maximized over a Gaussian probe dictionary."""
    epsilon = _check_epsilon(epsilon)
    if not (np.isfinite(T) and T > 0):
        raise ValidationError(f"T must be positive, got {T}")
    if quadrature_steps < 32:
        raise ValidationError(
            f"need at least 32 quadrature steps, got {quadrature_steps}")
    probes = tuple(probes)
    if not probes:
        raise ValidationError("need at least one probe")
    grid = mask.grid
    for i, p in enumerate(probes):
        if not probe_admissible(grid, p):
            raise ValidationError(
                f"probe {i} (center={p.center}, frequency={p.frequency}, "
                f"width={p.width}) is not admissible "
                "on this grid: it needs 6 l <= extent/2 and |xi0| + 3/l within "
                "the frequency lattice")
    times = np.linspace(0.0, T, quadrature_steps + 1)
    results, integrands = [], []
    c_est = 0.0
    for i, p in enumerate(probes):
        g_sq, lhs, integrand = _probe_curves(F, mask, T, quadrature_steps, p)
        integral = float(np.trapezoid(integrand, times))
        req = _required_constant(lhs, g_sq, integral, epsilon)
        results.append(ProbeResult(index=i, lhs=lhs, obs_integral=integral,
                                   required_C=req))
        integrands.append(tuple(integrand))
        c_est = max(c_est, req)
    return ObservabilityReport(
        symbol=F, mask=mask, T=float(T), epsilon=epsilon,
        quadrature_steps=int(quadrature_steps), probes=probes,
        times=tuple(float(t) for t in times), integrands=tuple(integrands),
        probe_results=tuple(results), C_est=c_est)


def make_probe_set(grid: Grid, count: int, seed: int,
                   l_bounds: tuple = (0.5, 1.3),
                   xi_fraction: float = 0.1) -> tuple:
    """Seeded dictionary of admissible probes.

    The first probe is a fixed anchor: the widest admissible Gaussian at the
    box center with no modulation, which keeps the dictionary's certified
    constant away from the degenerate zero whenever the symbol is small near
    the origin. The rest draw centers uniformly, widths from l_bounds, and
    modulations up to xi_fraction of each width's admissible headroom.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    xi_max = grid.xi_max
    l_hi = min(l_bounds[1], grid.extent / 12.0 * 0.999)
    l_lo = max(l_bounds[0], 3.0 / xi_max * 1.001)
    if not l_lo <= l_hi:
        raise ValidationError(
            f"no admissible width in {l_bounds} on this grid "
            f"(need {3.0 / xi_max:.4g} <= l <= {grid.extent / 12.0:.4g})")
    mid = (0.5 * grid.extent,) * grid.dim
    probes = [GaussianProbe(width=l_hi, center=mid,
                            frequency=(0.0,) * grid.dim)]
    for _ in range(count - 1):
        l = float(rng.uniform(l_lo, l_hi))
        head = max(0.0, (xi_max - 3.0 / l)) * xi_fraction
        x0 = tuple(float(v) for v in rng.uniform(0, grid.extent, size=grid.dim))
        xi_mag = float(rng.uniform(0, head))
        if grid.dim == 1:
            xi0 = (xi_mag * (1.0 if rng.uniform() < 0.5 else -1.0),)
        else:
            ang = rng.uniform(0, 2 * math.pi)
            xi0 = (xi_mag * math.cos(ang), xi_mag * math.sin(ang))
        probe = GaussianProbe(width=l, center=x0, frequency=xi0)
        if not probe_admissible(grid, probe):
            raise ValidationError("internal probe sampling produced an "
                                  "inadmissible probe; widen l_bounds")
        probes.append(probe)
    return tuple(probes)


def write_report_json(report: ObservabilityReport, path) -> None:
    payload = {
        "symbol": report.symbol.describe(),
        "mask_hash": mask_hash(report.mask),
        "T": report.T,
        "epsilon": report.epsilon,
        "quadrature_steps": report.quadrature_steps,
        "C_est": report.C_est,
        "probes": [
            {"index": r.index,
             "center": list(report.probes[r.index].center),
             "frequency": list(report.probes[r.index].frequency),
             "width": report.probes[r.index].width,
             "lhs": r.lhs,
             "obs_integral": r.obs_integral,
             "required_C": r.required_C}
            for r in report.probe_results
        ],
    }
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def shift_observability_identity_check(report: ObservabilityReport,
                                       mu: float) -> bool:
    """Recompute the report for the symbol shifted down by mu and test the
    exact scalings lhs -> e^{2 T mu} lhs, integrand(t) -> e^{2 t mu} * it."""
    shifted_report = estimate_observability_constant(
        shifted(report.symbol, float(mu)), report.mask, report.T,
        report.epsilon, report.probes, report.quadrature_steps)
    tol = 1e-10
    for r0, r1 in zip(report.probe_results, shifted_report.probe_results):
        want = r0.lhs * math.exp(2.0 * report.T * mu)
        if abs(r1.lhs - want) > tol * max(abs(want), 1e-300):
            return False
    for row0, row1 in zip(report.integrands, shifted_report.integrands):
        for t, a, b in zip(report.times, row0, row1):
            want = a * math.exp(2.0 * t * mu)
            if abs(b - want) > tol * max(abs(want), 1e-300):
                return False
    return True


# ---------------------------------------------------------------------------
# Necessity scan: drag a probe center across the box and watch required_C


@dataclass(frozen=True)
class NecessityScan:
    centers: tuple
    required: tuple
    xi0: tuple
    width: float
    witness_index: int | None

    @property
    def witness(self):
        if self.witness_index is None:
            return None
        return self.centers[self.witness_index]


def necessity_probe_scan(F: MultiplierSymbol, mask: SupportMask, T: float,
                         epsilon: float, C: float, centers, width: float,
                         quadrature_steps: int = 64) -> NecessityScan:
    """Test the (C, epsilon) estimate on probes centered along the schedule.

    The modulation xi0 is picked on the frequency lattice to minimize F
    subject to e^{-2 T F(|xi0|)} > epsilon, the regime where the left side
    cannot be absorbed by the eps ||g||^2 slack. Returns the per-center
    required constants and the first center whose probe defeats C.
    """
    epsilon = _check_epsilon(epsilon)
    if not (np.isfinite(C) and C > 0):
        raise ValidationError(f"C must be positive, got {C}")
    grid = mask.grid
    xi_max = grid.xi_max
    if not (0 < width and 6.0 * width <= 0.5 * grid.extent
            and 3.0 / width <= xi_max):
        raise ValidationError(
            f"probe width {width} is not admissible on this grid")
    cap = xi_max - 3.0 / width
    rho_flat = grid.rho.ravel()
    ok = rho_flat <= cap
    fvals = F.eval(rho_flat[ok])
    cutoff = -math.log(epsilon) / (2.0 * T)
    eligible = fvals < cutoff
    if not np.any(eligible):
        raise ValidationError(
            "no admissible modulation satisfies e^{-2 T F(|xi0|)} > epsilon; "
            "this scan needs the symbol to dip below -log(epsilon)/(2T) "
            "(satisfied whenever inf F <= 0), or a larger epsilon / smaller T")
    pick = np.flatnonzero(ok)[np.argmin(np.where(eligible, fvals, np.inf))]
    if grid.dim == 1:
        xi0 = (float(grid.axis_xi[pick]),)
    else:
        i, j = np.unravel_index(pick, grid.shape)
        xi0 = (float(grid.axis_xi[i]), float(grid.axis_xi[j]))

    req = []
    witness = None
    times = np.linspace(0.0, T, quadrature_steps + 1)
    for k, x0 in enumerate(centers):
        x0t = (float(x0),) if np.ndim(x0) == 0 else tuple(float(v) for v in x0)
        probe = GaussianProbe(width=float(width), center=x0t, frequency=xi0)
        if not probe_admissible(grid, probe):
            raise ValidationError(f"scan probe at x0={x0t} is not admissible")
        g_sq, lhs, integrand = _probe_curves(F, mask, T, quadrature_steps, probe)
        integral = float(np.trapezoid(integrand, times))
        r = _required_constant(lhs, g_sq, integral, epsilon)
        req.append(r)
        if witness is None and r > C:
            witness = k
    return NecessityScan(centers=tuple(centers), required=tuple(req),
                         xi0=xi0, width=float(width), witness_index=witness)


# ---------------------------------------------------------------------------
# Kovrijkine-style growth of the spectral constant in R


@dataclass(frozen=True)
class KovrijkineFit:
    R_values: tuple
    constants: tuple
    intercept: float
    slope: float
    reference_slope: float


def kovrijkine_empirical(mask: SupportMask, R_ladder, C_n: float = 10.0,
                         trials: int = 4, iterations: int = 200,
                         seed: int = 0) -> KovrijkineFit:
    """Fit log C_emp = a + b R over an R ladder and report the certificate's
    reference slope C_n * L * log(C_n / gamma) for comparison."""
    if mask.certificate is None:
        raise ValidationError(
            "mask carries no thickness certificate; build it with a "
            "constructor that certifies (gamma, L) or attach one")
    gamma, L, _stride = mask.certificate
    if not (np.isfinite(C_n) and C_n > 1):
        raise ValidationError(f"C_n must exceed 1, got {C_n}")
    R_values = tuple(float(r) for r in R_ladder)
    if len(R_values) < 2:
        raise ValidationError("need at least two R values to fit a slope")
    consts = tuple(estimate_spectral_constant(mask, r, trials=trials,
                                              iterations=iterations, seed=seed)
                   for r in R_values)
    slope, intercept = np.polyfit(np.array(R_values), np.log(consts), 1)
    ref = C_n * L * math.log(C_n / gamma)
    return KovrijkineFit(R_values=R_values, constants=consts,
                         intercept=float(intercept), slope=float(slope),
                         reference_slope=float(ref))


# ---------------------------------------------------------------------------
# Good/bad cubes


@dataclass(frozen=True)
class CubeReport:
    L: float
    epsilon: float
    beta_max: int
    shape: tuple
    labels: np.ndarray
    worst_beta: tuple
    worst_ratio: np.ndarray
    cube_mass: np.ndarray
    bad_mass: float
    mass_budget: float
    tested_weight: float
    tail_weight: float

    @property
    def bad_fraction(self) -> float:
        return float(np.count_nonzero(~self.labels)) / self.labels.size


def _multi_indices(dim: int, beta_max: int):
    if dim == 1:
        return [(b,) for b in range(beta_max + 1)]
    return [(b1, b2) for b1 in range(beta_max + 1)
            for b2 in range(beta_max + 1 - b1)]


def _cube_sums(sq: np.ndarray, W: int, dim: int) -> np.ndarray:
    if dim == 1:
        return sq.reshape(-1, W).sum(axis=1)
    n = sq.shape[0] // W
    return sq.reshape(n, W, n, W).sum(axis=(1, 3))


def classify_cubes(g: SpectralField, F: MultiplierSymbol, T: float,
                   epsilon: float, L: float, beta_max: int) -> CubeReport:
    """Label side-L cubes good/bad for u = e^{-TG} g, G = F - inf F.

    A cube is good when every tested beta with |beta| <= beta_max satisfies
    ||d^beta u||^2_Q <= 2^(2|beta|+n)/eps * M_{|beta|}^2 * ||u||^2_Q, with
    M_k the half-time moments sup_r r^k e^{-(T/2) G(r)}. The report carries
    the per-cube worst ratio, the mass on bad cubes, and the eps ||g||^2
    budget that mass is guaranteed to respect over the tested orders.
    """
    epsilon = _check_epsilon(epsilon)
    if not (np.isfinite(T) and T > 0):
        raise ValidationError(f"T must be positive, got {T}")
    if not isinstance(beta_max, (int, np.integer)) or not (0 <= beta_max <= 8):
        raise ValidationError(
            f"beta_max must be an integer in [0, 8], got {beta_max}")
    grid = g.grid
    W = L / grid.dx
    if abs(W - round(W)) > 1e-9 or grid.points % int(round(W)) != 0:
        raise ValidationError(
            f"cube side must be a whole number of cells tiling the box "
            f"(L/dx = {W})")
    W = int(round(W))
    n = grid.dim
    base = shifted(F, F.inf_value)  # G = F - inf F, zero infimum
    t_half = 0.5 * T

    # moments used in the thresholds: the continuum optimizer value, nudged
    # up by 1e-9 and floored by the exact lattice supremum so the bad-mass
    # chain is airtight on this grid
    rho_flat = grid.rho.ravel()
    g_rho = np.maximum(base.eval(rho_flat), 0.0)
    damp_half = np.exp(-t_half * g_rho)
    log_m = {}
    for k in range(beta_max + 1):
        lm, _ = log_moment(base, k, scale=t_half)
        with np.errstate(divide="ignore"):
            grid_lm = np.max(k * np.where(rho_flat > 0, np.log(rho_flat), -np.inf)
                             - t_half * g_rho) if k > 0 else -t_half * g_rho.min()
        log_m[k] = max(lm + math.log1p(1e-9), float(grid_lm))

    mult = np.exp(-T * np.maximum(base.eval(grid.rho), 0.0))
    cu = to_coefficients(g) * mult
    u_vals = np.fft.ifftn(cu) / grid.cell_measure
    u_sq = _cube_sums(u_vals.real**2 + u_vals.imag**2, W, n) * grid.cell_measure

    if n == 1:
        xi_axes = (grid.axis_xi,)
    else:
        xi_axes = (grid.axis_xi[:, None], grid.axis_xi[None, :])

    shape = u_sq.shape
    worst_margin = np.full(shape, -np.inf)
    worst_beta = np.zeros(shape + (n,), dtype=int)
    good = np.ones(shape, dtype=bool)
    log_u = np.log(np.maximum(u_sq, 1e-300))
    for beta in _multi_indices(n, beta_max):
        k = sum(beta)
        if k == 0:
            continue
        dc = cu.copy()
        for axis, b in enumerate(beta):
            if b:
                dc *= (1j * xi_axes[axis]) ** b
        d_vals = np.fft.ifftn(dc) / grid.cell_measure
        d_sq = _cube_sums(d_vals.real**2 + d_vals.imag**2, W, n) \
            * grid.cell_measure
        log_thresh = (2 * k + n) * math.log(2.0) - math.log(epsilon) \
            + 2.0 * log_m[k]
        margin = np.log(np.maximum(d_sq, 1e-300)) - log_u - log_thresh
        good &= margin <= 0
        better = margin > worst_margin
        worst_margin = np.where(better, margin, worst_margin)
        worst_beta[better] = beta

    tested = sum(2.0 ** (-2 * sum(b) - n) for b in _multi_indices(n, beta_max))
    bad_mass = float(u_sq[~good].sum())
    g_sq = float(np.vdot(g.values, g.values).real) * grid.cell_measure
    return CubeReport(
        L=float(L), epsilon=epsilon, beta_max=int(beta_max), shape=shape,
        labels=good, worst_beta=tuple(map(tuple, worst_beta.reshape(-1, n))),
        worst_ratio=np.exp(worst_margin), cube_mass=u_sq,
        bad_mass=bad_mass, mass_budget=epsilon * g_sq,
        tested_weight=tested, tail_weight=(2.0 / 3.0) ** n - tested)


def write_cube_csv(report: CubeReport, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("cube,label,worst_beta,ratio\n")
        labels = report.labels.ravel()
        ratios = report.worst_ratio.ravel()
        for i in range(labels.size):
            beta = ";".join(str(b) for b in report.worst_beta[i])
            fh.write(f"{i},{'good' if labels[i] else 'bad'},{beta},"
                     f"{float(ratios[i])!r}\n")


# ---------------------------------------------------------------------------
# Dual synthesis of an approximate null-control


@dataclass(frozen=True)
class ControlResult:
    times: tuple
    controls: tuple
    final_field: SpectralField
    cost: float
    ratio: float
    penalty: float
    cg_iterations: int


def _phi1(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a, dtype=float)
    small = np.abs(a) < 1e-8
    asm = a[small]
    out[small] = 1.0 - asm / 2.0 + asm * asm / 6.0
    big = ~small
    out[big] = -np.expm1(-a[big]) / a[big]
    return out


def synthesize_control(f0: SpectralField, F: MultiplierSymbol,
                       mask: SupportMask, T: float, epsilon: float,
                       slices: int = 32, tol: float = 1e-9,
                       max_cg: int = 2000, penalty0: float = 1.0,
                       max_penalty_steps: int = 12) -> ControlResult:
    """Drive ||f(T)|| under epsilon * ||f0|| with controls through the mask.

    Minimizes sum_i dt ||h_i||^2_omega + (K/eps) ||f(T)||^2 over controls
    constant on each of the time slices, using conjugate gradients on the
    normal equations (slice propagators are exact multipliers, so adjoints
    are exact too), raising K tenfold until the target ratio is met.
    """
    epsilon = _check_epsilon(epsilon)
    if not (np.isfinite(T) and T > 0):
        raise ValidationError(f"T must be positive, got {T}")
    if slices < 1:
        raise ValidationError(f"need at least one slice, got {slices}")
    grid = f0.grid
    box = grid.box_measure
    c0 = to_coefficients(f0)
    f0_norm = math.sqrt(float(np.vdot(c0, c0).real) / box)
    dt = T / slices
    edges = tuple(i * dt for i in range(slices + 1))
    if f0_norm == 0.0:
        zero = tuple(np.zeros(grid.shape, dtype=complex) for _ in range(slices))
        return ControlResult(times=edges, controls=zero,
                             final_field=from_coefficients(grid, c0),
                             cost=0.0, ratio=0.0, penalty=penalty0,
                             cg_iterations=0)

    f_rho = F.eval(grid.rho)
    theta = np.stack([np.exp(-(T - (i + 1) * dt) * f_rho) * dt
                      * _phi1(dt * f_rho) for i in range(slices)])
    e_T = np.exp(-T * f_rho)
    sroot = np.sqrt(mask.cell_fraction)
    cm = grid.cell_measure

    def forward(w):
        """Stacked controls -> coefficient-space endpoint contribution."""
        acc = np.zeros(grid.shape, dtype=complex)
        for i in range(slices):
            acc += theta[i] * (cm * np.fft.fftn(sroot * w[i]))
        return acc

    def apply_normal(w, kappa):
        gsum = forward(w)
        out = np.empty_like(w)
        for i in range(slices):
            out[i] = dt * w[i] + kappa * sroot * \
                np.fft.ifftn(theta[i] * gsum) / cm
        return out

    def cg(b, kappa, x0):
        x = x0.copy()
        r = b - apply_normal(x, kappa)
        p = r.copy()
        rs = float(np.vdot(r, r).real)
        b_norm = math.sqrt(float(np.vdot(b, b).real))
        iters = 0
        for iters in range(1, max_cg + 1):
            ap = apply_normal(p, kappa)
            denom = float(np.vdot(p, ap).real)
            if denom <= 0:
                break
            a = rs / denom
            x += a * p
            r -= a * ap
            rs_new = float(np.vdot(r, r).real)
            if math.sqrt(rs_new) <= tol * b_norm:
                return x, iters, math.sqrt(rs_new) / b_norm
            p = r + (rs_new / rs) * p
            rs = rs_new
        raise ConvergenceError(
            f"control solve stalled after {iters} conjugate-gradient "
            f"iterations (relative residual {math.sqrt(rs) / b_norm:.3e})",
            residual=math.sqrt(rs) / b_norm)

    w = np.zeros((slices,) + grid.shape, dtype=complex)
    penalty = penalty0
    best_ratio = math.inf
    total_iters = 0
    for _ in range(max_penalty_steps):
        kappa = penalty / epsilon
        b = np.empty_like(w)
        for i in range(slices):
            b[i] = -kappa * sroot * np.fft.ifftn(theta[i] * (e_T * c0)) / cm
        w, iters, _res = cg(b, kappa, w)
        total_iters += iters
        c_final = e_T * c0 + forward(w)
        ratio = math.sqrt(float(np.vdot(c_final, c_final).real) / box) / f0_norm
        best_ratio = min(best_ratio, ratio)
        if ratio <= epsilon * (1.0 + 1e-9):
            cost = dt * float(sum(np.vdot(w[i], w[i]).real for i in range(slices))) * cm
            controls = []
            pos = mask.cell_fraction > 0
            for i in range(slices):
                h = np.zeros(grid.shape, dtype=complex)
                h[pos] = w[i][pos] / sroot[pos]
                controls.append(h)
            return ControlResult(
                times=edges, controls=tuple(controls),
                final_field=from_coefficients(grid, c_final),
                cost=cost, ratio=ratio, penalty=penalty,
                cg_iterations=total_iters)
        penalty *= 10.0
    raise ConvergenceError(
        f"penalty ladder exhausted after {max_penalty_steps} steps; best "
        f"achieved ||f(T)||/||f0|| = {best_ratio:.6e} > epsilon = {epsilon}",
        residual=best_ratio)


# ---------------------------------------------------------------------------
# Bounded-symbol negative experiment


@dataclass(frozen=True)
class NegativeLimitCurve:
    h_values: tuple
    constants: tuple
    integrals: tuple
    times: tuple
    integrands: tuple


def negative_limit_experiment(F: MultiplierSymbol, psi: SpectralField,
                              radius: float, T0: float, h_ladder,
                              quadrature_steps: int = 64) -> NegativeLimitCurve:
    """Observability constants of a fixed profile from shrinking supports.

    For each h the support is the complement of the ball of radius r/h and
    the evolution uses the rescaled symbol F(|xi|/h); the reported constant
    is ||psi||^2 over the time integral of restricted norms. For bounded
    symbols with a non-negative limit the constants blow up as h -> 0, which
    is the number-level content of the no-uniform-constant phenomenon.
    """
    if not F.is_bounded():
        raise ValidationError(
            "this experiment assumes a finite non-negative limit, so the "
            "function F is therefore bounded; got an unbounded symbol")
    lim = F.limit_value()
    if not np.isfinite(lim) or lim < 0:
        raise ValidationError(
            f"the symbol must approach a finite non-negative limit, got {lim}")
    if not (np.isfinite(T0) and T0 > 0):
        raise ValidationError(f"T0 must be positive, got {T0}")
    h_values = tuple(float(h) for h in h_ladder)
    if not h_values or any(h <= 0 for h in h_values):
        raise ValidationError("h ladder must be positive")
    grid = psi.grid
    for h in h_values:
        if radius / h >= 0.5 * grid.extent:
            raise ValidationError(
                f"ball of radius {radius}/{h} does not fit the box; shrink "
                "the radius or enlarge the grid")
    c_psi = to_coefficients(psi)
    psi_sq = float(np.vdot(c_psi, c_psi).real) / grid.box_measure
    times = np.linspace(0.0, T0, quadrature_steps + 1)
    constants, integrals, rows = [], [], []
    for h in h_values:
        omega = make_ball_complement(grid, radius / h)
        e_step = semigroup_multiplier(grid, F, T0 / quadrature_steps,
                                      freq_scale=1.0 / h)
        integrand = _restricted_march(grid, c_psi.copy(), e_step,
                                      omega.cell_fraction, quadrature_steps)
        integral = float(np.trapezoid(integrand, times))
        integrals.append(integral)
        constants.append(psi_sq / integral if integral > 0 else math.inf)
        rows.append(tuple(integrand))
    return NegativeLimitCurve(
        h_values=h_values, constants=tuple(constants),
        integrals=tuple(integrals), times=tuple(float(t) for t in times),
        integrands=tuple(rows))
