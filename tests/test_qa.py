"""Moment sequences, divergence sums, and the asymptotic bound checks.

Frozen expected values come from closed forms computed independently in the
tests: for F(r) = r the moments are M_0 = 1 and M_k = k^k e^{-k}, so every
ratio M_k / M_{k+1} = e k^k / (k+1)^{k+1} is explicit and the partial sums
can be accumulated without touching the library's optimizer.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from thickstab import qa
from thickstab.errors import (ConvergenceError, IntegrationError,
                              MomentDivergenceError, ValidationError)
from thickstab.qa import (build_sequence, dc_partial_sum, integral_test,
                          log_convexity_report, log_moment,
                          ratio_lower_bound_check, scaling_inequality_check,
                          tk_bound_check, write_moments_csv)
from thickstab.symbols import (constant, custom, fractional, halfheat, iterated,
                               loglog, saturating, shifted)


def _halfheat_ratio(k: int) -> float:
    if k == 0:
        return math.e
    return math.exp(1.0 + k * math.log(k) - (k + 1) * math.log(k + 1))


def test_halfheat_moments_closed_form():
    seq = build_sequence(halfheat(), 100)
    for k in range(1, 101):
        want = k * math.log(k) - k
        assert abs(seq.log_moments[k] - want) <= 1e-8
    assert seq.log_moments[0] == pytest.approx(0.0, abs=1e-12)
    # the maximizer of r^k e^{-r} sits at r = k
    assert seq.argmax_locations[50] == pytest.approx(50.0, rel=1e-6)


def test_fractional_moments_closed_form():
    # M_k = sup r^k e^{-r^2} attained at r = sqrt(k/2)
    seq = build_sequence(fractional(1.0), 4)
    assert abs(seq.log_moments[2] - (-1.0)) <= 1e-8
    assert abs(seq.log_moments[4] - (math.log(4.0) - 2.0)) <= 1e-8
    lm, loc = log_moment(fractional(1.0), 2)
    assert lm == pytest.approx(-1.0, abs=1e-8)
    assert loc == pytest.approx(1.0, rel=1e-6)


def test_moment_scale_argument():
    # sup r^k e^{-T r} = (k / T)^k e^{-k}
    lm, loc = log_moment(halfheat(), 5, scale=0.25)
    assert lm == pytest.approx(5 * math.log(20.0) - 5.0, abs=1e-8)
    assert loc == pytest.approx(20.0, rel=1e-6)
    # F - mu multiplies every moment by e^{scale mu}
    for F in (halfheat(), fractional(1.0), loglog(1.0, 0.5)):
        for k, scale in ((0, 2.0), (1, 1.0), (5, 0.25), (40, 3.0)):
            want = log_moment(F, k, scale)[0] + scale * 0.7
            got = log_moment(shifted(F, 0.7), k, scale)[0]
            assert got == pytest.approx(want, rel=1e-12)


def _monotone_loop(s, fe, ks):
    """Coarse-maxima oracle: for each k, the first argmax of k s - fe at or right of the last."""
    idx, j0 = [], 0
    for k in ks:
        j0 += int(np.argmax(k * s[j0:] - fe[j0:]))
        idx.append(j0)
    return np.array(idx)


def _log_grid(F, scale):
    """The moment batch's coarse grid s and scale F(e^s), with its slopes."""
    s = np.linspace(qa._S_LO, math.log(qa._R_CAP), qa._GRID_POINTS)
    with np.errstate(over="ignore", invalid="ignore"):
        fe = scale * F.eval(np.exp(s))
        return s, fe, np.diff(fe) / np.diff(s)


_QA_FAMILIES = {"halfheat": halfheat(), "fractional": fractional(1.0),
                "loglog": loglog(1.0, 0.5), "iterated": iterated(2), "steep": fractional(40.0)}


@pytest.mark.parametrize("scale", [1.0, 0.25])
@pytest.mark.parametrize("name", [*_QA_FAMILIES, "ties"])
def test_coarse_maxima_from_slopes_match_loop(name, scale):
    # the qa scenario's families (and one that overflows past r = 7.13e3) have
    # nondecreasing grid slopes, so one searchsorted gives every k's coarse
    # maximizer: bitwise the loop's. On integer slopes k s - fe ties at two
    # neighbours exactly, and the first is the loop's
    if name == "ties":
        s = np.arange(-20.0, 21.0)
        fe = scale * s * (s + 1.0) / 2.0  # slopes scale (s + 1)
        d, ks = np.diff(fe) / np.diff(s), scale * np.arange(1.0, 15.0)
    else:
        s, fe, d = _log_grid(_QA_FAMILIES[name], scale)
        ks = np.arange(1.0, 102.0)
    finite = d[np.isfinite(d)]
    assert np.all(finite[1:] >= finite[:-1])
    assert np.array_equal(qa._coarse_argmax(s, fe, ks), _monotone_loop(s, fe, ks))


def test_nonconvex_table_takes_the_loop():
    # a table whose slope in r drops at r = 1 is not convex on the log grid:
    # the first slope >= k is not the maximizer there, and the loop is used
    F = custom(((0.0, 0.0), (1.0, 5.0), (2.0, 5.2), (1e9, 1e10)))
    s, fe, d = _log_grid(F, 1.0)
    ks = np.arange(1.0, 41.0)
    want = _monotone_loop(s, fe, ks)
    assert not np.array_equal(np.searchsorted(d, ks), want)
    assert np.array_equal(qa._coarse_argmax(s, fe, ks), want)


def test_one_k_moment_takes_at_most_four_zooms(monkeypatch):
    # one k gets the whole zoom budget: at most 4 objective calls; a 101-k
    # batch keeps 10 samples a bracket
    calls, refine = [], qa._refine_max

    def counted(h, *args):
        return refine(lambda x: calls.append(x.shape) or h(x), *args)

    monkeypatch.setattr(qa, "_refine_max", counted)
    for F in _QA_FAMILIES.values():
        for k, scale in ((1, 1.0), (5, 0.25), (40, 3.0), (100, 1.0)):
            calls.clear()
            log_moment(F, k, scale)
            assert 1 <= len(calls) <= 4, (F.describe(), k, scale)
    calls.clear()
    build_sequence(halfheat(), 100)
    assert set(calls) == {(10, 101)} and len(calls) <= 12


def test_dc_partial_sums_match_ratio_oracle():
    seq = build_sequence(halfheat(), 10000)
    for K in (10, 100, 1000, 10000):
        oracle = sum(_halfheat_ratio(k) for k in range(K))
        assert dc_partial_sum(seq, K) == pytest.approx(oracle, rel=1e-8)
    # the sums sit a fixed offset above log K; frozen from the closed form
    assert dc_partial_sum(seq, 10) - math.log(10) == pytest.approx(
        2.6998777546866153, abs=1e-9)
    assert dc_partial_sum(seq, 10000) - math.log(10000) == pytest.approx(
        2.699669728185304, abs=1e-9)


def test_divergence_signature_separates_families():
    # quasi-analytic side: increments of S_K track log 2 per doubling
    seq = build_sequence(halfheat(), 4000)
    inc = dc_partial_sum(seq, 4000) - dc_partial_sum(seq, 2000)
    assert inc == pytest.approx(math.log(2.0), abs=1e-3)
    # non-quasi-analytic side: the ratio series converges
    seq2 = build_sequence(loglog(1.0, 2.0), 4000)
    inc2 = dc_partial_sum(seq2, 4000) - dc_partial_sum(seq2, 2000)
    assert inc2 < 0.01


def _table_integral(symbol, t_max):
    """Exact integral of the piecewise-linear table over [0, t_max]: on each node
    interval the interpolant is alpha + beta t, flat past the last node."""
    xs, vs = symbol._nodes
    vs = vs - symbol.shift
    edges = np.append(xs[xs < t_max], t_max)
    total = 0.0
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        beta = (vs[i + 1] - vs[i]) / (xs[i + 1] - xs[i]) if i + 1 < xs.size else 0.0
        alpha = vs[i] - beta * xs[i]
        total += (alpha * (math.atan(b) - math.atan(a))
                  + 0.5 * beta * (math.log1p(b * b) - math.log1p(a * a)))
    return total


def test_integral_signature():
    # int_0^T r / (1 + r^2) dr = log1p(T^2) / 2, which is log T to rounding
    # from 1e150 on; past 1.3e154 t * t overflows, so the weight must not
    for t_max in (1e4, 1e150, 1e160, 1e300):
        want = 0.5 * math.log1p(t_max * t_max) if t_max < 1e150 else math.log(t_max)
        assert integral_test(halfheat(), t_max) == pytest.approx(want, rel=1e-13), t_max
    # t^2 / (1 + t^2) = 1 - 1 / (1 + t^2)
    assert integral_test(fractional(1.0), 50.0) == pytest.approx(
        50.0 - math.atan(50.0), rel=1e-13)
    assert integral_test(constant(3.0), 2.0) == pytest.approx(
        3.0 * math.atan(2.0), rel=1e-13)
    # tables are exact piecewise: the panels split at their kinks
    for F, t_max in ((saturating(1.0, 200.0), 2.0), (saturating(1.0, 200.0), 150.0),
                     (saturating(1.0, 200.0), 1e3), (shifted(saturating(2.0, 50.0), 0.3), 1e3)):
        assert integral_test(F, t_max) == pytest.approx(
            _table_integral(F, t_max), rel=1e-13), (F.describe(), t_max)
    # convergent partner stays bounded far out
    assert integral_test(loglog(1.0, 2.0), 1e8) < 1.3
    with pytest.raises(ValidationError):
        integral_test(halfheat(), -1.0)


def test_integral_test_matches_tight_quad():
    # smooth families against SciPy's quad, tight, on the same dyadic and decade
    # pieces, the first of which holds the r^0.1 cusp of fractional(0.05) at 0
    def oracle(F, t_max):
        cuts = [0.0, *(2.0 ** k for k in range(-40, 1)), *(10.0 ** k for k in range(1, 309))]
        edges = [c for c in cuts if c < t_max] + [t_max]
        return sum(quad(lambda t: F.eval(t) / (1.0 + t * t), a, b, epsabs=0.0,
                        epsrel=1e-13, limit=200)[0] for a, b in zip(edges, edges[1:]))

    for F, t_max in ((loglog(1.0, 2.0), 1e8), (loglog(1.0, 0.5), 1e5), (iterated(1), 1e12),
                     (iterated(2), 1e6), (fractional(0.05), 1e4), (fractional(0.3), 1e4),
                     (fractional(3.0), 1e2), (shifted(halfheat(), 5.0), 1e4)):
        assert integral_test(F, t_max) == pytest.approx(
            oracle(F, t_max), rel=1e-12), F.describe()


def test_integral_test_fails_loudly_on_overflow():
    # t^400 overflows past t = 5.9, so the decade [1, 10] is the first panel
    # whose value is not finite, and the error says so; no RuntimeWarning
    # escapes on the way
    with pytest.raises(IntegrationError, match=r"quadrature failed on \[1.0, 10.0\]: "
                       r"F\(t\) / \(1 \+ t\^2\) is not finite there") as err:
        integral_test(fractional(200.0), 1e8)
    assert err.value.step == 1.0


def test_import_loads_no_scipy():
    # a fresh interpreter that imports the package and its CLI, and computes
    # an integral test, loads numpy only
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys, thickstab, thickstab.cli\n"
        "def loaded():\n"
        "    print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')\n"
        "                 or m == 'numpy.f2py' or m.startswith('numpy.f2py.')))\n"
        "loaded()\n"
        "print(repr(thickstab.qa.integral_test(thickstab.halfheat(), 1e4)))\n"
        "loaded()\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[0] == "[]" and out[2] == "[]"
    assert float(out[1]) == pytest.approx(0.5 * math.log(1 + 1e8), rel=1e-10)


def test_bounded_symbols_have_no_moments():
    with pytest.raises(MomentDivergenceError):
        log_moment(saturating(1.0), 1)
    with pytest.raises(MomentDivergenceError):
        build_sequence(constant(1.0), 10)
    # k = 0 is still fine: M_0 = e^{-inf F}
    lm, _ = log_moment(saturating(1.0), 0)
    assert lm == pytest.approx(0.0, abs=1e-9)
    # unbounded but slow enough that the maximizer lies past the search cap
    for F in (loglog(0.001, 0.0), fractional(0.01)):
        with pytest.raises(MomentDivergenceError, match=r"search cap r=1e\+08"):
            log_moment(F, 1)


def test_log_convexity_across_families():
    # fractional(40) overflows on the moment grid past r = 7.13e3: no RuntimeWarning may escape
    for F in (fractional(0.5), fractional(1.0), fractional(2.0), fractional(40.0), halfheat(),
              loglog(1.0, 0.5), iterated(1), iterated(2), iterated(3),
              shifted(halfheat(), 1.0)):
        seq = build_sequence(F, 200)
        rep = log_convexity_report(seq)
        assert rep.holds, f"{F.describe()} violated at k={rep.worst_k}"
        assert rep.worst_violation <= 1e-9


def test_forged_convexity_violation_is_flagged():
    seq = build_sequence(halfheat(), 10)
    logs = seq.log_moments.copy()
    logs[5] += 0.5
    forged = dataclasses.replace(seq, log_moments=logs)
    rep = log_convexity_report(forged)
    assert not rep.holds
    assert rep.worst_k == 5
    # bump minus the genuine slack at k = 5; frozen numerically
    assert rep.worst_violation == pytest.approx(0.3993224322, abs=1e-6)


def test_sequence_ratio_accessors():
    # k = 0 .. k_max + 1 moments and maximizers, k = 0 .. k_max ratios, all read-only
    seq = build_sequence(halfheat(), 20)
    assert seq.log_moments.shape == seq.argmax_locations.shape == (22,)
    assert seq.ratios.shape == (21,)
    for a in (seq.log_moments, seq.argmax_locations, seq.ratios):
        assert not a.flags.writeable
    np.testing.assert_array_equal(seq.ratios, np.exp(seq.log_moments[:-1] - seq.log_moments[1:]))
    np.testing.assert_allclose(seq.ratios, [_halfheat_ratio(k) for k in range(21)], rtol=1e-9)
    assert seq.log_moments[21] == pytest.approx(21 * math.log(21) - 21, rel=1e-12)
    assert seq.argmax_locations[21] == pytest.approx(21.0, rel=1e-6)
    assert seq.ratio_bound == seq.ratios.max() == seq.ratios[0]
    assert dc_partial_sum(seq, 21) == float(np.sum(seq.ratios))
    with pytest.raises(ValidationError):
        dc_partial_sum(seq, 0)
    with pytest.raises(ValidationError):
        dc_partial_sum(seq, 22)


def test_scaling_inequality_cases():
    # equality case: T = 1/p on the scale-invariant symbol
    lhs, rhs, holds = scaling_inequality_check(halfheat(), 0.5, 2.0, 10)
    assert holds
    assert lhs == pytest.approx(rhs, rel=1e-9)
    for F in (halfheat(), loglog(1.0, 0.5)):
        for (T, p) in ((0.5, 2.0), (2.0, 1.0)):
            for k in (1, 5, 10, 25):
                _, _, ok = scaling_inequality_check(F, T, p, k)
                assert ok, (F.describe(), T, p, k)
    with pytest.raises(ValidationError):
        scaling_inequality_check(halfheat(), 0.25, 2.0, 5)


def test_iterated_depth_bounds():
    for p in (1, 2):
        for k in (1e3, 1e4, 1e5):
            t_k, bound, holds = tk_bound_check(p, k)
            assert holds, (p, k, t_k, bound)
            assert 0 < t_k <= bound * (1 + 1e-9)
            assert ratio_lower_bound_check(p, k)
    with pytest.raises(ValidationError):
        tk_bound_check(1, 50)
    # t_k lies beyond the search cap: the doubling gives up and names what it scanned
    with pytest.raises(ConvergenceError, match=r"bisection bracket failure for "
                       r"t F'\(t\) = 1e\+09: scanned \[1, 1\.34e\+08\]"):
        tk_bound_check(1, 1e9)
    with pytest.raises(ValidationError):
        ratio_lower_bound_check(9, 1e3)


def test_moments_csv(tmp_path):
    seq = build_sequence(halfheat(), 100)
    path = tmp_path / "moments.csv"
    write_moments_csv(seq, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,log_moment,argmax,ratio,dc_partial_sum"
    assert len(lines) == 102
    # every cell parses back; partial sums agree with the accessor
    last = lines[-1].split(",")
    assert int(last[0]) == 100
    assert float(last[4]) == pytest.approx(dc_partial_sum(seq, 101), rel=1e-12)
    assert "np.float64" not in path.read_text()


def test_build_sequence_validation():
    with pytest.raises(ValidationError):
        build_sequence(halfheat(), 0)
    with pytest.raises(ValidationError):
        log_moment(halfheat(), -1)
    with pytest.raises(ValidationError):
        log_moment(halfheat(), 1, scale=-2.0)
