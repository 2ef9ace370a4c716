"""Symbol families against their defining formulas, infima against closed forms."""

import math

import numpy as np
import pytest

from thickstab.errors import ValidationError
from thickstab.symbols import (IteratedLogAux, MultiplierSymbol, alpha_R,
                               constant, custom, fractional, halfheat, inf_F,
                               iterated, loglog, saturating, shifted)


def test_family_formulas():
    r = np.array([0.0, 0.5, 1.0, 2.0, 10.0, 100.0])
    assert np.allclose(fractional(1.0).eval(r), r**2)
    assert np.allclose(fractional(0.5).eval(r), r)
    assert np.allclose(fractional(2.0).eval(r), r**4)
    assert np.allclose(halfheat().eval(r), r)
    assert np.allclose(loglog(1.0, 0.5).eval(r), r / np.log(math.e + r) ** 0.5)
    # depth 1: phi_1 = log(e + r)
    assert np.allclose(iterated(1).eval(r), r / np.log(math.e + r))
    assert np.allclose(shifted(halfheat(), 2.0).eval(r), r - 2.0)
    assert np.allclose(constant(3.0).eval(r), 3.0)


def test_saturating_matches_rational_form():
    F = saturating(1.0, 200.0)
    r = np.linspace(0.0, 200.0, 5001)
    exact = r / (1.0 + r)
    assert np.max(np.abs(F.eval(r) - exact)) < 2e-6
    # flat beyond the span
    assert F.eval(1e6) == F.eval(200.0)
    assert abs(F.limit_value() - 200.0 / 201.0) < 1e-12
    assert F.is_bounded()


def test_custom_interpolation():
    F = custom(((0.0, 1.0), (1.0, 0.0), (2.0, 2.0)))
    assert F.eval(0.5) == pytest.approx(0.5)
    assert F.eval(1.5) == pytest.approx(1.0)
    assert F.eval(5.0) == pytest.approx(2.0)  # flat extrapolation
    with pytest.raises(ValidationError):
        custom(((0.0, 1.0),))
    with pytest.raises(ValidationError):
        custom(((1.0, 0.0), (0.5, 1.0)))


def test_eval_rejects_negative_radius():
    with pytest.raises(ValidationError):
        halfheat().eval(-0.1)
    with pytest.raises(ValidationError):
        fractional(1.0).eval(np.array([1.0, -2.0]))


def test_constructor_validation():
    with pytest.raises(ValidationError):
        fractional(-1.0)
    with pytest.raises(ValidationError):
        loglog(0.0, 1.0)
    with pytest.raises(ValidationError):
        iterated(0)
    with pytest.raises(ValidationError):
        iterated(9)
    with pytest.raises(ValidationError):
        shifted(halfheat(), float("inf"))
    with pytest.raises(ValidationError):
        MultiplierSymbol(family="made-up")
    with pytest.raises(ValidationError):  # a shift is a field, not a family
        MultiplierSymbol(family="shifted")
    with pytest.raises(ValidationError):
        saturating(1.0, 1.5)


def test_inf_closed_forms():
    res = inf_F(fractional(1.0))
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.location == pytest.approx(0.0, abs=1e-6)
    assert res.reliable

    res = inf_F(shifted(halfheat(), 2.0))
    assert res.value == pytest.approx(-2.0, abs=1e-12)
    # shifting twice is shifting once by the sum
    for F in (halfheat(), fractional(1.0), loglog(1.0, 0.5), saturating(1.0)):
        twice, once = shifted(shifted(F, 0.3), -1.1), shifted(F, 0.3 - 1.1)
        r = np.array([0.0, 0.5, 3.0, 250.0])
        assert np.allclose(twice.eval(r), once.eval(r), rtol=1e-12, atol=0)
        assert inf_F(twice).value == pytest.approx(inf_F(once).value, rel=1e-12)
        assert alpha_R(twice, 2.0).value == pytest.approx(
            alpha_R(once, 2.0).value, rel=1e-12)
        assert twice.describe() == once.describe()

    # interior dip: min of the table is exact
    F = custom(((0.0, 3.0), (1.0, -1.0), (2.0, 4.0)))
    res = inf_F(F)
    assert res.value == pytest.approx(-1.0, abs=1e-9)
    assert res.location == pytest.approx(1.0, abs=1e-4)


def test_tail_infimum_closed_forms():
    # monotone symbols: inf_{r >= R} F = F(R)
    res = alpha_R(halfheat(), 8.0)
    assert res.value == pytest.approx(8.0, rel=1e-10)
    assert res.location == pytest.approx(8.0, rel=1e-8)
    res = alpha_R(fractional(1.0), 3.0)
    assert res.value == pytest.approx(9.0, rel=1e-10)
    # shifted recursion is exact
    res = alpha_R(shifted(fractional(1.0), 5.0), 3.0)
    assert res.value == pytest.approx(4.0, rel=1e-10)
    with pytest.raises(ValidationError):
        alpha_R(halfheat(), -1.0)
    with pytest.raises(ValidationError):
        alpha_R(halfheat(), 8.0, r_max=4.0)


def test_loglog_tail_inf_against_scan():
    # independent dense-scan oracle for a non-monotone-formula family
    F = loglog(1.0, 0.5)
    R = 2.0
    r = np.linspace(R, 1e4, 2_000_001)
    oracle = float(np.min(F.eval(r)))
    res = alpha_R(F, R)
    assert res.value == pytest.approx(oracle, rel=1e-6)


def test_unreliable_edge_minimum():
    # decreasing tabulated symbol, declared non-monotone: the scan bottoms
    # out at the table edge and says so
    F = custom(((0.0, 1.0), (1.0, 0.5), (2.0, 0.25)), monotone_tail=False)
    res = inf_F(F)
    assert res.value == pytest.approx(0.25, abs=1e-9)
    assert not res.reliable


def test_bounded_metadata():
    F = saturating(1.0, 200.0)
    assert F.sup_value() == pytest.approx(200.0 / 201.0)
    G = shifted(F, 0.25)
    assert G.is_bounded()
    assert G.limit_value() == pytest.approx(200.0 / 201.0 - 0.25)
    twice = shifted(shifted(F, 0.5), -0.25)
    assert twice.sup_value() == pytest.approx(G.sup_value(), rel=1e-12)
    assert twice.limit_value() == pytest.approx(G.limit_value(), rel=1e-12)
    with pytest.raises(ValidationError):
        halfheat().sup_value()
    with pytest.raises(ValidationError):
        fractional(1.0).limit_value()


def test_cap_continuation_is_linear():
    F = fractional(1.0)
    cap = F.r_cap
    r = 2.0 * cap
    # linear trend from the cap: F(cap) + F'(cap) (r - cap), F' = 2r
    want = cap**2 + 2.0 * cap * (r - cap)
    assert F.eval(r) == pytest.approx(want, rel=1e-4)
    # continuation keeps the symbol finite and monotone
    assert np.all(np.diff(F.eval(np.array([cap, 1.5 * cap, 3.0 * cap]))) > 0)


def test_describe_and_convexity_flags():
    assert fractional(1.5).describe() == "fractional(s=1.5)"
    assert halfheat().describe() == "halfheat"
    assert "loglog" in loglog(1.0, 0.5).describe()
    assert "custom" in constant(0.0).describe()
    assert fractional(2.0).convex_in_log
    assert halfheat().convex_in_log
    assert shifted(halfheat(), 1.0).convex_in_log
    assert not loglog(1.0, 0.5).convex_in_log


def test_iterated_log_derivative_oracle():
    # closed-form log-derivative of phi_p vs central differences
    for p in (1, 2, 3):
        aux = IteratedLogAux(p)
        t = np.array([1.0, 5.0, 50.0, 1e3, 1e6])
        h = 1e-6 * t
        fd = (np.log(aux.phi(t + h)) - np.log(aux.phi(t - h))) / (2 * h)
        assert np.max(np.abs(aux.phi_log_derivative(t) - fd)) < 1e-6
        fd_f = (iterated(p).eval(t + h) - iterated(p).eval(t - h)) / (2 * h)
        assert np.max(np.abs(aux.f_derivative(t) - fd_f) / np.abs(fd_f)) < 1e-4


def test_scalar_in_scalar_out():
    out = halfheat().eval(2.0)
    assert isinstance(out, float)
    arr = halfheat().eval(np.array([1.0, 2.0]))
    assert isinstance(arr, np.ndarray)
