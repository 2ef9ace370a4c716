"""Symbol families against their defining formulas, infima against closed forms."""

import math

import numpy as np
import pytest

from thickstab.errors import ValidationError
from thickstab.symbols import (IteratedLogAux, MultiplierSymbol, _default_hi, _refine_max,
                               alpha_R, constant, custom, fractional, halfheat,
                               inf_F, iterated, loglog, saturating, shifted)


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


def test_custom_table_and_messages():
    # the saturating table is the same tuple of Python floats as a row-by-row
    # build from the node formula
    knee, span = 1.0, 200.0
    xs = np.concatenate([np.linspace(0.0, 2.0 * knee, 2001),
                         np.geomspace(2.0 * knee, span, 2001)[1:]])
    want = tuple((float(r), float(v)) for r, v in zip(xs, xs / (knee + xs)))
    F = saturating(knee, span)
    assert F.table == want
    assert all(type(r) is float and type(v) is float for r, v in F.table)
    # the symbol holds that table's two columns as float64 arrays, bit for
    # bit; a shift and a custom() of the rows hold them too
    cols = np.array(want).T
    G = shifted(F, 0.25)
    for sym in (F, G, custom(want)):
        assert len(sym._nodes) == 2
        for got, col in zip(sym._nodes, cols):
            assert got.dtype == np.float64 and got.tobytes() == col.tobytes()
    # what reads the columns returns what it returned from the rows
    assert F.limit_value() == F.sup_value() == 200.0 / 201.0
    assert G.limit_value() == G.sup_value() == 200.0 / 201.0 - 0.25
    assert custom(want).describe() == "custom(4001 nodes)"
    assert G.describe() == "shifted(custom(4001 nodes), mu=0.25)"
    for sym, lo, hi in ((F, 0.0, 200.0), (G, 150.0, 200.0), (F, 250.0, 251.0)):
        assert type(_default_hi(sym, lo)) is float and _default_hi(sym, lo) == hi
    # each rejection keeps its message, wherever in the table the fault sits
    for bad, msg in ((((0.0, 1.0),), "at least 2 nodes"),
                     (((0.0, 1.0), (1.0, 2.0), (1.0, 3.0)), "strictly increasing"),
                     (((0.0, 1.0), (2.0, 2.0), (1.5, 3.0)), "strictly increasing"),
                     (((-1.0, 1.0), (1.0, 2.0)), r"radii must be >= 0"),
                     (((0.0, 1.0), (1.0, np.nan)), "values must be finite"),
                     (((0.0, np.inf), (1.0, 1.0)), "values must be finite"),
                     # malformed shapes name the rows they expect
                     ((0.0, 1.0), r"\(radius, value\) rows"),
                     (((0.0,), (1.0,)), r"\(radius, value\) rows"),
                     (((0.0, 1.0, 2.0), (1.0, 2.0, 3.0)), r"\(radius, value\) rows"),
                     (((0.0, 1.0), (1.0,)), r"\(radius, value\) rows"),
                     (((0.0, 1.0), (1.0, 2.0, 3.0)), r"\(radius, value\) rows"),
                     (((0.0, 1.0), (1.0, (2.0, 3.0))), r"\(radius, value\) rows"),
                     (((0.0, 1.0), (1.0, "x")), r"\(radius, value\) rows")):
        with pytest.raises(ValidationError, match=msg):
            custom(bad)


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
    # a bracket that floats cannot narrow to tol still ends, on the grid value
    res = alpha_R(halfheat(), 1e12)
    assert res.value == 1e12 and res.location == 1e12
    with pytest.raises(ValidationError):
        alpha_R(halfheat(), -1.0)


def test_loglog_tail_inf_against_scan():
    # independent dense-scan oracle for a non-monotone-formula family
    F = loglog(1.0, 0.5)
    R = 2.0
    r = np.linspace(R, 1e4, 2_000_001)
    oracle = float(np.min(F.eval(r)))
    res = alpha_R(F, R)
    assert res.value == pytest.approx(oracle, rel=1e-6)


def test_tail_scan_refuses_a_minimum_past_its_window():
    # F = r^0.001 / sqrt(log(e + r)) falls for all r of the scan window
    # [R, 1e4] and on past it (F(1e8) = 0.2373 < F(1e4) = 0.3325), so the
    # window's last point is no infimum; the infimum from 0 is F(0) = 0
    F = loglog(0.001, 0.5)
    assert F.eval(1e8) < F.eval(1e4)
    with pytest.raises(ValidationError, match=r"still decreases at r = 10000, "
                       r"the right end of its infimum scan window \[2, 10000\]"):
        alpha_R(F, 2.0)
    assert inf_F(F).value == 0.0


def test_table_edge_minimum():
    # a decreasing table is flat past its last node, so its infimum is the
    # last node value, found at the table edge, and the tail infimum past
    # the edge is that flat value
    F = custom(((0.0, 1.0), (1.0, 0.5), (2.0, 0.25)))
    res = inf_F(F)
    assert res.value == 0.25 and res.location == 2.0
    for G in (F, shifted(F, 0.75)):
        for R in (2.0, 3.5, 1e6):
            assert alpha_R(G, R).value == G.limit_value()


def test_refine_max_many_brackets():
    # h(x) = -(x - x0)^2, one x0 per bracket, all refined in one call: inside
    # a bracket, at the grid's ends, just inside them, and on nodes
    grid = np.linspace(-1.0, 2.0, 301)
    step = grid[1] - grid[0]
    x0 = np.concatenate([grid[5] + step * np.array([0.1, 0.37, 0.5, 0.93, -0.4]),
                         grid[[0, -1, 1, -2, 7, 150]],
                         [grid[0] + 1e-9, grid[-1] - 1e-9, grid[200] + 0.5 * step]])
    idx = np.argmin(np.abs(grid[None, :] - x0[:, None]), axis=1)  # grid argmax
    vals = -(grid[idx] - x0) ** 2
    tol = 1e-10
    x, v = _refine_max(lambda xs: -(xs - x0) ** 2, grid, idx, vals, tol)
    assert np.all(np.abs(x - x0) <= tol)
    assert np.all(v >= vals) and np.all(v <= 0.0)
    node = np.isin(x0, grid)
    assert np.count_nonzero(node) == 6
    # a maximum on a node keeps the exact grid point and value
    assert np.array_equal(x[node], x0[node]) and np.all(v[node] == 0.0)


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


def test_eval_is_the_formula_at_any_radius():
    # no cut-over at large radii: the family formula, inf where it overflows
    assert fractional(1.0).eval(2e8) == 4e16
    with np.errstate(over="ignore"):
        assert fractional(200.0).eval(2e8) == math.inf
        np.testing.assert_array_equal(fractional(200.0).eval(np.array([1.0, 2e8])),
                                      [1.0, math.inf])


def test_describe_and_convexity_flags():
    # report.json hashes these labels
    assert fractional(1.5).describe() == "fractional(s=1.5)"
    assert halfheat().describe() == "halfheat"
    assert loglog(1.0, 0.5).describe() == "loglog(s=1.0, delta=0.5)"
    assert iterated(2).describe() == "iterated(p=2)"
    assert shifted(halfheat(), 0.3).describe() == "shifted(halfheat, mu=0.3)"
    assert saturating().describe() == "custom(4001 nodes)"
    assert constant(0.0).describe() == "custom(2 nodes)"
    # each family evaluates its formula bit for bit
    r = np.concatenate([np.linspace(0.0, 50.0, 101), np.geomspace(1e-3, 1e7, 50)])
    e = math.e
    cases = [
        (fractional(1.5), r**3.0),
        (halfheat(), r),
        (loglog(2.0, 0.5), r**2.0 / np.log(e + r) ** 0.5),
        (iterated(2), r / (np.log(e + r) * np.log(e + np.log(e + r)))),
        (shifted(loglog(1.0, 1.5), 0.3), r**1.0 / np.log(e + r) ** 1.5 - 0.3),
        (custom([(0.0, 1.0), (1.0, 0.5), (3.0, 2.0)]),
         np.interp(r, [0.0, 1.0, 3.0], [1.0, 0.5, 2.0])),
    ]
    for F, want in cases:
        np.testing.assert_array_equal(F.eval(r), want, err_msg=F.describe())


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
