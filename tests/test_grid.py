"""Grid, field, semigroup, and probe behavior against closed forms."""

import hashlib
import math

import numpy as np
import pytest

from thickstab.errors import ValidationError
from thickstab.grid import (GaussianProbe, _write_csv, _write_json,
                            apply_semigroup, ball_multiplier,
                            field_from_values, from_coefficients, inner,
                            make_grid, norm, probe_admissible, project_ball,
                            read_field, restricted_norm, sample_probe,
                            to_coefficients, write_field, zero_field)
from thickstab.stabilize import _band_indices
from thickstab.symbols import fractional, halfheat
from thickstab.thick import make_periodic_thick, mask_hash, write_mask


def test_grid_validation():
    with pytest.raises(ValidationError):
        make_grid(3, 16.0, 64)
    with pytest.raises(ValidationError):
        make_grid(1, 16.0, 63)
    with pytest.raises(ValidationError):
        make_grid(1, -1.0, 64)
    with pytest.raises(ValidationError):
        make_grid(1, 16.0, 2)


def test_coefficient_convention():
    # a pure lattice mode e^{2 pi i k x / extent} has a single coefficient
    # equal to the box measure
    g = make_grid(1, 16.0, 64)
    x = g.axis_x
    f = field_from_values(g, np.exp(2j * np.pi * 3 * x / 16.0))
    c = to_coefficients(f)
    assert abs(c[3] - 16.0) < 1e-10
    others = np.delete(c, 3)
    assert np.max(np.abs(others)) < 1e-10


def test_roundtrip_and_parseval():
    g = make_grid(2, 8.0, 32)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    f = field_from_values(g, vals)
    c = to_coefficients(f)
    back = from_coefficients(g, c)
    assert np.max(np.abs(back.values - f.values)) < 1e-12
    # ||f||^2 = sum |c|^2 / box_measure
    lhs = norm(f) ** 2
    rhs = float(np.sum(np.abs(c) ** 2)) / g.box_measure
    assert abs(lhs - rhs) < 1e-10 * lhs


def test_heat_evolution_closed_form():
    # e^{-t |D|^2} maps a width-l Gaussian to a width-sqrt(l^2 + 2t) Gaussian
    # scaled by (l^2 / (l^2 + 2t))^{1/2}; spectral accuracy on a wide box
    g = make_grid(1, 40.0, 256)
    x = g.axis_x
    l, t, x0 = 1.0, 0.5, 20.0
    f0 = field_from_values(g, np.exp(-((x - x0) ** 2) / (2 * l * l)) / l)
    got = apply_semigroup(f0, fractional(1.0), t)
    w2 = l * l + 2.0 * t
    want = np.exp(-((x - x0) ** 2) / (2 * w2)) / math.sqrt(w2)
    err = norm(field_from_values(g, got.values - want)) / norm(f0)
    assert err < 1e-8


def test_semigroup_composition_and_identity():
    g = make_grid(1, 16.0, 128)
    rng = np.random.default_rng(1)
    f = field_from_values(g, rng.standard_normal(g.shape))
    F = halfheat()
    a = apply_semigroup(apply_semigroup(f, F, 0.3), F, 0.2)
    b = apply_semigroup(f, F, 0.5)
    assert norm(field_from_values(g, a.values - b.values)) < 1e-12
    ident = apply_semigroup(f, F, 0.0)
    assert np.max(np.abs(ident.values - f.values)) < 1e-14
    with pytest.raises(ValidationError):
        apply_semigroup(f, F, -0.1)


def test_probe_norm_closed_form():
    # ||g||^2 = (pi / l^2)^{dim/2} for admissible probes, 1-D and 2-D
    rng = np.random.default_rng(7)
    g1 = make_grid(1, 24.0, 256)
    g2 = make_grid(2, 24.0, 128)
    checked = 0
    for _ in range(40):
        l = rng.uniform(0.5, 1.5)
        for grid in (g1, g2):
            center = tuple(rng.uniform(8.0, 16.0, grid.dim))
            freq = tuple(rng.uniform(-2.0, 2.0, grid.dim))
            probe = GaussianProbe(width=l, center=center, frequency=freq)
            if not probe_admissible(grid, probe):
                continue
            f = sample_probe(grid, probe)
            want = probe.norm_squared()
            assert abs(norm(f) ** 2 - want) < 1e-6 * want
            checked += 1
    assert checked >= 20


def test_probe_transform_modulus_law():
    # coefficients of a sampled probe reproduce the closed-form transform
    # modulus (2 pi)^{dim/2} e^{-l^2 |xi - xi0|^2 / 2} where it is not tiny
    g = make_grid(1, 24.0, 256)
    probe = GaussianProbe(width=1.1, center=(12.0,), frequency=(1.5,))
    assert probe_admissible(g, probe)
    c = to_coefficients(sample_probe(g, probe))
    want = probe.transform(g.axis_xi)
    sel = np.abs(want) > 1e-3 * np.max(np.abs(want))
    rel = np.abs(np.abs(c[sel]) - np.abs(want[sel])) / np.abs(want[sel])
    assert np.max(rel) < 1e-6


def test_probe_centre_wraps_into_the_box():
    # a centre outside [0, extent) samples like its image inside: x0 = 36 and -28 are 4 on a
    # box of extent 16, where an unwrapped 36 would sum three images that all miss the box
    g = make_grid(1, 16.0, 256)
    want = sample_probe(g, GaussianProbe(1.0, (4.0,), (0.0,))).values
    for x0 in (36.0, -28.0):
        probe = GaussianProbe(1.0, (x0,), (0.0,))
        got = sample_probe(g, probe)
        assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))
        assert abs(norm(got) ** 2 - probe.norm_squared()) < 1e-10 * probe.norm_squared()
    # 2-D, each axis on its own; a lattice frequency keeps its phase across images
    g2 = make_grid(2, 16.0, 64)
    want = sample_probe(g2, GaussianProbe(1.25, (4.0, 12.0), (0.0, np.pi / 4))).values
    got = sample_probe(g2, GaussianProbe(1.25, (36.0, -4.0), (0.0, np.pi / 4))).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_probe_admissibility_boundary():
    g = make_grid(1, 24.0, 256)
    # width cap: 6 l <= extent / 2
    assert probe_admissible(g, GaussianProbe(2.0, (12.0,), (0.0,)))
    assert not probe_admissible(g, GaussianProbe(2.01, (12.0,), (0.0,)))
    # frequency cap: |xi0| + 3 / l <= xi_max
    cap = g.xi_max - 3.0 / 1.0
    assert probe_admissible(g, GaussianProbe(1.0, (12.0,), (cap - 1e-9,)))
    assert not probe_admissible(g, GaussianProbe(1.0, (12.0,), (cap + 1e-6,)))
    with pytest.raises(ValidationError):
        sample_probe(g, GaussianProbe(3.0, (12.0,), (0.0,)))
    with pytest.raises(ValidationError):
        GaussianProbe(-1.0, (0.0,), (0.0,))
    with pytest.raises(ValidationError):
        GaussianProbe(1.0, (0.0, 1.0), (0.0,))


def test_band_at_xi_max_holds_the_nyquist_modes():
    # xi_max is the Nyquist |xi| that rho holds; pi N / extent can exceed it
    # by an ulp (extent 5.3, N = 128) and drop those modes from the band
    for dim, sizes in ((1, (8, 16, 128, 1024)), (2, (8, 16))):
        for points in sizes:
            for extent in np.arange(20, 401) / 10.0:
                g = make_grid(dim, extent, points)
                band = _band_indices(g, g.xi_max)
                for axis in range(dim):
                    k = np.zeros(dim, dtype=int)
                    k[axis] = points // 2
                    assert np.ravel_multi_index(k, g.shape) in band, (dim, points, extent)


def test_ball_projection():
    g = make_grid(1, 16.0, 64)
    # lattice spacing 2 pi / 16; radius 1.0 keeps k in {-2, ..., 2}
    assert int(np.sum(ball_multiplier(g, 1.0))) == 5
    rng = np.random.default_rng(3)
    f = field_from_values(g, rng.standard_normal(g.shape))
    low = project_ball(f, 1.0)
    low2 = project_ball(low, 1.0)
    assert np.max(np.abs(low2.values - low.values)) < 1e-14
    high = field_from_values(g, f.values - low.values)
    total = norm(low) ** 2 + norm(high) ** 2
    assert abs(total - norm(f) ** 2) < 1e-10 * norm(f) ** 2
    with pytest.raises(ValidationError):
        ball_multiplier(g, -1.0)


def test_inner_product_structure():
    g = make_grid(1, 16.0, 64)
    rng = np.random.default_rng(4)
    f = field_from_values(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    h = field_from_values(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    assert abs(inner(f, h) - np.conj(inner(h, f))) < 1e-12
    assert abs(inner(f, f).real - norm(f) ** 2) < 1e-10
    other = make_grid(1, 16.0, 128)
    with pytest.raises(ValidationError):
        inner(f, zero_field(other))


def test_restricted_norm_full_box():
    g = make_grid(1, 16.0, 64)
    rng = np.random.default_rng(5)
    f = field_from_values(g, rng.standard_normal(g.shape))
    frac = np.ones(g.shape)
    assert abs(restricted_norm(f, frac) - norm(f)) < 1e-12
    with pytest.raises(ValidationError):
        restricted_norm(f, np.ones(32))


def test_restricted_norm_rejects_a_mask_on_another_lattice():
    # a SupportMask on another grid is refused by name, also when its shape matches (extent 32)
    g = make_grid(1, 16.0, 256)
    f = field_from_values(g, np.ones(g.shape))
    assert abs(restricted_norm(f, make_periodic_thick(g, 1.0, 0.5)) ** 2 - 8.0) < 1e-9
    for other in (make_grid(1, 32.0, 256), make_grid(1, 16.0, 128)):
        with pytest.raises(ValidationError, match=rf"different lattices.*{other.extent}, "
                                                  rf"points={other.points}"):
            restricted_norm(f, make_periodic_thick(other, 1.0, 0.5))


def test_field_snapshot_roundtrip(tmp_path):
    g = make_grid(2, 8.0, 16)
    rng = np.random.default_rng(6)
    f = field_from_values(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    p = tmp_path / "f.tsf"
    write_field(p, f)
    back = read_field(p)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)

    bad = tmp_path / "bad.tsf"
    bad.write_bytes(b"NOPE" + p.read_bytes()[4:])
    with pytest.raises(ValidationError):
        read_field(bad)
    trunc = tmp_path / "trunc.tsf"
    for data in (p.read_bytes()[:-8], b"TSF1"):  # short body, short header
        trunc.write_bytes(data)
        with pytest.raises(ValidationError, match="truncated TSF1 file"):
            read_field(trunc)
    trunc.write_bytes(p.read_bytes() + bytes(128))  # bytes past the body
    with pytest.raises(ValidationError, match="128 bytes past"):
        read_field(trunc)


def test_artifact_format_pins(tmp_path):
    # the bytes every CSV, JSON and snapshot artifact is built from; the
    # manifests hash these, so any change here changes every recorded run
    csv = tmp_path / "pin.csv"
    _write_csv(csv, "a,b,c,d", [(1.5, np.float64(2.0), 0.1, 1e-300),
                                (float("nan"), 7, np.int64(-3), "x;y")])
    assert csv.read_bytes() == b"a,b,c,d\n1.5,2.0,0.1,1e-300\nnan,7,-3,x;y\n"
    js = tmp_path / "pin.json"
    _write_json(js, {"b": 0.1, "a": [1]})
    assert js.read_bytes() == b'{\n  "a": [\n    1\n  ],\n  "b": 0.1\n}\n'
    # numpy scalars are written as their Python values, tuples as lists
    _write_json(js, {"n": (np.int64(3), np.float64(0.1), np.bool_(True))})
    assert js.read_bytes() == b'{\n  "n": [\n    3,\n    0.1,\n    true\n  ]\n}\n'

    g = make_grid(1, 16.0, 8)
    tsf = tmp_path / "pin.tsf"
    write_field(tsf, zero_field(g))
    raw = tsf.read_bytes()
    assert raw[:20] == (b"TSF1" + b"\x01\0\0\0" + b"\x08\0\0\0"
                        + b"\0\0\0\0\0\0\x30\x40")  # dim 1, 8 points, 16.0
    assert len(raw) == 20 + 16 * 8
    m = make_periodic_thick(g, 2.0, 0.5)
    tsm = tmp_path / "pin.tsm"
    write_mask(tsm, m)
    assert tsm.read_bytes()[:4] == b"TSM1"
    assert mask_hash(m) == hashlib.sha256(tsm.read_bytes()).hexdigest()


def test_shorter_rewrite_leaves_no_stale_tail(tmp_path):
    # writers overwrite in place, so a shorter artifact must cut the file to
    # its own length; each returns the sha256 of exactly what it wrote
    small, large = make_grid(1, 16.0, 8), make_grid(2, 16.0, 16)
    cases = [
        (lambda p: _write_csv(p, "a,b", [(0.1, 2)] * 50),
         lambda p: _write_csv(p, "a,b", [(0.5, 1)]), b"a,b\n0.5,1\n"),
        (lambda p: _write_json(p, {"k": list(range(50))}),
         lambda p: _write_json(p, {"k": 1}), b'{\n  "k": 1\n}\n'),
        (lambda p: write_field(p, zero_field(large)),
         lambda p: write_field(p, zero_field(small)), None),
        (lambda p: write_mask(p, make_periodic_thick(large, 2.0, 0.5)),
         lambda p: write_mask(p, make_periodic_thick(small, 2.0, 0.5)), None),
    ]
    path = tmp_path / "artifact"
    for i, (longer, shorter, want) in enumerate(cases):
        fresh = tmp_path / f"fresh{i}"
        shorter(fresh)
        want = want or fresh.read_bytes()
        assert fresh.read_bytes() == want
        longer(path)
        assert path.stat().st_size > len(want)
        assert shorter(path) == hashlib.sha256(want).hexdigest()
        assert path.read_bytes() == want


def test_field_values_immutable():
    g = make_grid(1, 16.0, 64)
    f = zero_field(g)
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(ValidationError):
        field_from_values(g, np.zeros(12))


def test_fields_compare_by_identity():
    g = make_grid(1, 16.0, 64)
    f, h = field_from_values(g, np.ones(g.shape)), field_from_values(g, np.ones(g.shape))
    assert (f == h) is False and (f != h) is True and (f == f) is True
    assert hash(f) == hash(f) and len({f, h, f}) == 2
