"""Support masks: exact coverage, certificates, window measurement, snapshots."""

import math

import numpy as np
import pytest

from thickstab.errors import ValidationError
from thickstab.grid import make_grid
from thickstab.observe import _multi_indices
from thickstab.thick import (SupportMask, make_ball_complement, make_full,
                             make_periodic_thick, make_random_thick,
                             mask_hash, read_mask, thickness_certificate,
                             write_mask)


def test_full_mask():
    g = make_grid(1, 16.0, 64)
    m = make_full(g)
    assert np.all(m.cell_fraction == 1.0)
    assert m.measure_fraction == pytest.approx(1.0)
    assert m.certificate == (1.0, 16.0, 1)
    assert thickness_certificate(m, 2.0) == pytest.approx(1.0)


def test_periodic_exact_measure():
    g = make_grid(1, 16.0, 256)
    m = make_periodic_thick(g, period=1.0, fill=0.5)
    # commensurate case: whole cells, exact 0/1 fractions
    assert set(np.unique(m.cell_fraction)) == {0.0, 1.0}
    assert float(np.sum(m.cell_fraction)) * g.dx == pytest.approx(8.0)
    # non-commensurate fill: totals still exact via interval overlap
    m2 = make_periodic_thick(g, period=1.0, fill=0.3)
    assert float(np.sum(m2.cell_fraction)) * g.dx == pytest.approx(16.0 * 0.3)
    assert np.all((m2.cell_fraction >= 0.0) & (m2.cell_fraction <= 1.0))
    # the certificate is attained: worst period-window is exactly fill
    assert thickness_certificate(m2, 1.0) == pytest.approx(0.3, abs=1e-12)


def test_periodic_2d_product():
    g = make_grid(2, 8.0, 64)
    m = make_periodic_thick(g, period=1.0, fill=0.5)
    assert m.certificate == (0.25, 1.0, 1)
    total = float(np.sum(m.cell_fraction)) * g.cell_measure
    assert total == pytest.approx(8.0 * 8.0 * 0.25)
    assert thickness_certificate(m, 1.0) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("fill", [0.3, 0.4, 0.7])
@pytest.mark.parametrize("dim, extent, points, cells", [
    (1, 16.0, 1024, 64), (2, 16.0, 64, 4), (1, 8.0, 1000, 125)])
def test_periodic_masks_get_their_lattice_period(dim, extent, points, cells, fill):
    # a fill that cuts cells: one lattice period, N / gcd(N, extent / period)
    # cells, is computed and tiled, so the fractions repeat to the bit
    g = make_grid(dim, extent, points)
    m = make_periodic_thick(g, period=1.0, fill=fill)
    assert m.periods == (cells,) * dim
    assert m.total_measure == pytest.approx((extent * fill) ** dim)
    assert thickness_certificate(m, 1.0) == pytest.approx(fill ** dim, abs=1e-12)


def test_periodic_validation():
    g = make_grid(1, 16.0, 64)
    with pytest.raises(ValidationError):
        make_periodic_thick(g, period=3.0, fill=0.5)  # does not divide 16
    with pytest.raises(ValidationError):
        make_periodic_thick(g, period=1.0, fill=0.0)
    with pytest.raises(ValidationError):
        make_periodic_thick(g, period=-1.0, fill=0.5)


def test_ball_complement_measure_1d():
    g = make_grid(1, 16.0, 256)
    m = make_ball_complement(g, 2.0)
    # removes the cyclic interval of length 2 r around the box center
    total = float(np.sum(m.cell_fraction)) * g.dx
    assert total == pytest.approx(16.0 - 4.0, abs=0.01)
    # far cells are fully kept, near cells fully dropped
    assert m.cell_fraction[0] == 1.0
    mid = int(round(8.0 / g.dx))
    assert m.cell_fraction[mid] == 0.0


def test_ball_complement_measure_2d():
    g = make_grid(2, 16.0, 128)
    m = make_ball_complement(g, 2.0)
    total = float(np.sum(m.cell_fraction)) * g.cell_measure
    assert total == pytest.approx(16.0**2 - math.pi * 4.0, abs=0.02)


def test_ball_complement_certificate_scale():
    g = make_grid(1, 16.0, 256)
    m = make_ball_complement(g, 2.0, cert_scale=8.0)
    gamma, L, stride = m.certificate
    assert L == 8.0 and stride == 1
    # the certificate is what the window scan measures
    assert gamma == pytest.approx(thickness_certificate(m, 8.0), abs=1e-12)
    # worst window straddles the hole: 8 - 4 over 8
    assert gamma == pytest.approx(0.5, abs=0.01)
    with pytest.raises(ValidationError):
        make_ball_complement(g, 9.0)  # hole swallows the box


def test_random_mask_block_counts():
    g = make_grid(1, 16.0, 256)
    m = make_random_thick(g, L=2.0, gamma=0.3, seed=42)
    W = int(round(2.0 / g.dx))  # 32 cells per block
    assert m.certificate == (0.3, 2.0, W)
    per_block = m.cell_fraction.reshape(8, W).sum(axis=1)
    assert np.all(per_block == math.ceil(0.3 * W - 1e-9))
    # block-aligned windows achieve the certificate
    assert thickness_certificate(m, 2.0, stride=W) == pytest.approx(
        10.0 / 32.0)


def test_random_mask_certificate_needs_its_stride():
    # sliding the window off the block grid can dip below gamma; the
    # stride in the certificate is honest about that
    g = make_grid(1, 16.0, 256)
    m = make_random_thick(g, L=2.0, gamma=0.3, seed=42)
    anchored = thickness_certificate(m, 2.0, stride=m.certificate[2])
    slid = thickness_certificate(m, 2.0, stride=1)
    assert anchored >= 0.3
    assert slid == pytest.approx(0.1875)  # frozen for this seed
    assert slid < 0.3


def test_random_mask_2d_and_determinism():
    g = make_grid(2, 8.0, 64)
    m1 = make_random_thick(g, L=2.0, gamma=0.25, seed=7)
    m2 = make_random_thick(g, L=2.0, gamma=0.25, seed=7)
    assert np.array_equal(m1.cell_fraction, m2.cell_fraction)
    m3 = make_random_thick(g, L=2.0, gamma=0.25, seed=8)
    assert not np.array_equal(m1.cell_fraction, m3.cell_fraction)
    W = int(round(2.0 / g.dx))
    want = math.ceil(0.25 * W * W - 1e-9)
    blocks = m1.cell_fraction.reshape(4, W, 4, W).sum(axis=(1, 3))
    assert np.all(blocks == want)


@pytest.mark.parametrize("seed", [None, -1, 1.5])
def test_random_mask_needs_a_seed(seed):
    # None would draw fresh OS entropy; -1 and 1.5 reached numpy's own errors
    with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
        make_random_thick(make_grid(1, 16.0, 256), 2.0, 0.3, seed)


def test_window_scan_validation():
    g = make_grid(1, 16.0, 256)
    m = make_full(g)
    with pytest.raises(ValidationError):
        thickness_certificate(m, 0.1)  # not a whole number of cells
    with pytest.raises(ValidationError):
        thickness_certificate(m, 32.0)
    for bad in (0, -1, 2.5):
        with pytest.raises(ValidationError, match="stride must be a positive integer"):
            thickness_certificate(m, 2.0, stride=bad)
    # a length below one cell is refused, in the caller's words
    with pytest.raises(ValidationError, match="window side L"):
        thickness_certificate(m, 1e-300)
    with pytest.raises(ValidationError, match="block length L"):
        make_random_thick(g, L=1e-12, gamma=0.3, seed=0)
    with pytest.raises(ValidationError):
        make_random_thick(g, L=3.0, gamma=0.3, seed=0)  # 3 does not divide 16


def test_window_scan_matches_bruteforce():
    # cyclic prefix-sum windows vs a direct loop
    g = make_grid(1, 8.0, 32)
    rng = np.random.default_rng(2)
    frac = rng.uniform(0.0, 1.0, g.shape)
    m = SupportMask(grid=g, cell_fraction=frac, certificate=None)
    W = 8
    L = W * g.dx
    direct = min(
        sum(frac[(i + j) % 32] for j in range(W)) * g.dx / L
        for i in range(32)
    )
    assert thickness_certificate(m, L) == pytest.approx(direct, rel=1e-12)


def test_mask_snapshot_roundtrip(tmp_path):
    g = make_grid(2, 8.0, 32)
    m = make_periodic_thick(g, period=2.0, fill=0.4)
    p = tmp_path / "m.tsm"
    write_mask(p, m)
    back = read_mask(p)
    assert back.grid == g
    assert np.array_equal(back.cell_fraction, m.cell_fraction)
    assert mask_hash(back) == mask_hash(m)

    bad = tmp_path / "bad.tsm"
    bad.write_bytes(b"XXXX" + p.read_bytes()[4:])
    with pytest.raises(ValidationError):
        read_mask(bad)
    trunc = tmp_path / "trunc.tsm"
    for data in (p.read_bytes()[:-8], b"TSM1"):  # short body, short header
        trunc.write_bytes(data)
        with pytest.raises(ValidationError, match="truncated TSM1 file"):
            read_mask(trunc)
    trunc.write_bytes(p.read_bytes() + bytes(8))  # bytes past the body
    with pytest.raises(ValidationError, match="8 bytes past"):
        read_mask(trunc)


def test_mask_hash_distinguishes():
    g = make_grid(1, 16.0, 64)
    a = make_periodic_thick(g, period=1.0, fill=0.5)
    b = make_periodic_thick(g, period=1.0, fill=0.25)
    assert mask_hash(a) != mask_hash(b)
    assert mask_hash(a) == mask_hash(make_periodic_thick(g, 1.0, 0.5))
    # geometry is part of the identity: same fractions, different box
    g2 = make_grid(1, 32.0, 64)
    c = make_full(g)
    d = make_full(g2)
    assert mask_hash(c) != mask_hash(d)


def test_seeded_lattice_objects_pinned():
    # frozen bytes: the RNG draw order of random masks, the sub-cell sums
    # on cut cells and the product fractions, in 1-D and 2-D
    g1, g2 = make_grid(1, 64.0, 1024), make_grid(2, 16.0, 64)
    pins = [
        (make_random_thick(g1, 2.0, 0.3, 0),
         "17834df8e6365a79a2a530d44aeb16335ba1622848814d15e0c0950b81065155"),
        (make_random_thick(g1, 2.0, 0.3, 7),
         "dd4f71923d4250e23f546876cb7921b0d9930172a90974853ff06fe16649c26f"),
        (make_random_thick(g2, 2.0, 0.3, 0),
         "f3d84b00d0745ead1acae639939f96fa5c90d8f13ac00fa52e9910507c7025c0"),
        (make_random_thick(g2, 2.0, 0.3, 7),
         "713dc4abe3170e16d1c7cfb4280fcda31db8b9fe94802aff3c824aca9d91d3c8"),
        (make_ball_complement(make_grid(1, 32.0, 512), 0.9),
         "d0923c782389e45bab5806bf1aff41a3912f8df3d6899a0aa81ecd32a16d80ae"),
        (make_ball_complement(g2, 2.0),
         "4704184ad014267f1850ccc408c6bd02327f92ae74249e1abeb91ec2c51f4612"),
        (make_periodic_thick(make_grid(2, 8.0, 64), 1.0, 0.3),
         "cde9b40d634be2ae2c06b1edc09637f8ab40c5a9b8bb9fe9bcbf39e3f8fae5bf"),
    ]
    for i, (mask, want) in enumerate(pins):
        assert mask_hash(mask) == want, f"pin {i}"
    # cube classification breaks worst-beta ties in this order
    assert _multi_indices(2, 3) == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0),
                                    (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]


def test_fhat_is_the_readonly_dft_of_the_fractions(tmp_path):
    # every way to make a mask, a TSM1 round trip included, carries the DFT
    # of its fractions bitwise as the plain transform gives it, read-only
    g1, g2 = make_grid(1, 16.0, 64), make_grid(2, 8.0, 16)
    frac = np.random.default_rng(4).random(g1.shape)
    write_mask(tmp_path / "m.tsm", make_ball_complement(g2, 2.0))
    masks = {"full": make_full(g1), "periodic 1-D": make_periodic_thick(g1, 1.0, 0.3),
             "periodic 2-D": make_periodic_thick(g2, 2.0, 0.5),
             "ball complement": make_ball_complement(g2, 2.0),
             "random": make_random_thick(g1, 2.0, 0.5, seed=1),
             "direct": SupportMask(grid=g1, cell_fraction=frac),
             "TSM1": read_mask(tmp_path / "m.tsm")}
    for name, m in masks.items():
        want = np.fft.fftn(m.cell_fraction) / m.cell_fraction.size
        assert m.fhat.dtype == want.dtype and m.fhat.shape == m.grid.shape, name
        assert m.fhat.tobytes() == want.tobytes(), name
        assert not m.fhat.flags.writeable, name
        with pytest.raises(ValueError):
            m.fhat[(0,) * m.grid.dim] = 0.0


def test_masks_compare_by_identity():
    g = make_grid(1, 16.0, 64)
    a, b = make_periodic_thick(g, 1.0, 0.5), make_periodic_thick(g, 1.0, 0.5)
    assert (a == b) is False and (a != b) is True and (a == a) is True
    assert hash(a) == hash(a) and len({a, b, a}) == 2
