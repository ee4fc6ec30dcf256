"""Clouds against a reference sampler that draws one portfolio at a time.

``reference_cloud`` is the sampling rule written as the plain loop it
describes: each portfolio draws standard normals one vector at a time,
zeroes the pinned assets, normalizes the vector when its sum is at least
0.05 in size, and takes the first normalized vector whose inequality rows
hold within 1e-12; after 100 rejections it moves the last one toward equal
weights to the point where its rows stop holding (``reference_shrink``).
``sample_cloud`` must give the same portfolios from the same stream.

The shrink is the closed form written out coordinate by coordinate: under
the box a ratio per coordinate, exact like every other product the sampler
takes (rows of the identity), so the box clouds match bit for bit.  Under
c1 the gross exposure is summed exactly here and in floating point by the
sampler, so the shrunk c1 portfolios agree within 1e-15 instead.
"""

import math

import numpy as np
import pytest

from portopt import ConstraintSet, SamplingError, sample_cloud
from portopt.constraints import RegimeModel, regime_model

COUNT = 120
SEEDS = (0, 1, 7)


def reference_shrink(c: ConstraintSet, w: np.ndarray) -> np.ndarray:
    """``e + s (w - e)`` for equal weights ``e`` and the largest ``s`` in
    [0, 1] at which the box (c2) or the gross cap (c1) holds."""
    n = len(w)
    e = np.full(n, 1.0 / n)
    d = w - e
    s = 1.0
    if c.regime == "c2":   # a ratio per coordinate
        b = c.weight_bound
        for i in range(n):
            if d[i] > 0.0:
                s = min(s, (b - e[i]) / d[i])
            elif d[i] < 0.0:
                s = min(s, (b + e[i]) / -d[i])
    else:   # sum |e_i + s d_i| is linear between the kinks where a weight changes sign
        def gross(t):
            return math.fsum(abs(e[i] + t * d[i]) for i in range(n))

        cap = c.leverage_cap
        kinks = sorted(-e[i] / d[i] for i in range(n) if d[i] != 0.0)
        at = [0.0, *(t for t in kinks if 0.0 < t < 1.0), 1.0]
        for lo, hi in zip(at, at[1:]):
            if gross(lo) > cap:   # only at 0, where equal weights are infeasible
                s = 0.0
                break
            if gross(hi) > cap:
                s = lo + (cap - gross(lo)) / (gross(hi) - gross(lo)) * (hi - lo)
                break
    return w if s >= 1.0 else e + s * d


def reference_cloud(c: ConstraintSet, n_assets: int, count: int, seed: int):
    """``(weights, indices of the shrunk portfolios)``, one portfolio at a time."""
    rng = np.random.default_rng(seed)
    regime = regime_model(c, n_assets)
    if regime.box[0] == 0.0:
        return rng.dirichlet(np.ones(n_assets), size=count), []

    def holds(w, tol):
        return np.all(regime.excess(w)[regime.m_eq:] <= tol)

    def normalized():
        for _ in range(10000):
            z = rng.standard_normal(n_assets)
            z[regime.pinned] = 0.0
            s = z.sum()
            if abs(s) >= 0.05:
                return z / s
        raise SamplingError("could not draw a normalizable weight vector")

    weights, shrunk = np.empty((count, n_assets)), []
    for k in range(count):
        for _ in range(100):
            w = normalized()
            if holds(w, 1e-12):
                break
        else:
            w = reference_shrink(c, w)
            shrunk.append(k)
        weights[k] = w
    return weights, shrunk


def _sample_and_shrunk(monkeypatch, c, n, count, seed):
    """``sample_cloud``'s weights, and the indices of the rows it shrank."""
    original, made = RegimeModel.toward, []

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        made.extend(np.atleast_2d(out))
        return out

    monkeypatch.setattr(RegimeModel, "toward", recording)
    w = sample_cloud(c, n, count, seed).weights
    if not made:
        return w, []
    is_made = (w[:, None, :] == np.array(made)[None]).all(axis=2).any(axis=1)
    return w, list(np.flatnonzero(is_made))


def _assert_same(monkeypatch, c, n, seed, count=COUNT):
    ref, ref_shrunk = reference_cloud(c, n, count, seed)
    got, shrunk = _sample_and_shrunk(monkeypatch, c, n, count, seed)
    assert shrunk == ref_shrunk
    kept = np.setdiff1d(np.arange(count), shrunk)
    assert np.array_equal(got[kept], ref[kept])
    return got, ref, shrunk


@pytest.mark.parametrize("regime", ["c1", "c2", "c3", "c4", "c5"])
@pytest.mark.parametrize("n", range(1, 12))
def test_cloud_matches_reference_bit_for_bit(monkeypatch, regime, n):
    c = ConstraintSet(regime, market_index=n - 1 if regime == "c5" else None)
    for seed in SEEDS:
        if regime == "c5" and n == 1:   # the only asset is pinned: nothing normalizes
            with pytest.raises(SamplingError):
                reference_cloud(c, n, COUNT, seed)
            with pytest.raises(SamplingError, match="normalizable"):
                sample_cloud(c, n, COUNT, seed)
            continue
        got, ref, _ = _assert_same(monkeypatch, c, n, seed)
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("n, bound", [*((n, 1.0 / n) for n in range(1, 12)), (11, 0.1)])
def test_tight_box_cloud_matches_reference_bit_for_bit(monkeypatch, n, bound):
    # at 1/N the box holds only equal weights, so every portfolio beyond
    # N = 1 is shrunk; at 0.1 nearly every one is
    c = ConstraintSet("c2", weight_bound=bound)
    for seed in SEEDS:
        got, ref, shrunk = _assert_same(monkeypatch, c, n, seed, count=12)
        assert np.array_equal(got, ref)
        if bound == 1.0 / n:
            assert len(shrunk) == (0 if n == 1 else 12)


@pytest.mark.parametrize("n, cap", [(8, 1.2), (11, 1.2), (30, 2.0), (50, 2.0)])
def test_shrunk_leverage_cloud_matches_reference_within_rounding(monkeypatch, n, cap):
    c = ConstraintSet("c1", leverage_cap=cap)
    shrunk_any = False
    for seed in SEEDS:
        got, ref, shrunk = _assert_same(monkeypatch, c, n, seed, count=40)
        shrunk_any = shrunk_any or bool(shrunk)
        assert np.abs(got - ref).max() <= 1e-15
    assert shrunk_any


@pytest.mark.parametrize("n", range(2, 12))
def test_one_over_n_box_cloud_is_exactly_equal_weights(n):
    # the box 1/N holds only equal weights, and the shrink stops where the rows do
    c = ConstraintSet("c2", weight_bound=1.0 / n)
    for seed in SEEDS:
        assert np.all(sample_cloud(c, n, 12, seed).weights == 1.0 / n)
