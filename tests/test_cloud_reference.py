"""Clouds against a reference sampler that draws one portfolio at a time.

``reference_cloud`` is the sampling rule written as the plain loop it
describes: each portfolio draws standard normals one vector at a time,
zeroes the pinned assets, normalizes the vector when its sum is at least
0.05 in size, and takes the first normalized vector whose inequality rows
hold within 1e-12; after 100 rejections it shrinks the last one toward
equal weights by 60 bisection steps.  ``sample_cloud`` must give the same
portfolios from the same stream.

Where the shrink fires under c1, the leverage row's sum of 2N terms may be
rounded in a different order by a batched product than by a single-vector
one, and the bisection can then stop one step apart near the boundary, so
those portfolios agree within 1e-15 instead of bit for bit.  Every other
product the sampler takes is exact (rows of the identity), so everything
else must match exactly.
"""

import numpy as np
import pytest

import portopt.frontier
from portopt import ConstraintSet, SamplingError, sample_cloud
from portopt.constraints import regime_model

COUNT = 120
SEEDS = (0, 1, 7)


def reference_cloud(c: ConstraintSet, n_assets: int, count: int, seed: int):
    """``(weights, indices of the shrunk portfolios)``, one portfolio at a time."""
    rng = np.random.default_rng(seed)
    regime = regime_model(c, n_assets)
    if regime.box[0] == 0.0:
        return rng.dirichlet(np.ones(n_assets), size=count), []

    def holds(w, tol):
        return np.all(regime.excess(w)[2 * regime.m_eq:] <= tol)

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
            e = np.full(n_assets, 1.0 / n_assets)
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if holds(e + mid * (w - e), 0.0):
                    lo = mid
                else:
                    hi = mid
            w = e + lo * (w - e)
            shrunk.append(k)
        weights[k] = w
    return weights, shrunk


def _sample_and_shrunk(monkeypatch, c, n, count, seed):
    """``sample_cloud``'s weights, and the indices of the rows it shrank."""
    original, made = portopt.frontier._shrink_to_feasible, []

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        made.extend(np.atleast_2d(out))
        return out

    monkeypatch.setattr(portopt.frontier, "_shrink_to_feasible", recording)
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
