"""Correctness checks the benchmark applies to every operation.

An operation succeeds when the CLI exits 0 (or no ``PortoptError`` is
raised in-process), every solution it produces is ``converged`` and its
KKT residual is at most ``KKT_TOL``.  The frontier oracle is the
closed-form two-fund hyperbola, computed here with plain numpy so that it
shares no code with the QP engine.  Every regime keeps the weights summing
to one, so every frontier lies on or outside that hyperbola, and on it
under c3.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from portopt.solver import KKT_TOL

HYPERBOLA_RTOL = 1e-6    # frontier variance vs the analytic c3 curve
CLOSED_FORM_TOL = 1e-6   # c3 weights vs the analytic optimum, scaled by max |w|
BEAT_RTOL = 1e-9         # no portfolio may beat the hyperbola or the min-variance point


def solution_ok(sol) -> bool:
    """The success predicate for one solved portfolio."""
    return bool(sol.converged) and float(sol.kkt_residual) <= KKT_TOL


def json_solution_ok(doc: dict) -> bool:
    return bool(doc.get("converged")) and float(doc.get("kkt_residual", np.inf)) <= KKT_TOL


def _json_solutions(node):
    """Every serialized solution (a dict carrying a KKT residual) in a JSON tree."""
    if isinstance(node, dict):
        if "kkt_residual" in node:
            yield node
        for v in node.values():
            yield from _json_solutions(v)
    elif isinstance(node, list):
        for v in node:
            yield from _json_solutions(v)


def cli_outputs_problems(outdir: Path, prefix: str) -> list[str]:
    """Problems in the JSON files a CLI step wrote (files named ``prefix*``)."""
    problems = []
    if (outdir / "diagnostics.json").exists():
        problems.append("diagnostics.json written")
    for path in sorted(outdir.glob(f"{prefix}*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for cell in doc.get("cells", ()):
            if "error" in cell:
                problems.append(f"{path.name}: failed cell {cell['error']}")
        bad = [s for s in _json_solutions(doc) if not json_solution_ok(s)]
        if bad:
            problems.append(f"{path.name}: {len(bad)} solutions fail the predicate")
    return problems


def dir_digests(outdir: Path) -> dict[str, str]:
    """SHA-256 of every file under ``outdir``, keyed by relative path."""
    return {
        str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*")) if p.is_file()
    }


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def hyperbola_variance(cov, mean, mu):
    """Unconstrained frontier variance (A mu^2 - 2 B mu + C) / D at returns ``mu``."""
    mean = np.asarray(mean, dtype=float)
    inv_1 = np.linalg.solve(cov, np.ones(len(mean)))
    inv_m = np.linalg.solve(cov, mean)
    a = float(inv_1.sum())
    b = float(inv_m.sum())
    c = float(mean @ inv_m)
    d = a * c - b * b
    mu = np.asarray(mu, dtype=float)
    return (a * mu * mu - 2.0 * b * mu + c) / d


def frontier_hyperbola_error(points, cov, mean) -> float:
    """Largest relative gap between traced c3 points and the analytic curve."""
    pts = np.asarray(points, dtype=float)
    exact = hyperbola_variance(cov, mean, pts[:, 1])
    return float(np.max(np.abs(pts[:, 0] ** 2 - exact) / exact))


def frontier_problems(points, min_stdev: float, cov, mean, exact: bool = False) -> list[str]:
    """What is wrong with a traced (stdev, return) curve sorted by return.

    Each point lies on or outside the analytic hyperbola (on it when
    ``exact``, the c3 case), is no less risky than the regime's
    minimum-variance portfolio, and risk does not fall as return rises.
    """
    pts = np.asarray(points, dtype=float)
    stdev, ret = pts[:, 0], pts[:, 1]
    found = []
    below = stdev ** 2 < hyperbola_variance(cov, mean, ret) * (1.0 - BEAT_RTOL)
    if below.any():
        found.append(f"{int(below.sum())} points inside the unconstrained frontier")
    if exact:
        err = frontier_hyperbola_error(pts, cov, mean)
        if err > HYPERBOLA_RTOL:
            found.append(f"c3 points off the hyperbola by {err:.3g}")
    if np.any(stdev < min_stdev * (1.0 - BEAT_RTOL)):
        found.append("points less risky than the minimum-variance portfolio")
    if np.any(np.diff(stdev) < -BEAT_RTOL * stdev[1:]):
        found.append("risk falls as return rises")
    return found


def cloud_problems(cloud, min_stdev: float, cov=None, mean=None) -> int:
    """Count sampled (stdev, return) rows that beat the frontier.

    Every feasible portfolio is at least as risky as the regime's minimum
    variance portfolio; under c3 (``cov``/``mean`` given) it also lies on or
    outside the analytic hyperbola.
    """
    cloud = np.asarray(cloud, dtype=float)
    bad = cloud[:, 0] < min_stdev * (1.0 - BEAT_RTOL)
    if cov is not None:
        exact = hyperbola_variance(cov, mean, cloud[:, 1])
        bad |= cloud[:, 0] ** 2 < exact * (1.0 - BEAT_RTOL)
    return int(np.count_nonzero(bad))


def closed_form_gap(weights, cov, mean=None, rf: float = 0.0) -> float:
    """Max-norm gap to the analytic c3 minimum-variance (no ``mean``) or
    tangency weights, relative to the size of the analytic weights."""
    cov = np.asarray(cov, dtype=float)
    rhs = np.ones(cov.shape[0]) if mean is None else np.asarray(mean, dtype=float) - rf
    z = np.linalg.solve(cov, rhs)
    exact = z / float(z.sum())
    w = np.asarray(weights, dtype=float)
    return float(np.max(np.abs(w - exact)) / (1.0 + np.max(np.abs(exact))))
