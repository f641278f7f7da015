"""Brute-force cross-checks of the space characterizations.

For a unit point x of a polyhedral model and a grid of eps values this
module builds a candidate subset of the far set far_eps(x), then decides

* the Delta test: is x itself within `tol` of the convex hull of the
  candidates, and
* the Daugavet test: are all probe ball points within `tol` of that hull,

and compares the aggregate (over the whole eps grid) with the space's
theorem-based decision.  The model's `crosscheck_setup(x, tol, rng)` (see
`l1` and `ck`) gives that decision, the tasks of each eps and the default
of `tol`; it draws the probes from `rng`.  A task is (target, hull points,
far candidate count): the hull points are the candidates, or fewer points
whose hull LP has the same optimum (`ck` drops repeated vertices and
replaces the symmetric part of a witness family by its mean), and the count
is what a row reports.  Disagreements are reported, never raised.

The tasks of every eps row are built first, then the whole grid is one call
of `core.hull_distances`: per row, the anchor's LP and every probe's that
has candidates.  Small LPs are stacked into one HiGHS solve (a whole L1
crosscheck, and a whole ck one, is one solve), a large LP gets a solve of
its own, and the LPs over one point list (every LP of an L1 row) share one
float matrix.  Distances are HiGHS floats, so the verdicts are not exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import DeltaLabError, hull_distances, require_unit
from .sums import space_hook
from .util import as_fraction


@dataclass(frozen=True)
class CrosscheckRow:
    eps: Fraction
    n_candidates: int
    delta_distance: float
    probe_distances: tuple
    delta_ok: bool
    daugavet_ok: bool


@dataclass(frozen=True)
class CrosscheckReport:
    rows: tuple
    hull_delta: bool          # aggregate Delta verdict from hull tests
    hull_daugavet: bool       # aggregate Daugavet verdict from hull tests
    theorem_delta: bool
    theorem_daugavet: bool
    agree: bool

    def row(self, eps):
        eps = as_fraction(eps)
        for r in self.rows:
            if r.eps == eps:
                return r
        raise KeyError(eps)


def crosscheck_characterizations(x, eps_grid: Sequence, tol=None,
                                 seed: int = 0) -> CrosscheckReport:
    """Compare hull-based far-set tests against the theorem decision.

    `tol` defaults to 1e-6 for L1 models (membership there is exact up to LP
    rounding) and 1e-2 for sequence models (the witness-family resolution,
    at least 1/500).
    """
    require_unit(x)
    if tol is not None and not float(tol) > 0:
        raise DeltaLabError("crosscheck needs tol > 0")
    rng = random.Random(seed)
    eps_grid = [as_fraction(e) for e in eps_grid]
    if any(e <= 0 for e in eps_grid):
        raise DeltaLabError("crosscheck needs eps > 0")

    setup = space_hook(getattr(x, "space", None), "crosscheck_setup",
                       DeltaLabError("crosscheck needs a polyhedral model (l1 or ck)"))
    tol, theorem, builder = setup(x, tol, rng)

    # every row's candidates first, in grid order (only the builder draws
    # from rng), then one batch: per row with anchor members, the anchor and
    # every probe with members
    built = [(eps, *builder(eps)) for eps in eps_grid]
    tasks = []
    for _, anchor_task, probe_tasks in built:
        if anchor_task[1]:
            tasks += [anchor_task] + [t for t in probe_tasks if t[1]]
    dists = iter(hull_distances([(target, points) for target, points, _ in tasks]))
    rows = []
    for eps, (_, anchor_points, anchor_count), probe_tasks in built:
        if not anchor_points:
            rows.append(CrosscheckRow(eps, 0, float("inf"), (), False, False))
            continue
        d_delta = next(dists)
        d_probes = tuple(next(dists) if points else float("inf")
                         for _, points, _ in probe_tasks)
        delta_ok = d_delta <= tol
        n_cand = max([anchor_count] + [count for *_, count in probe_tasks])
        rows.append(CrosscheckRow(
            eps, n_cand, d_delta, d_probes,
            delta_ok, delta_ok and all(d <= tol for d in d_probes)))

    hull_delta = all(r.delta_ok for r in rows)
    hull_daugavet = all(r.daugavet_ok for r in rows)
    # in these models Delta and Daugavet points coincide, so the theorem
    # decision answers both
    return CrosscheckReport(
        rows=tuple(rows),
        hull_delta=hull_delta,
        hull_daugavet=hull_daugavet,
        theorem_delta=theorem,
        theorem_daugavet=theorem,
        agree=(hull_delta == theorem) and (hull_daugavet == theorem),
    )
