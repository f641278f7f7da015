"""Brute-force cross-checks of the space characterizations.

For a unit point x of a polyhedral model and a grid of eps values this
module builds a candidate subset of the far set far_eps(x), then decides

* the Delta test: is x itself within `tol` of the convex hull of the
  candidates, and
* the Daugavet test: are all probe ball points within `tol` of that hull,

and compares the aggregate (over the whole eps grid) with the space's
theorem-based decision.  The model's `crosscheck_setup(x, tol, rng)` (see
`l1` and `ck`) gives that decision, the default of `tol` and a builder that
maps each eps to (count, groups); it draws the probes from `rng`.  `count`
is the number of far candidates the row reports, 0 for a row without any.
A group is (hull points, targets): the hull points are at most as many as
the candidates and give the same hull LP optima, and the first target of
the first group is x itself.  Both models replace a symmetric orbit of
candidates by its mean: `l1` writes one point s chi_c / m_c per cell c of x's
own model and far sign s instead of the far vertices of c's refined parts,
and `ck` drops repeated vertices and writes each witness family's symmetric
part as its mean.  Disagreements are reported, never raised.

The groups of every eps row are built first, then the whole grid is one
call of `core.hull_distances`, one LP per target.  The targets of a group
share one float matrix, and small LPs are stacked into one HiGHS solve (a
whole L1 crosscheck, and a whole ck one, is one solve); a large LP gets a
solve of its own.  Distances are HiGHS floats, so the verdicts are not
exact.
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
    # from rng), then one batch of every row with candidates; a row's first
    # target is its anchor x, the others are the probes
    built = [(eps, *builder(eps)) for eps in eps_grid]
    dists = iter(hull_distances([g for _, count, groups in built if count for g in groups]))
    rows = []
    for eps, count, groups in built:
        if not count:
            rows.append(CrosscheckRow(eps, 0, float("inf"), (), False, False))
            continue
        d_delta, *d_probes = [next(dists) for _, targets in groups for _ in targets]
        delta_ok = d_delta <= tol
        rows.append(CrosscheckRow(eps, count, d_delta, tuple(d_probes),
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
