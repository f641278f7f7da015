"""Brute-force cross-checks of the space characterizations.

For a unit point x of a polyhedral model and a grid of eps values this
module builds a candidate subset of the far set far_eps(x), then decides

* the Delta test: is x itself within `tol` of the convex hull of the
  candidates, and
* the Daugavet test: are all probe ball points within `tol` of that hull,

and compares the aggregate (over the whole eps grid) with the space's
theorem-based decision.  The model's `crosscheck_setup(x, tol, rng)` (see
`l1` and `ck`) gives that decision, the default of `tol`, a builder that
maps each eps to (count, groups), and the function that turns groups into
distances; it draws the probes from `rng`.  `count` is the number of far
candidates the row reports, 0 for a row without any.  A group is (hull,
targets): the hull names at most as many points as there are candidates,
with the same hull distances, and the first target of the first group is
x itself.  Both models replace a symmetric orbit of candidates by its
mean.  `l1` gives the far signs of each cell c of x's own model, standing
for the points s chi_c / m_c, in place of the far vertices of c's refined
parts, and its distances are exact Fractions in closed form, with no LP.
`ck` drops repeated vertices and writes each witness family's symmetric
part as its mean; its distances are HiGHS floats from
`core.hull_distances`, one stacked solve per crosscheck.  Disagreements
are reported, never raised.

The groups of every eps row are built first, then the whole grid is one
call of the model's distance function, one distance per target.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .core import DeltaLabError, require_unit
from .sums import space_hook
from .util import as_fraction


@dataclass(frozen=True)
class CrosscheckRow:
    eps: Fraction
    n_candidates: int
    delta_distance: Any       # Fraction on l1, float on ck, inf without candidates
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

    `tol` defaults to 1e-6 for L1 models (the distances there are exact) and
    1e-2 for sequence models (the witness-family resolution, at least
    1/500).
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
    tol, theorem, builder, distances = setup(x, tol, rng)

    # every row's candidates first, in grid order (only the builder draws
    # from rng), then one batch of every row with candidates; a row's first
    # target is its anchor x, the others are the probes
    built = [(eps, *builder(eps)) for eps in eps_grid]
    dists = iter(distances([g for _, count, groups in built if count for g in groups]))
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
