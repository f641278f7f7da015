"""Brute-force cross-checks of the space characterizations.

For a unit point x of a polyhedral model and a grid of eps values this
module builds a candidate subset of the far set far_eps(x), then decides

* the Delta test: is x itself within `tol` of the convex hull of the
  candidates, and
* the Daugavet test: are all probe ball points within `tol` of that hull,

and compares the aggregate (over the whole eps grid) with the space's
theorem-based decision.

Candidate sets start from the ball's extreme points of a refined model (for
the L1 cross-polytope this is exact: the hull of the surviving vertices
decides both tests with distance exactly zero or a macroscopic gap).  For
the sequence model a vertex-only proxy is provably insufficient in any
finite truncation, so the candidates are augmented with witness-generator
members targeted at x and at each probe, plus random interior far points;
the achievable hull resolution is then 2/m for m fresh coordinates, which
is why `tol` is coarser there.  Disagreements are reported, never raised.

Each eps row is one call of `core.hull_distances`: the anchor's LP and every
probe's that has candidates, stacked into one HiGHS solve while the stack
stays small; a large LP (a ck witness family) gets a solve of its own.
Distances are HiGHS floats, so the verdicts are not exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import ck as ck_mod
from . import l1 as l1_mod
from .core import DeltaLabError, hull_distances, require_unit
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


def _l1_candidates(x, eps, probes, rng, extra_interior=4):
    """One shared candidate set: refined far vertices + interior mixtures."""
    _, xl, members, lift = l1_mod.far_vertices(x, eps)
    added = 0
    for _ in range(extra_interior * 8):
        if added >= extra_interior or len(members) < 2:
            break
        i, j = rng.randrange(len(members)), rng.randrange(len(members))
        t = Fraction(rng.randrange(1, 1000), 1000)
        cand = (1 - t) * members[i] + t * members[j]
        if (xl - cand).norm() >= 2 - eps:
            members.append(cand)
            added += 1
    return (xl, members), [(lift(p), members) for p in probes]


def _ck_candidates(x, eps, probes, rng, fresh: int, n_far_vertices=48):
    """Per-target candidate sets: sampled far cube vertices shared by all,
    plus (when x is a Daugavet point) the witness family aimed at each
    target.  Targets with only a subset of the full far set can only see
    larger distances, so passing the tol test stays sound."""
    width = max(len(x.prefix), max((len(p.prefix) for p in probes), default=0)) + 2
    shared = []
    for _ in range(n_far_vertices * 6):
        if len(shared) >= n_far_vertices:
            break
        prefix = tuple(Fraction(rng.choice((-1, 1))) for _ in range(width))
        v = ck_mod.TailSequence(prefix, Fraction(rng.choice((-1, 1))), ck_mod.Variant.C)
        if (x - v).norm() >= 2 - eps:
            shared.append(v)

    daug = x.variant is not ck_mod.Variant.LINF_N and abs(x.limit) == 1

    def members_for(target):
        own = list(shared)
        if daug:
            own += list(ck_mod.daugavet_witness_ck(x, target, eps, fresh).members)
        return own

    return (x, members_for(x)), [(p, members_for(p)) for p in probes]


def crosscheck_characterizations(x, eps_grid: Sequence, tol=None, probes=None,
                                 seed: int = 0, fresh: Optional[int] = None) -> CrosscheckReport:
    """Compare hull-based far-set tests against the theorem decision.

    `tol` defaults to 1e-6 for L1 models (membership there is exact up to LP
    rounding) and 1e-2 for sequence models (the witness-family resolution).
    """
    require_unit(x)
    if tol is not None and not float(tol) > 0:
        raise DeltaLabError("crosscheck needs tol > 0")
    rng = random.Random(seed)
    eps_grid = [as_fraction(e) for e in eps_grid]
    if any(e <= 0 for e in eps_grid):
        raise DeltaLabError("crosscheck needs eps > 0")

    if x.space == "l1":
        tol = 1e-6 if tol is None else float(tol)
        theorem, _ = l1_mod.is_daugavet_point_l1(x)
        if probes is None:
            probes = x.model.ball_vertices()
            probes += [p for p in (l1_mod.random_unit(x.model, rng) for _ in range(2)) if p]
        builder = lambda e: _l1_candidates(x, e, probes, rng)
    elif x.space == "ck":
        tol = 1e-2 if tol is None else float(tol)
        theorem, _ = ck_mod.is_daugavet_point_ck(x)
        if fresh is None:
            fresh = max(8, int(2 / tol) + 1)
        if probes is None:
            width = len(x.prefix) + 1
            cube = []
            for _ in range(6):
                prefix = tuple(Fraction(rng.choice((-1, 1))) for _ in range(width))
                cube.append(ck_mod.TailSequence(prefix, Fraction(rng.choice((-1, 1)))))
            probes = cube + [ck_mod.random_unit(rng, width) for _ in range(2)]
        builder = lambda e: _ck_candidates(x, e, probes, rng, fresh)
    else:
        raise DeltaLabError("crosscheck needs a polyhedral model (l1 or ck)")

    rows = []
    for eps in eps_grid:
        (anchor, anchor_members), probe_tasks = builder(eps)
        if not anchor_members:
            rows.append(CrosscheckRow(eps, 0, float("inf"), (), False, False))
            continue
        # the whole row in one batch: the anchor, then every probe with members
        dists = iter(hull_distances(
            [(anchor, anchor_members)] + [(p, m) for p, m in probe_tasks if m]))
        d_delta = next(dists)
        d_probes = tuple(next(dists) if m else float("inf") for _, m in probe_tasks)
        delta_ok = d_delta <= tol
        n_cand = max([len(anchor_members)] + [len(m) for _, m in probe_tasks])
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
