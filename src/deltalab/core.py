"""Shared geometry kernel for the space models.

Vocabulary used throughout the package, for a real Banach space X with unit
ball B and sphere S:

* a *slice* is ``{y in B : phi(y) > 1 - eps}`` for a norm-one functional phi;
* ``far_eps(x) = {y in B : ||x - y|| >= 2 - eps}`` is the far set of x;
* x in S is a *Delta point* if x lies in the closed convex hull of
  ``far_eps(x)`` for every eps > 0, and a *Daugavet point* if that hull is
  the whole ball for every eps > 0.

The kernel works over duck-typed payload points (step functions, truncated
sequences, generalized polynomials).  Polyhedral payloads expose an exact
coordinate embedding; the sup-norm payloads expose certified enclosures and
are handled by a cutting-plane loop.

On the slice criterion for Delta points we use the reading that the far
witness must lie inside the slice itself (matching the Daugavet criterion);
`check_delta_via_slices` documents and implements that reading.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, NamedTuple, Optional, Sequence

import numpy as np
import scipy  # scipy.sparse loads with the first LP matrix

from . import lp
from .util import UNIT_TOL, as_fraction, fmt17


class DeltaLabError(Exception):
    pass


class MixedSpaceError(DeltaLabError):
    pass


class EmptySliceError(DeltaLabError):
    pass


class NotPolyhedralError(DeltaLabError):
    pass


class VerificationError(DeltaLabError):
    """A constructed object failed its own re-verification."""


class CertificationError(DeltaLabError):
    """A certified enclosure could not be tightened to the requested width."""


def require_unit(point):
    n = point.norm()
    if abs(n - 1) > UNIT_TOL:
        raise DeltaLabError(f"point must have unit norm, got {float(n)!r}")


def num_to_json(x):
    """JSON text of a number: ints stay ints, Fractions "p/q", floats 17 digits."""
    if isinstance(x, bool) or isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, float):
        return fmt17(x)
    raise DeltaLabError(f"cannot serialize numeric {type(x).__name__}")


def num_from_json(v):
    if isinstance(v, (int, float)):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v) if "/" in v else float(v)
    raise DeltaLabError(f"cannot parse numeric {v!r}")


# ---------------------------------------------------------------------------
# functionals, slices, rank-1 operators


class Functional:
    """Base class for dual elements; subclasses live with their space model."""

    def __call__(self, point):  # pragma: no cover - abstract
        raise NotImplementedError

    def dual_norm(self):  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class Slice:
    """S(phi, eps) = {y in the unit ball : phi(y) > 1 - eps}, dual_norm(phi)=1."""

    functional: Functional
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eps", as_fraction(self.eps))
        if self.eps <= 0:
            raise DeltaLabError("slice needs eps > 0")
        if abs(self.functional.dual_norm() - 1) > UNIT_TOL:
            raise DeltaLabError("slice functional must have dual norm 1")

    def contains(self, point):
        return point.norm() <= 1 + UNIT_TOL and self.functional(point) > 1 - self.eps


@dataclass(frozen=True)
class Rank1Operator:
    """T = phi (x) direction, acting as p -> phi(p) * direction."""

    functional: Functional
    direction: Any

    def apply(self, point):
        return self.functional(point) * self.direction

    @property
    def is_projection(self):
        return abs(self.functional(self.direction) - 1) <= UNIT_TOL


# ---------------------------------------------------------------------------
# certificates


class Verdict(Enum):
    DELTA_YES = "DELTA_YES"
    DELTA_NO = "DELTA_NO"
    DAUGAVET_YES = "DAUGAVET_YES"
    DAUGAVET_NO = "DAUGAVET_NO"


@dataclass(frozen=True)
class WitnessRecord:
    """A far family for one (eps, delta, target): each member is far from the
    anchor and the weighted combination approximates the target."""

    eps: Any
    delta: Any
    target: Any
    members: tuple  # ((point, weight), ...)
    min_distance: Any
    combo_error: Any
    anchor: Any = None


@dataclass(frozen=True)
class Refutation:
    """Quantitative obstruction: either a rank-1 projection with
    ||Id - P|| = bound < 2, or a separating functional with a positive
    hull-distance bound."""

    refuter: Any  # Functional | Rank1Operator
    bound: Any
    margin: Any
    note: str = ""


@dataclass(frozen=True)
class Certificate:
    verdict: Verdict
    witness: tuple = ()
    refutation: Optional[Refutation] = None
    log: tuple = ()

    def recheck(self):
        """Re-verify whatever the certificate claims from its own data."""
        if self.refutation is not None and self.verdict in (Verdict.DELTA_NO, Verdict.DAUGAVET_NO):
            if self.refutation.margin <= 0:
                raise VerificationError("refutation carries no positive margin")
            if isinstance(self.refutation.refuter, Rank1Operator):
                norm = id_minus_rank1_norm(self.refutation.refuter)
                if norm > self.refutation.bound:
                    raise VerificationError(
                        f"||Id-P|| = {float(norm)} exceeds certified bound {float(self.refutation.bound)}"
                    )
        for rec in self.witness:
            for member, _ in rec.members:
                if member.norm() > 1 + UNIT_TOL:
                    raise VerificationError("witness member leaves the unit ball")
                if rec.anchor is not None:
                    d = (rec.anchor - member).norm()
                    # exact payload norms compare exactly; enclosure-backed
                    # ones get the enclosure slack
                    slack = 0 if isinstance(d, Fraction) else 1e-6
                    if d < 2 - rec.eps - slack:
                        raise VerificationError(
                            f"witness member at distance {float(d)} < 2 - eps")
            combo = convex_combination([m for m, _ in rec.members],
                                       [w for _, w in rec.members])
            if rec.target is not None and combo is not None:
                err = (rec.target - combo).norm()
                if err > rec.combo_error + UNIT_TOL:
                    raise VerificationError("witness combination drifted from target")
        return True


# ---------------------------------------------------------------------------
# distance to a convex hull


@dataclass(frozen=True)
class HullResult:
    value: Any
    lower: Any
    upper: Any
    weights: tuple
    iterations: int = 0


def _hull_form(k, embeddings, point_entries):
    """The layout of hull-distance LPs that share the k hull weights lam
    (columns 0..k-1) and the last row, sum lam = 1.  Each `hull_embedding`
    (kind, weights, [target, *vectors]) adds rows P lam + d+ - d- = target
    over new columns d+, d-.  "w1" costs weights . (d+ + d-); "winf" adds
    columns s and t, rows d+ + d- + s - t = 0, and costs t.
    `point_entries(r0, target, vectors)` writes P from row r0 on: it returns
    the target's values for the rhs and the (rows, cols, vals) of P's
    nonzeros.  Returns the (row, col, val) lists of the other nonzeros, the
    P entries of each embedding, the rhs, and one cost per embedding over
    all columns."""
    row, col, val, p_parts, rhs, spans = [], [], [], [], [], []
    ncols = k
    for kind, weights, (target, *vectors) in embeddings:
        n, r0, c0 = len(target), len(rhs), ncols
        values, entries = point_entries(r0, target, vectors)
        p_parts.append(entries)
        rhs += values
        row += [*range(r0, r0 + n)] * 2
        col += range(c0, c0 + 2 * n)
        val += [1] * n + [-1] * n
        if kind == "w1":
            cost = [*weights, *weights]
        elif kind == "winf":
            row += [*range(r0 + n, r0 + 2 * n)] * 4
            col += [*range(c0, c0 + 3 * n), *[c0 + 3 * n] * n]
            val += [1] * (3 * n) + [-1] * n
            rhs += [0] * n
            cost = [0] * (3 * n) + [1]
        else:
            raise DeltaLabError(f"unknown embedding kind {kind!r}")  # pragma: no cover
        spans.append((c0, cost))
        ncols += len(cost)
    row += [len(rhs)] * k
    col += range(k)
    val += [1] * k
    rhs.append(1)
    return (row, col, val), p_parts, rhs, [
        [0] * c0 + cost + [0] * (ncols - c0 - len(cost)) for c0, cost in spans]


def hull_norm_rows(k, embeddings):
    """Standard-form rows of the hull-distance LPs of `_hull_form`, exact:
    the (row, col, val) triplets of the nonzeros, the rhs, and one cost per
    embedding.  The exact simplex of `hull_distance_info` reads them;
    `hull_norm_floats` writes the same LP in floats for HiGHS."""
    def point_entries(r0, target, vectors):
        entries = [(r0 + c, i, v[c]) for c in range(len(target))
                   for i, v in enumerate(vectors) if v[c]]
        return target, [*zip(*entries)] or ((), (), ())

    fixed, p_parts, rhs, costs = _hull_form(k, embeddings, point_entries)
    row, col, val = ([*itertools.chain(*x)] for x in zip(fixed, *p_parts))
    return row, col, val, rhs, costs


def hull_norm_floats(k, embeddings):
    """`hull_norm_rows` in floats, P built from arrays: the same nonzeros
    (row, col and val as numpy arrays, in another order), rhs and costs.
    Each distinct coordinate object becomes a float once, keyed by `id`
    (payload operators share equal coordinates), and the nonzeros of P
    come from `np.nonzero`, so a coordinate that rounds to 0.0 is left out
    (HiGHS drops entries that small in any case)."""
    def point_entries(r0, target, vectors):
        flat = [*target, *itertools.chain.from_iterable(vectors)]
        ids = [*map(id, flat)]
        distinct = dict(zip(ids, flat))
        memo = dict(zip(distinct, map(float, distinct.values())))
        a = np.fromiter(map(memo.__getitem__, ids), float, len(ids))
        n = len(target)
        p = a[n:].reshape(len(vectors), n)
        cols, cells = np.nonzero(p)
        return a[:n].tolist(), (cells + r0, cols, p[cols, cells])

    fixed, p_parts, rhs, costs = _hull_form(k, embeddings, point_entries)
    row, col, val = (np.concatenate([np.asarray(f, dtype=t), *p]) for f, t, *p in
                     zip(fixed, (np.intp, np.intp, float), *p_parts))
    return row, col, val, np.asarray(rhs, dtype=float), np.asarray(costs, dtype=float)


class _Block(NamedTuple):
    """A float standard form min cost.z s.t. A z = rhs, z >= 0, its matrix A
    as the (row, col, val) arrays of its nonzeros."""
    cost: Any
    row: Any
    col: Any
    val: Any
    rhs: Any

    def matrix(self):
        return scipy.sparse.csc_array((self.val, (self.row, self.col)),
                                      shape=(len(self.rhs), len(self.cost)))


def hull_norm_lp(k, embeddings):
    """`hull_norm_floats` with A as a CSC matrix: (A, rhs, costs)."""
    row, col, val, rhs, costs = hull_norm_floats(k, embeddings)
    return _Block(costs[0], row, col, val, rhs).matrix(), rhs, costs


def _hull_embedding(targets, points):
    """`hull_embedding` of [*targets, *points] after the nonempty and
    same-space checks; None for payloads without a polyhedral embedding."""
    if not points:
        raise DeltaLabError("hull_distance needs a nonempty point list")
    spaces = {p.space for p in (*targets, *points)}
    if len(spaces) != 1:
        raise MixedSpaceError(f"mixed spaces {sorted(spaces)}")
    embed = getattr(type(points[0]), "hull_embedding", None)
    return None if embed is None else embed([*targets, *points])


# Consecutive hull LPs of `hull_distances` share one HiGHS solve until the
# stack would pass this many nonzeros.  In the `l1_oracle` benchmark an L1
# crosscheck LP, its far set written as one mean per far (cell, sign) of x's
# model, has at most 24 nonzeros and a whole crosscheck (three eps rows, 33
# LPs) at most 792.  A ck crosscheck LP, its witness family written as
# `ck._orbit_hull`'s few points, has about 320, and the heaviest ck
# crosscheck of `cli_requests` (two eps rows, 18 LPs) 5,716.  Stacking large
# LPs costs memory: with full witness families (about 52k nonzeros each) a
# stack of every LP of an eps row raised the peak RSS of `cli_requests` from
# 108 to 197 MB (2-core VM).  So 20k stacks a whole crosscheck on the
# benchmark inputs and leaves each large LP a solve of its own.
_STACK_NNZ = 20_000


def _solve_blocks(blocks):
    """One HiGHS solve of the block-diagonal stack of float `_Block`s.

    The stacked matrix is sparse, built from each block's nonzeros shifted
    by the rows and columns of the blocks before it.  Returns c_b . z_b per
    block, in order.  The blocks share no variable, so the joint optimum is
    optimal on each block."""
    row_off = np.cumsum([0] + [len(b.rhs) for b in blocks])
    col_off = np.cumsum([0] + [len(b.cost) for b in blocks])
    stack = _Block(np.concatenate([b.cost for b in blocks]),
                   np.concatenate([b.row + i for b, i in zip(blocks, row_off)]),
                   np.concatenate([b.col + j for b, j in zip(blocks, col_off)]),
                   np.concatenate([b.val for b in blocks]),
                   np.concatenate([b.rhs for b in blocks]))
    _, z = lp.simplex_float(stack.cost, stack.matrix(), stack.rhs)
    return [math.fsum(b.cost * z[j:j + len(b.cost)]) for b, j in zip(blocks, col_off)]


def hull_distances(groups):
    """Float hull distances on the polyhedral models: for each (points,
    targets) group, the distance of every target to the hull of `points`,
    flat and in order.

    A group is embedded once, targets and points together (so each target
    passes the space and model checks), and its LP is built once: each
    target's block shares the matrix and writes its own values into the
    rhs rows of the target, the first ones.  Consecutive blocks share one
    HiGHS solve of their block-diagonal stack while it stays within
    _STACK_NNZ nonzeros; a larger LP runs alone."""
    out, stack, nnz = [], [], 0
    for points, targets in groups:
        embedding = _hull_embedding(targets, points)
        if embedding is None:
            raise NotPolyhedralError(f"{type(points[0]).__name__} has no polyhedral embedding")
        kind, weights, vectors = embedding
        row, col, val, rhs, [cost] = hull_norm_floats(
            len(points), [(kind, weights, vectors[:1] + vectors[len(targets):])])
        for values in vectors[:len(targets)]:
            block = _Block(cost, row, col, val, rhs.copy())
            block.rhs[:len(values)] = [float(v) for v in values]
            if stack and nnz + len(val) > _STACK_NNZ:
                out += _solve_blocks(stack)
                stack, nnz = [], 0
            stack.append(block)
            nnz += len(val)
    if stack:
        out += _solve_blocks(stack)
    return out


# Cutting-plane rounds of `hull_distance_info` on the sup-norm payloads.
_HULL_MAX_ROUNDS = 200


def hull_distance_info(target, points, tol=1e-9):
    """Distance from `target` to the convex hull of `points`, with weights.

    Polyhedral payloads reduce to one linear program, solved by the exact
    rational simplex (float distances come from `hull_distances`).  Sup-norm
    payloads run a cutting-plane loop: a master LP on finitely many
    evaluation nodes gives a lower bound, a certified sup-norm of the
    achieved residual gives an upper bound, and nodes are added until the
    gap is at most `tol`.
    """
    embedding = _hull_embedding([target], points)
    if embedding is None:
        return _hull_distance_exchange(target, points, tol)
    k = len(points)
    row, col, val, rhs, [cost] = hull_norm_rows(k, [embedding])
    rows = [[0] * len(cost) for _ in rhs]
    for r, c, v in zip(row, col, val):
        rows[r][c] = v
    value, z = lp.simplex_exact(cost, rows, rhs)
    return HullResult(value=value, lower=value, upper=value, weights=tuple(z[:k]),
                      iterations=1)


def _hull_distance_exchange(target, points, tol):
    sup_enclosure = getattr(type(target), "sup_enclosure", None)
    eval_u = getattr(type(target), "eval_u", None)
    if sup_enclosure is None or eval_u is None:
        raise NotPolyhedralError(
            f"{type(target).__name__} has neither a polyhedral embedding nor certified sup-norms"
        )
    k = len(points)
    nodes = [Fraction(j, 8) for j in range(9)]  # u-coordinates, u = 1 - t
    for p in points:
        enc = (target - p).sup_enclosure(max(tol, 1e-12))
        nodes.append(enc.at_u)
    nodes = sorted(set(nodes))

    for rounds in range(1, _HULL_MAX_ROUNDS + 1):
        # min t with |target(u) - sum lam p(u)| <= t on the nodes, sum lam = 1
        values = [[q.eval_u(u) for u in nodes] for q in (target, *points)]
        a, b, (cost,) = hull_norm_lp(k, [("winf", None, values)])
        lower, z = lp.simplex_float(cost, a, b)
        lam = z[:k]
        residual = target - convex_combination(points, [float(v) for v in lam])
        enc = residual.sup_enclosure(max(tol * 0.25, 1e-13))
        upper = enc.hi
        if upper - lower <= tol:
            return HullResult(value=upper, lower=lower, upper=upper,
                              weights=tuple(float(v) for v in lam), iterations=rounds)
        if enc.at_u in nodes:
            # stagnated node set: bisect around the active maximizer
            nodes.extend([enc.at_u / 2, (enc.at_u + 1) / 2])
        nodes.append(enc.at_u)
        nodes = sorted(set(nodes))
    raise CertificationError(f"hull distance gap > {tol} after {_HULL_MAX_ROUNDS} rounds")


def convex_combination(points, weights):
    """sum_i w_i p_i folded left to right; None when there are no points."""
    acc = None
    for p, w in zip(points, weights):
        term = w * p
        acc = term if acc is None else acc + term
    return acc


def mean(points, counts=None):
    """Equal-weight mean of `points`, each taken counts[i] times (default
    once): sum_i k_i p_i / sum_i k_i, summed first and scaled once."""
    counts = [1] * len(points) if counts is None else counts
    acc = None
    for p, k in zip(points, counts):
        term = p if k == 1 else k * p
        acc = term if acc is None else acc + term
    return Fraction(1, sum(counts)) * acc


def hull_distance(target, points):
    """min over convex weights of ||target - sum_i w_i p_i|| (`hull_distance_info`)."""
    return hull_distance_info(target, points).value


# ---------------------------------------------------------------------------
# ||Id - T|| for rank-1 T on the polyhedral models


def id_minus_rank1_norm(op: Rank1Operator):
    """Exact operator norm of Id - T on the finite polyhedral models.

    The zero operator is handled generically (||Id|| = 1); otherwise the
    payload computes the maximum of ||(Id-T)e|| over the extreme points of
    its model's unit ball.
    """
    if op.functional.dual_norm() == 0:
        return Fraction(1)
    impl = getattr(op.direction, "_id_minus_rank1_norm", None)
    if impl is None:
        raise NotPolyhedralError(
            "exact operator norms need a polyhedral model; use id_minus_rank1_lower_bound"
        )
    return impl(op.functional)


def id_minus_rank1_lower_bound(op: Rank1Operator, ball_points: Sequence) -> float:
    """Sampled lower bound sup ||(Id-T)p|| over the supplied ball points."""
    best = 0.0
    for p in ball_points:
        if p.norm() > 1 + UNIT_TOL:
            raise DeltaLabError("lower-bound sample outside the unit ball")
        img = p - op.functional(p) * op.direction
        best = max(best, float(img.norm()))
    return best


# ---------------------------------------------------------------------------
# exact slice polytopes (geometry over Fraction vectors)


def crosspolytope_slice_vertices(masses, coeffs, thresh):
    """Vertices of {sum_c m_c |y_c| <= 1} cap {sum_c a_c m_c y_c >= thresh}.

    The ball is a weighted cross-polytope with vertices +-e_c/m_c; vertices of
    the intersection are ball vertices inside the halfspace plus edge cuts.
    All arithmetic is exact.
    """
    n = len(masses)
    masses = [as_fraction(m) for m in masses]
    coeffs = [as_fraction(a) for a in coeffs]
    thresh = as_fraction(thresh)

    verts = []
    for c in range(n):
        for s in (1, -1):
            v = [Fraction(0)] * n
            v[c] = Fraction(s, 1) / masses[c]
            verts.append((tuple(v), s * coeffs[c]))

    out = {v for v, phi in verts if phi >= thresh}
    for (v1, phi1), (v2, phi2) in itertools.combinations(verts, 2):
        if n > 1 and all(a == -b for a, b in zip(v1, v2)):
            continue  # antipodal pairs are not edges (except the 1-d segment)
        if (phi1 >= thresh) == (phi2 >= thresh):
            continue
        t = (thresh - phi1) / (phi2 - phi1)
        if 0 < t < 1:
            cut = tuple((1 - t) * a + t * b for a, b in zip(v1, v2))
            out.add(cut)
    return [tuple(v) for v in sorted(out)]


_CUBE_MAX_DIM = 14  # cube slices enumerate 2^dim sign vectors


def cube_slice_vertices(dim, weights, thresh):
    """Vertices of [-1,1]^dim cap {sum_j w_j y_j >= thresh}, exact."""
    if dim > _CUBE_MAX_DIM:
        raise DeltaLabError(f"cube slice enumeration capped at dim {_CUBE_MAX_DIM}, got {dim}")
    weights = [as_fraction(w) for w in weights]
    thresh = as_fraction(thresh)

    out = set()
    for signs in itertools.product((1, -1), repeat=dim):
        phi = sum(w * s for w, s in zip(weights, signs))
        if phi >= thresh:
            out.add(tuple(Fraction(s) for s in signs))
        for j in range(dim):
            if signs[j] != 1 or weights[j] == 0:
                continue
            base = phi - weights[j]
            lo, hi = base - weights[j], base + weights[j]
            if (lo >= thresh) == (hi >= thresh):
                continue
            yj = (thresh - base) / weights[j]
            if -1 < yj < 1:
                cut = tuple(Fraction(s) if i != j else yj for i, s in enumerate(signs))
                out.add(cut)
    return [tuple(v) for v in sorted(out)]


@dataclass(frozen=True)
class SlicePolytope:
    kind: str  # "w1" | "winf"
    weights: Optional[tuple]
    vertices: tuple

    def distance(self, u, v):
        if self.kind == "w1":
            return sum(m * abs(a - b) for m, a, b in zip(self.weights, u, v))
        return max(abs(a - b) for a, b in zip(u, v))

    def diameter(self):
        best = Fraction(0)
        verts = self.vertices
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                d = self.distance(verts[i], verts[j])
                if d > best:
                    best = d
        return best


def slice_diameter(slc: Slice):
    """Exact diameter of a slice of the unit ball: it enumerates the vertices
    of the closed slice polytope (the diameter of a polytope is attained at a
    vertex pair).
    """
    build = getattr(slc.functional, "slice_polytope", None)
    if build is None:
        raise NotPolyhedralError("exact slice diameters need a polyhedral model")
    poly = build(slc.eps)
    if not poly.vertices:
        raise EmptySliceError("no unit-ball point satisfies the slice")
    return poly.diameter()


# ---------------------------------------------------------------------------
# slice-wise Delta search


@dataclass(frozen=True)
class SliceSearchRow:
    index: int
    found: bool
    witness: Any
    distance: Any
    functional_value: Any


@dataclass(frozen=True)
class SliceSearchReport:
    eps: Any
    rows: tuple
    positive: bool


def check_delta_via_slices(x, eps, slice_family: Sequence[Slice]) -> SliceSearchReport:
    """For each slice containing x, hunt for y in the slice with
    ||x - y|| >= 2 - eps.

    Polyhedral models search the slice polytope's vertices (exact).  Slices
    where nothing is found, and every slice of a model without a slice
    polytope, are reported NEGATIVE rather than raised.
    """
    require_unit(x)
    eps = as_fraction(eps)
    rows = []
    for idx, slc in enumerate(slice_family):
        if not slc.contains(x):
            raise DeltaLabError(f"slice {idx} does not contain the anchor point")
        best_y, best_d = None, None
        build = getattr(slc.functional, "slice_polytope", None)
        if build is not None:
            poly = build(slc.eps)
            lift = slc.functional.point_from_coords
            for vert in poly.vertices:
                y = lift(vert)
                d = (x - y).norm()
                if best_d is None or d > best_d:
                    best_y, best_d = y, d
        found = best_d is not None and best_d >= 2 - eps
        rows.append(SliceSearchRow(
            index=idx,
            found=found,
            witness=best_y if found else None,
            distance=best_d,
            functional_value=slc.functional(best_y) if best_y is not None else None,
        ))
    return SliceSearchReport(eps=eps, rows=tuple(rows), positive=all(r.found for r in rows))
