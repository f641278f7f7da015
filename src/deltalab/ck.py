"""Sequence models of C(K).

The variant C models c = C([0, omega]): a finite prefix of values plus a
limit value, with every index beyond the prefix evaluating to the limit.
C0 forces the limit to zero, and LINF_N drops the limit coordinate entirely
(a finite K, so no limit points at all).

A point with prefix length n embeds isometrically into the sup-norm cube on
n+1 coordinates (prefix + limit); prefixes can always be extended, which is
the model's substitute for "K is infinite".  Values are exact rationals.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    Certificate,
    DeltaLabError,
    Functional,
    Rank1Operator,
    Refutation,
    SlicePolytope,
    VerificationError,
    Verdict,
    WitnessRecord,
    cube_slice_vertices,
    mean,
    num_from_json,
    num_to_json,
    require_unit,
)
from .util import UNIT_TOL, as_fraction, sgn


class Variant(Enum):
    C = "C"
    C0 = "C0"
    LINF_N = "LINF_N"


class NonNormAttainingError(DeltaLabError):
    pass


@dataclass(frozen=True)
class TailSequence:
    prefix: tuple
    limit: Optional[Fraction] = None
    variant: Variant = Variant.C

    space = "ck"

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(as_fraction(v) for v in self.prefix))
        if self.variant is Variant.LINF_N:
            if self.limit is not None:
                raise DeltaLabError("LINF_N has no limit coordinate")
            if not self.prefix:
                raise DeltaLabError("LINF_N needs at least one coordinate")
        else:
            lim = as_fraction(self.limit if self.limit is not None else 0)
            if self.variant is Variant.C0 and lim != 0:
                raise DeltaLabError("C0 forces limit = 0")
            object.__setattr__(self, "limit", lim)

    def value_at(self, k: int) -> Fraction:
        """Evaluation at 0-based index k; beyond the prefix it is the limit."""
        if k < len(self.prefix):
            return self.prefix[k]
        if self.variant is Variant.LINF_N:
            raise DeltaLabError(f"index {k} outside the finite model")
        return self.limit

    def _coords(self, length: int) -> tuple:
        """Prefix padded with the limit to `length` (at least the prefix
        length), then the limit; the prefix alone for LINF_N."""
        if self.variant is Variant.LINF_N:
            return self.prefix
        return self.prefix + (self.limit,) * (length - len(self.prefix) + 1)

    def norm(self) -> Fraction:
        distinct = {id(v): v for v in self._coords(len(self.prefix))}
        return max(abs(v) for v in distinct.values())

    def embed(self, length: int):
        """Coordinates (prefix padded with the limit up to `length`, limit)."""
        if self.variant is Variant.LINF_N and length != len(self.prefix):
            raise DeltaLabError("LINF_N points have a fixed dimension")
        return list(self._coords(length))

    def _aligned(self, other):
        """Coordinates of self and other on one index set (`_coords` of the
        longer prefix length)."""
        if not isinstance(other, TailSequence):
            raise DeltaLabError("tail sequences combine with tail sequences")
        if (self.variant is Variant.LINF_N) != (other.variant is Variant.LINF_N):
            raise DeltaLabError("cannot mix LINF_N with limit variants")
        if self.variant is Variant.LINF_N and len(self.prefix) != len(other.prefix):
            raise DeltaLabError("LINF_N points need matching dimension")
        n = max(len(self.prefix), len(other.prefix))
        return self._coords(n), other._coords(n)

    def _binop(self, other, op):
        """Coordinatewise op.  Each distinct pair of coordinate objects is
        combined once, and equal results share one Fraction, so a sum of
        sequences that differ in few places stays cheap to extend."""
        results, shared = {}, {}
        vals = []
        for a, b in zip(*self._aligned(other)):
            key = (id(a), id(b))
            v = results.get(key)
            if v is None:
                v = op(a, b)
                v = results[key] = shared.setdefault(v, v)
            vals.append(v)
        variant = self.variant if self.variant is other.variant else Variant.C
        return TailSequence._from_coords(vals, variant)

    @staticmethod
    def _from_coords(vals: list, variant: Variant) -> "TailSequence":
        """Trusted constructor for operator results, the inverse of
        `_coords`: `vals` are Fractions that already satisfy the variant,
        so `__post_init__` (and `as_fraction`) is skipped."""
        p = object.__new__(TailSequence)
        if variant is Variant.LINF_N:
            p.__dict__.update(prefix=tuple(vals), limit=None, variant=variant)
        else:
            p.__dict__.update(prefix=tuple(vals[:-1]), limit=vals[-1], variant=variant)
        return p

    def distance(self, other) -> Fraction:
        """||self - other|| without building the difference: the max over
        the distinct pairs of coordinate objects."""
        pairs = {(id(a), id(b)): (a, b) for a, b in zip(*self._aligned(other))}
        return max(abs(a - b) for a, b in pairs.values())

    def __sub__(self, other):
        return self._binop(other, operator.sub)

    def __add__(self, other):
        return self._binop(other, operator.add)

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        (p,) = TailSequence.scale_all([self], scalar)
        return p

    @staticmethod
    def scale_all(points, scalar) -> list:
        """[scalar * p for p in points], scaling each distinct coordinate
        object once across all the points: equal coordinates of the results
        share one Fraction, as the members of a scaled far family do."""
        s = as_fraction(scalar)
        products = {}
        out = []
        for p in points:
            vals = []
            for v in p._coords(len(p.prefix)):
                q = products.get(id(v))
                if q is None:
                    q = products[id(v)] = s * v
                vals.append(q)
            out.append(TailSequence._from_coords(vals, p.variant))
        return out

    __rmul__ = __mul__

    def with_value(self, k: int, value) -> "TailSequence":
        """Copy with index k set to `value` (prefix extended as needed)."""
        if self.variant is Variant.LINF_N and k >= len(self.prefix):
            raise DeltaLabError("cannot extend a LINF_N point")
        vals = list(self._coords(max(k + 1, len(self.prefix))))
        vals[k] = as_fraction(value)
        return TailSequence._from_coords(vals, self.variant)

    @staticmethod
    def hull_embedding(points: Sequence["TailSequence"]):
        linf = points[0].variant is Variant.LINF_N
        for p in points[1:]:
            if (p.variant is Variant.LINF_N) != linf:
                raise DeltaLabError("cannot mix LINF_N with limit variants")
        n = len(points[0].prefix) if linf else max(len(p.prefix) for p in points)
        return "winf", None, [p.embed(n) for p in points]

    def _id_minus_rank1_norm(self, functional: "SequenceFunctional") -> Fraction:
        """Exact norm of Id - phi (x) self on the truncated model.

        The embedded model is the sup-norm cube, where the maximum of
        ||(Id-T)e|| over the +-1 extreme points is the largest absolute row
        sum of the matrix.  One fresh coordinate beyond both prefixes stands
        in for the free tail positions.
        """
        if self.variant is Variant.LINF_N:
            n = len(self.prefix)
            if len(functional.weights) > n:
                raise DeltaLabError("functional is longer than the finite model")
            x = self.embed(n)
            w = list(functional.weights) + [Fraction(0)] * (n - len(functional.weights))
        else:
            n = max(len(self.prefix), len(functional.weights)) + 1
            x = self.embed(n)  # length n + 1 (limit last)
            w = list(functional.weights) + [Fraction(0)] * (n - len(functional.weights))
            w.append(functional.limit_coeff)
        best = Fraction(0)
        for j in range(len(x)):
            row = sum(abs((1 if k == j else 0) - x[j] * w[k]) for k in range(len(x)))
            if row > best:
                best = row
        return best


@dataclass(frozen=True)
class SequenceFunctional(Functional):
    """Dual element: summable weights on the prefix plus a limit coefficient.

    phi(f) = sum_k w_k f(k) + w_lim * lim(f); the dual norm is
    sum |w_k| + |w_lim|.
    """

    weights: tuple
    limit_coeff: Fraction = Fraction(0)
    variant: Variant = Variant.C

    space = "ck"

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(as_fraction(v) for v in self.weights))
        object.__setattr__(self, "limit_coeff", as_fraction(self.limit_coeff))
        if self.variant is Variant.LINF_N and self.limit_coeff != 0:
            raise DeltaLabError("LINF_N functionals have no limit coefficient")

    def __call__(self, f: TailSequence):
        total = sum((w * f.value_at(k) for k, w in enumerate(self.weights)), Fraction(0))
        if self.variant is not Variant.LINF_N:
            if f.variant is Variant.LINF_N:
                raise DeltaLabError("limit functional applied to a LINF_N point")
            total += self.limit_coeff * f.limit
        return total

    def dual_norm(self) -> Fraction:
        return sum((abs(w) for w in self.weights), abs(self.limit_coeff))

    def slice_polytope(self, eps) -> SlicePolytope:
        eps = as_fraction(eps)
        if self.variant is Variant.LINF_N:
            dims = list(self.weights)
        else:
            # one fresh coordinate beyond the prefix, then the limit coordinate
            dims = list(self.weights) + [Fraction(0), self.limit_coeff]
        verts = cube_slice_vertices(len(dims), dims, 1 - eps)
        return SlicePolytope("winf", None, tuple(verts))

    def point_from_coords(self, coords) -> TailSequence:
        if self.variant is Variant.LINF_N:
            return TailSequence(tuple(coords), None, Variant.LINF_N)
        return TailSequence(tuple(coords[:-1]), coords[-1], Variant.C)


# ---------------------------------------------------------------------------
# decision procedures and constructions


def is_daugavet_point_ck(f: TailSequence):
    """Daugavet (equivalently Delta) iff the norm is attained in the limit:
    |lim f| = 1.  Finite models (LINF_N) never have such points."""
    require_unit(f)
    if f.variant is Variant.LINF_N:
        ref = refute_delta_ck(f)
        return False, ref.certificate
    if abs(f.limit) == 1:
        cert = Certificate(verdict=Verdict.DAUGAVET_YES, log=(("limit", f.limit),))
        return True, cert
    ref = refute_delta_ck(f)
    return False, ref.certificate


@dataclass(frozen=True)
class CkWitness:
    members: tuple
    fresh_indices: tuple
    min_distance: Fraction
    avg_error: Fraction
    average: TailSequence
    certificate: Certificate = None


def daugavet_witness_ck(f: TailSequence, g: TailSequence, eps, m: int) -> CkWitness:
    """m far points surrounding g: copies of g with one fresh index flipped
    to -lim(f).  Each is 2-far from f at that index (f equals its limit
    there), and the average moves g by at most 2/m."""
    eps = as_fraction(eps)
    if not eps > 0:
        raise DeltaLabError("witness construction needs eps > 0")
    require_unit(f)
    if f.variant is Variant.LINF_N or abs(f.limit) != 1:
        raise DeltaLabError("witness construction needs |lim f| = 1")
    if g.norm() > 1 + UNIT_TOL:
        raise DeltaLabError("target must lie in the unit ball")
    if m < 1:
        raise DeltaLabError("m >= 1 required")

    start = max(len(f.prefix), len(g.prefix))
    flip = -f.limit
    members, fresh = [], []
    for i in range(m):
        members.append(g.with_value(start + i, flip))
        fresh.append(start + i)

    dmin = min(f.distance(gi) for gi in members)
    if dmin < 2 - eps:
        raise VerificationError(f"witness distance {float(dmin)} below 2 - eps")
    avg = mean(members)
    err = g.distance(avg)
    if err > Fraction(2, m):
        raise VerificationError(f"average drifted {float(err)} > 2/m")
    for gi in members:
        if gi.norm() > 1:
            raise VerificationError("witness member left the unit ball")
    cert = Certificate(
        verdict=Verdict.DAUGAVET_YES,
        witness=(WitnessRecord(
            eps=eps, delta=Fraction(2, m), target=g,
            members=tuple((gi, Fraction(1, m)) for gi in members),
            min_distance=dmin, combo_error=Fraction(2, m), anchor=f),))
    return CkWitness(tuple(members), tuple(fresh), dmin, err, avg, cert)


@dataclass(frozen=True)
class CkRefutation:
    projection: Rank1Operator
    H: tuple
    delta: Fraction
    bound: Fraction
    exact_norm: Fraction
    certificate: Certificate


def refute_delta_ck(f: TailSequence) -> CkRefutation:
    """Averaged point-evaluation projection P with ||Id - P|| < 2, exact.

    H is the set of prefix indices where |f| = 1; delta the gap to 1 off H.
    The projection averages sign-corrected evaluations over H; its exact
    operator norm is max(2 - 2/|H|, 2 - delta) <= 2 - min(delta, 2/|H|).
    """
    require_unit(f)
    if f.variant is not Variant.LINF_N and abs(f.limit) == 1:
        raise DeltaLabError("f is a Daugavet point; nothing to refute")
    H = tuple(k for k, v in enumerate(f.prefix) if abs(v) == 1)
    if not H:
        raise NonNormAttainingError("f does not attain its norm on the prefix")
    off = [abs(v) for k, v in enumerate(f.prefix) if k not in H]
    if f.variant is not Variant.LINF_N:
        off.append(abs(f.limit))
    delta = 1 - (max(off) if off else Fraction(0))

    weights = [Fraction(0)] * len(f.prefix)
    for k in H:
        weights[k] = Fraction(sgn(f.prefix[k]), len(H))
    mu = SequenceFunctional(
        tuple(weights), Fraction(0),
        Variant.LINF_N if f.variant is Variant.LINF_N else Variant.C)
    P = Rank1Operator(mu, f)
    exact = f._id_minus_rank1_norm(mu)
    bound = 2 - min(delta, Fraction(2, len(H)))
    if exact > bound:
        raise VerificationError(
            f"exact ||Id-P|| = {float(exact)} exceeds the formula bound {float(bound)}")
    cert = Certificate(
        verdict=Verdict.DELTA_NO,
        refutation=Refutation(refuter=P, bound=bound, margin=2 - bound,
                              note=f"H = {H}, delta = {float(delta)}"),
        log=(("exact_norm", exact),),
    )
    return CkRefutation(P, H, delta, bound, exact, cert)


@dataclass(frozen=True)
class CkDecomposition:
    lam: Fraction
    f_plus: TailSequence
    f_minus: TailSequence
    tail_index: int  # 1-based first rewritten index
    reconstruction_error: Fraction


def convex_dld2p_decompose_ck(f: TailSequence, eps) -> CkDecomposition:
    """Write f as lam*f+ + (1-lam)*f- with both parts Daugavet points.

    The parts copy f up to a tail index and are constantly +-1 afterwards;
    lam = (1 + lim f)/2.  The tail index is the least one where all later
    prefix values are within eps of the limit, so the reconstruction error
    is < eps (and exactly 0 when the tail starts beyond the prefix).

    Accepts any ball point (the parts are unit regardless)."""
    eps = as_fraction(eps)
    if not eps > 0:
        raise DeltaLabError("decomposition needs eps > 0")
    if f.norm() > 1 + UNIT_TOL:
        raise DeltaLabError("decomposition needs a point of the unit ball")
    if f.variant is Variant.LINF_N:
        raise DeltaLabError("decomposition needs a limit variant")

    k0 = len(f.prefix)
    while k0 > 0 and abs(f.prefix[k0 - 1] - f.limit) < eps:
        k0 -= 1
    head = f.prefix[:k0]
    f_plus = TailSequence(head, Fraction(1), Variant.C)
    f_minus = TailSequence(head, Fraction(-1), Variant.C)
    lam = (1 + f.limit) / 2

    recon = lam * f_plus + (1 - lam) * f_minus
    err = (recon - f).norm()
    if not err < eps:
        raise VerificationError(f"reconstruction error {float(err)} >= eps")
    for part in (f_plus, f_minus):
        if part.norm() != 1:
            raise VerificationError("decomposition part is not unit norm")
        ok, _ = is_daugavet_point_ck(part)
        if not ok:
            raise VerificationError("decomposition part is not a Daugavet point")
    return CkDecomposition(lam, f_plus, f_minus, k0 + 1, err)


@dataclass(frozen=True)
class C0Report:
    rows: tuple
    all_delta_no: bool


def c0_delta_empty_check(samples: Sequence[TailSequence]) -> C0Report:
    """Every unit c0 point is refuted through the c-embedding (limit 0 < 1)."""
    rows = []
    for p in samples:
        if p.variant is not Variant.C0:
            raise DeltaLabError("samples must be C0 points")
        embedded = TailSequence(p.prefix, Fraction(0), Variant.C)
        ref = refute_delta_ck(embedded)
        rows.append((p, ref.certificate.verdict, ref.bound))
    return C0Report(tuple(rows), all(v is Verdict.DELTA_NO for _, v, _ in rows))


# ---------------------------------------------------------------------------
# far families and random unit points


def delta_family(f: TailSequence, target: TailSequence, eps, gamma):
    """Equal-weight far family approximating `target` within gamma;
    returns (members, weights, f, target)."""
    gamma = as_fraction(gamma)
    if gamma <= 0:
        raise DeltaLabError("far families need gamma > 0")
    m = max(1, math.ceil(2 / gamma))
    wit = daugavet_witness_ck(f, target, eps, m)
    return list(wit.members), [Fraction(1, m)] * m, f, target


def random_unit(rng, prefix_len: int, daugavet: Optional[bool] = None) -> TailSequence:
    """Random unit point of the c model with values on a coarse grid.

    daugavet=True forces |limit| = 1; daugavet=False forces |limit| < 1 with
    the norm attained on the prefix."""
    grid = (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1)
    for _ in range(256):
        prefix = tuple(Fraction(rng.choice(grid)) for _ in range(prefix_len))
        if daugavet is True:
            limit = Fraction(rng.choice((-1, 1)))
        elif daugavet is False:
            limit = Fraction(rng.choice([g for g in grid if abs(Fraction(g)) < 1]))
        else:
            limit = Fraction(rng.choice(grid))
        p = TailSequence(prefix, limit, Variant.C)
        if p.norm() != 1:
            continue
        if daugavet is False and not any(abs(v) == 1 for v in prefix):
            continue
        return p
    raise DeltaLabError("failed to sample a unit point")


# ---------------------------------------------------------------------------
# this model's entry of sums.SPACES

decide = is_daugavet_point_ck


def point_to_json(p: TailSequence) -> dict:
    return {"space": "ck", "variant": p.variant.value,
            "prefix": [num_to_json(v) for v in p.prefix],
            "limit": None if p.limit is None else num_to_json(p.limit)}


def point_from_json(obj) -> TailSequence:
    variant = Variant(obj.get("variant", "C"))
    limit = obj.get("limit", 0)
    return TailSequence(tuple(num_from_json(v) for v in obj["prefix"]),
                        None if variant is Variant.LINF_N else num_from_json(limit), variant)


def functional_to_json(phi: SequenceFunctional) -> dict:
    return {"space": "ck", "dual": True, "weights": [num_to_json(v) for v in phi.weights],
            "limit_coeff": num_to_json(phi.limit_coeff), "variant": phi.variant.value}


def functional_from_json(obj, model=None) -> SequenceFunctional:
    return SequenceFunctional(tuple(num_from_json(v) for v in obj["weights"]),
                              num_from_json(obj.get("limit_coeff", 0)),
                              Variant(obj.get("variant", "C")))


def witness_report(f, eps, params, serialize) -> dict:
    """`witness`: m far points around --target."""
    target = serialize.point_from_json(params["target"], default_space="ck")
    res = daugavet_witness_ck(f, target, eps, int(params.get("m", 8)))
    return {"members": [point_to_json(m) for m in res.members],
            "min_distance": num_to_json(res.min_distance),
            "avg_error": num_to_json(res.avg_error)}


def decompose_report(f, params) -> dict:
    res = convex_dld2p_decompose_ck(f, Fraction(str(params.get("eps", "1/10"))))
    return {"mu": num_to_json(res.lam), "plus": point_to_json(res.f_plus),
            "minus": point_to_json(res.f_minus), "tail_index": res.tail_index,
            "reconstruction_error": num_to_json(res.reconstruction_error)}


_CROSSCHECK_FAR_VERTICES = 48  # shared far cube vertices drawn per eps row
# m = 2/tol + 1/2 rounded up keeps the anchor's distance 2/m below tol by
# tol^2/(4 + tol), about 1e-6 at 1/500: ten times the 1e-7 feasibility
# tolerances of HiGHS, which decides the verdict when the margin is smaller
_CROSSCHECK_MIN_TOL = Fraction(1, 500)


def _orbit_hull(x: TailSequence, target: TailSequence, eps, m: int, width: int) -> list:
    """Hull points exactly equivalent to the members of
    `daugavet_witness_ck(x, target, eps, m)` in a sup-norm hull LP about
    `target` whose other points have prefixes of at most `width` values.

    The members are target.with_value(j, -lim x) for the m fresh indices j
    from start = max(len(x.prefix), len(target.prefix)) on.  Those below
    `width` are written as they are.  The others form an orbit S: the
    target and every other point equal their limit there, so the LP is
    invariant under permutations of S and some optimum weighs S's members
    equally (Bödi, Herr & Joswig, "Algorithms for highly symmetric linear
    and integer programs", Math. Program. 137, 2013).  Their mean is the
    target with each index of S set to c = (-lim x + (|S| - 1) lim
    target)/|S|, so the orbit's columns become one, and its |S| equal rows
    one: the stand-in target.with_value(min S, c).  The distance is
    unchanged.  Each written member, and one member of S, is checked to be
    in the ball and at least 2 - eps from x."""
    start = max(len(x.prefix), len(target.prefix))
    flip, first = -x.limit, max(start, width)
    kept = [target.with_value(j, flip) for j in range(start, min(start + m, first))]
    n = start + m - first
    orbit = [target.with_value(first, flip)] if n > 0 else []
    for member in kept + orbit:
        if member.norm() > 1 or x.distance(member) < 2 - eps:
            raise VerificationError("witness member left the unit ball or came within 2 - eps")
    if orbit:
        kept.append(target.with_value(first, (flip + (n - 1) * target.limit) / n))
    return kept


def crosscheck_setup(x, tol, rng):
    """(tol, theorem verdict, eps -> (count, groups)) for `crosscheck`:
    vertices never suffice in a finite truncation, so each target gets the
    distinct ones of the shared far cube vertices plus, when x is a Daugavet
    point, the witness family of m = 2/tol + 1/2 members (at least 8) aimed
    at it, cut to a few hull points by `_orbit_hull` (a subset of the far
    set only raises distances, so the test stays sound).  The targets of a
    non-Daugavet point share one group; a Daugavet point has a group per
    target.  The count is every vertex drawn plus, for a Daugavet point,
    m.  The family's resolution 2/m sets the default tol = 1e-2, and tol
    must be at least _CROSSCHECK_MIN_TOL.  The probes are six random cube
    vertices and two unit points.  Points of the finite sup-norm model
    (LINF_N) are refused: the candidates are points of c."""
    if x.variant is Variant.LINF_N:
        raise DeltaLabError("ck crosscheck needs a point of c or c0, not LINF_N")
    tol = 1e-2 if tol is None else float(tol)
    if tol < _CROSSCHECK_MIN_TOL:
        raise DeltaLabError(f"ck crosscheck needs tol >= {_CROSSCHECK_MIN_TOL}, got {tol!r}")
    theorem, _ = is_daugavet_point_ck(x)
    m = max(8, math.ceil(2 / tol + 1 / 2))
    width = len(x.prefix) + 1
    probes = [TailSequence(tuple(Fraction(rng.choice((-1, 1))) for _ in range(width)),
                           Fraction(rng.choice((-1, 1)))) for _ in range(6)]
    probes += [random_unit(rng, width) for _ in range(2)]
    targets = [x, *probes]
    vertex_width = width + 2  # past every target's prefix

    def candidates(eps):
        shared = []
        for _ in range(_CROSSCHECK_FAR_VERTICES * 6):
            if len(shared) >= _CROSSCHECK_FAR_VERTICES:
                break
            prefix = tuple(Fraction(rng.choice((-1, 1))) for _ in range(vertex_width))
            v = TailSequence(prefix, Fraction(rng.choice((-1, 1))), Variant.C)
            if (x - v).norm() >= 2 - eps:
                shared.append(v)
        distinct = [*dict.fromkeys(shared)]
        if not theorem:
            return len(shared), [(distinct, targets)]
        return len(shared) + m, [(distinct + _orbit_hull(x, t, eps, m, vertex_width), [t])
                                 for t in targets]
    return tol, theorem, candidates
