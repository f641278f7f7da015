"""Muntz space numerics on [0,1].

Working objects are generalized polynomials sum_k a_k t^{lam_k} over an
exponent ladder 0 < lam_1 < lam_2 < ... with sum 1/lam_n < oo (the closed
span without constants).  Sup norms come with certified enclosures from one
kernel, the interval branch-and-bound `sup_abs_bb`.  Peaks and sign changes
come from `_zero_pieces`, a bisection on the same interval enclosure.

Everything near the right endpoint is parametrized by u = 1 - t and powers
evaluate as exp(lam * log1p(-u)).  The witness chains need exponents around
1e60 and thresholds 1 - t around 1e-60: hopeless in t coordinates, exactly
representable in u.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import lp
from .core import (
    Certificate,
    CertificationError,
    DeltaLabError,
    Functional,
    Refutation,
    VerificationError,
    Verdict,
    convex_combination,
    num_from_json,
    num_to_json,
)
from .util import UNIT_TOL, as_fraction, sgn

NORM_TOL = 1e-10
_BB_MAX_NODES = 400_000  # branch-and-bound nodes of one `sup_abs_bb` call


class LadderExhaustedError(DeltaLabError):
    """LADDER_TOO_SHORT: materialize more terms to continue the search."""


def _squares_rule(n: int) -> Fraction:
    return Fraction(n * n)


@dataclass(frozen=True)
class ExponentLadder:
    """Strictly increasing positive exponents, explicit or rule-generated.

    `includes_constant` marks the span-with-constants variant; the Delta/
    Daugavet decision procedures refuse it (the characterization is only
    settled for the constant-free span with lam_1 >= 1).  Summability of
    1/lam_n is exact for the built-in rules and taken on trust for custom
    ones: it is a property of the infinite tail.
    """

    name: str
    explicit: Optional[tuple] = None
    rule: Optional[Callable[[int], Fraction]] = None
    includes_constant: bool = False

    def __post_init__(self):
        if (self.explicit is None) == (self.rule is None):
            raise DeltaLabError("ladder needs exactly one of explicit/rule")
        if self.explicit is not None:
            ex = tuple(as_fraction(v) for v in self.explicit)
            object.__setattr__(self, "explicit", ex)
            if any(v <= 0 for v in ex) or any(a >= b for a, b in zip(ex, ex[1:])):
                raise DeltaLabError("exponents must be strictly increasing and positive")
        else:
            probe = [self.rule(n) for n in range(1, 9)]
            if any(v <= 0 for v in probe) or any(a >= b for a, b in zip(probe, probe[1:])):
                raise DeltaLabError("rule must generate strictly increasing positive exponents")

    @classmethod
    def squares(cls) -> "ExponentLadder":
        """lam_n = n^2 (summable, lam_1 = 1)."""
        return cls(name="n^2", rule=_squares_rule)

    @classmethod
    def from_list(cls, lambdas, includes_constant=False) -> "ExponentLadder":
        return cls(name="explicit", explicit=tuple(lambdas), includes_constant=includes_constant)

    def lambda_at(self, k: int) -> Fraction:
        if k < 1:
            raise DeltaLabError("ladder indices are 1-based")
        if self.explicit is not None:
            if k > len(self.explicit):
                raise LadderExhaustedError(
                    f"LADDER_TOO_SHORT: index {k} > {len(self.explicit)} materialized terms")
            return self.explicit[k - 1]
        return as_fraction(self.rule(k))

    def min_index_where(self, pred) -> int:
        """Least k with pred(lambda_k), for predicates monotone in lambda."""
        if self.explicit is not None:
            for k in range(1, len(self.explicit) + 1):
                if pred(self.explicit[k - 1]):
                    return k
            raise LadderExhaustedError("LADDER_TOO_SHORT: predicate never satisfied")
        # Predicates read lambda as a float, so doubling stops where lambda
        # leaves the float range (or where the index does, on a rule that
        # stays bounded and so is no Muntz ladder).
        hi = 1
        while not pred(self.lambda_at(hi)):
            hi *= 2
            if max(hi, self.lambda_at(hi)) > sys.float_info.max:
                raise LadderExhaustedError(
                    "LADDER_TOO_SHORT: predicate unreachable within the float range")
        lo = max(1, hi // 2)
        while lo < hi:
            mid = (lo + hi) // 2
            if pred(self.lambda_at(mid)):
                hi = mid
            else:
                lo = mid + 1
        return hi


# ---------------------------------------------------------------------------
# numeric kernel in u = 1 - t coordinates


def pow_u(lam: float, u: float) -> float:
    """t^lam at t = 1 - u, stable for huge lam and tiny u."""
    if u >= 1.0:
        return 0.0
    if u <= 0.0:
        return 1.0
    return math.exp(lam * math.log1p(-u))


@dataclass(frozen=True)
class Enclosure:
    lo: float
    hi: float
    at_u: float

    @property
    def width(self):
        return self.hi - self.lo


def _float_terms(pairs):
    return [(float(lam), float(c)) for lam, c in pairs]


def _eval_pairs_u(fpairs, const: float, u: float) -> float:
    return const + sum(c * pow_u(lam, u) for lam, c in fpairs)


def _range(fpairs, const: float, a, b):
    """(lo, hi) of p over u in [a, b]: each power is monotone in u."""
    lo = hi = const
    for lam, c in fpairs:
        x1 = c * pow_u(lam, b)
        x2 = c * pow_u(lam, a)
        if x1 > x2:
            x1, x2 = x2, x1
        lo += x1
        hi += x2
    return lo, hi


def _split(a, b):
    """Split point of [a, b]: geometric when it spans many scales."""
    if a > 0 and b / a > 16.0:
        return math.sqrt(a * b)
    if a == 0.0 and b > 1e-12:
        return b / 4.0
    return 0.5 * (a + b)


def sup_abs_bb(pairs, const=Fraction(0), u_lo=0.0, u_hi=1.0, tol=NORM_TOL) -> Enclosure:
    """Certified enclosure of sup |p| over t in [1-u_hi, 1-u_lo].

    Branch-and-bound with two interval bounds guarding each other: the
    monotone-range bound (sharp far from maxima) and the centered form
    |p(mid)| + (w/2) sup|p'| (quadratic convergence at smooth maxima).
    Intervals split arithmetically, or geometrically when they span many
    scales, so spikes at depth 1e-60 localize in a few hundred nodes.

    Once the bounds close, a few Newton steps on p'(u) = 0 polish the best
    node: `lo` and `at_u` then sit at the critical point to float accuracy,
    while `hi` keeps the branch-and-bound bound.
    """
    fpairs = _float_terms(pairs)
    c0 = float(const)
    u_lo, u_hi = float(u_lo), float(u_hi)
    dpairs = [(lam - 1.0, c * lam) for lam, c in fpairs]

    def val(u):
        return abs(_eval_pairs_u(fpairs, c0, u))

    def bound(a, b):
        lo, hi = _range(fpairs, c0, a, b)
        rb = max(abs(lo), abs(hi)) + 1e-15 * (abs(lo) + abs(hi) + 1.0)
        # range of p' over the interval, with sign cancellation: near a
        # critical point this shrinks like the interval, so the centered
        # form converges quadratically
        dlo, dhi = _range(dpairs, 0.0, a, b)
        dmax = max(abs(dlo), abs(dhi))
        cb = val(0.5 * (a + b)) + 0.5 * (b - a) * dmax
        cb += 1e-15 * (cb + 1.0)
        return min(rb, cb)

    best = val(u_lo)
    at = u_lo
    for u in (u_hi, 0.5 * (u_lo + u_hi)):
        v = val(u)
        if v > best:
            best, at = v, u

    heap = [(-bound(u_lo, u_hi), u_lo, u_hi)]
    # bounds of intervals left unsplit (unsplittable or pruned): the sup may
    # sit in one of them, so `hi` must cover them all
    hi = dropped_hi = 0.0
    for _ in range(_BB_MAX_NODES):
        if not heap:
            break
        neg_ub, a, b = heapq.heappop(heap)
        ub = -neg_ub
        if ub <= best + tol:
            hi = ub
            break
        mid = _split(a, b)
        if not (a < mid < b):
            dropped_hi = max(dropped_hi, ub)
            continue
        v = val(mid)
        if v > best:
            best, at = v, mid
        for lo_, hi_ in ((a, mid), (mid, b)):
            child = bound(lo_, hi_)
            if child > best + 0.5 * tol:
                heapq.heappush(heap, (-child, lo_, hi_))
            else:
                dropped_hi = max(dropped_hi, child)
    else:
        raise CertificationError(
            f"sup-norm enclosure not within {tol} after {_BB_MAX_NODES} nodes")

    # Newton on p' = 0 from the best node; a step is kept only inside the
    # interval and where |p| does not drop, so `lo` stays an attained value
    d2pairs = [(lam1 - 1.0, cl * lam1) for lam1, cl in dpairs]
    for _ in range(4):
        d2 = _eval_pairs_u(d2pairs, 0.0, at)
        u = at + _eval_pairs_u(dpairs, 0.0, at) / (d2 or math.inf)
        v = val(u) if u_lo <= u <= u_hi else -1.0
        if v < best:
            break
        best, at = v, u
    return Enclosure(best, max(best, hi, dropped_hi), at)


def _zero_pieces(pairs):
    """Maximal u-intervals in (0, 1), increasing, where p = sum c t^lam may vanish.

    Bisection on the enclosure of `sup_abs_bb` (monotone range cut by the
    centered form), widened by a rounding slack relative to sum |c| t^lam.
    Intervals whose enclosure excludes 0 or is exactly [0, 0] (underflow)
    go; the rest split down to relative width 1e-13 or until the enclosure
    lies inside the slack.  Pieces at t = 0 and t = 1 go too: p may vanish
    there without changing sign.
    """
    fpairs = _float_terms(pairs)
    dpairs = [(lam - 1.0, c * lam) for lam, c in fpairs]
    apairs = [(lam, abs(c)) for lam, c in fpairs]
    pieces = []
    todo = [(0.0, 1.0)]
    for _ in range(100_000):
        if not todo:
            break
        a, b = todo.pop()
        lo, hi = _range(fpairs, 0.0, a, b)
        dlo, dhi = _range(dpairs, 0.0, a, b)
        r = 0.5 * (b - a) * max(abs(dlo), abs(dhi))
        pm = _eval_pairs_u(fpairs, 0.0, 0.5 * (a + b))
        lo, hi = max(lo, pm - r), min(hi, pm + r)
        # rounding error of the sums scales with the largest terms, not p
        slack = 1e-14 * _range(apairs, 0.0, a, b)[1]
        if lo > slack or hi < -slack or lo == hi == 0.0:
            continue
        mid = _split(a, b)
        if max(-lo, hi) > slack and b - a > 1e-13 * b and a < mid < b:
            todo += [(mid, b), (a, mid)]
        elif pieces and pieces[-1][1] == a:
            pieces[-1] = (pieces[-1][0], b)
        else:
            pieces.append((a, b))
    else:
        raise CertificationError("zero search not resolved after 100000 nodes")
    return [(a, b) for a, b in pieces if 0.0 < a and b < 1.0]


def _derivative_pairs(pairs):
    return [(lam - 1, c * lam) for lam, c in pairs if c * lam != 0]


# ---------------------------------------------------------------------------
# generalized polynomials


@dataclass(frozen=True)
class MuntzPolynomial:
    """sum over terms of a_k t^{lam_k} (+ an internal constant offset used
    for shifted objects like f - f(1); public constructions keep it zero)."""

    ladder: ExponentLadder
    terms: tuple
    const: Fraction = Fraction(0)

    space = "muntz"

    def __post_init__(self):
        clean = {}
        for k, c in self.terms:
            c = as_fraction(c)
            if c != 0:
                clean[int(k)] = clean.get(int(k), Fraction(0)) + c
        terms = tuple(sorted((k, c) for k, c in clean.items() if c != 0))
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "const", as_fraction(self.const))

    @classmethod
    def monomial(cls, ladder, k, coeff=1):
        return cls(ladder, ((k, coeff),))

    def exponent_pairs(self):
        return [(self.ladder.lambda_at(k), c) for k, c in self.terms]

    def at_one(self) -> Fraction:
        return self.const + sum((c for _, c in self.terms), Fraction(0))

    def eval_u(self, u) -> float:
        return _eval_pairs_u(_float_terms(self.exponent_pairs()), float(self.const), float(u))

    def derivative_value(self, t: float) -> float:
        """p'(t) in t coordinates, with 0^0 = 1."""
        total = 0.0
        for lam, c in _float_terms(_derivative_pairs(self.exponent_pairs())):
            total += c * (t ** lam if t else float(lam == 0))
        return total

    def sup_enclosure(self, tol=NORM_TOL, u_lo=0.0, u_hi=1.0) -> Enclosure:
        pairs = self.exponent_pairs()
        if not pairs and self.const == 0:
            return Enclosure(0.0, 0.0, 0.0)
        return sup_abs_bb(pairs, self.const, u_lo, u_hi, tol)

    def norm(self) -> float:
        """Certified upper bound of the sup norm (safe for ball membership)."""
        return self.sup_enclosure().hi

    def _merge(self, other, sign):
        if not isinstance(other, MuntzPolynomial):
            raise DeltaLabError("generalized polynomials combine with their own kind")
        if other.ladder != self.ladder:
            raise DeltaLabError("polynomials must share an exponent ladder")
        terms = dict(self.terms)
        for k, c in other.terms:
            terms[k] = terms.get(k, Fraction(0)) + sign * c
        return MuntzPolynomial(self.ladder, tuple(terms.items()),
                               self.const + sign * other.const)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return MuntzPolynomial(self.ladder, tuple((k, -c) for k, c in self.terms), -self.const)

    def __mul__(self, scalar):
        s = as_fraction(scalar)
        return MuntzPolynomial(self.ladder, tuple((k, s * c) for k, c in self.terms),
                               s * self.const)

    __rmul__ = __mul__

    def shifted(self, offset) -> "MuntzPolynomial":
        return MuntzPolynomial(self.ladder, self.terms, self.const + as_fraction(offset))


@dataclass(frozen=True)
class PointEvaluationFunctional(Functional):
    """Finite signed combination of point evaluations, sum c_i p(t_i).

    Nodes are stored as u = 1 - t.  The reported dual norm sum |c_i| is exact
    for sign-aligned single-node families (the ones used here) and an upper
    bound in general.
    """

    nodes: tuple  # ((u, coeff), ...)

    space = "muntz"

    def __post_init__(self):
        object.__setattr__(
            self, "nodes",
            tuple((float(u), as_fraction(c)) for u, c in self.nodes))

    def dual_norm(self):
        return sum((abs(c) for _, c in self.nodes), Fraction(0))


# ---------------------------------------------------------------------------
# spike functions


@dataclass(frozen=True)
class Spike:
    k: int
    l: int
    f: MuntzPolynomial
    norm_enclosure: Enclosure
    off_interval_sup: float  # certified sup over [0, 1-eps]
    peak_u: float


def bump_log_sup(lam_a, lam_b) -> float:
    """ln of sup over [0,1] of t^a - t^b, in closed form.

    For 0 < a < b and r = a/b the peak sits at t* = r^{1/(b-a)} and is
    h(r) = r^{r/(1-r)} (1 - r) (Borwein & Erdelyi, Polynomials and
    Polynomial Inequalities, GTM 161): a function of the ratio alone, so
    exponents near 1e27 cost nothing.  r is the exact ratio, rounded once;
    r = 0 gives h = 1, and r that rounds to 1 (or a >= b) gives -inf.
    """
    r = as_fraction(lam_a) / as_fraction(lam_b)
    if r == 0:
        return 0.0
    r = float(r)
    if r >= 1.0:
        return -math.inf
    return r / (1.0 - r) * math.log(r) + math.log1p(-r)


#: ln(1/2) plus a margin that the float error of bump_log_sup cannot cross
FAR_LOG = math.log(0.5) + 1e-9


def spike_search(ladder: ExponentLadder, eps, delta, norm_tol=NORM_TOL) -> Spike:
    """Normalized two-term bump (t^{lam_k} - t^{lam_l}) / norm: nonnegative,
    and certified below `delta` on [0, 1-eps].

    k is minimal with (1-eps)^{lam_k} < delta/2.  l is minimal above k with
    closed-form two-term peak bump_log_sup(lam_k, lam_l) > FAR_LOG, i.e.
    above 1/2 by a margin float error cannot cross.  Both predicates are
    monotone in the exponent, so binary search preserves minimality.  The
    chosen bump is then certified by enclosures: its normalization, and its
    sup below `delta` on [0, 1-eps].
    """
    eps, delta = float(eps), float(delta)
    if not (0 < eps < 1 and 0 < delta < 1):
        raise DeltaLabError("spike search needs eps, delta in (0,1)")

    log_base = math.log1p(-eps)  # < 0
    thresh = math.log(delta / 2)

    k = ladder.min_index_where(lambda lam: float(lam) * log_base < thresh)
    lam_k = ladder.lambda_at(k)

    # lam <= lam_k gives -inf, so the predicate also keeps l above k
    l = ladder.min_index_where(lambda lam: bump_log_sup(lam_k, lam) > FAR_LOG)
    pairs = ((lam_k, Fraction(1)), (ladder.lambda_at(l), Fraction(-1)))
    raw_enc = sup_abs_bb(pairs, Fraction(0), 0.0, 1.0, norm_tol)
    scale = as_fraction(2.0 / (raw_enc.lo + raw_enc.hi))
    f = MuntzPolynomial(ladder, ((k, scale), (l, -scale)))

    enc = f.sup_enclosure(norm_tol)
    if not (1 - 1e-8 <= enc.lo and enc.hi <= 1 + 1e-8):
        raise VerificationError(f"spike normalization drifted: [{enc.lo}, {enc.hi}]")
    off = f.sup_enclosure(norm_tol, u_lo=eps, u_hi=1.0)
    if not off.hi < delta:
        raise VerificationError(
            f"spike not small on [0, 1-eps]: sup <= {off.hi} vs delta = {delta}")
    # nonnegativity is structural: lam_k < lam_l and equal positive weights
    return Spike(k=k, l=l, f=f, norm_enclosure=enc, off_interval_sup=off.hi,
                 peak_u=enc.at_u)


# ---------------------------------------------------------------------------
# Delta / Daugavet decision and witnesses


def _require_constant_free(ladder: ExponentLadder):
    if ladder.includes_constant:
        raise DeltaLabError(
            "decision procedures need the constant-free span (the question is open "
            "when constants are present)")
    if ladder.lambda_at(1) < 1:
        raise DeltaLabError("decision procedures need lam_1 >= 1")


def _require_certified_unit(p: MuntzPolynomial) -> Enclosure:
    enc = p.sup_enclosure(min(NORM_TOL, 1e-10))
    if not (enc.lo >= 1 - float(UNIT_TOL) - enc.width and enc.hi <= 1 + float(UNIT_TOL)):
        raise DeltaLabError(f"point must have unit norm, enclosure [{enc.lo}, {enc.hi}]")
    return enc


def is_daugavet_point_muntz(f: MuntzPolynomial):
    """Daugavet (equivalently Delta) iff the norm is attained at the right
    endpoint: |f(1)| = 1."""
    _require_constant_free(f.ladder)
    _require_certified_unit(f)
    f1 = f.at_one()
    if abs(f1) >= 1 - UNIT_TOL:
        return True, Certificate(verdict=Verdict.DAUGAVET_YES, log=(("f(1)", f1),))
    cert = Certificate(
        verdict=Verdict.DELTA_NO,
        refutation=Refutation(
            refuter=PointEvaluationFunctional(((0.0, Fraction(sgn(f1) or 1)),)),
            bound=Fraction(0),
            margin=Fraction(1) - abs(f1),
            note="not a Delta point: |f(1)| < 1 (theorem-backed, no quantitative bound)"),
        log=(("f(1)", f1),),
    )
    return False, cert


@dataclass(frozen=True)
class MuntzWitness:
    members: tuple
    spikes: tuple
    thresholds_u: tuple
    m: int
    delta: float
    min_distance: float
    avg_error_direct: float
    avg_error_structural: float
    flipped: bool


def daugavet_witness_muntz(f: MuntzPolynomial, g: MuntzPolynomial, eps, delta) -> MuntzWitness:
    """Far family around g for an endpoint-norming f (|f(1)| = 1).

    Builds m = ceil(2/delta) nested spikes on shrinking right neighborhoods
    of 1, sets g_i = g - (g(1)+1) f_i and returns the members
    (1+delta)^{-1} g_i.  Verification is mandatory: certified member norms,
    point-evaluation distance lower bounds >= 2 - 3 delta at the spike
    peaks, and the average within 3 delta of g both by a direct certified
    sup and by the structural bound assembled from the per-spike
    certificates.  Failure raises with diagnostics; nothing unverified is
    returned.
    """
    eps, delta = float(eps), float(delta)
    if not 0 < 3 * delta < eps:
        raise DeltaLabError("need 0 < 3*delta < eps")
    _require_certified_unit(f)
    if g.sup_enclosure().hi > 1 + float(UNIT_TOL):
        raise DeltaLabError("g must lie in the unit ball")
    f1 = f.at_one()
    if abs(abs(f1) - 1) > UNIT_TOL:
        raise DeltaLabError("witness construction needs |f(1)| = 1")

    flipped = f1 < 0
    ff = -f if flipped else f
    gg = -g if flipped else g
    g1 = gg.at_one()

    m = math.ceil(2 / delta)

    # u_1: both f and g certified within delta of their value at 1 on [t_1, 1]
    scan_tol = delta / 100
    u = 0.5
    for _ in range(360):
        okf = ff.shifted(-ff.at_one()).sup_enclosure(scan_tol, 0.0, u).hi < delta
        okg = gg.shifted(-g1).sup_enclosure(scan_tol, 0.0, u).hi < delta
        if okf and okg:
            break
        u *= 0.5
    else:
        raise CertificationError("no certified continuity threshold below delta")

    thresholds = [u]
    spikes = []
    for i in range(m):
        spike = spike_search(ff.ladder, eps=thresholds[-1], delta=delta / 2)
        spikes.append(spike)
        u_next = thresholds[-1] * 0.5
        for _ in range(4000):
            if spike.f.sup_enclosure(scan_tol, 0.0, u_next).hi < delta / 2:
                break
            u_next *= 0.5
            if u_next < 1e-300:
                raise LadderExhaustedError("LADDER_TOO_SHORT: spike tail leaves the float range")
        else:
            raise CertificationError("no certified tail threshold for spike")
        thresholds.append(u_next)

    coef = g1 + 1
    scale = 1 / (1 + as_fraction(delta))
    members, dists = [], []
    for spike in spikes:
        gi = gg - coef * spike.f
        enc_gi = gi.sup_enclosure(1e-9)
        if enc_gi.hi > (1 + delta) * (1 + 1e-9):
            raise VerificationError(
                f"||g_i|| = {enc_gi.hi} exceeds 1 + delta (spike k={spike.k}, l={spike.l})")
        member = scale * gi
        s_u = spike.peak_u
        dist = abs(member.eval_u(s_u) - ff.eval_u(s_u))
        if dist < 2 - 3 * delta - 1e-8:
            raise VerificationError(
                f"member distance {dist} < 2 - 3*delta at peak u={s_u}")
        members.append(member)
        dists.append(dist)

    resid = gg - convex_combination(members, [Fraction(1, m)] * len(members))
    enc_r = resid.sup_enclosure(1e-9)
    structural = delta / (1 + delta) + float(coef) / (m * (1 + delta)) * (
        1 + (m - 1) * delta / 2)
    if enc_r.hi > 3 * delta + 1e-8:
        raise VerificationError(f"average drifted: certified {enc_r.hi} > 3*delta")
    if enc_r.hi > structural + 1e-8:
        raise VerificationError(
            f"direct bound {enc_r.hi} exceeds the structural bound {structural}")

    if flipped:
        members = [-mem for mem in members]
    return MuntzWitness(
        members=tuple(members), spikes=tuple(spikes), thresholds_u=tuple(thresholds),
        m=m, delta=delta, min_distance=min(dists), avg_error_direct=enc_r.hi,
        avg_error_structural=structural, flipped=flipped)


def delta_family(f: MuntzPolynomial, target: MuntzPolynomial, eps, gamma):
    """Equal-weight far family approximating `target` within gamma;
    returns (members, weights, f, target)."""
    eps, gamma = float(eps), float(gamma)
    if not gamma > 0:
        raise DeltaLabError("far families need gamma > 0")
    delta = min(gamma / 3, eps / 3.0003)
    wit = daugavet_witness_muntz(f, target, eps, delta)
    return list(wit.members), [Fraction(1, wit.m)] * wit.m, f, target


# ---------------------------------------------------------------------------
# Bernstein-type estimate (linear programming on grids)


@dataclass(frozen=True)
class BernsteinResult:
    lower_bound: float     # certified: |p'(t*)| / certified ||p||
    grid_value: float      # raw LP optimum (grid-feasible)
    at: float
    coeffs: tuple
    norm_hi: float
    lp_solves: int         # HiGHS solves: box LPs plus objective LPs


# bernstein_estimate solves every _COARSE_STEP-th objective node (and the
# last) before deciding which of the others can still win
_COARSE_STEP = 8


def _derivative_row(lambdas, t_star):
    """d(t*): the derivatives of t^lam at t*, with d = 0 at t* = 0 except
    for lam = 1."""
    if t_star == 0.0:
        return np.array([lam if lam == 1 else 0.0 for lam in lambdas])
    return np.array([lam * t_star ** (lam - 1) for lam in lambdas])


def _spread(d_j, d_i, box):
    """sum_k |d_jk - d_ik| M_k, with 0 * inf counted as 0."""
    gap = np.abs(d_j - d_i)
    moved = gap > 0
    return float(np.dot(gap[moved], box[moved]))


def bernstein_estimate(ladder: ExponentLadder, terms: int, s, grid_n: int) -> BernsteinResult:
    """Lower bound for the truncated derivative-growth constant
    c(Lambda_M, s) = sup ||p'||_[0,s] / ||p||_[0,1] over the first M terms.

    One LP per objective node t*: maximize p'(t*) = d(t*).a subject to
    |p(t_j)| <= 1 on a [0,1] grid, i.e. over the symmetric polytope
    P = {a : |T a| <= 1} with T the grid's power matrix.  The reported
    bound re-evaluates the optimizer with a certified sup norm, so grid
    slack cannot inflate it; an optimizer with no 1e-9 enclosure fails.

    Nodes that provably cannot win are skipped.  The node value
    v(t*) = h_P(d(t*)) is the support function of P, which is sublinear:
    v_j <= v_i + sum_k |d_jk - d_ik| M_k with M_k = max_{a in P} a_k, one
    box LP per term since P = -P.  A box LP that fails (any lp.LPError)
    sets M_k = inf, so no node is pruned through coordinate k; 0 * inf
    counts as 0.  Every _COARSE_STEP-th node and the last are solved
    first; any other node is solved, in grid order, only if the bound from
    its nearest coarse neighbours, times (1 + 1e-6) plus 1e-9, reaches the
    best value found so far.  The constraints are homogeneous, so a HiGHS
    optimum within its primal tolerance tau = 1e-7 lies in (1 + tau)P and
    each computed v_i, v_j and M_k is within a relative tau of the exact
    one; the relative margin 1e-6 = 10 tau covers these errors.  A skipped
    node thus lies below the best value, a tie is never skipped, and the
    winner -- the first maximum in grid order over the solved nodes, each
    solved by the same LP call as in a full scan -- is the node a full
    scan would pick.  A failed objective LP is reported as a degenerate
    grid: a = 0 is always feasible, so it is a numerical failure.
    """
    s = float(s)
    if not 0 < s < 1:
        raise DeltaLabError("s must lie in (0,1)")
    if terms < 1:
        raise DeltaLabError("need at least one ladder term")
    if grid_n < max(2, terms + 1):
        raise DeltaLabError("degenerate grid: need grid_n >= max(2, terms+1)")
    lambdas = [float(ladder.lambda_at(k)) for k in range(1, terms + 1)]

    t_grid = np.linspace(0.0, 1.0, grid_n)
    T = np.stack([np.power(t_grid, lam) for lam in lambdas], axis=1)
    A_ub = np.vstack([T, -T])
    b_ub = np.ones(2 * grid_n)
    solves = 0

    def solve(c):
        nonlocal solves
        solves += 1
        return lp.linprog_mixed(c, A_ub=A_ub, b_ub=b_ub,
                                bounds=[(None, None)] * terms)

    box = np.full(terms, math.inf)
    for k, e_k in enumerate(np.eye(terms)):
        try:
            box[k] = -solve(-e_k)[0]
        except lp.LPError:
            pass

    t_nodes = np.linspace(0.0, s, grid_n)
    d = [_derivative_row(lambdas, t_star) for t_star in t_nodes]
    solved = {}

    def objective(j):
        try:
            val, a = solve(-d[j])
        except lp.LPError as exc:
            raise DeltaLabError(f"degenerate grid: {exc}") from exc
        solved[j] = (-val, tuple(float(x) for x in a))
        return -val

    coarse = sorted({*range(0, grid_n, _COARSE_STEP), grid_n - 1})
    best = max(objective(j) for j in coarse)
    for j in range(grid_n):
        if j in solved:
            continue
        left = j - j % _COARSE_STEP
        right = min(left + _COARSE_STEP, grid_n - 1)
        bound = min(solved[i][0] + _spread(d[j], d[i], box) for i in (left, right))
        if bound * (1 + 1e-6) + 1e-9 >= best:
            best = max(best, objective(j))

    j = max(sorted(solved), key=lambda i: solved[i][0])
    grid_value, coeffs = solved[j]
    at = float(t_nodes[j])
    p_hat = MuntzPolynomial(ladder, tuple((k + 1, as_fraction(c))
                                          for k, c in enumerate(coeffs)))
    try:
        enc = p_hat.sup_enclosure(1e-9)
    except CertificationError as exc:
        raise DeltaLabError(f"no sup-norm enclosure of the LP optimizer: {exc}") from exc
    deriv = abs(p_hat.derivative_value(at))
    lower = deriv / enc.hi if enc.hi > 0 else 0.0
    return BernsteinResult(lower_bound=lower, grid_value=grid_value, at=at,
                           coeffs=coeffs, norm_hi=enc.hi, lp_solves=solves)


# ---------------------------------------------------------------------------
# convex decomposition into endpoint-norming parts


@dataclass(frozen=True)
class MuntzDecomposition:
    mu: Fraction
    f_plus: MuntzPolynomial
    f_minus: MuntzPolynomial
    n: int
    deficit: float
    norm_plus: Enclosure
    norm_minus: Enclosure


def _last_sign_change(pairs) -> float:
    """t at the right end of the last interior zero piece of p (the first in
    u), or 0.0 when there is none."""
    pieces = _zero_pieces(pairs)
    return 1 - pieces[0][0] if pieces else 0.0


def convex_dld2p_decompose_muntz(f: MuntzPolynomial, cap=400) -> MuntzDecomposition:
    """Write f (strict norm deficit) as mu f+ + (1-mu) f- with f+-(1) = +-1,
    both parts certified inside the ball, and coefficient-exact
    reconstruction: f+- = f + (+-1 - f(1)) t^{lam_n} and mu = (f(1)+1)/2.

    The search starts at the least n with t0^{lam_n} < deficit/2 (t0 the
    right end of the last zero piece of f' and of f'', see `_zero_pieces`)
    and accepts the first n whose parts certify; the cap is a budget,
    termination is guaranteed by summability.
    """
    if cap < 0:
        raise DeltaLabError("decomposition needs cap >= 0")
    _require_constant_free(f.ladder)
    enc = f.sup_enclosure()
    if not enc.hi < 1:
        raise DeltaLabError("decomposition needs a strict norm deficit (||f|| < 1)")
    s = 1 - enc.hi

    if not f.terms:
        one = MuntzPolynomial.monomial(f.ladder, 1)
        return MuntzDecomposition(Fraction(1, 2), one, -one, 1, 1.0,
                                  one.sup_enclosure(), one.sup_enclosure())

    pairs = f.exponent_pairs()
    dpairs = _derivative_pairs(pairs)
    d_at_one = sum((c for _, c in dpairs), Fraction(0))
    increasing = d_at_one > 0 or (
        d_at_one == 0 and f.derivative_value(1.0 - 1e-6) > 0)
    if increasing:
        inner = convex_dld2p_decompose_muntz(-f, cap=cap)
        return MuntzDecomposition(
            mu=1 - inner.mu, f_plus=-inner.f_minus, f_minus=-inner.f_plus,
            n=inner.n, deficit=inner.deficit,
            norm_plus=inner.norm_minus, norm_minus=inner.norm_plus)

    t0 = max(_last_sign_change(dpairs),
             _last_sign_change(_derivative_pairs(dpairs)))
    t0 = min(t0, 0.999)
    if t0 <= 0:
        n0 = 1
    else:
        bound = math.log(s / 2) / math.log(t0)
        n0 = f.ladder.min_index_where(lambda lam: float(lam) > bound)

    f1 = f.at_one()
    mu = (f1 + 1) / 2
    for n in range(n0, n0 + cap + 1):
        mono = MuntzPolynomial.monomial(f.ladder, n)
        f_plus = f + (1 - f1) * mono
        f_minus = f - (1 + f1) * mono
        enc_p = f_plus.sup_enclosure()
        enc_m = f_minus.sup_enclosure()
        if enc_p.hi <= 1 + 1e-9 and enc_m.hi <= 1 + 1e-9:
            recon = mu * f_plus + (1 - mu) * f_minus
            if recon.terms != f.terms or recon.const != f.const:
                raise VerificationError("reconstruction is not coefficient-exact")
            if f_plus.at_one() != 1 or f_minus.at_one() != -1:
                raise VerificationError("endpoint values of the parts are off")
            return MuntzDecomposition(mu, f_plus, f_minus, n, float(s), enc_p, enc_m)
    raise CertificationError(
        f"no certified part found for n in [{n0}, {n0 + cap}]; largest tried {n0 + cap}")


# ---------------------------------------------------------------------------
# this model's entry of sums.SPACES

decide = is_daugavet_point_muntz


def ladder_to_json(ladder: ExponentLadder) -> dict:
    if ladder.explicit is not None:
        return {"explicit": [num_to_json(v) for v in ladder.explicit],
                "includes_constant": ladder.includes_constant}
    return {"rule": ladder.name, "includes_constant": ladder.includes_constant}


def ladder_from_json(obj) -> ExponentLadder:
    if "explicit" in obj:
        return ExponentLadder.from_list([num_from_json(v) for v in obj["explicit"]],
                                        includes_constant=obj.get("includes_constant", False))
    if obj.get("rule", "n^2") != "n^2":
        raise DeltaLabError(f"unknown ladder rule {obj['rule']!r}")
    if obj.get("includes_constant"):
        raise DeltaLabError("built-in ladders are constant-free")
    return ExponentLadder.squares()


def point_to_json(p: MuntzPolynomial) -> dict:
    return {"space": "muntz", "ladder": ladder_to_json(p.ladder),
            "terms": [[k, num_to_json(c)] for k, c in p.terms]}


def point_from_json(obj) -> MuntzPolynomial:
    ladder = ladder_from_json(obj.get("ladder", {"rule": "n^2"}))
    return MuntzPolynomial(ladder, tuple((int(k), num_from_json(c)) for k, c in obj["terms"]))


def functional_to_json(phi: PointEvaluationFunctional) -> dict:
    return {"space": "muntz", "dual": True,
            "nodes": [[num_to_json(u), num_to_json(c)] for u, c in phi.nodes]}


def functional_from_json(obj, model=None) -> PointEvaluationFunctional:
    return PointEvaluationFunctional(
        tuple((num_from_json(u), num_from_json(c)) for u, c in obj["nodes"]))


def witness_report(f, eps, params, serialize) -> dict:
    """`witness`: the spike family around --target; eps and delta, given as
    decimals or "p/q", are rounded to floats."""
    target = serialize.point_from_json(params["target"], default_space="muntz")
    res = daugavet_witness_muntz(f, target, float(eps), float(Fraction(str(params["delta"]))))
    return {"count": res.m, "members": [point_to_json(m) for m in res.members],
            "min_distance": num_to_json(res.min_distance),
            "avg_error_certified": num_to_json(res.avg_error_direct),
            "avg_error_structural": num_to_json(res.avg_error_structural)}


def decompose_report(f, params) -> dict:
    res = convex_dld2p_decompose_muntz(f, cap=int(params.get("cap", 400)))
    return {"mu": num_to_json(res.mu), "plus": point_to_json(res.f_plus),
            "minus": point_to_json(res.f_minus), "n": res.n,
            "norm_plus_hi": num_to_json(res.norm_plus.hi),
            "norm_minus_hi": num_to_json(res.norm_minus.hi)}
