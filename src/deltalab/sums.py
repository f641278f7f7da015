"""Absolute normalized norms on R^2 and direct sums X (+)_N Y.

The geometry of Daugavet points in a sum is governed by two mutually
exclusive features of N: positive octahedrality (some nonnegative unit pair
adds norm-2 with both unit vectors; then Daugavet points survive the sum)
and a separation property forcing one coordinate of near-far pairs below 1
(then the sum has no Daugavet points at all, even when every sphere point of
both components is a Delta point).  Both are decided from closed forms for
every norm the parser accepts: l1, linf and polygons with an exact witness
are octahedral, and lp with 1 < p < inf is strictly convex, hence never
octahedral and separating, with per-pair records whose eps is a float
estimate.  Only a polygon without an octahedral witness stays UNDECIDED.
"""

from __future__ import annotations

import ast
import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import ck as ck_mod
from . import l1 as l1_mod
from . import muntz as muntz_mod
from . import lp
from .core import (
    DeltaLabError,
    VerificationError,
    convex_combination,
    distance,
    hull_norm_lp,
    require_unit,
    verify_far_family,
)
from .util import UNIT_TOL, as_fraction

_DIRICHLET_MAX_N = 1_000_000  # the Dirichlet scan gives up past this n
_SCALARIZED_DIRS = 33         # directions theta of `hull_lower_bound_scalarized`


class InsufficientCertificateError(DeltaLabError):
    pass


# ---------------------------------------------------------------------------
# absolute normalized norms


def _graham_hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]  # CCW


@dataclass(frozen=True)
class AbsoluteNorm:
    """N(a,b) = N(|a|,|b|), N(1,0) = N(0,1) = 1.

    Kinds: "lp" with p in [1, inf] (exact for p = 1, inf; float otherwise)
    and "polygonal" (gauge of a symmetric polygon, exact rationals).  Both
    are monotone in each coordinate, as every absolute norm is (Bauer,
    Stoer & Witzgall, Numer. Math. 3, 1961).
    """

    kind: str
    p: Optional[float] = None
    quadrant_vertices: Optional[tuple] = None
    label: str = ""
    facets: tuple = field(default=(), compare=False, repr=False)
    hull: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.kind == "lp":
            if self.p is None or not self.p >= 1:
                raise DeltaLabError("lp norms need p in [1, inf]")
        elif self.kind == "polygonal":
            verts = tuple((as_fraction(a), as_fraction(b))
                          for a, b in self.quadrant_vertices)
            if any(a < 0 or b < 0 for a, b in verts):
                raise DeltaLabError("quadrant vertices must be nonnegative")
            object.__setattr__(self, "quadrant_vertices", verts)
            full = []
            for a, b in verts + ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))):
                for sa in (1, -1):
                    for sb in (1, -1):
                        full.append((sa * a, sb * b))
            hull = _graham_hull(full)
            if len(hull) < 3:
                raise DeltaLabError("polygon is degenerate")
            facets = []
            for v, w in zip(hull, hull[1:] + hull[:1]):
                nx, ny = w[1] - v[1], v[0] - w[0]
                c = nx * v[0] + ny * v[1]
                if c <= 0:
                    raise DeltaLabError("origin is not interior to the polygon")
                facets.append((nx, ny, c))
            object.__setattr__(self, "facets", tuple(facets))
            object.__setattr__(self, "hull", tuple(hull))
            if self(1, 0) != 1 or self(0, 1) != 1:
                raise DeltaLabError("polygon gauge is not normalized at the axes")
        else:
            raise DeltaLabError(f"unknown norm kind {self.kind!r}")

    # constructors ---------------------------------------------------------
    @classmethod
    def l1(cls):
        return cls(kind="lp", p=1.0, label="l1")

    @classmethod
    def l2(cls):
        return cls(kind="lp", p=2.0, label="l2")

    @classmethod
    def linf(cls):
        return cls(kind="lp", p=math.inf, label="linf")

    @classmethod
    def lp(cls, p):
        p = float(p)
        short = f"{p:g}"  # the label must parse back to the same p
        return cls(kind="lp", p=p, label=f"lp:{short if float(short) == p else repr(p)}")

    @classmethod
    def polygon(cls, quadrant_vertices):
        verts = tuple((as_fraction(a), as_fraction(b)) for a, b in quadrant_vertices)
        # the label is a spec of the exact vertices, so it parses back to this norm
        spec = ",".join("(%s)" % ",".join(str(v) if v.denominator == 1 else f'"{v}"'
                                          for v in pair) for pair in verts)
        return cls(kind="polygonal", quadrant_vertices=verts, label=f"poly:[{spec}]")

    @classmethod
    def parse(cls, spec: str) -> "AbsoluteNorm":
        spec = spec.strip()
        if spec == "l1":
            return cls.l1()
        if spec == "l2":
            return cls.l2()
        if spec == "linf":
            return cls.linf()
        if spec.startswith("lp:"):
            return cls.lp(float(spec[3:]))
        if spec.startswith("poly:"):
            try:
                verts = ast.literal_eval(spec[5:])
            except (SyntaxError, ValueError, TypeError, RecursionError):
                raise DeltaLabError(f"cannot parse norm spec {spec!r}") from None
            return cls.polygon(verts)
        raise DeltaLabError(f"cannot parse norm spec {spec!r}")

    # evaluation -----------------------------------------------------------
    def __call__(self, a, b):
        if self.kind == "lp":
            if self.p == 1.0:
                return abs(a) + abs(b)
            if self.p == math.inf:
                return max(abs(a), abs(b))
            af, bf = abs(float(a)), abs(float(b))
            if af == 0 and bf == 0:
                return 0.0
            m = max(af, bf)
            return m * ((af / m) ** self.p + (bf / m) ** self.p) ** (1 / self.p)
        a, b = abs(as_fraction(a)), abs(as_fraction(b))
        return max((nx * a + ny * b) / c for nx, ny, c in self.facets)

    def dual(self, c, d):
        """Dual norm max{ca + db : N(a,b) <= 1}."""
        if self.kind == "lp":
            if self.p == 1.0:
                return max(abs(c), abs(d))
            if self.p == math.inf:
                return abs(c) + abs(d)
            q = self.p / (self.p - 1)
            return (abs(float(c)) ** q + abs(float(d)) ** q) ** (1 / q)
        c, d = as_fraction(c), as_fraction(d)
        return max(c * vx + d * vy for vx, vy in self.hull)

    def name(self):
        return self.label or self.kind


@dataclass(frozen=True)
class SumPoint:
    x: object
    y: object
    norm_rule: AbsoluteNorm

    space = "sum"

    def norm(self):
        return self.norm_rule(self.x.norm(), self.y.norm())

    def _binop(self, other, op):
        if not isinstance(other, SumPoint) or other.norm_rule != self.norm_rule:
            raise DeltaLabError("sum points must share the norm rule")
        return SumPoint(op(self.x, other.x), op(self.y, other.y), self.norm_rule)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __neg__(self):
        return SumPoint(-self.x, -self.y, self.norm_rule)

    def __mul__(self, scalar):
        return SumPoint(scalar * self.x, scalar * self.y, self.norm_rule)

    __rmul__ = __mul__

    def distance(self, other):
        if not isinstance(other, SumPoint) or other.norm_rule != self.norm_rule:
            raise DeltaLabError("sum points must share the norm rule")
        return self.norm_rule(distance(self.x, other.x), distance(self.y, other.y))


# ---------------------------------------------------------------------------
# simultaneous rational approximation of convex weights


def _integer_weights(weights):
    """Positive weights summing to 1 as integer numerators a_i over their
    common denominator D; returns (a, D)."""
    w = [as_fraction(v) for v in weights]
    if any(v <= 0 for v in w):
        raise DeltaLabError("weights must be positive")
    total = sum(w, Fraction(0))
    if abs(total - 1) > Fraction(1, 10**9):
        raise DeltaLabError("weights must sum to 1")
    w = [v / total for v in w]
    d = math.lcm(*(v.denominator for v in w))
    return [v.numerator * (d // v.denominator) for v in w], d


def _round_counts(a, d, n):
    """Largest-remainder counts k_i of n a_i / d: round half up, then move
    one unit per index until sum k_i = n.  A deficit goes to the largest
    n a_i - k_i d first, a surplus comes from the largest k_i d - n a_i
    first, ties to the lower index.  Rounding half up leaves every
    |n a_i - k_i d| <= d/2, so at least twice as many indices as the units
    to move lean the right way, and a surplus is taken from counts >= 1."""
    k = [(2 * n * ai + d) // (2 * d) for ai in a]
    diff = n - sum(k)
    if diff == 0:
        return k
    step = 1 if diff > 0 else -1
    for i in sorted(range(len(a)), key=lambda i: (step * (k[i] * d - n * a[i]), i))[:abs(diff)]:
        k[i] += step
    return k


def _dirichlet_scan(vectors, eps):
    """Smallest n (under the scan order) whose largest-remainder counts k
    sum to n with sum |w_i - k_i/n| < eps for every weight vector w.

    In integers: with w_i = a_i/D and eps = p/q the test is
    q * sum |n a_i - k_i D| < p n D."""
    eps = as_fraction(eps)
    if eps <= 0:
        raise DeltaLabError("eps must be positive")
    p, q = eps.numerator, eps.denominator
    ws = [_integer_weights(v) for v in vectors]
    for n in range(1, _DIRICHLET_MAX_N + 1):
        counts = []
        for a, d in ws:
            k = _round_counts(a, d, n)
            if q * sum(abs(n * ai - ki * d) for ai, ki in zip(a, k)) >= p * n * d:
                break
            counts.append(tuple(k))
        else:
            return n, counts
    raise DeltaLabError("dirichlet scan exhausted")


def dirichlet_average(weights, eps):
    """Smallest n with counts k_i summing to n and sum |w_i - k_i/n| < eps."""
    n, (counts,) = _dirichlet_scan([weights], eps)
    return n, counts


def dirichlet_average_pair(weights_x, weights_y, eps):
    """One common n making both weight vectors eps-close to k/n averages."""
    n, (cx, cy) = _dirichlet_scan([weights_x, weights_y], eps)
    return n, cx, cy


# ---------------------------------------------------------------------------
# positively octahedral norms


@dataclass(frozen=True)
class OctahedralResult:
    verdict: bool
    witness: Optional[tuple]
    value: float
    exact: bool


def verify_octahedral_witness(norm: AbsoluteNorm, a, b) -> bool:
    """N(a,b) = 1 and N(a+1,b) = N(a,b+1) = 2, decided exactly; never for lp
    with 1 < p < inf, which is strictly convex (Clarkson, Trans. AMS 40, 1936)."""
    if norm.kind == "lp" and 1 < norm.p < math.inf:
        return False
    a, b = as_fraction(a), as_fraction(b)
    return norm(a, b) == 1 and norm(a + 1, b) == 2 and norm(a, b + 1) == 2


def _octahedral_witness(norm: AbsoluteNorm):
    """The first candidate that is an exact octahedral witness of N, or None."""
    if norm.kind == "lp":
        candidates = {1.0: [(1, 0)], math.inf: [(1, 1)]}.get(norm.p, [])
    else:
        candidates = [v for v in norm.hull if v[0] >= 0 and v[1] >= 0]
        # a facet containing both axis points yields interior witnesses too
        if any(nx == c and ny == c for nx, ny, c in norm.facets):
            mid = Fraction(1, 2) / norm(Fraction(1, 2), Fraction(1, 2))
            candidates.append((mid, mid))
    return next(((as_fraction(a), as_fraction(b)) for a, b in candidates
                 if verify_octahedral_witness(norm, a, b)), None)


_POLYGON_VALUE_GRID = 4096  # unit-arc steps of a witness-free polygon's value


def is_positively_octahedral(norm: AbsoluteNorm) -> OctahedralResult:
    """Is there a nonnegative unit pair adding norm 2 with both unit vectors?
    The verdict is exact for every kind.  `value` is 2 with a witness and
    N(1+s, s) at s = 1/N(1,1) for other lp; for other polygons it is a
    float grid maximum, so `exact` is False there."""
    witness = _octahedral_witness(norm)
    if witness is not None:
        return OctahedralResult(True, witness, 2.0, True)
    if norm.kind == "lp":
        s = 1 / norm(1, 1)
        return OctahedralResult(False, (s, s), float(norm(1 + s, s)), True)
    gauge = _float_gauge(norm)
    best = max(min(gauge(a + 1, b), gauge(a, b + 1))
               for a, b in _unit_arc(norm, _POLYGON_VALUE_GRID))
    return OctahedralResult(False, None, best, False)


def _float_gauge(norm):
    """N on floats, for the grid scans: the lp formula itself, and a
    polygon's facets turned into floats once (N itself computes in
    Fractions)."""
    if norm.kind == "lp":
        return lambda a, b: float(norm(a, b))
    facets = [(float(nx), float(ny), float(c)) for nx, ny, c in norm.facets]
    return lambda a, b: max((nx * abs(a) + ny * abs(b)) / c for nx, ny, c in facets)


def _unit_arc(norm, n):
    """N-unit vectors at the angles pi/2 * i/n, i = 0, ..., n."""
    gauge = _float_gauge(norm)
    for i in range(n + 1):
        th = math.pi / 2 * i / n
        ux, uy = math.cos(th), math.sin(th)
        nrm = gauge(ux, uy)
        yield ux / nrm, uy / nrm


# ---------------------------------------------------------------------------
# the separation property (alpha)


@dataclass(frozen=True)
class AlphaRecord:
    c: float
    d: float
    eps: float        # float estimate from unit-arc grids (see _alpha_record)
    radius: float
    route: str        # "a": first coordinate bounded on W; "b": second
    sup_bound: float  # bounded coordinate + r: its sup over W, by monotonicity


@dataclass(frozen=True)
class AlphaResult:
    verdict: Optional[bool]   # True / False / None = UNDECIDED
    note: str
    octahedral_witness: Optional[tuple]
    sample_records: tuple
    norm: AbsoluteNorm = field(compare=False, repr=False, default=None)
    grid_n: int = field(compare=False, default=4096)

    def record(self, c, d) -> AlphaRecord:
        if self.verdict is not True:
            raise InsufficientCertificateError(
                f"no separation certificate for this norm ({self.note})")
        return _alpha_record(self.norm, c, d, self.grid_n)


def _alpha_record(norm: AbsoluteNorm, c, d, grid_n) -> AlphaRecord:
    """Record at the unit pair (c,d): `sup_bound` is proven by monotonicity;
    `eps` is a float estimate from unit-arc grids, padded by the underived
    slacks 9 * step and 6 * r * step."""
    cf, df = float(c), float(d)
    if abs(float(norm(cf, df)) - 1) > 1e-9:
        raise DeltaLabError("alpha records are issued for unit pairs (c,d)")
    route = "a" if cf <= df else "b"
    bounded = cf if route == "a" else df
    if bounded >= 1 - 1e-12:
        route = "b" if route == "a" else "a"
        bounded = df if route == "b" else cf
        if bounded >= 1 - 1e-12:
            raise InsufficientCertificateError(
                "both coordinates reach 1 at (c,d); no bounded route")
    r = (1 - bounded) / 2

    # sup of N((a,b) + (c,d)) over the ball quadrant outside W; by coordinate
    # monotonicity the sup lives on the sphere arc outside W or on the part
    # of the W-boundary inside the ball.  Each 1-d arc gets a Lipschitz slack.
    # Each grid holds the points of the one before, bit for bit, so the raw
    # maxima `arc` and `bnd` only grow (and rounding is monotone, so padding a
    # maximum pads every value): once the last grid's pads reach 2, stop.
    last_step = math.pi / 2 / (grid_n * 4 ** 3)
    arc = bnd = -math.inf
    for n in (grid_n * 4 ** k for k in range(4)):
        step = math.pi / 2 / n
        for a, b in _unit_arc(norm, n):
            if float(norm(a - cf, b - df)) >= r:
                arc = max(arc, float(norm(a + cf, b + df)))
        for i in range(4 * n + 1):
            ps = 2 * math.pi * i / (4 * n)
            ux, uy = math.cos(ps), math.sin(ps)
            nrm = float(norm(ux, uy))
            a, b = cf + r * ux / nrm, df + r * uy / nrm
            if a < 0 or b < 0 or float(norm(a, b)) > 1:
                continue
            bnd = max(bnd, float(norm(a + cf, b + df)))
        eps = 2 - max(0.0, arc + 9 * step, bnd + 6 * r * step)
        if eps > 0:
            return AlphaRecord(c=cf, d=df, eps=eps, radius=r, route=route,
                               sup_bound=bounded + r)
        if max(arc + 9 * last_step, bnd + 6 * r * last_step) >= 2:
            break
    raise InsufficientCertificateError(
        f"certified separation margin vanished at ({cf}, {df}); refine the grid")


def has_property_alpha(norm: AbsoluteNorm, grid_n=4096) -> AlphaResult:
    """Verdict by kind: an octahedral witness => False; other lp (strictly
    convex) => True, with the records at (1,0), (0,1), (s,s) that `grid_n`
    reaches; a polygon without a witness => None (UNDECIDED)."""
    witness = _octahedral_witness(norm)
    if witness is not None:
        return AlphaResult(False, "positively octahedral", witness, (),
                           norm=norm, grid_n=grid_n)
    if norm.kind != "lp":
        return AlphaResult(None, "neither octahedral nor strictly convex",
                           None, (), norm=norm, grid_n=grid_n)
    s = 1 / norm(1, 1)
    samples = []
    for c, d in ((1.0, 0.0), (0.0, 1.0), (s, s)):
        try:
            samples.append(_alpha_record(norm, c, d, grid_n))
        except InsufficientCertificateError:
            pass
    return AlphaResult(True, "strictly convex (lp, 1 < p < inf)", None,
                       tuple(samples), norm=norm, grid_n=grid_n)


# ---------------------------------------------------------------------------
# component dispatch


# space name -> its model's module.  Where they apply, each has `decide`,
# `delta_family`, the point and functional codecs, `witness_report`,
# `decompose_report` and `crosscheck_setup`; callers read them at call time.
SPACES = {"l1": l1_mod, "ck": ck_mod, "muntz": muntz_mod, "sum": sys.modules[__name__]}


def space_hook(space, name, error):
    """The hook `name` of a space's model; `error` is raised where there is none."""
    hook = getattr(SPACES.get(space) if isinstance(space, str) else None, name, None)
    if hook is None:
        raise error
    return hook


def encode_point(p) -> dict:
    """JSON of a point of any space (`serialize.point_to_json`)."""
    return space_hook(getattr(p, "space", None), "point_to_json",
                      DeltaLabError(f"cannot serialize {type(p).__name__}"))(p)


def decode_point(obj, default_space=None):
    """A point of any space from its JSON (`serialize.point_from_json`)."""
    obj = json.loads(obj) if isinstance(obj, str) else obj
    space = obj.get("space", default_space)
    return space_hook(space, "point_from_json", DeltaLabError(f"unknown space {space!r}"))(obj)


def point_to_json(p: SumPoint) -> dict:
    return {"space": "sum", "norm": p.norm_rule.name(),
            "x": encode_point(p.x), "y": encode_point(p.y)}


def point_from_json(obj) -> SumPoint:
    norm = AbsoluteNorm.parse(obj["norm"])
    return SumPoint(decode_point(obj["x"]), decode_point(obj["y"]), norm)


def _component_hooks(point):
    """(decide, delta_family) of a component point's model."""
    error = DeltaLabError(f"no Daugavet decision or far family for {type(point).__name__}")
    space = getattr(point, "space", None)
    return space_hook(space, "decide", error), space_hook(space, "delta_family", error)


def _scaled_family(anchor, target_component, scale, eps_comp, gamma, fam):
    """Far family for the normalized target, members rescaled by `scale`.

    scale == 0 yields the single zero member (the proof's u = 0 branch).
    Returns (weighted members, possibly-lifted anchor, possibly-lifted
    scaled target); lifting (L1 refinement) depends only on (anchor, eps),
    so repeated calls stay on one model."""
    if scale == 0:
        return [(0 * anchor, Fraction(1))], anchor, 0 * anchor
    normalized = (1 / as_fraction(scale)) * target_component
    members, weights, anchor2, target2 = fam(anchor, normalized, eps_comp, gamma)
    return list(zip(_scale_all(members, scale), weights)), anchor2, scale * target2


def _scale_all(points, scale):
    """scale * p for each point; a payload type with a `scale_all` shares
    the products of equal coordinates across the points."""
    shared = getattr(type(points[0]), "scale_all", None)
    return shared(points, scale) if shared is not None else [scale * p for p in points]


@dataclass(frozen=True)
class SumConstructResult:
    target: SumPoint
    members: tuple
    count: int
    min_distance: float
    avg_error: float


def _equal_counts(parts_x, parts_y, eps):
    """Round two weighted families to one common count n (Dirichlet, eps)
    and repeat each member by its count; returns (n, xs, ys)."""
    mem_x, w_x = zip(*parts_x)
    mem_y, w_y = zip(*parts_y)
    n, cx, cy = dirichlet_average_pair(w_x, w_y, eps)
    xs = [m for m, k in zip(mem_x, cx) for _ in range(k)]
    ys = [m for m, k in zip(mem_y, cy) for _ in range(k)]
    return n, xs, ys


def sum_daugavet_construct(x, y, norm: AbsoluteNorm, a, b, targets: Sequence,
                           eps, delta) -> list:
    """Far families in X (+)_N Y around z = (a x, b y) for each target.

    Needs x, y Daugavet points and (a, b) an octahedral witness of N.
    Targets may be sphere or ball points of the sum (interior targets split
    along the chord through the origin).  Every member and the average are
    re-verified; failures raise with diagnostics.
    """
    if as_fraction(eps) <= 0:
        raise DeltaLabError("sum_daugavet_construct needs eps > 0")
    if as_fraction(delta) <= 0:
        raise DeltaLabError("sum_daugavet_construct needs delta > 0")
    if not verify_octahedral_witness(norm, a, b):
        raise DeltaLabError("(a, b) is not an octahedral witness for this norm")
    (decide_x, fam_x), (decide_y, fam_y) = _component_hooks(x), _component_hooks(y)
    if not (decide_x(x)[0] and decide_y(y)[0]):
        raise DeltaLabError("both components must be Daugavet points")
    require_unit(x)
    require_unit(y)
    a, b = as_fraction(a), as_fraction(b)
    nu = norm(1, 1)
    eps_comp = as_fraction(eps) / as_fraction(nu)
    gamma = as_fraction(delta) / 4

    results = []
    for target in targets:
        if not isinstance(target, SumPoint):
            target = SumPoint(target[0], target[1], norm)
        r = as_fraction(target.norm())
        if r > 1 + UNIT_TOL:
            raise DeltaLabError("targets must lie in the unit ball")
        if r >= 1 - UNIT_TOL:
            branches = [(target, Fraction(1))]
        elif r == 0:
            zp = SumPoint(x, 0 * y, norm)
            branches = [(zp, Fraction(1, 2)), (-zp, Fraction(1, 2))]
        else:
            zp = (1 / r) * target
            branches = [(zp, (1 + r) / 2), (-zp, (1 - r) / 2)]

        parts, tx, ty = [], [], []
        anchor_x, anchor_y = x, y
        for branch, bw in branches:
            su, sv = branch.x.norm(), branch.y.norm()
            bx, anchor_x, t = _scaled_family(x, branch.x, su, eps_comp, gamma, fam_x)
            tx.append(t)
            by, anchor_y, t = _scaled_family(y, branch.y, sv, eps_comp, gamma, fam_y)
            ty.append(t)
            # pair the branch families into sum members of equal weight
            n, xs, ys = _equal_counts(bx, by, gamma)
            parts += [(SumPoint(px, py, norm), bw / n) for px, py in zip(xs, ys)]

        # merge the branches into equal-count sum members and re-verify
        bws = [bw for _, bw in branches]
        target_check = SumPoint(convex_combination(tx, bws),
                                convex_combination(ty, bws), norm)
        n, counts = dirichlet_average([w for _, w in parts], gamma)
        members = [m for (m, _), k in zip(parts, counts) for _ in range(k)]
        anchor = SumPoint(a * anchor_x, b * anchor_y, norm)
        dmin, err = verify_far_family(anchor, members, [Fraction(1, n)] * n, target_check,
                                      eps, delta)
        results.append(SumConstructResult(target, tuple(members), n, float(dmin), float(err)))
    return results


@dataclass(frozen=True)
class LiftResult:
    point: SumPoint
    members: tuple
    count: int
    min_distance: float
    avg_error: float


def sum_delta_lift(x, y, norm: AbsoluteNorm, a, b, eps, gamma) -> LiftResult:
    """Certified membership evidence that (a x, b y) is a Delta point of the
    sum: matched-count component far families, pair distances >= 2 - eps in
    the N-norm, and the average within gamma of (a x, b y)."""
    a, b = as_fraction(a), as_fraction(b)
    if abs(float(norm(a, b)) - 1) > 1e-9:
        raise DeltaLabError("need N(a, b) = 1")
    if not as_fraction(gamma) < as_fraction(eps):
        raise DeltaLabError("need gamma < eps")
    require_unit(x)
    require_unit(y)

    gam = as_fraction(gamma) / 2
    # each component's far family aimed at the component itself, scaled
    parts_x, anchor_x, _ = _scaled_family(x, a * x, a, eps, gam, _component_hooks(x)[1])
    parts_y, anchor_y, _ = _scaled_family(y, b * y, b, eps, gam, _component_hooks(y)[1])

    n, xs, ys = _equal_counts(parts_x, parts_y, gam)
    members = [SumPoint(px, py, norm) for px, py in zip(xs, ys)]
    z = SumPoint(a * anchor_x, b * anchor_y, norm)
    dmin, err = verify_far_family(z, members, [Fraction(1, n)] * n, z, eps, gamma)
    return LiftResult(z, tuple(members), n, float(dmin), float(err))


# ---------------------------------------------------------------------------
# refutation side


@dataclass(frozen=True)
class SumRefutation:
    delta: float
    direction: SumPoint
    record: AlphaRecord
    side: str  # "x" | "y"


def sum_refute_daugavet(z: SumPoint, record: AlphaRecord,
                        direction=None) -> SumRefutation:
    """Direction (w, 0) or (0, w) every far-set hull stays delta away from.

    delta = 1 - sup of the bounded coordinate over the record's
    neighbourhood W, proven by monotonicity; members of the far set have
    their component norms in W, so convex combinations lose at least delta
    against a unit vector on the bounded side.  The scope eps <= `record.eps`
    is a float estimate, not a certified bound."""
    c, d = float(z.x.norm()), float(z.y.norm())
    if abs(c - record.c) > 1e-9 or abs(d - record.d) > 1e-9:
        raise DeltaLabError("record was issued for a different (||x||, ||y||)")
    delta = 1 - record.sup_bound
    if delta <= 0:
        raise InsufficientCertificateError("record carries no positive margin")
    side = "x" if record.route == "a" else "y"
    if direction is None:
        comp = z.x if side == "x" else z.y
        nrm = comp.norm()
        if nrm == 0:
            raise DeltaLabError(
                f"anchor has zero {side}-component; pass `direction` explicitly")
        unit = (1 / as_fraction(nrm)) * comp
    else:
        unit = direction
        if abs(float(unit.norm()) - 1) > 1e-9:
            raise DeltaLabError("direction must be unit norm")
    if side == "x":
        dirpoint = SumPoint(unit, 0 * z.y, z.norm_rule)
    else:
        dirpoint = SumPoint(0 * z.x, unit, z.norm_rule)
    return SumRefutation(delta=delta, direction=dirpoint, record=record, side=side)


def ck_far_member_sampler(z: SumPoint, eps):
    """Sampler of far-set members for sums of sequence-model components:
    anti-aligned rescalings of the anchor components with fresh-coordinate
    noise, rejection-checked for membership."""
    eps = float(eps)
    c, d = z.x.norm(), z.y.norm()
    if float(c) == 0 or float(d) == 0:
        raise DeltaLabError("sampler needs nonzero anchor components")

    def sample(rng):
        xi1 = Fraction(rng.randrange(0, 1000), 1000) * as_fraction(eps) / 4
        xi2 = Fraction(rng.randrange(0, 1000), 1000) * as_fraction(eps) / 4
        su = max(Fraction(0), as_fraction(c) - xi1)
        sv = max(Fraction(0), as_fraction(d) - xi2)
        u = (-su / as_fraction(c)) * z.x
        v = (-sv / as_fraction(d)) * z.y
        k = len(u.prefix) + rng.randrange(0, 3)
        noise = Fraction(rng.randrange(-1000, 1001), 1000) * su
        u = u.with_value(k, noise)
        return SumPoint(u, v, z.norm_rule)

    return sample


@dataclass(frozen=True)
class HarnessReport:
    n_members: int
    eps: float        # the sampled scope: at most record.eps, a float estimate
    delta: float      # 1 - record.sup_bound, proven
    min_member_distance: float
    min_combo_distance: float
    lp_lower_bound: float
    w_membership_ok: bool


def refutation_harness(z: SumPoint, refutation: SumRefutation, n_members=200,
                       n_combos=200, seed=0, tol=1e-6, eps=None) -> HarnessReport:
    """Sample the far set of z (`ck_far_member_sampler`) and verify the
    refutation quantitatively: every member's component norms sit in the
    record's W with the bounded coordinate <= 1 - delta (proven), random
    convex combinations stay delta away from the direction, and a
    scalarized-LP estimate of a lower bound on the exact hull distance clears
    delta - tol.  `eps` (at most `record.eps`) is a float estimate."""
    record = refutation.record
    if eps is None:
        eps = record.eps
    if eps > record.eps + 1e-15:
        raise InsufficientCertificateError(
            f"certificate scope: record covers eps <= {record.eps}, got {eps}")
    rng = random.Random(seed)
    sampler = ck_far_member_sampler(z, eps)

    members = []
    tries = 0
    while len(members) < n_members and tries < n_members * 50:
        tries += 1
        cand = sampler(rng)
        if float(cand.norm()) > 1 + 1e-12:
            continue
        if float(z.distance(cand)) >= 2 - eps:
            members.append(cand)
    if len(members) < max(2, n_members // 10):
        raise DeltaLabError(f"sampler produced only {len(members)} far members")

    w_ok = True
    norm = z.norm_rule
    for mem in members:
        mu, mv = float(mem.x.norm()), float(mem.y.norm())
        if float(norm(mu - record.c, mv - record.d)) > record.radius + 1e-9:
            w_ok = False
        bounded = mu if record.route == "a" else mv
        if bounded > record.sup_bound + 1e-9:
            w_ok = False
    if not w_ok:
        raise VerificationError("a sampled far member escaped the record's W")

    dists = [float(refutation.direction.distance(mem)) for mem in members]
    combo_best = min(dists)
    for _ in range(n_combos):
        k = rng.randrange(2, min(10, len(members)) + 1)
        picks = [members[rng.randrange(len(members))] for _ in range(k)]
        raw = [rng.random() for _ in range(k)]
        tot = sum(raw)
        combo = convex_combination(picks, [wv / tot for wv in raw])
        combo_best = min(combo_best, float(refutation.direction.distance(combo)))
    if combo_best < refutation.delta - tol:
        raise VerificationError(
            f"sampled combination at {combo_best} beats delta = {refutation.delta}")

    lp_lower = hull_lower_bound_scalarized(refutation.direction, members, norm)
    if lp_lower < refutation.delta - tol:
        raise VerificationError(
            f"LP hull lower bound {lp_lower} fails delta - tol")
    return HarnessReport(
        n_members=len(members), eps=float(eps), delta=refutation.delta,
        min_member_distance=min(dists), min_combo_distance=combo_best,
        lp_lower_bound=lp_lower, w_membership_ok=w_ok)


def hull_lower_bound_scalarized(point: SumPoint, members: Sequence[SumPoint],
                                norm: AbsoluteNorm) -> float:
    """Float estimate of a lower bound on the distance from `point` to the
    convex hull of `members` in the sum norm: by LP duality, min over the
    hull of theta . (px, py) over the dual norm of each nonnegative theta
    bounds it from below, but these optima are raw HiGHS floats.  One
    standard form from `core.hull_norm_lp`; theta reweighs its two costs."""
    a, b, (c_x, c_y) = hull_norm_lp(len(members), [
        type(point.x).hull_embedding([point.x] + [m.x for m in members]),
        type(point.y).hull_embedding([point.y] + [m.y for m in members])])

    best = 0.0
    for i in range(_SCALARIZED_DIRS):
        th = math.pi / 2 * i / (_SCALARIZED_DIRS - 1)
        t1, t2 = math.cos(th), math.sin(th)
        val, _ = lp.simplex_float(t1 * c_x + t2 * c_y, a, b)
        dual = float(norm.dual(t1, t2))
        if dual > 0:
            best = max(best, val / dual)
    return best
