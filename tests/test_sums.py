import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from deltalab import ck, core, l1, muntz, sums

L1N = sums.AbsoluteNorm.l1()
L2N = sums.AbsoluteNorm.l2()
LINF = sums.AbsoluteNorm.linf()
HEX = sums.AbsoluteNorm.polygon([(1, 0), (F(3, 4), F(3, 4)), (0, 1)])
OCTAGON = sums.AbsoluteNorm.polygon(
    [(1, 0), (F(9, 10), F(3, 5)), (F(3, 5), F(9, 10)), (0, 1)])
SUITE = [L1N, L2N, sums.AbsoluteNorm.lp(1.5), sums.AbsoluteNorm.lp(3), LINF,
         HEX, OCTAGON]

ONE = ck.TailSequence((), 1)
ZERO = ck.TailSequence((), 0)
T = muntz.MuntzPolynomial.monomial(muntz.ExponentLadder.squares(), 1)


def _seqs(members):
    """Members of a sum of sequence models as ((prefix, limit), (prefix, limit))."""
    return [((m.x.prefix, m.x.limit), (m.y.prefix, m.y.limit)) for m in members]


def _flips(ks, head):
    """The sequences head (k times), then -head, then head forever."""
    return [((head,) * k + (-head,), head) for k in ks]


# ---------------------------------------------------------------------------
# norms


def test_norm_values():
    assert L1N(3, -4) == 7
    assert LINF(3, -4) == 4
    assert abs(L2N(3, 4) - 5) < 1e-12
    assert HEX(1, 1) == F(4, 3)
    assert HEX(1, 0) == 1 and HEX(0, 1) == 1


def test_polygon_must_be_normalized():
    with pytest.raises(core.DeltaLabError):
        sums.AbsoluteNorm.polygon([(2, 0), (0, 1)])


def test_norm_parse_round_trip():
    for spec in ("l1", "l2", "linf", "lp:1.5"):
        n = sums.AbsoluteNorm.parse(spec)
        assert n.name() == spec or spec.startswith(n.kind)
    n = sums.AbsoluteNorm.parse("poly:[(1,0),(0.75,0.75),(0,1)]")
    assert n(1, 1) == F(4, 3)
    # a point's JSON names its norm by a label that parses back to the same p
    for spec in ("lp:1.000001", "lp:2.5", "lp:3"):
        z = sums.SumPoint(ONE, ZERO, sums.AbsoluteNorm.parse(spec))
        assert z.norm_rule.name() == spec
        assert sums.decode_point(sums.encode_point(z)).norm_rule == z.norm_rule


def test_dual_norms():
    assert L1N.dual(3, -4) == 4
    assert LINF.dual(3, -4) == 7
    assert abs(L2N.dual(3, 4) - 5) < 1e-12
    # polygon dual against a dense direction sweep
    for c, d in ((1, 0), (F(1, 2), F(1, 3)), (2, 5)):
        grid = 0.0
        for i in range(2001):
            th = 2 * math.pi * i / 2000
            ux, uy = math.cos(th), math.sin(th)
            nrm = float(HEX(ux, uy))
            grid = max(grid, float(c) * ux / nrm + float(d) * uy / nrm)
        assert abs(float(HEX.dual(c, d)) - grid) < 1e-4


@given(st.fractions(F(-2), F(2)), st.fractions(F(-2), F(2)))
@settings(max_examples=50, deadline=None)
def test_sum_norm_absolute_and_normalized(a, b):
    for n in (L1N, LINF, HEX):
        assert n(a, b) == n(abs(a), abs(b)) == n(-a, b)
    z = sums.SumPoint(a * ONE, b * ONE, L1N)
    assert z.norm() == abs(a) + abs(b)


@given(st.lists(st.tuples(st.fractions(F(0), F(3, 2), max_denominator=20),
                          st.fractions(F(0), F(3, 2), max_denominator=20)), max_size=5),
       st.fractions(F(0), F(3), max_denominator=20), st.fractions(F(0), F(3), max_denominator=20),
       st.fractions(F(0), F(1), max_denominator=20))
@settings(max_examples=100, deadline=None)
def test_polygon_gauge_is_monotone(verts, a, b, t):
    # every polygon the constructor accepts is absolute, hence monotone in
    # each coordinate: shrinking one coordinate never raises the gauge
    try:
        norm = sums.AbsoluteNorm.polygon([(1, 0), (0, 1)] + verts)
    except core.DeltaLabError:
        return
    assert norm(t * a, b) <= norm(a, b) and norm(a, t * b) <= norm(a, b)


# ---------------------------------------------------------------------------
# simultaneous averaging


def test_dirichlet_examples():
    assert sums.dirichlet_average([F(1, 2), F(1, 2)], F(1, 10)) == (2, (1, 1))
    assert sums.dirichlet_average([F(1, 3), F(2, 3)], F(1, 100)) == (3, (1, 2))
    assert sums.dirichlet_average([F(2, 5), F(3, 5)], F(1, 20)) == (5, (2, 3))


def _reference_counts(w, n):
    """Largest-remainder counts of n w in plain Fractions: round half up,
    then move the deficit or surplus, at most four times around: a deficit
    to the largest n w_i - k_i first, a surplus from the largest k_i - n w_i
    first, ties to the lower index."""
    base = [math.floor(n * wi + F(1, 2)) for wi in w]
    diff = n - sum(base)
    sign = 1 if diff > 0 else -1
    order = sorted(range(len(w)), key=lambda i: (sign * (base[i] - n * w[i]), i))
    j = 0
    while diff != 0 and j < 4 * len(w):
        i = order[j % len(w)]
        if diff > 0:
            base[i] += 1
            diff -= 1
        elif base[i] > 0:
            base[i] -= 1
            diff += 1
        j += 1
    return base


def _reference_scan(vectors, eps, n_max=100_000):
    """The first n whose counts sum to n with sum |w_i - k_i/n| < eps for
    every weight vector, with its counts."""
    for n in range(1, n_max + 1):
        counts = [_reference_counts(w, n) for w in vectors]
        if all(sum(k) == n and sum(abs(wi - F(ki, n)) for wi, ki in zip(w, k)) < eps
               for w, k in zip(vectors, counts)):
            return n, [tuple(k) for k in counts]
    raise AssertionError("reference scan exhausted")


def test_integer_scan_matches_fraction_reference():
    rng = random.Random(2024)
    for _ in range(150):
        vectors = []
        for _ in range(rng.randint(1, 3)):
            # small ranges repeat values, which exercises ties and equal remainders
            raw = [rng.randint(1, rng.choice((2, 5, 30))) for _ in range(rng.randint(1, 8))]
            vectors.append([F(r, sum(raw)) for r in raw])
        eps = rng.choice((F(1), F(1, 2), F(1, 7), F(1, 30), F(1, 120)))
        assert sums._dirichlet_scan(vectors, eps) == _reference_scan(vectors, eps)
    # n = 2 rounds half up to (0, 1, 1, 1); the surplus comes from a rounded-up count
    w = [F(1, 10), F(3, 10), F(3, 10), F(3, 10)]
    assert _reference_scan([w], 1) == (2, [(0, 0, 1, 1)])
    assert sums.dirichlet_average(w, 1) == (2, (0, 0, 1, 1))


def test_surplus_comes_from_the_counts_rounded_up():
    # n = 3 rounds (1.3, 0.5, 0.5, 0.7) half up to (1, 1, 1, 1).  The surplus
    # unit comes from index 1, the first of the largest k_i - n w_i, which
    # leaves an l1 error of 8/15 < 3/5; taking it from the rounded-down
    # index 0 left 13/15 and pushed the scan on to n = 4.
    w = [F(13, 30), F(1, 6), F(1, 6), F(7, 30)]
    assert sums.dirichlet_average(w, F(3, 5)) == (3, (1, 0, 1, 1))
    assert _reference_scan([w], F(3, 5)) == (3, [(1, 0, 1, 1)])


@given(st.lists(st.integers(1, 20), min_size=1, max_size=6),
       st.sampled_from([F(1, 10), F(1, 100)]))
@settings(max_examples=60, deadline=None)
def test_dirichlet_contract(raw, eps):
    total = sum(raw)
    weights = [F(r, total) for r in raw]
    n, counts = sums.dirichlet_average(weights, eps)
    assert sum(counts) == n and all(k >= 0 for k in counts)
    err = sum(abs(w - F(k, n)) for w, k in zip(weights, counts))
    assert err < eps
    # minimality under the scan order, by re-scan
    for smaller in range(1, n):
        cts = _reference_counts(weights, smaller)
        if sum(cts) != smaller or any(k < 0 for k in cts):
            continue
        e2 = sum(abs(w - F(k, smaller)) for w, k in zip(weights, cts))
        assert e2 >= eps


def test_dirichlet_pair_common_count():
    n, cx, cy = sums.dirichlet_average_pair(
        [F(1, 3), F(2, 3)], [F(1, 4), F(1, 4), F(1, 2)], F(1, 50))
    assert sum(cx) == n == sum(cy)


def test_dirichlet_scans_need_positive_eps():
    w = [F(1, 3), F(2, 3)]
    with pytest.raises(core.DeltaLabError, match="eps must be positive"):
        sums.dirichlet_average_pair(w, w, 0)
    with pytest.raises(core.DeltaLabError, match="eps must be positive"):
        sums.dirichlet_average(w, F(-1, 20))
    with pytest.raises(core.DeltaLabError, match="weights must sum to 1"):
        sums.dirichlet_average([F(1, 3), F(1, 3)], F(1, 20))
    with pytest.raises(core.DeltaLabError, match="weights must be positive"):
        sums.dirichlet_average_pair(w, [F(3, 2), F(-1, 2)], F(1, 20))
    # the construction checks delta itself before any component family
    x = l1.StepFunction(l1.MeasureModel((("c0", 1, "NONATOMIC"),)), (1,))
    with pytest.raises(core.DeltaLabError, match="needs delta > 0"):
        sums.sum_daugavet_construct(x, x, L1N, F(1, 2), F(1, 2),
                                    [sums.SumPoint(x, 0 * x, L1N)], eps=F(1, 4), delta=0)


def test_far_families_need_positive_gamma():
    # the construction checks eps and delta before a family divides by
    # gamma = delta/4 (c components) or by eps (l1 components)
    x = l1.StepFunction(l1.MeasureModel((("c0", 1, "NONATOMIC"),)), (1,))
    for u, v in ((ONE, ZERO), (x, 0 * x)):
        for eps, delta, name in ((F(1, 5), 0, "delta"), (F(1, 5), F(-1, 20), "delta"),
                                 (0, F(1, 20), "eps"), (-1, F(1, 20), "eps")):
            with pytest.raises(core.DeltaLabError, match=f"needs {name} > 0"):
                sums.sum_daugavet_construct(u, u, L1N, F(1, 2), F(1, 2),
                                            [sums.SumPoint(u, v, L1N)], eps=eps, delta=delta)
    for eps in (0, -1):
        for family in (lambda e: l1.delta_family(x, x, e), lambda e: l1.far_vertices(x, e),
                       lambda e: l1.sample_far_members(x, e, 10, random.Random(0))):
            with pytest.raises(core.DeltaLabError, match="far families need eps > 0"):
                family(eps)
    for gamma in (0, -1):
        with pytest.raises(core.DeltaLabError, match="far families need gamma > 0"):
            ck.delta_family(ONE, ZERO, F(1, 5), gamma)
        with pytest.raises(core.DeltaLabError, match="far families need gamma > 0"):
            muntz.delta_family(T, T, 0.5, gamma)


# ---------------------------------------------------------------------------
# octahedrality and the separation property


def test_octahedral_exact_witnesses():
    res1 = sums.is_positively_octahedral(L1N)
    assert res1.verdict and res1.exact and res1.witness == (1, 0)
    assert L1N(1 + 1, 0) == 2 and L1N(1, 0 + 1) == 2

    resi = sums.is_positively_octahedral(LINF)
    assert resi.verdict and resi.witness == (1, 1)
    assert LINF(2, 1) == 2 and LINF(1, 2) == 2

    assert sums.is_positively_octahedral(HEX).verdict


def test_octahedral_l2_fails_with_gap():
    res = sums.is_positively_octahedral(L2N)
    assert not res.verdict and res.exact
    assert res.witness == (1 / math.sqrt(2), 1 / math.sqrt(2))
    assert res.value == 1.8477590650225735
    assert abs(res.value - 2 * math.cos(math.pi / 8)) < 1e-15
    # strictly convex lp never is, however close its value comes to 2
    for p in (1.000001, 1e6):
        res = sums.is_positively_octahedral(sums.AbsoluteNorm.lp(p))
        assert (res.verdict, res.exact) == (False, True) and res.value > 2 - 1e-6
    # a polygon without witness reports the grid maximum, labelled exact
    res = sums.is_positively_octahedral(OCTAGON)
    assert (res.verdict, res.witness, res.value, res.exact) == (False, None, 1.875, True)


def test_alpha_verdicts():
    assert sums.has_property_alpha(L2N).verdict is True
    assert sums.has_property_alpha(sums.AbsoluteNorm.lp(1.5)).verdict is True
    assert sums.has_property_alpha(L1N).verdict is False
    assert sums.has_property_alpha(LINF).verdict is False
    assert sums.has_property_alpha(HEX).verdict is False
    assert sums.has_property_alpha(OCTAGON).verdict is None  # honest UNDECIDED
    for p in (1.000001, 1e6, 100):
        res = sums.has_property_alpha(sums.AbsoluteNorm.lp(p), grid_n=256)
        assert (res.verdict, res.note) == (True, "strictly convex (lp, 1 < p < inf)")


def test_alpha_and_octahedral_mutually_exclusive():
    for norm in SUITE:
        octa = sums.is_positively_octahedral(norm).verdict
        alpha = sums.has_property_alpha(norm).verdict
        assert not (octa and alpha is True)


def test_alpha_record_contents():
    res = sums.has_property_alpha(L2N, grid_n=2048)
    a = 1 / math.sqrt(2)
    rec = res.record(a, a)
    assert rec.eps > 0
    assert rec.sup_bound < 1
    assert rec.route in ("a", "b")
    assert sums.has_property_alpha(L2N).sample_records == (
        sums.AlphaRecord(c=1.0, d=0.0, eps=0.06007841175150852, radius=0.5,
                         route="b", sup_bound=0.5),
        sums.AlphaRecord(c=0.0, d=1.0, eps=0.06007841175150852, radius=0.5,
                         route="a", sup_bound=0.5),
        sums.AlphaRecord(c=0.7071067811865475, d=0.7071067811865475,
                         eps=0.0019394548807616374, radius=0.14644660940672627,
                         route="a", sup_bound=0.8535533905932737))


def test_alpha_record_stops_when_no_finer_grid_can_succeed(monkeypatch):
    # lp:1e6 misses 2 by less than the last grid's pads at (1, 0): one scan
    scans = []
    arc = sums._unit_arc
    monkeypatch.setattr(sums, "_unit_arc", lambda norm, n: scans.append(n) or arc(norm, n))
    with pytest.raises(sums.InsufficientCertificateError, match="margin vanished"):
        sums._alpha_record(sums.AbsoluteNorm.lp(1e6), 1.0, 0.0, 256)
    assert scans == [256]


def test_alpha_record_unavailable_when_undecided():
    res = sums.has_property_alpha(OCTAGON)
    with pytest.raises(sums.InsufficientCertificateError):
        res.record(1, 0)


def test_sum_distance_matches_norm_of_difference():
    model = l1.MeasureModel((("a", F(1, 3), "ATOM"), ("b", F(2, 3), "NONATOMIC")))
    step = [l1.StepFunction(model, (F(3, 2), F(-3, 4))), l1.StepFunction(model, (0, F(1, 2)))]
    seqs = [ck.TailSequence((F(1, 2), -1), F(1, 4)), ck.TailSequence((F(-1, 3),), 1)]
    polys = [T, muntz.MuntzPolynomial(T.ladder, ((1, F(1, 2)), (2, F(-1, 3))))]
    # l1 and muntz points have no fused distance: SumPoint falls back to the norm
    assert not hasattr(step[0], "distance") and not hasattr(T, "distance")
    for xs, ys in ((seqs, seqs), (step, seqs), (polys, seqs), (step, polys)):
        for norm in (L1N, LINF, HEX, L2N):
            z, w = sums.SumPoint(xs[0], ys[0], norm), sums.SumPoint(xs[1], ys[1], norm)
            d = z - w
            assert z.distance(w) == norm(d.x.norm(), d.y.norm())
    with pytest.raises(core.DeltaLabError, match="share the norm rule"):
        sums.SumPoint(ONE, ONE, L1N).distance(sums.SumPoint(ONE, ONE, LINF))


def test_far_average_checks_are_exact():
    # members at distance exactly 2 from the anchor (1/2, 1/2) * ONE; their
    # average misses the anchor by exactly 1 in c (+)_1 c
    h, eps, tiny = F(1, 2), F(1, 5), F(1, 10**12)
    anchor = sums.SumPoint(h * ONE, h * ONE, L1N)
    a, b = ck.TailSequence((-h,), h), ck.TailSequence((h, -h), h)
    members = [sums.SumPoint(a, a, L1N), sums.SumPoint(b, b, L1N)]
    assert sums._verify_far_average(anchor, members, eps, anchor, 1, "test") == (2.0, 1.0)
    # repeated members are counted by multiplicity: the average is (2a + b)/3
    twice = [members[0]] + members
    combo = core.convex_combination(twice, [F(1, 3)] * 3)
    err = anchor.distance(combo)
    assert sums._verify_far_average(anchor, twice, eps, anchor, err, "test") == (2.0, float(err))
    with pytest.raises(core.VerificationError, match="average misses"):
        sums._verify_far_average(anchor, twice, eps, anchor, err - tiny, "test")
    # a member moved 1e-12 inside 2 - eps, and an average 1e-12 past the
    # bound, fail: both sides are exact, so no float slack forgives them
    moved = ck.TailSequence((-h + eps + tiny,), h)
    assert anchor.distance(sums.SumPoint(moved, a, L1N)) == 2 - eps - tiny
    with pytest.raises(core.VerificationError, match="member at distance"):
        sums._verify_far_average(anchor, members + [sums.SumPoint(moved, a, L1N)],
                                 eps, anchor, 2, "test")
    with pytest.raises(core.VerificationError, match="average misses"):
        sums._verify_far_average(anchor, members, eps, anchor, 1 - tiny, "test")


# ---------------------------------------------------------------------------
# constructions in the sum


def test_construct_on_l1_sum():
    targets = [sums.SumPoint(F(1, 2) * ONE, F(1, 2) * ONE, L1N),
               sums.SumPoint(ONE, ZERO, L1N),
               sums.SumPoint(ZERO, ZERO, L1N)]
    results = sums.sum_daugavet_construct(ONE, ONE, L1N, F(1, 2), F(1, 2),
                                          targets, eps=F(1, 5), delta=F(1, 10))
    for res in results:
        assert res.min_distance >= 2 - F(1, 5) - 1e-9
        assert res.avg_error <= F(1, 10) + 1e-9
    half, zero = _flips(range(80), F(1, 2)), ((), 0)
    assert [res.count for res in results] == [80, 80, 159]
    assert [res.avg_error for res in results] == [0.025, 0.025, 1 / 53]
    assert _seqs(results[0].members) == list(zip(half, half))
    assert _seqs(results[1].members) == [(s, zero) for s in _flips(range(80), 1)]
    assert _seqs(results[2].members) == [
        (s, zero) for s in _flips(range(1, 80), 1) + [((-1,) * k, -1) for k in range(1, 81)]]


def test_construct_rejects_bad_witness():
    with pytest.raises(core.DeltaLabError):
        sums.sum_daugavet_construct(ONE, ONE, L2N, 0.5, 0.5,
                                    [sums.SumPoint(ZERO, ZERO, L2N)],
                                    eps=F(1, 5), delta=F(1, 10))


def test_construct_rejects_non_daugavet_component():
    bad = ck.TailSequence((1,), 0)
    with pytest.raises(core.DeltaLabError):
        sums.sum_daugavet_construct(bad, ONE, L1N, F(1, 2), F(1, 2),
                                    [sums.SumPoint(ZERO, ZERO, L1N)],
                                    eps=F(1, 5), delta=F(1, 10))


def test_construct_with_l1_component():
    m = l1.MeasureModel((("c0", 1, "NONATOMIC"),))
    x = l1.StepFunction(m, (1,))
    targets = [sums.SumPoint(F(1, 2) * x, F(1, 2) * ONE, L1N)]
    results = sums.sum_daugavet_construct(x, ONE, L1N, F(1, 2), F(1, 2),
                                          targets, eps=F(1, 4), delta=F(1, 8))
    assert results[0].min_distance >= 2 - F(1, 4) - 1e-9


def test_lift_example_dichotomy():
    a = 1 / math.sqrt(2)
    lift = sums.sum_delta_lift(ONE, ONE, L2N, a, a, eps=0.5, gamma=0.2)
    assert lift.min_distance >= 2 - 0.5 - 1e-9
    assert lift.avg_error <= 0.2 + 1e-9

    rec = sums.has_property_alpha(L2N, grid_n=2048).record(a, a)
    z = sums.SumPoint(sums.as_fraction(a) * ONE, sums.as_fraction(a) * ONE, L2N)
    ref = sums.sum_refute_daugavet(z, rec)
    assert ref.delta > 0
    rep = sums.refutation_harness(z, ref, n_members=60, n_combos=60, seed=5)
    assert rep.lp_lower_bound >= ref.delta - 1e-6
    assert rep.min_combo_distance >= ref.delta - 1e-6


def test_lift_axis_edge():
    lift = sums.sum_delta_lift(ONE, ONE, L2N, 1, 0, eps=0.5, gamma=0.2)
    assert lift.min_distance >= 2 - 0.5 - 1e-9
    assert (lift.count, lift.avg_error) == (19, 2 / 19)
    assert _seqs(lift.members) == [(s, ((), 0)) for s in _flips(range(1, 20), 1)]


def test_lift_rejects_gamma_at_eps():
    with pytest.raises(core.DeltaLabError):
        sums.sum_delta_lift(ONE, ONE, L2N, 1, 0, eps=0.2, gamma=0.2)


def test_refutation_scope_error():
    a = 1 / math.sqrt(2)
    rec = sums.has_property_alpha(L2N, grid_n=2048).record(a, a)
    z = sums.SumPoint(sums.as_fraction(a) * ONE, sums.as_fraction(a) * ONE, L2N)
    ref = sums.sum_refute_daugavet(z, rec)
    with pytest.raises(sums.InsufficientCertificateError):
        sums.refutation_harness(z, ref, eps=rec.eps * 4)


def test_hull_lower_bound_on_weighted_l1_components():
    # a single member's hull is that member, so the bound is the sum norm of
    # the two component distances: ||p.x - q.x|| = 1 and ||p.y - q.y|| = 2
    m = l1.MeasureModel((("a", F(1, 2), "NONATOMIC"), ("b", F(1, 2), "NONATOMIC")))

    def sf(*values):
        return l1.StepFunction(m, tuple(F(v) for v in values))

    for norm in (L1N, LINF, L2N):
        p = sums.SumPoint(sf(1, 1), sf(0, 2), norm)
        q = sums.SumPoint(sf(-1, 1), sf(0, -2), norm)
        bound = sums.hull_lower_bound_scalarized(p, [q], norm)
        if norm is L2N:
            # the 33 directions lie pi/64 apart, so one is within pi/128 of
            # the maximizing direction (1, 2)/sqrt5
            assert math.sqrt(5) * math.cos(math.pi / 128) <= bound <= math.sqrt(5)
        else:
            assert abs(bound - float(norm(1, 2))) <= 1e-12
    # a mixed l1/c pair whose hull holds the target
    members = [sums.SumPoint(sf(1, 1), ONE, L2N), sums.SumPoint(sf(-1, -1), -ONE, L2N)]
    target = sums.SumPoint(sf(0, 0), ZERO, L2N)
    assert sums.hull_lower_bound_scalarized(target, members, L2N) == 0


def test_refutation_axis_anchor_routes_to_other_side():
    rec = sums.has_property_alpha(L2N, grid_n=2048).record(1, 0)
    z = sums.SumPoint(ONE, ZERO, L2N)
    ref = sums.sum_refute_daugavet(z, rec, direction=ONE)
    assert ref.side == "y"  # W hugs (1,0): the second coordinate is bounded
    assert ref.direction.x.norm() == 0


def test_example_dichotomy_never_constructs_on_lp():
    # the construction path demands an octahedral witness, which strictly
    # convex norms cannot provide: the two routes are mutually exclusive
    res = sums.is_positively_octahedral(L2N)
    assert not res.verdict
    with pytest.raises(core.DeltaLabError):
        sums.sum_daugavet_construct(ONE, ONE, L2N, res.witness[0], res.witness[1],
                                    [sums.SumPoint(ZERO, ZERO, L2N)],
                                    eps=F(1, 5), delta=F(1, 10))
