import random
from fractions import Fraction as F

import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from deltalab import ck, core, crosscheck, l1, muntz


def atoms(*masses):
    return l1.MeasureModel(tuple((f"c{i}", m, "ATOM") for i, m in enumerate(masses)))


def sf(model, *values):
    return l1.StepFunction(model, tuple(values))


M1 = atoms(1)
M2 = atoms(1, 1)
M3 = atoms(1, 1, 1)
T = muntz.MuntzPolynomial.monomial(muntz.ExponentLadder.squares(), 1)


# ---------------------------------------------------------------------------
# hull_distance


def test_hull_midpoint_is_inside():
    assert core.hull_distance(sf(M2, 0, 0), [sf(M2, 1, 0), sf(M2, -1, 0)]) == 0


def brute_hull_distance(target, points, steps=2000):
    # 1-parameter brute force for two-point hulls
    best = None
    for i in range(steps + 1):
        t = F(i, steps)
        combo = (1 - t) * points[0] + t * points[1]
        d = (target - combo).norm()
        best = d if best is None else min(best, d)
    return best


def test_hull_two_point_oracle():
    target, pts = sf(M2, 1, 0), [sf(M2, 0, 1), sf(M2, 0, -1)]
    oracle = brute_hull_distance(target, pts)
    assert oracle == 1  # min over the grid of 1 + |1 - 2t|... attained at t = 1/2
    assert core.hull_distance(target, pts) == 1


def test_hull_one_dimensional():
    assert core.hull_distance(sf(M1, 1), [sf(M1, -1), sf(M1, 0)]) == 1


def test_hull_rejects_mixed_and_empty():
    with pytest.raises(core.DeltaLabError):
        core.hull_distance(sf(M1, 1), [])
    with pytest.raises(core.MixedSpaceError):
        core.hull_distance(sf(M1, 1), [ck.TailSequence((1,), 0)])


@given(st.lists(st.integers(-3, 3), min_size=2, max_size=4),
       st.lists(st.integers(-3, 3), min_size=2, max_size=4),
       st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_hull_zero_when_target_is_member(vals_a, vals_b, pick):
    n = min(len(vals_a), len(vals_b))
    model = atoms(*([1] * n))
    pts = [sf(model, *vals_a[:n]), sf(model, *vals_b[:n])]
    target = pts[pick % 2]
    assert core.hull_distance(target, pts) == 0


@given(st.lists(st.integers(-2, 2), min_size=2, max_size=3), st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_hull_monotone_under_growth(vals, seed):
    rng = random.Random(seed)
    n = len(vals)
    model = atoms(*([1] * n))
    target = sf(model, *vals)
    pool = [sf(model, *[rng.randint(-2, 2) for _ in range(n)]) for _ in range(5)]
    small = pool[:2]
    d_small = core.hull_distance(target, small)
    d_big = core.hull_distance(target, pool)
    assert d_big <= d_small


def test_hull_ck_points():
    x = ck.TailSequence((1,), 0)
    pts = [ck.TailSequence((1,), 1), ck.TailSequence((1,), -1)]
    # midpoint has limit 0: distance 0
    assert core.hull_distance(x, pts) == 0


def hull_groups(seed):
    """Seeded L1 and ck hull groups: (points, targets) on a shared model
    each, with one to three targets."""
    rng = random.Random(seed)
    groups = []
    for _ in range(6):
        n = rng.randint(2, 4)
        model = l1.MeasureModel(tuple((f"c{i}", F(rng.randint(1, 4), 4), rng.choice(
            ("ATOM", "NONATOMIC"))) for i in range(n)))
        vals = lambda: [F(rng.randint(-4, 4), 4) for _ in range(n)]
        groups.append(([sf(model, *vals()) for _ in range(rng.randint(1, 5))],
                       [sf(model, *vals()) for _ in range(rng.randint(1, 3))]))
    for _ in range(6):
        seq = lambda: ck.TailSequence(tuple(F(rng.randint(-4, 4), 4) for _ in range(
            rng.randint(0, 3))), F(rng.randint(-4, 4), 4))
        groups.append(([seq() for _ in range(rng.randint(1, 5))],
                       [seq() for _ in range(rng.randint(1, 3))]))
    return groups


def exact_distances(groups):
    """Every target's exact distance, flat and in order."""
    return [core.hull_distance(t, points) for points, targets in groups for t in targets]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hull_distances_match_exact_solves(seed):
    groups = hull_groups(seed)
    dists = core.hull_distances(groups)
    assert dists == pytest.approx(exact_distances(groups), abs=1e-9)


@pytest.fixture
def float_solves(monkeypatch):
    """One entry per `lp.simplex_float` call."""
    calls = []
    solve = core.lp.simplex_float
    monkeypatch.setattr(core.lp, "simplex_float", lambda *a: calls.append(1) or solve(*a))
    return calls


def test_hull_distances_keep_order_across_stacks(monkeypatch, float_solves):
    groups = hull_groups(3)
    one_stack = core.hull_distances(groups)
    monkeypatch.setattr(core, "_STACK_NNZ", 40)
    float_solves.clear()
    many_stacks = core.hull_distances(groups)
    assert 1 < len(float_solves) < sum(len(targets) for _, targets in groups)
    assert many_stacks == pytest.approx(one_stack, abs=1e-12)
    assert core.hull_distances([]) == []


def test_hull_distances_need_polyhedral_points():
    with pytest.raises(core.NotPolyhedralError):
        core.hull_distances([([T], [T])])


def test_l1_crosscheck_solves_once_per_crosscheck(float_solves):
    model = l1.MeasureModel((("a", F(1, 2), "NONATOMIC"), ("b", F(1, 4), "ATOM"),
                             ("c", F(1, 4), "NONATOMIC")))
    grid = [F(1, 10), F(1, 2), F(1)]
    rep = crosscheck.crosscheck_characterizations(sf(model, 1, 1, -1), grid, seed=7)
    assert all(r.n_candidates for r in rep.rows)
    assert len(float_solves) == 1


def test_hull_distances_reuse_a_shared_point_list(monkeypatch):
    # the targets of a group share one float LP; a group per target gives
    # the same distances
    builds = []
    floats = core.hull_norm_floats
    monkeypatch.setattr(core, "hull_norm_floats", lambda k, e: builds.append(k) or floats(k, e))
    for points, targets in hull_groups(4):
        targets = [*targets, *points, -targets[0], F(1, 2) * targets[0]]
        builds.clear()
        grouped = core.hull_distances([(points, targets)])
        assert builds == [len(points)]
        alone = core.hull_distances([(list(points), [t]) for t in targets])
        assert grouped == pytest.approx(alone, abs=1e-12)
    # a group embeds at its longest prefix, here a ck target's
    points = [ck.TailSequence((1,), 1), ck.TailSequence((1,), -1)]
    targets = [ck.TailSequence((1,), 0), ck.TailSequence((1, 1, -1), 0),
               ck.TailSequence((), F(1, 2))]
    grouped = core.hull_distances([(points, targets)])
    assert grouped == pytest.approx(exact_distances([(points, targets)]), abs=1e-9)


def test_hull_distances_embed_a_shared_l1_list_once(monkeypatch):
    # one embedding of targets and points per group
    sizes = []
    embed = l1.StepFunction.hull_embedding
    monkeypatch.setattr(l1.StepFunction, "hull_embedding",
                        staticmethod(lambda pts: sizes.append(len(pts)) or embed(pts)))
    model = l1.MeasureModel(tuple((f"c{i}", F(i + 1, 7), "NONATOMIC") for i in range(6)))
    points = model.ball_vertices()
    targets = [sf(model, *(F((i * j) % 5 - 2, 9) for j in range(6))) for i in range(8)]
    grouped = core.hull_distances([(points, targets)])
    assert sizes == [len(targets) + len(points)]
    sizes.clear()
    alone = core.hull_distances([(points, [t]) for t in targets])
    assert sizes == [1 + len(points)] * len(targets)
    assert grouped == alone


def test_hull_distances_check_every_target_of_a_shared_list():
    points = [sf(M2, 1, 0), sf(M2, 0, -1)]
    other = atoms(1, 2)
    with pytest.raises(core.DeltaLabError, match="share a model"):
        core.hull_distances([(points, [sf(M2, 0, 0), sf(other, 0, 0)])])
    with pytest.raises(core.MixedSpaceError):
        core.hull_distances([(points, [sf(M2, 0, 0), ck.TailSequence((1,), 0)])])


def exact_lp_in_floats(k, embeddings):
    """`hull_norm_rows` converted entry by entry: (CSC matrix, rhs, costs)."""
    row, col, val, rhs, costs = core.hull_norm_rows(k, embeddings)
    a = scipy.sparse.csc_array(([float(v) for v in val], (row, col)),
                               shape=(len(rhs), len(costs[0])))
    return a, [float(v) for v in rhs], [[float(v) for v in c] for c in costs]


def embedding(target, points):
    return type(target).hull_embedding([target, *points])


def seq(prefix, limit=None, variant=ck.Variant.C):
    return ck.TailSequence(tuple(prefix), limit, variant)


def muntz_master_values():
    # the values the Muntz master LP embeds: each point on the u-nodes
    ladder = muntz.ExponentLadder.squares()
    points = [muntz.MuntzPolynomial(ladder, ((1, F(1, 2)), (2, F(-1, 2)))),
              muntz.MuntzPolynomial.monomial(ladder, 3, -1)]
    nodes = [F(j, 8) for j in range(9)] + [F(1, 3)]
    return [[q.eval_u(u) for u in nodes] for q in (T, *points)]


UNEQUAL = l1.MeasureModel((("a", F(1, 2), "ATOM"), ("b", F(1, 3), "NONATOMIC"),
                           ("c", F(1, 6), "ATOM")))
HULL_FORMS = {
    "l1 w1, unequal masses, zeros": (3, [embedding(
        sf(UNEQUAL, 1, 0, F(-3, 2)),
        [sf(UNEQUAL, 0, -1, -2), sf(UNEQUAL, F(1, 3), 0, 0), sf(UNEQUAL, -2, F(2, 7), -1)])]),
    "ck C, longer target": (3, [embedding(
        seq([1, F(-1, 2), -2, F(1, 3)], F(1, 2)),
        [seq([-1], 1), seq([F(2, 3), -2], -1), seq([], F(-1, 3))])]),
    "ck C0": (2, [embedding(seq([F(1, 2), -1], variant=ck.Variant.C0),
                            [seq([-2, 1, F(1, 5)], variant=ck.Variant.C0),
                             seq([], variant=ck.Variant.C0)])]),
    "ck LINF_N": (2, [embedding(seq([1, 0, -1], variant=ck.Variant.LINF_N),
                                [seq([-2, F(1, 3), 0], variant=ck.Variant.LINF_N),
                                 seq([0, -1, 1], variant=ck.Variant.LINF_N)])]),
    "muntz master LP": (2, [("winf", None, muntz_master_values())]),
    "two embeddings of a sum": (2, [
        embedding(sf(UNEQUAL, 1, -1, 0), [sf(UNEQUAL, 0, 1, -2), sf(UNEQUAL, -1, 0, 1)]),
        embedding(seq([F(1, 2)], -1), [seq([-2, 1], 0), seq([1], F(1, 4))])]),
    "all zeros, k = 1": (1, [embedding(sf(M3, 0, 0, 0), [sf(M3, 0, 0, 0)])]),
    "ck all zeros, k = 1": (1, [embedding(seq([0, 0], 0), [seq([], 0)])]),
}


@pytest.mark.parametrize("name", HULL_FORMS)
def test_hull_norm_floats_match_the_exact_rows(name):
    # the float builder writes hull_norm_rows' LP, entry for entry
    k, embeddings = HULL_FORMS[name]
    a, rhs, costs = exact_lp_in_floats(k, embeddings)
    a_float, rhs_float, costs_float = core.hull_norm_lp(k, embeddings)
    assert a_float.shape == a.shape
    for part in ("indptr", "indices", "data"):
        assert getattr(a_float, part).tolist() == getattr(a, part).tolist()
    assert rhs_float.tolist() == rhs
    assert costs_float.tolist() == costs


# ---------------------------------------------------------------------------
# ||Id - T|| on polyhedral models


def x_three():
    return sf(M3, F(1, 2), F(3, 10), F(1, 5))


def test_id_minus_rank1_sign_functional():
    P = core.Rank1Operator(l1.StepFunctional(M3, (1, 1, 1)), x_three())
    assert P.is_projection
    assert core.id_minus_rank1_norm(P) == F(8, 5)  # 2 - 2 * min|x_i|


def test_id_minus_rank1_coordinate_projection():
    P = core.Rank1Operator(l1.StepFunctional(M3, (2, 0, 0)), x_three())
    assert P.is_projection
    norm = core.id_minus_rank1_norm(P)
    assert norm == 1
    assert norm <= 1 + abs(2 - F(2, 1))  # 1 + |2 - 1/|x_1||


def test_id_minus_zero_operator_is_identity():
    P = core.Rank1Operator(l1.StepFunctional(M3, (0, 0, 0)), x_three())
    assert core.id_minus_rank1_norm(P) == 1


def test_id_minus_rank1_muntz_rejected():
    from deltalab import muntz
    lad = muntz.ExponentLadder.squares()
    t = muntz.MuntzPolynomial(lad, ((1, 1),))
    phi = muntz.PointEvaluationFunctional(((0.0, 1),))
    with pytest.raises(core.NotPolyhedralError):
        core.id_minus_rank1_norm(core.Rank1Operator(phi, t))
    # sampled lower bound stays available; witness members drive it near 2
    wit = muntz.daugavet_witness_muntz(t, t, eps=0.7, delta=0.2)
    lo = core.id_minus_rank1_lower_bound(core.Rank1Operator(phi, t), wit.members)
    assert lo >= 2 / 1.2 - 1e-6


@given(st.lists(st.fractions(F(-1), F(1)), min_size=2, max_size=4),
       st.lists(st.fractions(F(-1), F(1)), min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_rank1_projection_norm_sandwich(xvals, wvals):
    n = min(len(xvals), len(wvals))
    model = atoms(*([1] * n))
    x = sf(model, *xvals[:n])
    if x.norm() == 0:
        return
    x = (1 / x.norm()) * x
    phi = l1.StepFunctional(model, tuple(wvals[:n]))
    if phi(x) == 0:
        return
    phi = l1.StepFunctional(model, tuple(w / phi(x) for w in phi.coeffs))
    P = core.Rank1Operator(phi, x)
    assert P.is_projection
    norm = core.id_minus_rank1_norm(P)
    assert 1 <= norm <= 1 + phi.dual_norm() * x.norm()


def test_rank1_apply_idempotent():
    x = x_three()
    phi = l1.StepFunctional(M3, (1, 1, 1))
    P = core.Rank1Operator(phi, x)
    y = sf(M3, F(1, 3), F(-1, 7), F(2, 5))
    once = P.apply(y)
    twice = P.apply(once)
    assert float((twice - once).norm()) <= 1e-12


def brute_extreme_norm_ck(direction, functional):
    """Independent oracle: max ||(Id-T)e|| over all +-1 cube extreme points."""
    import itertools
    n = max(len(direction.prefix), len(functional.weights)) + 1
    best = F(0)
    for signs in itertools.product((1, -1), repeat=n + 1):
        e = ck.TailSequence(tuple(F(s) for s in signs[:n]), F(signs[n]))
        img = e - functional(e) * direction
        best = max(best, img.norm())
    return best


@given(st.lists(st.sampled_from([-1, F(-1, 2), 0, F(1, 2), 1]), min_size=1, max_size=3),
       st.lists(st.sampled_from([-1, F(-1, 2), 0, F(1, 2), 1]), min_size=1, max_size=3),
       st.sampled_from([-1, F(-1, 2), 0, F(1, 2), 1]),
       st.sampled_from([F(-1, 2), 0, F(1, 2)]))
@settings(max_examples=25, deadline=None)
def test_id_minus_rank1_ck_matches_brute_force(xvals, wvals, xlim, wlim):
    x = ck.TailSequence(tuple(xvals), xlim)
    phi = ck.SequenceFunctional(tuple(wvals), wlim)
    exact = x._id_minus_rank1_norm(phi)
    brute = brute_extreme_norm_ck(x, phi)
    assert exact == brute


# ---------------------------------------------------------------------------
# slice diameters


def test_slice_diameter_linf_square():
    phi = ck.SequenceFunctional((1, 0), 0, ck.Variant.LINF_N)
    diam = core.slice_diameter(core.Slice(phi, F(1, 2)))
    assert diam == 2  # (1,1) and (1,-1) are both in the slice


def test_slice_diameter_atom():
    res = l1.atom_slice(M1, "c0", F(1, 10))
    assert res.exact_diameter <= F(3, 10)
    assert res.exact_diameter == F(1, 10)


def test_slice_diameter_whole_ball():
    phi = l1.StepFunctional(M2, (1, 0))
    assert core.slice_diameter(core.Slice(phi, F(2))) == 2


@given(st.lists(st.fractions(F(-1), F(1)), min_size=1, max_size=3),
       st.fractions(F(0), F(1)),
       st.fractions(F(1, 100), F(3, 2)))
@settings(max_examples=30, deadline=None)
def test_slice_diameter_never_exceeds_two(weights, wlim, eps):
    total = sum(abs(w) for w in weights) + abs(wlim)
    if total == 0:
        return
    phi = ck.SequenceFunctional(tuple(w / total for w in weights), wlim / total)
    diam = core.slice_diameter(core.Slice(phi, eps))
    assert diam <= 2


@given(st.lists(st.fractions(F(-1), F(1)), min_size=1, max_size=3),
       st.fractions(F(0), F(1)),
       st.fractions(F(1, 100), F(1)))
@settings(max_examples=30, deadline=None)
def test_c_model_slices_have_diameter_two(weights, wlim, eps):
    # one free coordinate beyond the functional's prefix always gives an
    # antipodal pair inside the slice
    total = sum(abs(w) for w in weights) + abs(wlim)
    if total == 0:
        return
    phi = ck.SequenceFunctional(tuple(w / total for w in weights), wlim / total)
    assert core.slice_diameter(core.Slice(phi, eps)) == 2


def test_empty_slice_error():
    # dual norm below 1 is rejected outright by the Slice contract
    with pytest.raises(core.DeltaLabError):
        core.Slice(l1.StepFunctional(M1, (F(1, 2),)), F(1, 10))


# ---------------------------------------------------------------------------
# slice-wise Delta search


def test_check_delta_via_slices_ck_positive():
    x = ck.TailSequence((), 1)  # constant one
    slices = [core.Slice(ck.SequenceFunctional((), 1), F(1, 4)),
              core.Slice(ck.SequenceFunctional((F(1, 2),), F(1, 2)), F(1, 2))]
    rep = core.check_delta_via_slices(x, F(1, 10), slices)
    assert rep.positive
    for row in rep.rows:
        assert row.found and row.distance >= 2 - F(1, 10)


def test_check_delta_via_slices_l1_negative():
    # supporting slice of an atom-supported point: every member stays close
    x = sf(M3, 1, 0, 0)
    phi = l1.StepFunctional(M3, (1, 0, 0))  # sign pattern of x
    rep = core.check_delta_via_slices(x, F(1, 10), [core.Slice(phi, F(1, 100))])
    assert not rep.positive
    assert not rep.rows[0].found
    assert rep.rows[0].distance < F(1, 10)


def test_check_delta_via_slices_trivial_eps():
    x = sf(M3, 1, 0, 0)
    phi = l1.StepFunctional(M3, (1, 0, 0))
    rep = core.check_delta_via_slices(x, F(2), [core.Slice(phi, F(1, 100))])
    assert rep.positive


def test_check_delta_requires_membership():
    x = sf(M2, 1, 0)
    phi = l1.StepFunctional(M2, (0, 1))  # phi(x) = 0: x not in the slice
    with pytest.raises(core.DeltaLabError):
        core.check_delta_via_slices(x, F(1, 10), [core.Slice(phi, F(1, 2))])


# ---------------------------------------------------------------------------
# certificates


def test_certificate_recheck_roundtrip():
    f = ck.TailSequence((1, F(1, 2)), 0)
    ref = ck.refute_delta_ck(f)
    assert ref.certificate.recheck()


def test_certificate_rejects_hollow_margin():
    cert = core.Certificate(
        verdict=core.Verdict.DELTA_NO,
        refutation=core.Refutation(refuter=None, bound=F(2), margin=F(0)))
    with pytest.raises(core.VerificationError):
        cert.recheck()
