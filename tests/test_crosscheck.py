import random
from fractions import Fraction as F

import pytest

from deltalab import ck, core, crosscheck, l1
from deltalab.core import DeltaLabError

GRID = [F(1, 10), F(1, 2), F(1)]


def model(*spec):
    return l1.MeasureModel(tuple((f"c{i}", m, k) for i, (m, k) in enumerate(spec)))


def test_l1_atom_point_disagrees_with_hull_membership():
    m = model((1, "ATOM"), (1, "ATOM"))
    x = l1.StepFunction(m, (1, 0))
    rep = crosscheck.crosscheck_characterizations(x, GRID)
    assert rep.agree and not rep.theorem_daugavet
    # the refutation bound is visible in the hull distance at every grid eps
    # below 2*c*mu(A) = 2
    for row in rep.rows:
        assert row.delta_distance > 0.05


def test_l1_nonatomic_point_agrees_positively():
    m = model((1, "NONATOMIC"))
    f = l1.StepFunction(m, (1,))
    rep = crosscheck.crosscheck_characterizations(f, GRID)
    assert rep.agree and rep.theorem_daugavet
    for row in rep.rows:
        assert row.delta_distance <= 1e-6
        assert max(row.probe_distances) <= 1e-6


def test_l1_mixed_kind_support():
    m = model((F(1, 2), "ATOM"), (F(1, 2), "NONATOMIC"))
    f = l1.StepFunction(m, (1, 1))
    rep = crosscheck.crosscheck_characterizations(f, GRID)
    assert rep.agree and not rep.theorem_daugavet


def test_ck_limit_one_agrees():
    f = ck.TailSequence((0,), 1)
    rep = crosscheck.crosscheck_characterizations(f, GRID, tol=0.05)
    assert rep.agree and rep.theorem_daugavet
    for row in rep.rows:
        assert row.delta_distance <= 0.05


def test_ck_interior_limit_agrees_negatively():
    f = ck.TailSequence((1, F(1, 2)), 0)
    rep = crosscheck.crosscheck_characterizations(f, GRID, tol=0.05)
    assert rep.agree and not rep.theorem_daugavet
    assert rep.rows[0].delta_distance > 0.3  # margin - eps at eps = 1/10


def test_trivial_eps_row():
    m = model((1, "ATOM"))
    x = l1.StepFunction(m, (1,))
    rep = crosscheck.crosscheck_characterizations(x, [F(2)])
    # far set at eps = 2 is every vertex: hull distances vanish in this row
    assert rep.rows[0].delta_distance <= 1e-9
    assert rep.rows[0].daugavet_ok


def test_report_row_lookup():
    m = model((1, "NONATOMIC"))
    f = l1.StepFunction(m, (1,))
    rep = crosscheck.crosscheck_characterizations(f, GRID)
    assert rep.row(F(1, 2)).eps == F(1, 2)
    with pytest.raises(KeyError):
        rep.row(F(1, 3))


def test_ck_random_points_agree():
    # the sequence-model equivalence on short prefixes, both verdict signs
    rng = random.Random(99)
    for daug in (True, False):
        for _ in range(3):
            f = ck.random_unit(rng, rng.randrange(0 if daug else 1, 4), daugavet=daug)
            rep = crosscheck.crosscheck_characterizations(f, GRID, tol=0.05)
            assert rep.agree
            assert rep.theorem_daugavet == daug


def test_muntz_points_rejected():
    from deltalab import muntz
    t = muntz.MuntzPolynomial(muntz.ExponentLadder.squares(), ((1, 1),))
    with pytest.raises(DeltaLabError, match=r"crosscheck needs a polyhedral model \(l1 or ck\)"):
        crosscheck.crosscheck_characterizations(t, GRID)


def test_ck_crosscheck_bounds_its_witness_families():
    # tol sets the witness family size (2/tol + 1 members), so it has a floor
    x = ck.TailSequence((), 1)
    with pytest.raises(DeltaLabError, match=r"ck crosscheck needs tol >= 1/500"):
        crosscheck.crosscheck_characterizations(x, [F(1, 2)], tol=F(1, 501))
    with pytest.raises(DeltaLabError, match=r"ck crosscheck needs tol >= 1/500"):
        crosscheck.crosscheck_characterizations(x, [F(1, 2)], tol=1e-9)
    linf = ck.TailSequence((1, 0), None, ck.Variant.LINF_N)
    with pytest.raises(DeltaLabError, match="ck crosscheck needs a point of c or c0, not LINF_N"):
        crosscheck.crosscheck_characterizations(linf, GRID)


def _ck_instance(seed, target_len, width=4, n_shared=6, m=8):
    """A Daugavet point x of prefix length 1, a target g with `target_len`
    prefix values, `n_shared` random cube vertices of prefix `width`, and
    the witness family of m members aimed at g (fresh indices from
    max(1, target_len) on)."""
    rng = random.Random(seed)
    x = ck.random_unit(rng, 1, daugavet=True)
    g = ck.random_unit(rng, target_len)
    shared = [ck.TailSequence(tuple(F(rng.choice((-1, 1))) for _ in range(width)),
                              F(rng.choice((-1, 1)))) for _ in range(n_shared)]
    return x, g, shared, ck.daugavet_witness_ck(x, g, F(1, 2), m)


def _reduced(x, g, shared, width=4, m=8):
    return [*dict.fromkeys(shared)] + ck._orbit_hull(x, g, F(1, 2), m, width)


def test_ck_orbit_reduction_keeps_the_exact_distance():
    # fresh indices past every shared prefix: the whole family is one orbit
    for seed, want in ((0, F(1, 14)), (1, F(1, 34)), (2, F(0)), (7, F(1, 18))):
        x, g, shared, wit = _ck_instance(seed, 5)
        reduced = _reduced(x, g, shared)
        assert len(reduced) == len(set(shared)) + 1
        assert core.hull_distance(g, shared + [*wit.members]) == want
        assert core.hull_distance(g, reduced) == want


def test_ck_orbit_reduction_keeps_members_the_shared_prefix_tells_apart():
    # fresh indices 2, 3 lie inside the shared vertices' prefix (width 4):
    # those members stay, and collapsing them into the family's mean anyway
    # moves the exact distance
    for seed, want, collapsed in ((1, F(1, 62), F(1, 36)), (2, F(9, 82), F(6, 43)),
                                  (3, F(1, 40), F(1, 38)), (4, F(9, 62), F(3, 16))):
        x, g, shared, wit = _ck_instance(seed, 2)
        reduced = _reduced(x, g, shared)
        assert wit.fresh_indices[:2] == (2, 3)
        assert reduced[-3:-1] == [*wit.members[:2]]
        assert core.hull_distance(g, shared + [*wit.members]) == want
        assert core.hull_distance(g, reduced) == want
        assert core.hull_distance(g, shared + [wit.average]) == collapsed != want


def test_ck_orbit_hull_checks_its_members():
    x, g, _, _ = _ck_instance(0, 2)
    with pytest.raises(core.VerificationError):
        ck._orbit_hull(x, 2 * g, F(1, 2), 8, 4)


def _hull_sizes(monkeypatch):
    """The number of hull points of every LP that a crosscheck solves."""
    sizes = []
    solve = crosscheck.hull_distances

    def spy(groups):
        sizes.extend(len(points) for points, targets in groups for _ in targets)
        return solve(groups)
    monkeypatch.setattr(crosscheck, "hull_distances", spy)
    return sizes


def test_heavy_ck_crosscheck_solves_small_lps(monkeypatch):
    # a Daugavet point at the default tol: 48 shared vertices and 201
    # witness members per target, written as at most 64 hull points each
    sizes = _hull_sizes(monkeypatch)
    x = ck.TailSequence((F(1, 2), F(-1, 2)), -1)
    rep = crosscheck.crosscheck_characterizations(x, [F(1, 10), F(1, 2)])
    assert len(sizes) == 18 and max(sizes) <= 64
    assert [r.n_candidates for r in rep.rows] == [249, 249]
    assert rep.agree and rep.theorem_daugavet and rep.hull_delta and rep.hull_daugavet
    assert all(r.delta_ok and r.daugavet_ok for r in rep.rows)


def test_ck_crosscheck_at_the_tol_floor(monkeypatch):
    # tol 1/500: 48 shared vertices and 1,001 witness members per target
    sizes = _hull_sizes(monkeypatch)
    rep = crosscheck.crosscheck_characterizations(ck.TailSequence((), 1), [F(1, 2)],
                                                  tol=F(1, 500))
    assert len(sizes) == 9 and max(sizes) <= 64
    assert [r.n_candidates for r in rep.rows] == [1049]
    assert rep.agree and rep.rows[0].daugavet_ok


def test_ck_crosscheck_builds_no_witness_family(monkeypatch):
    def refuse(*args):
        raise AssertionError("the crosscheck built a witness family")
    monkeypatch.setattr(ck, "daugavet_witness_ck", refuse)
    rep = crosscheck.crosscheck_characterizations(ck.TailSequence((0,), 1), GRID)
    assert rep.agree and rep.theorem_daugavet


def test_ck_crosscheck_keeps_a_margin_below_tol():
    # at these tol = 2/N, 2/tol rounds below N in floats (1/99 gives
    # 197.99999999999997), so m = floor(2/tol) + 1 members would put the
    # anchor at distance 2/m = tol exactly, and the last bit of a HiGHS
    # float would decide the verdict
    x = ck.TailSequence((), 1)
    zero_margin = [n for n in range(2, 1001) if int(2 / float(F(2, n))) + 1 == n]
    assert F(2, 198) == F(1, 99) and 198 in zero_margin
    for n in zero_margin:
        rep = crosscheck.crosscheck_characterizations(x, [F(1, 2)], tol=F(2, n))
        assert rep.agree and rep.rows[0].delta_ok and rep.rows[0].daugavet_ok, n


def _l1_instance(seed):
    """A seeded unit point on 1-4 cells of masses in {1/2, 1, 3/2}, mixed
    ATOM/NONATOMIC kinds, values in {-2, ..., 2} (zeros included)."""
    rng = random.Random(seed)
    m = model(*[(F(rng.randrange(1, 4), 2), rng.choice(("ATOM", "NONATOMIC")))
                for _ in range(rng.randrange(1, 5))])
    return l1.random_unit(m, rng), rng


def _full_far_set(x, eps, rng):
    """The refined far ball vertices and four far mixtures of them, with
    the lift to the refined model."""
    _, xl, members = l1.far_vertices(x, eps)
    mixtures = []
    while len(members) >= 2 and len(mixtures) < 4:
        t = F(rng.randrange(1, 1000), 1000)
        cand = (1 - t) * rng.choice(members) + t * rng.choice(members)
        if (xl - cand).norm() >= 2 - eps:
            mixtures.append(cand)
    return members + mixtures, l1._refine_for_eps(x, eps)[2]


def _exact_distances(points, targets):
    return [core.hull_distance(t, points) for t in targets]


def test_l1_orbit_means_keep_the_exact_distances():
    # the LP over one mean per far (cell, sign) of x's model has the exact
    # optimum of the LP over the whole refined far set, mixtures included
    for seed in range(8):
        x, rng = _l1_instance(seed)
        _, _, builder = l1.crosscheck_setup(x, None, random.Random(seed))
        for eps in (F(1, 10), F(1, 3), F(1, 2), F(1), F(2)):
            count, [(means, targets)] = builder(eps)
            full, lift = _full_far_set(x, eps, rng)
            assert count >= len(means) and bool(count) == bool(full) == bool(means)
            if not means:
                continue
            assert len(means) <= 2 * len(x.model.cells)
            assert all(p.model == x.model for p in [*means, *targets])
            want = _exact_distances(full, [lift(t) for t in targets])
            assert _exact_distances(means, targets) == want, (seed, eps)


def test_l1_orbit_means_mutated_move_a_distance():
    # dropping a far mean, or adding the mean of a (cell, sign) that is not
    # far, moves the distance of some target: the hull points are exactly
    # the far ones
    moved_by_adding = 0
    for seed in range(8):
        x, _ = _l1_instance(seed)
        _, _, builder = l1.crosscheck_setup(x, None, random.Random(seed))
        for eps in (F(1, 3), F(1)):
            _, [(means, targets)] = builder(eps)
            if not means:
                continue
            want = _exact_distances(means, targets)
            for drop in range(len(means) if len(means) > 1 else 0):
                assert _exact_distances(means[:drop] + means[drop + 1:], targets) != want
            for v in x.model.ball_vertices():
                if v not in means:
                    assert _exact_distances(means + [v], targets) != want
                    moved_by_adding += 1
    assert moved_by_adding


def test_small_eps_l1_crosscheck_solves_a_small_lp(monkeypatch):
    # eps 1/1000 refines each cell into 1,000 parts: 4,000 far vertices and
    # 4 mixtures are counted, and the LP has one hull point per (cell, sign)
    seen = []
    solve = crosscheck.hull_distances

    def spy(groups):
        seen.extend(groups)
        return solve(groups)
    monkeypatch.setattr(crosscheck, "hull_distances", spy)
    x = l1.point_from_json({"cells": [{"id": "a", "mass": "1/2", "kind": "NONATOMIC"},
                                      {"id": "b", "mass": "1/2", "kind": "NONATOMIC"}],
                            "values": ["1", "-1"]})
    rep = crosscheck.crosscheck_characterizations(x, [F(1, 1000)])
    assert [r.n_candidates for r in rep.rows] == [4004]
    assert rep.rows[0].delta_distance == 0 and max(rep.rows[0].probe_distances) == 0
    assert rep.agree and rep.theorem_daugavet
    [(points, targets)] = seen
    assert len(points) <= 4 and all(p.model == x.model for p in [*points, *targets])
