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
