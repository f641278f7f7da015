import random
from fractions import Fraction as F

import pytest

from deltalab import ck, crosscheck, l1
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
