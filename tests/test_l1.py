import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from deltalab import core, l1


def model(*spec):
    return l1.MeasureModel(tuple((f"c{i}", m, k) for i, (m, k) in enumerate(spec)))


def unit_nonatomic():
    m = model((1, "NONATOMIC"))
    return l1.StepFunction(m, (1,))


# ---------------------------------------------------------------------------
# splitting


def test_split_masses():
    m = model((1, "NONATOMIC"))
    res = l1.split_cell(m, "c0", F(1, 5))
    assert [c.mass for c in res.model.cells] == [F(1, 5), F(4, 5)]


def test_split_preserves_norm_and_values():
    m = model((1, "NONATOMIC"), (F(1, 2), "ATOM"))
    f = l1.StepFunction(m, (F(2, 3), F(2, 3)))
    res = l1.split_cell(m, "c0", F(1, 3))
    lifted = res.lift(f)
    assert lifted.norm() == f.norm()
    assert lifted.values == (F(2, 3), F(2, 3), F(2, 3))


def test_split_atom_forbidden():
    m = model((1, "ATOM"))
    with pytest.raises(l1.AtomIndivisibleError):
        l1.split_cell(m, "c0", F(1, 2))


def test_repeated_halving_is_exact():
    m = model((1, "NONATOMIC"))
    cid = "c0"
    for _ in range(20):
        res = l1.split_cell(m, cid, F(1, 2))
        m, cid = res.model, f"{cid}.0"
    assert min(c.mass for c in m.cells) == F(1, 2 ** 20)
    assert sum(m.masses) == 1


@given(st.lists(st.sampled_from([-2, -1, 0, 1, 2]), min_size=1, max_size=4),
       st.integers(1, 9), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_split_changes_nothing_observable(vals, tenths, idx):
    m = model(*(((1, "NONATOMIC"),) * len(vals)))
    f = l1.StepFunction(m, tuple(vals))
    phi = l1.StepFunctional(m, tuple(1 if v >= 0 else -1 for v in vals))
    cid = m.cells[idx % len(vals)].id
    res = l1.split_cell(m, cid, F(tenths, 10))
    assert res.lift(f).norm() == f.norm()
    assert res.lift_functional(phi)(res.lift(f)) == phi(f)
    if f.norm() == 1:
        before, _ = l1.is_daugavet_point_l1(f)
        after, _ = l1.is_daugavet_point_l1(res.lift(f))
        assert before == after


# ---------------------------------------------------------------------------
# the characterization


def test_atom_point_is_not_daugavet():
    m = model((1, "ATOM"))
    ok, cert = l1.is_daugavet_point_l1(l1.StepFunction(m, (1,)))
    assert not ok and cert.verdict is core.Verdict.DELTA_NO
    assert cert.recheck()


def test_nonatomic_point_is_daugavet():
    ok, cert = l1.is_daugavet_point_l1(unit_nonatomic())
    assert ok and cert.verdict is core.Verdict.DAUGAVET_YES


def test_mixed_support_fails():
    m = model((F(1, 2), "ATOM"), (F(1, 2), "NONATOMIC"))
    f = l1.StepFunction(m, (1, 1))
    ok, cert = l1.is_daugavet_point_l1(f)
    assert not ok
    assert "atom" in cert.refutation.note


# ---------------------------------------------------------------------------
# witness construction


def test_witness_reproduces_mass_fifth_example():
    f = unit_nonatomic()
    phi = l1.StepFunctional(f.model, (1,))
    res = l1.daugavet_witness_l1(f, phi, F(1, 2), F(1, 10), target_mass=F(1, 5))
    assert res.g.norm() == 1
    assert res.functional_value == 1
    assert res.distance == F(8, 5)  # 0.8 + |1 - 5| * 0.2
    assert res.distance >= 2 - F(1, 2)
    assert max(res.g.values) == 5


def test_witness_negative_functional():
    f = unit_nonatomic()
    phi = l1.StepFunctional(f.model, (-1,))
    res = l1.daugavet_witness_l1(f, phi, F(1, 2), F(1, 10), target_mass=F(1, 5))
    assert res.functional_value == 1
    assert res.distance == 2  # 0.8 + 1.2
    assert min(res.g.values) == -5


def test_witness_dyadic_default():
    f = unit_nonatomic()
    phi = l1.StepFunctional(f.model, (1,))
    res = l1.daugavet_witness_l1(f, phi, F(1, 2), F(1, 10))
    wcell = res.model.cells[res.model.index(res.witness_cell)]
    assert wcell.mass == F(1, 8)  # smallest dyadic with mass < eps/2
    assert res.distance >= F(3, 2)


def test_witness_trivial_eps():
    f = unit_nonatomic()
    phi = l1.StepFunctional(f.model, (1,))
    res = l1.daugavet_witness_l1(f, phi, F(2), F(1, 10))
    assert res.g.norm() == 1 and res.functional_value > 1 - F(1, 10)


def test_witness_certificate_recheck():
    f = unit_nonatomic()
    phi = l1.StepFunctional(f.model, (1,))
    res = l1.daugavet_witness_l1(f, phi, F(1, 2), F(1, 10))
    cert = res.certificate
    assert cert.verdict is core.Verdict.DAUGAVET_YES
    (rec,) = cert.witness
    assert isinstance(rec, core.WitnessRecord)
    assert rec.anchor == res.f
    assert rec.members == ((res.g, 1),)
    assert rec.min_distance == res.distance
    assert cert.recheck() is True


def test_witness_requires_daugavet_point():
    m = model((1, "ATOM"))
    f = l1.StepFunction(m, (1,))
    with pytest.raises(core.DeltaLabError):
        l1.daugavet_witness_l1(f, l1.StepFunctional(m, (1,)), F(1, 2), F(1, 10))


@given(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=4),
       st.lists(st.sampled_from([-1, F(-1, 2), F(1, 2), 1]), min_size=1, max_size=4),
       st.sampled_from([F(1, 10), F(1, 2), 1]))
@settings(max_examples=40, deadline=None)
def test_witness_postconditions_always_hold(vals, coeffs, eps):
    n = min(len(vals), len(coeffs))
    m = model(*(((1, "NONATOMIC"),) * n))
    f = l1.StepFunction(m, tuple(vals[:n]))
    f = (1 / f.norm()) * f
    cs = list(coeffs[:n])
    if not any(abs(c) == 1 for c in cs):
        cs[0] = F(1)
    phi = l1.StepFunctional(m, tuple(cs))
    res = l1.daugavet_witness_l1(f, phi, eps, F(1, 20))
    # the constructor re-verifies; re-assert from raw parts anyway
    assert res.g.norm() == 1
    assert res.functional(res.g) > 1 - F(1, 20)
    assert (res.f - res.g).norm() >= 2 - eps


# ---------------------------------------------------------------------------
# refutation at an atom


def test_refutation_unit_atom():
    m = model((1, "ATOM"))
    f = l1.StepFunction(m, (1,))
    res = l1.refute_delta_atom(f, "c0", F(1))
    assert res.bound == F(1, 2)


def test_refutation_heavy_value():
    m = model((F(1, 2), "ATOM"), (F(1, 2), "NONATOMIC"))
    f = l1.StepFunction(m, (2, 0))
    res = l1.refute_delta_atom(f, "c0", F(1))
    assert res.bound == F(1, 2)  # (2 - 1/(2*1/2)) * 1/2


def test_refutation_small_eps_limit():
    m = model((1, "ATOM"))
    f = l1.StepFunction(m, (1,))
    res = l1.refute_delta_atom(f, "c0", F(1, 10**6))
    assert abs(res.bound - 1) < F(1, 10**5)  # bound -> c * mu(A)


def test_refutation_eps_too_large():
    m = model((1, "ATOM"))
    f = l1.StepFunction(m, (1,))
    with pytest.raises(l1.BoundVoidError):
        l1.refute_delta_atom(f, "c0", F(2))


def test_refutation_bound_holds_on_samples():
    m = model((F(1, 2), "ATOM"), (F(1, 2), "NONATOMIC"))
    f = l1.StepFunction(m, (1, 1))
    res = l1.refute_delta_atom(f, "c0")  # default eps = c * mu(A)
    rng = random.Random(11)
    fl, members = l1.sample_far_members(f, res.eps_used, 200, rng)
    assert len(members) == 200
    d = core.hull_distances([(members, [fl])])[0]
    assert d >= float(res.bound) - 1e-9


# ---------------------------------------------------------------------------
# atom slices


def test_atom_slice_examples():
    res = l1.atom_slice(model((1, "ATOM")), "c0", F(1, 10))
    assert res.exact_diameter <= res.diameter_bound == F(3, 10)

    res2 = l1.atom_slice(model((1, "ATOM"), (1, "ATOM")), "c0", F(1, 10))
    assert res2.exact_diameter <= F(3, 10)

    res3 = l1.atom_slice(model((1, "ATOM")), "c0", F(2, 3))
    assert res3.diameter_bound == 2  # vacuous


def test_atom_slice_needs_an_atom():
    with pytest.raises(core.DeltaLabError):
        l1.atom_slice(model((1, "NONATOMIC")), "c0", F(1, 10))


# ---------------------------------------------------------------------------
# far families


@given(st.lists(st.sampled_from([-1, 1, 2]), min_size=1, max_size=3),
       st.lists(st.sampled_from([-2, -1, 0, 1]), min_size=1, max_size=3),
       st.sampled_from([F(1, 4), F(1, 2), 1]))
@settings(max_examples=30, deadline=None)
def test_delta_family_reconstructs_targets(fvals, gvals, eps):
    n = min(len(fvals), len(gvals))
    m = model(*(((1, "NONATOMIC"),) * n))
    f = l1.StepFunction(m, tuple(fvals[:n]))
    f = (1 / f.norm()) * f
    g = l1.StepFunction(m, tuple(gvals[:n]))
    if g.norm() > 1:
        g = (1 / g.norm()) * g
    members, weights, fl, tgt = l1.delta_family(f, g, eps)
    assert sum(weights) == 1
    combo = None
    for mem, w in zip(members, weights):
        term = w * mem
        combo = term if combo is None else combo + term
    assert (combo - tgt).norm() == 0
    for mem in members:
        assert (fl - mem).norm() >= 2 - eps


@pytest.mark.parametrize("eps", [F(1, 1000), F(1, 10), F(1, 2), F(1), F(2)])
def test_far_vertices_are_the_far_ball_vertices(eps):
    # the closed form against full norms of differences.  A nonatomic cell
    # carries f-mass k eps / 2 for |k| <= 3, so it splits into at most three
    # pieces and the brute force stays small at every eps.
    rng = random.Random(5)
    for _ in range(12):
        spec = [(F(rng.randint(1, 6), 4), rng.choice(("ATOM", "NONATOMIC")))
                for _ in range(rng.randint(1, 5))]
        vals = [F(rng.randint(-2, 2), 2) if kind == "ATOM"
                else rng.randint(-3, 3) * eps / (2 * mass) for mass, kind in spec]
        f = l1.StepFunction(model(*spec), tuple(vals))
        refined, fl, members = l1.far_vertices(f, eps)
        assert members == [v for v in refined.ball_vertices() if (fl - v).norm() >= 2 - eps]


# ---------------------------------------------------------------------------
# integer kernels and trusted constructors against their Fraction definitions


def random_point(rng, masses, kinds=None):
    kinds = kinds or ["NONATOMIC"] * len(masses)
    m = model(*zip(masses, kinds))
    vals = [rng.choice([0, 0, F(rng.randint(-10**6, 10**6), rng.randint(1, 10**9)),
                        F(rng.randint(-9, 9), rng.choice([1, 3, 7, 2 ** 61 - 1]))])
            for _ in masses]
    return l1.StepFunction(m, tuple(vals))


@pytest.mark.parametrize("seed", range(5))
def test_norm_is_the_fraction_sum(seed):
    rng = random.Random(seed)
    mass_sets = [(F(1, 3), F(2, 7), F(5, 21)), (F(1, 10**12 + 39), F(7, 2 ** 61 - 1), 3),
                 (1,), (F(1, 3),) * 6]
    for masses in mass_sets:
        for _ in range(20):
            f = random_point(rng, masses)
            expected = sum((abs(v) * c.mass for v, c in zip(f.values, f.model.cells)), F(0))
            assert f.norm() == expected and type(f.norm()) is F
            assert (-f).norm() == expected
    zero = l1.StepFunction(model((F(1, 3), "ATOM"), (F(2, 7), "NONATOMIC")), (0, 0))
    assert zero.norm() == 0
    assert l1.StepFunction(zero.model, (-3, F(-1, 2))).norm() == 1 + F(1, 7)


def test_refutation_bound_formula():
    m = model((F(2, 7), "ATOM"), (F(5, 21), "ATOM"), (F(1, 3), "NONATOMIC"))
    for vals in [(F(-7, 4), 0, 1), (F(3, 11), F(-5, 13), 0), (1, 1, 1)]:
        f = l1.StepFunction(m, vals)
        for j, cid in ((0, "c0"), (1, "c1")):
            c, mu = abs(f.values[j]), m.cells[j].mass
            if c == 0:
                continue
            res = l1.refute_delta_atom(f, cid)
            assert res.eps_used == c * mu
            assert res.bound == (c - c * mu / (2 * mu)) * mu == res.certificate.refutation.bound
            for eps in (c * mu / 3, F(1, 10**6), 2 * c * mu - F(1, 10**9)):
                res = l1.refute_delta_atom(f, cid, eps)
                assert res.eps_used == eps and res.bound == (c - eps / (2 * mu)) * mu
            with pytest.raises(l1.BoundVoidError):
                l1.refute_delta_atom(f, cid, 2 * c * mu)


def same_object(trusted, validated):
    assert trusted == validated and validated == trusted
    assert hash(trusted) == hash(validated) and repr(trusted) == repr(validated)


def test_trusted_results_equal_validated_ones():
    rng = random.Random(3)
    masses = (F(1, 3), F(2, 7), F(5, 21))
    for _ in range(20):
        f, g = random_point(rng, masses), random_point(rng, masses)
        s = F(rng.randint(-5, 5), rng.randint(1, 9))
        for trusted, vals in [(f + g, [a + b for a, b in zip(f.values, g.values)]),
                              (f - g, [a - b for a, b in zip(f.values, g.values)]),
                              (-f, [-a for a in f.values]),
                              (s * f, [s * a for a in f.values]),
                              (f * 2, [2 * a for a in f.values])]:
            same_object(trusted, l1.StepFunction(f.model, tuple(vals)))
    m = f.model
    for i in range(len(m.cells)):
        for s in (1, -1):
            vals = [0] * len(m.cells)
            vals[i] = F(s) / m.cells[i].mass
            same_object(m.vertex(i, s), l1.StepFunction(m, tuple(vals)))
    res = l1.split_even(m, "c1", 3)
    same_object(res.lift(f), l1.StepFunction(res.model, f.values[:2] + f.values[1:]
                                             + f.values[1:2]))
    phi = l1.StepFunctional(m, (1, F(-1, 2), 0))
    same_object(res.lift_functional(phi), l1.StepFunctional(res.model, (1,) + (F(-1, 2),) * 3
                                                            + (0,)))
    atoms = model(*zip(masses, ["ATOM"] * 3))
    ref = l1.refute_delta_atom(l1.StepFunction(atoms, (0, F(-7, 2), 0)), "c1")
    same_object(ref.functional, l1.StepFunctional(atoms, (0, -1, 0)))


def chained_split(m, cell_id, pieces):
    """The chain of `split_cell` calls that `split_even` stands for."""
    lifts, flifts, cid = [], [], cell_id
    for j in range(pieces - 1):
        res = l1.split_cell(m, cid, F(1, pieces - j))
        m, cid = res.model, f"{cid}.1"
        lifts.append(res.lift)
        flifts.append(res.lift_functional)
    return m, lifts, flifts


def apply_all(fns, v):
    for fn in fns:
        v = fn(v)
    return v


@pytest.mark.parametrize("pieces", range(1, 8))
@pytest.mark.parametrize("where", [0, 1, 2])
def test_split_even_is_the_chain_of_splits(pieces, where):
    m = model((F(1, 3), "NONATOMIC"), (F(2, 7), "NONATOMIC"), (F(5, 21), "NONATOMIC"))
    f = l1.StepFunction(m, (F(-3, 4), F(5, 9), 0))
    phi = l1.StepFunctional(m, (1, F(-1, 3), F(1, 2)))
    cid = f"c{where}"
    res = l1.split_even(m, cid, pieces)
    ref, lifts, flifts = chained_split(m, cid, pieces)
    assert [(c.id, c.mass, c.kind) for c in res.model.cells] == \
        [(c.id, c.mass, c.kind) for c in ref.cells]
    assert res.model == ref
    assert [c.mass for c in res.model.cells].count(m.cells[where].mass / pieces) >= pieces
    same_object(res.lift(f), apply_all(lifts, f))
    same_object(res.lift_functional(phi), apply_all(flifts, phi))
    assert res.lift(f).norm() == f.norm()
    assert res.lift_functional(phi)(res.lift(f)) == phi(f)


def test_split_even_keeps_its_errors():
    m = model((1, "NONATOMIC"), (1, "ATOM"))
    with pytest.raises(KeyError):
        l1.split_even(m, "nowhere", 3)
    with pytest.raises(l1.AtomIndivisibleError):
        l1.split_even(m, "c1", 2)
    with pytest.raises(KeyError):
        l1.split_even(m, "nowhere", 1)
    with pytest.raises(l1.AtomIndivisibleError):
        l1.split_even(m, "c1", 1)
    with pytest.raises(core.DeltaLabError, match="pieces"):
        l1.split_even(m, "c0", 0)
    res = l1.split_even(m, "c0", 2)
    with pytest.raises(core.DeltaLabError, match="split model"):
        res.lift(res.lift(l1.StepFunction(m, (1, 0))))


# ---------------------------------------------------------------------------
# refinement grows linearly


@pytest.fixture
def built_models(monkeypatch):
    """The cell count of every MeasureModel built, in order."""
    sizes = []
    check = l1.MeasureModel.__post_init__
    monkeypatch.setattr(l1.MeasureModel, "__post_init__",
                        lambda self: sizes.append(len(self.cells)) or check(self))
    return sizes


@pytest.mark.parametrize("pieces", [2, 3, 10, 200])
def test_split_even_builds_one_model(built_models, pieces):
    m = model((F(1, 3), "NONATOMIC"), (F(2, 3), "NONATOMIC"))
    built_models.clear()
    res = l1.split_even(m, "c0", pieces)
    assert built_models == [pieces + 1]
    assert len(res.model.cells) == pieces + 1


def test_refinement_builds_one_model_per_refined_cell(built_models):
    m = model((F(1, 4), "NONATOMIC"), (F(1, 4), "ATOM"), (F(1, 4), "NONATOMIC"),
              (F(1, 4), "NONATOMIC"))
    f = l1.StepFunction(m, (2, 1, -1, 0))  # the last cell carries no f-mass
    built_models.clear()
    refined, fl, _ = l1._refine_for_eps(f, F(1, 500))
    assert len(built_models) == 2
    assert len(refined.cells) == 500 + 1 + 250 + 1 == built_models[-1]
    assert fl.norm() == f.norm() == 1
