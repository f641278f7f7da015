import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from deltalab import ck, core

GRID = [-1, F(-1, 2), 0, F(1, 2), 1]


def seq(prefix, limit=None, variant=ck.Variant.C):
    if variant is ck.Variant.LINF_N:
        return ck.TailSequence(tuple(prefix), None, variant)
    return ck.TailSequence(tuple(prefix), limit if limit is not None else 0, variant)


# ---------------------------------------------------------------------------
# the characterization


def test_limit_zero_is_not_daugavet():
    ok, cert = ck.is_daugavet_point_ck(seq((1, F(1, 2)), 0))
    assert not ok and cert.verdict is core.Verdict.DELTA_NO


def test_limit_minus_one_is_daugavet():
    ok, cert = ck.is_daugavet_point_ck(seq((F(3, 10),), -1))
    assert ok and cert.verdict is core.Verdict.DAUGAVET_YES


def test_finite_model_never_daugavet():
    ok, cert = ck.is_daugavet_point_ck(seq((1, F(1, 2)), variant=ck.Variant.LINF_N))
    assert not ok


def test_norm_and_tail_evaluation():
    f = seq((1, F(1, 2)), F(-1, 4))
    assert f.norm() == 1
    assert f.value_at(17) == F(-1, 4)


# ---------------------------------------------------------------------------
# witness families


def test_witness_flip_family():
    f = seq((), 1)
    g = seq((), 0)
    wit = ck.daugavet_witness_ck(f, g, F(1, 10), 4)
    assert wit.min_distance == 2
    assert wit.avg_error == F(1, 4) <= F(1, 2)
    for gi, idx in zip(wit.members, wit.fresh_indices):
        assert gi.value_at(idx) == -1


def test_witness_single_flip():
    f = seq((), 1)
    g = seq((F(1, 2),), F(1, 4))
    wit = ck.daugavet_witness_ck(f, g, F(1, 10), 1)
    assert wit.avg_error <= 2


def test_witness_target_equals_anchor():
    f = seq((F(1, 3),), 1)
    wit = ck.daugavet_witness_ck(f, f, F(1, 10), 5)
    assert wit.min_distance >= 2 - F(1, 10)
    assert wit.avg_error <= F(2, 5)


def test_witness_rejects_non_daugavet_anchor():
    with pytest.raises(core.DeltaLabError):
        ck.daugavet_witness_ck(seq((1,), 0), seq((), 0), F(1, 10), 3)


@given(st.integers(0, 10**6), st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_witness_postconditions_random(seed, m):
    rng = random.Random(seed)
    f = ck.random_unit(rng, rng.randrange(0, 5), daugavet=True)
    g_prefix = [rng.choice(GRID) for _ in range(rng.randrange(0, 5))]
    g = seq(g_prefix, rng.choice(GRID))
    wit = ck.daugavet_witness_ck(f, g, F(1, 10), m)
    assert wit.min_distance >= 2 - F(1, 10)
    assert wit.avg_error <= F(2, m)
    assert all(gi.norm() <= 1 for gi in wit.members)


# ---------------------------------------------------------------------------
# refutations


def test_refutation_single_peak():
    res = ck.refute_delta_ck(seq((1, F(1, 2)), 0))
    assert res.H == (0,) and res.delta == F(1, 2)
    assert res.bound == F(3, 2) and res.exact_norm == F(3, 2)


def test_refutation_two_peaks():
    res = ck.refute_delta_ck(seq((1, -1), 0))
    assert res.bound == 1
    assert res.exact_norm <= 1


def test_refutation_near_unit_limit():
    res = ck.refute_delta_ck(seq((1,), F(9, 10)))
    assert res.delta == F(1, 10)
    assert res.bound == F(19, 10) and res.exact_norm == F(19, 10)


def test_refutation_rejects_daugavet_point():
    with pytest.raises(core.DeltaLabError):
        ck.refute_delta_ck(seq((F(1, 2),), 1))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_refutation_margin_random(seed):
    rng = random.Random(seed)
    f = ck.random_unit(rng, rng.randrange(1, 6), daugavet=False)
    res = ck.refute_delta_ck(f)
    assert res.exact_norm <= res.bound < 2
    assert 2 - res.bound == min(res.delta, F(2, len(res.H)))


# ---------------------------------------------------------------------------
# convex decomposition


def test_decompose_example():
    f = seq((F(9, 10), F(-1, 5)), F(2, 5))
    res = ck.convex_dld2p_decompose_ck(f, F(1, 20))
    assert res.lam == F(7, 10)
    assert res.tail_index == 3
    assert res.reconstruction_error == 0


def test_decompose_limit_one_degenerate():
    f = seq((F(1, 2),), 1)
    res = ck.convex_dld2p_decompose_ck(f, F(1, 10))
    assert res.lam == 1
    assert res.f_plus.limit == 1


def test_decompose_spike_prefix():
    f = seq((1,), 0)
    res = ck.convex_dld2p_decompose_ck(f, F(1, 10))
    assert res.lam == F(1, 2)
    assert res.f_plus.prefix == (F(1),) and res.f_plus.limit == 1
    assert res.f_minus.limit == -1
    recon = F(1, 2) * res.f_plus + F(1, 2) * res.f_minus
    assert (recon - f).norm() == 0


@given(st.integers(0, 10**6), st.sampled_from([F(1, 10), F(1, 100)]))
@settings(max_examples=60, deadline=None)
def test_decompose_random(seed, eps):
    rng = random.Random(seed)
    f = ck.random_unit(rng, rng.randrange(0, 5))
    res = ck.convex_dld2p_decompose_ck(f, eps)
    assert res.reconstruction_error < eps
    for part in (res.f_plus, res.f_minus):
        assert part.norm() == 1
        assert ck.is_daugavet_point_ck(part)[0]


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_decompose_gives_hull_membership(seed):
    # B subset clco(Delta) up to eps, sampled: f is eps-close to the hull
    # of its two decomposition parts
    rng = random.Random(seed)
    f = ck.random_unit(rng, rng.randrange(0, 4))
    eps = F(1, 10)
    res = ck.convex_dld2p_decompose_ck(f, eps)
    d = core.hull_distance(f, [res.f_plus, res.f_minus])
    assert d < eps


# ---------------------------------------------------------------------------
# c0


def test_c0_examples():
    e1 = seq((1,), variant=ck.Variant.C0)
    two = seq((1, F(1, 2)), variant=ck.Variant.C0)
    bounds = []
    for p in (e1, two):
        ok, cert = ck.is_daugavet_point_ck(p)
        assert not ok and cert.verdict is core.Verdict.DELTA_NO
        assert cert.recheck()
        bounds.append(cert.refutation.bound)
    assert bounds == [1, F(3, 2)]


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_c0_always_refuted(seed):
    rng = random.Random(seed)
    prefix = [rng.choice(GRID) for _ in range(rng.randrange(1, 6))]
    if not any(abs(v) == 1 for v in prefix):
        prefix[0] = F(1)
    p = seq(prefix, variant=ck.Variant.C0)
    ok, cert = ck.is_daugavet_point_ck(p)
    assert not ok and cert.verdict is core.Verdict.DELTA_NO
    assert cert.recheck()


def _sup_difference(a, b):
    """max_k |a(k) - b(k)| over every index, the limit included."""
    n = max(len(a.prefix), len(b.prefix))
    diffs = [abs(a.value_at(k) - b.value_at(k)) for k in range(n)]
    if a.variant is not ck.Variant.LINF_N:
        diffs.append(abs(a.limit - b.limit))
    return max(diffs)


def test_fused_distance_matches_norm_of_difference():
    rng = random.Random(12)
    for variant in ck.Variant:
        for _ in range(100):
            n = rng.randrange(1, 7)
            la, lb = (n, n) if variant is ck.Variant.LINF_N else (rng.randrange(0, 7), n)
            lims = [None, None] if variant is ck.Variant.LINF_N else (
                [0, 0] if variant is ck.Variant.C0 else [rng.choice(GRID), rng.choice(GRID)])
            a = seq([rng.choice(GRID) for _ in range(la)], lims[0], variant)
            b = seq([rng.choice(GRID) for _ in range(lb)], lims[1], variant)
            # a copy of a with one value changed shares a's coordinate objects
            c = a.with_value(rng.randrange(0, la or 1), rng.choice(GRID)) if la else a
            for p, q in ((a, b), (b, a), (a, c), (a, a)):
                assert p.distance(q) == (p - q).norm() == _sup_difference(p, q)
    with pytest.raises(core.DeltaLabError, match="cannot mix"):
        seq((1,), variant=ck.Variant.LINF_N).distance(seq((1,), 0))
    with pytest.raises(core.DeltaLabError, match="matching dimension"):
        seq((1,), variant=ck.Variant.LINF_N).distance(seq((1, 0), variant=ck.Variant.LINF_N))


def test_scaling_shares_equal_coordinates():
    g = seq((F(1, 2), F(1, 4)), F(1, 4))
    flip = F(-1)
    members = [g.with_value(k, flip) for k in range(2, 6)]
    scaled = ck.TailSequence.scale_all(members, F(2, 3))
    for m, s in zip(members, scaled):
        assert s == F(2, 3) * m
        assert s.prefix == tuple(F(2, 3) * v for v in m.prefix) and s.limit == F(1, 6)
    # one Fraction per distinct coordinate object, shared by all the members
    assert len({id(v) for s in scaled for v in s.prefix + (s.limit,)}) == 4


def test_arithmetic_guards():
    with pytest.raises(core.DeltaLabError):
        seq((1,), variant=ck.Variant.LINF_N) + seq((1,), 0)
    with pytest.raises(core.DeltaLabError):
        ck.TailSequence((F(1, 2),), F(1, 2), ck.Variant.C0)
