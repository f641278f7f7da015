import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltalab import core, lp, muntz

LAD = muntz.ExponentLadder.squares()


def poly(*terms):
    return muntz.MuntzPolynomial(LAD, tuple(terms))


T = poly((1, 1))
T_MINUS_T4 = poly((1, 1), (2, -1))
# closed form: the critical point of t - t^4 is (1/4)^(1/3)
T_MINUS_T4_NORM = 3 * 4 ** (-4 / 3)


def normalized(p, target=1):
    enc = p.sup_enclosure(1e-11)
    return muntz.as_fraction(target) * (1 / muntz.as_fraction((enc.lo + enc.hi) / 2)) * p


# ---------------------------------------------------------------------------
# certified sup norms


def test_sup_norm_of_t():
    enc = T.sup_enclosure()
    assert enc.lo <= 1 <= enc.hi and enc.width <= 1e-10


def test_sup_norm_two_term_closed_form():
    enc = T_MINUS_T4.sup_enclosure()
    assert enc.lo <= T_MINUS_T4_NORM <= enc.hi
    assert enc.width <= 1e-10
    assert abs((1 - enc.at_u) - 0.25 ** (1 / 3)) < 1e-6


def test_sup_norm_sign_symmetric():
    assert abs((-T_MINUS_T4).sup_enclosure().lo - T_MINUS_T4_NORM) < 1e-9


def test_sup_norm_empty():
    assert poly().sup_enclosure().hi == 0


def test_enclosure_contains_dense_grid_max():
    p = poly((1, F(3, 7)), (2, -1), (3, F(1, 2)))
    enc = p.sup_enclosure()
    lambdas = [float(LAD.lambda_at(k)) for k, _ in p.terms]
    coeffs = [float(c) for _, c in p.terms]
    ts = np.linspace(0.0, 1.0, 10**6)
    vals = np.zeros_like(ts)
    for lam, c in zip(lambdas, coeffs):
        vals += c * np.power(ts, lam)
    grid_max = float(np.max(np.abs(vals)))
    assert enc.lo - 1e-12 <= grid_max <= enc.hi + 1e-12


def test_bb_handles_deep_spikes():
    # peak at 1 - u with u ~ 1e-30: invisible in t coordinates
    p = muntz.MuntzPolynomial(LAD, ())
    pairs = ((F(10) ** 30, F(1)), (F(5) * F(10) ** 30, F(-1)))
    enc = muntz.sup_abs_bb(pairs, tol=1e-8)
    # max of t^a - t^(5a) is independent of the scale a: r^(-1/(r-1))(1-1/r) at r=5
    expect = 5 ** (-0.25) * 0.8
    assert abs(enc.lo - expect) < 1e-6


def _mp_sup(mpmath, terms):
    """max |p| on [0,1] for p = sum c t^e (integer e), at 50 digits: the
    larger of |p(1)| and |p| at the real critical points in (0,1), found by
    numpy and polished by Newton in mpmath."""
    mp = mpmath.mp
    exps = [(int(e), mp.mpf(c.numerator) / c.denominator) for e, c in terms]
    deg = max(e for e, _ in exps)
    dcoeffs = np.zeros(deg)
    for e, c in exps:
        dcoeffs[deg - e] = float(c) * e
    crit = [mp.mpf(1)]
    for z in np.roots(np.trim_zeros(dcoeffs, "f")):
        if abs(z.imag) < 1e-3 and 0 < z.real < 1:
            crit.append(mpmath.findroot(
                lambda t: mp.fsum(c * e * t ** (e - 1) for e, c in exps), mp.mpf(z.real)))
    return max(abs(mp.fsum(c * t ** e for e, c in exps)) for t in crit if 0 <= t <= 1)


def test_bb_upper_bound_covers_true_sup():
    # pruned intervals used to be dropped, leaving hi up to 8.5e-12 below
    # the true sup on 14 of these draws; without the Newton polish lo fell
    # up to 1.9e-11 short of it
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(0)
    checked = 0
    for _ in range(297):
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            k = rng.randrange(1, 7)
            terms[k] = terms.get(k, 0) + F(rng.randrange(-8, 9), 8)
        pairs = [(F(k * k), c) for k, c in terms.items() if c]
        if not pairs:
            continue
        checked += 1
        with mpmath.workdps(50):
            true_sup = _mp_sup(mpmath, pairs)
        for enc in (muntz.sup_abs_bb(pairs), poly(*terms.items()).sup_enclosure()):
            assert enc.hi >= true_sup, (pairs, float(true_sup - enc.hi))
            assert true_sup - 1e-13 <= enc.lo <= true_sup + 1e-15, (pairs, float(true_sup - enc.lo))
    assert checked == 294


# ---------------------------------------------------------------------------
# the closed-form two-term peak


@pytest.mark.parametrize("scale", [1, 10**9, 10**27])
def test_bump_closed_form_matches_bb(scale):
    rng = random.Random(scale)
    for _ in range(12):
        a = rng.randrange(1, 60)
        b = a + rng.randrange(1, 200)
        pairs = ((F(a * scale), F(1)), (F(b * scale), F(-1)))
        enc = muntz.sup_abs_bb(pairs, tol=1e-12)
        h = math.exp(muntz.bump_log_sup(a * scale, b * scale))
        assert abs(h - enc.lo) < 1e-9


def test_bump_closed_form_guards():
    # r = 0: sup of 1 - t^b is 1
    assert muntz.bump_log_sup(0, 5) == 0.0
    # r rounding to 1, and a >= b: no division by zero, never far enough
    big = 10**30
    for a, b in ((big, big + 1), (7, 7), (9, 4)):
        assert muntz.bump_log_sup(a, b) == -math.inf
        assert not muntz.bump_log_sup(a, b) > muntz.FAR_LOG
    # just short of rounding: h ~ (1 - r)/e, tiny but finite
    r = 1 - F(1, 2**40)
    assert math.exp(muntz.bump_log_sup(r, 1)) == pytest.approx(2.0**-40 / math.e, rel=1e-6)


# (eps, delta) -> (k, l) on the criterion-8 grid, squares ladder
SPIKE_GRID = {
    (0.5, 0.5): (2, 5), (0.5, 0.25): (2, 5), (0.5, 0.1): (3, 7),
    (0.25, 0.5): (3, 7), (0.25, 0.25): (3, 7), (0.25, 0.1): (4, 9),
    (0.1, 0.5): (4, 9), (0.1, 0.25): (5, 11), (0.1, 0.1): (6, 13),
}


def test_spike_grid_golden():
    got = {}
    for eps, delta in SPIKE_GRID:
        sp = muntz.spike_search(LAD, eps, delta)
        got[eps, delta] = (sp.k, sp.l)
    assert got == SPIKE_GRID


@pytest.mark.parametrize("eps", [0.5, 0.1, 1e-9, 1e-25])
def test_spike_l_minimal_under_closed_form(eps):
    sp = muntz.spike_search(LAD, eps, 0.05)
    lam_k = LAD.lambda_at(sp.k)
    assert muntz.bump_log_sup(lam_k, LAD.lambda_at(sp.l)) > muntz.FAR_LOG
    assert not muntz.bump_log_sup(lam_k, LAD.lambda_at(sp.l - 1)) > muntz.FAR_LOG
    assert sp.off_interval_sup < 0.05
    assert 1 - 1e-8 <= sp.norm_enclosure.lo <= sp.norm_enclosure.hi <= 1 + 1e-8


# ---------------------------------------------------------------------------
# zero pieces: peaks and sign changes


@given(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_zero_pieces_cover_sign_changes(coeffs):
    p = poly(*enumerate(coeffs, start=1))
    pieces = muntz._zero_pieces(p.exponent_pairs())
    us = [1 - float(t) for t in np.linspace(0.0, 1.0, 4097)]
    vals = [p.eval_u(u) for u in us]
    for u0, u1, v0, v1 in zip(us, us[1:], vals, vals[1:]):
        if v0 * v1 < 0:
            assert any(a <= u0 and u1 <= b for a, b in pieces), (u0, u1, pieces)
    if len({c > 0 for c in coeffs}) == 1:
        assert pieces == []


def test_zero_piece_of_t_minus_t4_derivative_is_tight():
    pieces = muntz._zero_pieces(muntz._derivative_pairs(T_MINUS_T4.exponent_pairs()))
    assert len(pieces) == 1
    (a, b), = pieces
    assert 1 - b <= 4 ** (-1 / 3) <= 1 - a and b - a <= 1e-12 * (1 - b)


def test_derivative_pairs_drop_vanishing_terms():
    assert muntz._derivative_pairs(muntz._derivative_pairs(T.exponent_pairs())) == []


# ---------------------------------------------------------------------------
# spikes


def test_spike_search_trace():
    sp = muntz.spike_search(LAD, 0.5, 0.5)
    assert (sp.k, sp.l) == (2, 5)
    assert sp.off_interval_sup < 0.5
    assert 1 - 1e-8 <= sp.norm_enclosure.lo <= sp.norm_enclosure.hi <= 1 + 1e-8


def test_spike_near_total_eps():
    sp = muntz.spike_search(LAD, 0.999, 0.5)
    assert sp.k == 1


def test_spike_nonnegative_and_vanishing_at_one():
    sp = muntz.spike_search(LAD, 0.3, 0.2)
    assert sp.f.at_one() == 0
    lam_k, lam_l = LAD.lambda_at(sp.k), LAD.lambda_at(sp.l)
    assert lam_k < lam_l  # structural nonnegativity on [0,1]
    for t in np.linspace(0, 1, 101):
        assert sp.f.eval_t(float(t)) >= -1e-12


def test_spike_ladder_exhaustion():
    short = muntz.ExponentLadder.from_list([1, 2])
    with pytest.raises(muntz.LadderExhaustedError):
        muntz.spike_search(short, 0.1, 0.01)


# ---------------------------------------------------------------------------
# the endpoint characterization


def test_daugavet_decision_examples():
    assert muntz.is_daugavet_point_muntz(T)[0]
    assert muntz.is_daugavet_point_muntz(-T)[0]
    ok, cert = muntz.is_daugavet_point_muntz(normalized(T_MINUS_T4))
    assert not ok and cert.verdict is core.Verdict.DELTA_NO


def test_daugavet_decision_refuses_constants_and_small_ladders():
    with_const = muntz.ExponentLadder(name="c", rule=lambda n: F(n * n),
                                      includes_constant=True)
    with pytest.raises(core.DeltaLabError):
        muntz.is_daugavet_point_muntz(muntz.MuntzPolynomial(with_const, ((1, 1),)))
    small = muntz.ExponentLadder.from_list([F(1, 2), 2, 3])
    with pytest.raises(core.DeltaLabError):
        muntz.is_daugavet_point_muntz(muntz.MuntzPolynomial(small, ((2, F(1, 4)),)))


# ---------------------------------------------------------------------------
# witnesses


def test_witness_t_around_t():
    wit = muntz.daugavet_witness_muntz(T, T, eps=0.7, delta=0.2)
    assert wit.m == 10
    assert wit.min_distance >= 2 - 0.6 - 1e-8
    assert wit.avg_error_direct <= 0.6 + 1e-8
    assert wit.avg_error_direct <= wit.avg_error_structural + 1e-8


def test_witness_degenerate_target():
    wit = muntz.daugavet_witness_muntz(T, -T, eps=0.7, delta=0.2)
    # g(1) + 1 = 0: members are all (1+delta)^{-1} g
    assert wit.min_distance >= 2 - 0.6 - 1e-8
    assert wit.avg_error_direct <= 0.6


def test_witness_error_shrinks_with_delta():
    errs = []
    for delta in (0.25, 0.125):
        wit = muntz.daugavet_witness_muntz(T, T, eps=0.8, delta=delta)
        errs.append(wit.avg_error_direct)
        assert wit.avg_error_direct <= 3 * delta + 1e-8
    assert errs[1] <= errs[0]


def test_witness_flipped_anchor():
    wit = muntz.daugavet_witness_muntz(-T, T, eps=0.7, delta=0.2)
    assert wit.flipped
    assert wit.min_distance >= 2 - 0.6 - 1e-8


def test_witness_requires_margin():
    with pytest.raises(core.DeltaLabError):
        muntz.daugavet_witness_muntz(T, T, eps=0.3, delta=0.2)  # 3*delta >= eps


# ---------------------------------------------------------------------------
# derivative-growth estimates


def test_bernstein_single_term():
    res = muntz.bernstein_estimate(LAD, 1, 0.5, 64)
    assert abs(res.lower_bound - 1) < 1e-9
    assert abs(res.grid_value - 1) < 1e-9


def test_bernstein_three_terms_regression():
    res = muntz.bernstein_estimate(LAD, 3, 0.5, 64)
    assert res.lower_bound > 1
    assert abs(res.lower_bound - 3.1810531156026376) < 1e-6  # frozen fixture


def test_bernstein_monotone_in_s():
    vals = [muntz.bernstein_estimate(LAD, 3, s, 64).grid_value
            for s in (0.3, 0.5, 0.7)]
    assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9


def test_bernstein_degenerate_grid():
    with pytest.raises(core.DeltaLabError):
        muntz.bernstein_estimate(LAD, 3, 0.5, 2)


def full_scan(ladder, terms, s, grid_n):
    """Reference for bernstein_estimate: one cold LP per objective node,
    the first maximum in grid order wins."""
    lambdas = [float(ladder.lambda_at(k)) for k in range(1, terms + 1)]
    t_grid = np.linspace(0.0, 1.0, grid_n)
    T = np.stack([np.power(t_grid, lam) for lam in lambdas], axis=1)
    best = None
    for t_star in np.linspace(0.0, s, grid_n):
        if t_star == 0.0:
            d = np.array([lam if lam == 1 else 0.0 for lam in lambdas])
        else:
            d = np.array([lam * t_star ** (lam - 1) for lam in lambdas])
        val, a = lp.linprog_mixed(-d, A_ub=np.vstack([T, -T]), b_ub=np.ones(2 * grid_n),
                                  bounds=[(None, None)] * terms)
        if best is None or -val > best[0]:
            best = (-val, float(t_star), tuple(float(x) for x in a))
    grid_value, at, coeffs = best
    p_hat = muntz.MuntzPolynomial(ladder, tuple((k + 1, F(c)) for k, c in enumerate(coeffs)))
    norm_hi = p_hat.sup_enclosure(1e-9).hi
    return dict(grid_value=grid_value, at=at, coeffs=coeffs, norm_hi=norm_hi,
                lower_bound=abs(p_hat.derivative_value(at)) / norm_hi)


@pytest.mark.parametrize("terms", range(1, 9))
def test_bernstein_pruned_scan_matches_the_full_scan(terms):
    for s in (0.1, 0.3, 0.5, 0.9):
        for grid_n in (16, 64, 97):
            res = muntz.bernstein_estimate(LAD, terms, s, grid_n)
            ref = full_scan(LAD, terms, s, grid_n)
            assert {key: getattr(res, key) for key in ref} == ref, (s, grid_n)


def test_bernstein_ties_are_never_pruned():
    # one term: every node asks the same LP, so the first node wins
    for s, grid_n in ((0.1, 16), (0.5, 64), (0.9, 97)):
        res = muntz.bernstein_estimate(LAD, 1, s, grid_n)
        assert res.at == 0
        assert res.lp_solves == 1 + grid_n


def test_bernstein_skips_nodes_that_cannot_win():
    assert muntz.bernstein_estimate(LAD, 5, 0.5, 256).lp_solves <= 64


def test_bernstein_failed_box_lps_prune_nothing(monkeypatch):
    solve = lp.linprog_mixed
    calls = []

    def box_lps_fail(c, **kw):
        calls.append(c)
        if len(calls) <= 4:
            raise lp.LPError("box LP failed")
        return solve(c, **kw)

    monkeypatch.setattr(lp, "linprog_mixed", box_lps_fail)
    res = muntz.bernstein_estimate(LAD, 4, 0.5, 40)
    assert res.lp_solves == len(calls) == 4 + 40
    assert res.coeffs == full_scan(LAD, 4, 0.5, 40)["coeffs"]


@pytest.mark.parametrize("error", [lp.LPError, lp.Infeasible, lp.Unbounded])
def test_bernstein_failed_objective_lp_is_a_degenerate_grid(monkeypatch, error):
    def fail(c, **kw):
        raise error("HiGHS gave up")

    monkeypatch.setattr(lp, "linprog_mixed", fail)
    with pytest.raises(core.DeltaLabError, match="^degenerate grid: HiGHS gave up$"):
        muntz.bernstein_estimate(LAD, 3, 0.5, 16)


# ---------------------------------------------------------------------------
# separation of interior-peaked points


def test_separation_example():
    f = normalized(T_MINUS_T4)
    rep = muntz.separation_check_muntz(f, [-f, T_MINUS_T4], eps=0.02)
    assert rep.rows[0].status == "verified"
    assert rep.rows[0].peak_gap > 1
    assert abs(rep.rows[0].peak - 0.25 ** (1 / 3)) < 1e-4
    assert rep.rows[1].status == "skipped"  # ||f - p|| < 2 - eps
    assert rep.hull_lower > 0.02


def test_hull_distance_closed_form():
    # the master LP brackets sup |t - t^4| = (3/4) 4^(-1/3) from both sides
    tol = 1e-9
    res = core.hull_distance_info(T, [poly((2, 1))], tol=tol)
    assert res.lower <= T_MINUS_T4_NORM <= res.value
    assert res.value - res.lower <= tol
    assert res.weights == pytest.approx((1.0,))


def test_separation_threshold_enforced():
    f = normalized(T_MINUS_T4)
    with pytest.raises(core.DeltaLabError):
        muntz.separation_check_muntz(f, [-f], eps=0.3)


def test_separation_finds_deep_peak():
    # the peak sits at 1 - t ~ 1e-10, between the points of any t-grid
    f = muntz.spike_search(LAD, 1e-9, 0.05).f
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = muntz.separation_check_muntz(f, [-f], eps=0.01)
    assert rep.rows[0].status == "verified"


def test_separation_rejects_endpoint_normers():
    with pytest.raises(core.DeltaLabError):
        muntz.separation_check_muntz(T, [-T], eps=0.01)


# ---------------------------------------------------------------------------
# convex decomposition


def test_decompose_half_t():
    f = poly((1, F(1, 2)))
    res = muntz.convex_dld2p_decompose_muntz(f)
    assert res.mu == F(3, 4)
    recon = res.mu * res.f_plus + (1 - res.mu) * res.f_minus
    assert recon.terms == f.terms
    assert res.f_plus.at_one() == 1 and res.f_minus.at_one() == -1


def test_decompose_spec_trace_also_certifies():
    # the explicit split 0.5t = 0.75(0.5t + 0.5t^4) + 0.25(0.5t - 1.5t^4)
    fp = poly((1, F(1, 2)), (2, F(1, 2)))
    fm = poly((1, F(1, 2)), (2, F(-3, 2)))
    assert fp.sup_enclosure(1e-10).hi <= 1 + 1e-9
    assert fm.sup_enclosure(1e-10).hi <= 1 + 1e-9
    assert fp.at_one() == 1 and fm.at_one() == -1
    recon = F(3, 4) * fp + F(1, 4) * fm
    assert recon.terms == poly((1, F(1, 2))).terms


def test_decompose_zero():
    res = muntz.convex_dld2p_decompose_muntz(poly())
    assert res.mu == F(1, 2)
    assert res.f_plus.at_one() == 1


def test_decompose_interior_peak():
    f = normalized(T_MINUS_T4, target=F(9, 10))
    res = muntz.convex_dld2p_decompose_muntz(f)
    assert 0 <= res.mu <= 1
    assert res.norm_plus.hi <= 1 + 1e-9 and res.norm_minus.hi <= 1 + 1e-9
    recon = res.mu * res.f_plus + (1 - res.mu) * res.f_minus
    assert recon.terms == f.terms and recon.const == f.const
    for part in (res.f_plus, res.f_minus):
        assert muntz.is_daugavet_point_muntz(part)[0]


def test_decompose_requires_deficit():
    with pytest.raises(core.DeltaLabError):
        muntz.convex_dld2p_decompose_muntz(T)


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_decompose_random(seed):
    rng = random.Random(seed)
    nterms = rng.randrange(1, 5)
    raw = muntz.MuntzPolynomial(
        LAD, tuple((rng.randrange(1, 6), F(rng.randrange(-8, 9), 8))
                   for _ in range(nterms)))
    if not raw.terms:
        return
    scale = F(rng.randrange(1, 10), 10)
    f = normalized(raw, target=scale) if raw.sup_enclosure(1e-9).hi > 0 else raw
    res = muntz.convex_dld2p_decompose_muntz(f)
    recon = res.mu * res.f_plus + (1 - res.mu) * res.f_minus
    assert recon.terms == f.terms
    assert res.f_plus.at_one() == 1 and res.f_minus.at_one() == -1
    assert res.norm_plus.hi <= 1 + 1e-9 and res.norm_minus.hi <= 1 + 1e-9


# ---------------------------------------------------------------------------
# ladders


def test_ladder_validation():
    with pytest.raises(core.DeltaLabError):
        muntz.ExponentLadder.from_list([2, 1])
    with pytest.raises(core.DeltaLabError):
        muntz.ExponentLadder.from_list([0, 1])
    with pytest.raises(core.DeltaLabError):
        muntz.ExponentLadder(name="bad")


def test_ladder_min_index_where():
    assert LAD.min_index_where(lambda lam: lam > 10**6) == 1001
    short = muntz.ExponentLadder.from_list([1, 4])
    with pytest.raises(muntz.LadderExhaustedError):
        short.min_index_where(lambda lam: lam > 100)


def test_polynomials_need_shared_ladders():
    other = muntz.ExponentLadder.from_list([1, 4, 9])
    with pytest.raises(core.DeltaLabError):
        _ = T + muntz.MuntzPolynomial(other, ((1, 1),))
