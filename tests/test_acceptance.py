"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s`).

Tolerances are pinned here and nowhere else.  Where a criterion says
"exact", the assertion compares Fractions with tolerance zero.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from deltalab import ck, core, crosscheck, l1, muntz, sums

GRID5 = [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS: {desc}")


def atoms(*masses):
    return l1.MeasureModel(tuple((f"c{i}", m, "ATOM") for i, m in enumerate(masses)))


# ---------------------------------------------------------------------------


def test_criterion_01_l1_projection_norms():
    with criterion(1, "l1 projection norms exact in rationals, < 1 s"):
        start = time.monotonic()
        m3 = atoms(1, 1, 1)
        x = l1.StepFunction(m3, (F(1, 2), F(3, 10), F(1, 5)))
        sign_phi = l1.StepFunctional(m3, (1, 1, 1))
        P = core.Rank1Operator(sign_phi, x)
        norm_sign = core.id_minus_rank1_norm(P)
        assert norm_sign == F(8, 5)                       # 2 - 2*min|x_i|, exact
        assert norm_sign == 2 - 2 * min(abs(v) for v in x.values)

        coord_phi = l1.StepFunctional(m3, (2, 0, 0))      # x_1^{-1} e_1*
        Q = core.Rank1Operator(coord_phi, x)
        norm_coord = core.id_minus_rank1_norm(Q)
        assert norm_coord == F(1)
        assert norm_coord <= 1 + abs(2 - 1 / abs(x.values[0]))
        assert time.monotonic() - start < 1.0


def test_criterion_02_l1_characterization_oracle():
    with criterion(2, "l1 theorem vs vertex-hull crosscheck on all <=4-cell "
                      "grid models, zero disagreements, < 60 s"):
        start = time.monotonic()
        eps_grid = [F(1, 10), F(1, 2), F(1)]
        # instances grouped by the isometry invariant (kind, |value|) per
        # cell: permutations and sign flips preserve both sides exactly
        classes = {}
        instances = []
        for n in range(1, 5):
            for kinds in itertools.product(("ATOM", "NONATOMIC"), repeat=n):
                for values in itertools.product(GRID5, repeat=n):
                    if all(v == 0 for v in values):
                        continue
                    nrm = sum(abs(v) for v in values)
                    normed = tuple(v / nrm for v in values)
                    key = tuple(sorted((k, abs(v)) for k, v in zip(kinds, normed)))
                    instances.append((kinds, normed, key))
                    classes.setdefault(key, (kinds, normed))

        class_verdict = {}
        for key, (kinds, normed) in classes.items():
            m = l1.MeasureModel(tuple((f"c{j}", 1, k) for j, k in enumerate(kinds)))
            f = l1.StepFunction(m, normed)
            rep = crosscheck.crosscheck_characterizations(f, eps_grid, seed=0)
            assert rep.agree, f"crosscheck disagreement on class {key}"
            class_verdict[key] = rep.hull_daugavet

        disagreements = 0
        for kinds, normed, key in instances:
            m = l1.MeasureModel(tuple((f"c{j}", 1, k) for j, k in enumerate(kinds)))
            verdict, _ = l1.is_daugavet_point_l1(l1.StepFunction(m, normed))
            if verdict != class_verdict[key]:
                disagreements += 1
        assert disagreements == 0
        assert len(instances) == 11080 and len(classes) == 140
        assert time.monotonic() - start < 60.0


# the designated criterion-3 suite: atom-supported unit points on 1-4 cell
# models with mixed kinds and masses
_ATOM_SUITE = [
    (((1, "ATOM"),), (1,)),
    (((F(1, 2), "ATOM"), (F(1, 2), "ATOM")), (1, 1)),
    (((F(1, 2), "ATOM"), (F(1, 2), "NONATOMIC")), (1, 1)),
    (((F(1, 2), "ATOM"), (F(1, 2), "NONATOMIC")), (2, 0)),
    (((F(1, 4), "ATOM"), (F(3, 4), "NONATOMIC")), (2, F(1, 2))),
    (((F(1, 3), "ATOM"), (F(1, 3), "ATOM"), (F(1, 3), "NONATOMIC")), (1, 1, 1)),
    (((F(1, 2), "ATOM"), (F(1, 4), "NONATOMIC"), (F(1, 4), "NONATOMIC")), (1, 1, 1)),
    (((1, "ATOM"), (1, "NONATOMIC")), (F(1, 2), F(1, 2))),
    (((F(1, 5), "ATOM"), (F(2, 5), "ATOM"), (F(2, 5), "NONATOMIC")), (1, -1, -1)),
    (((F(1, 2), "ATOM"), (F(1, 6), "ATOM"), (F(1, 6), "NONATOMIC"),
      (F(1, 6), "NONATOMIC")), (1, -1, 1, -1)),
    (((F(3, 4), "ATOM"), (F(1, 4), "NONATOMIC")), (1, -1)),
    (((F(1, 8), "ATOM"), (F(7, 8), "NONATOMIC")), (4, F(1, 2))),
]


def test_criterion_03_l1_atom_refutation():
    with criterion(3, "atom refutation: 1000-sample hull distance >= "
                      "(c - eps/(2 mu))mu - 1e-9 at eps = c mu"):
        for spec, values in _ATOM_SUITE:
            m = l1.MeasureModel(tuple((f"c{i}", mm, kk) for i, (mm, kk) in enumerate(spec)))
            f = l1.StepFunction(m, values)
            f = (1 / f.norm()) * f
            atom_id = next(c.id for v, c in zip(f.values, m.cells)
                           if v != 0 and c.kind is l1.CellKind.ATOM)
            res = l1.refute_delta_atom(f, atom_id)        # default eps = c mu(A)
            rng = random.Random(2024)
            fl, members = l1.sample_far_members(f, res.eps_used, 1000, rng)
            assert len(members) == 1000
            dist = core.hull_distances([(members, [fl])])[0]
            assert dist >= float(res.bound) - 1e-9


def test_criterion_04_atom_slice_diameter():
    with criterion(4, "atom slice diameter <= 3 eps, exact vertex "
                      "enumeration, tolerance 1e-12"):
        models = [atoms(1), atoms(1, F(1, 2)), atoms(F(1, 2), F(1, 3), F(1, 4))]
        for model in models:
            for eps in (F(1, 20), F(1, 10), F(1, 5)):
                for cell in model.cells:
                    res = l1.atom_slice(model, cell.id, eps)
                    assert res.exact_diameter <= 3 * eps  # exact rationals
                    assert float(res.exact_diameter) <= float(3 * eps) + 1e-12


def test_criterion_05_ck_witness():
    with criterion(5, "c-model witness: 200 random (f, g, m<=64), exact "
                      "inequalities, < 5 s"):
        start = time.monotonic()
        rng = random.Random(5)
        eps = F(1, 10)
        for _ in range(200):
            f = ck.random_unit(rng, rng.randrange(0, 6), daugavet=True)
            g_prefix = tuple(rng.choice(GRID5) for _ in range(rng.randrange(0, 6)))
            g = ck.TailSequence(g_prefix, rng.choice(GRID5))
            m = rng.randrange(1, 65)
            wit = ck.daugavet_witness_ck(f, g, eps, m)
            assert all((f - gi).norm() >= 2 - eps for gi in wit.members)
            assert wit.avg_error <= F(2, m)
        assert time.monotonic() - start < 5.0


def test_criterion_06_ck_refutation():
    with criterion(6, "c-model refutation: exact ||Id - P|| <= 2 - "
                      "min(delta, 2/|H|) on 200 random points, verified by "
                      "extreme-point enumeration (prefix <= 8)"):
        rng = random.Random(6)
        for _ in range(200):
            f = ck.random_unit(rng, rng.randrange(1, 9), daugavet=False)
            res = ck.refute_delta_ck(f)
            assert res.exact_norm <= res.bound
            assert res.bound == 2 - min(res.delta, F(2, len(res.H)))
            # independent enumeration over every +-1 extreme point
            n = max(len(f.prefix), len(res.projection.functional.weights)) + 1
            best = F(0)
            for signs in itertools.product((1, -1), repeat=n + 1):
                e = ck.TailSequence(tuple(F(s) for s in signs[:n]), F(signs[n]))
                img = e - res.projection.functional(e) * f
                best = max(best, img.norm())
            assert best == res.exact_norm


def test_criterion_07_ck_decomposition():
    with criterion(7, "c-model convex decomposition: 200 random points, "
                      "error < eps, both parts certified Daugavet"):
        rng = random.Random(7)
        for eps in (F(1, 10), F(1, 100)):
            for _ in range(200):
                f = ck.random_unit(rng, rng.randrange(0, 6))
                res = ck.convex_dld2p_decompose_ck(f, eps)
                assert res.reconstruction_error < eps
                for part in (res.f_plus, res.f_minus):
                    ok, cert = ck.is_daugavet_point_ck(part)
                    assert ok and cert.verdict is core.Verdict.DAUGAVET_YES


def test_criterion_08_muntz_spike():
    with criterion(8, "spikes certified nonnegative and < delta off the "
                      "endpoint window for (eps, delta) in {.5,.25,.1}^2, < 10 s"):
        start = time.monotonic()
        lad = muntz.ExponentLadder.squares()
        for eps in (0.5, 0.25, 0.1):
            for delta in (0.5, 0.25, 0.1):
                sp = muntz.spike_search(lad, eps, delta)
                lam_k, lam_l = lad.lambda_at(sp.k), lad.lambda_at(sp.l)
                assert lam_k < lam_l            # structural nonnegativity
                assert sp.f.at_one() == 0
                assert sp.off_interval_sup < delta      # certified enclosure
                assert sp.norm_enclosure.hi <= 1 + 1e-8
        assert time.monotonic() - start < 10.0


def _random_unit_poly(rng, ladder, max_terms=5, scale=1):
    while True:
        terms = tuple((rng.randrange(1, 7), F(rng.randrange(-8, 9), 8))
                      for _ in range(rng.randrange(1, max_terms + 1)))
        p = muntz.MuntzPolynomial(ladder, terms)
        if not p.terms:
            continue
        enc = p.sup_enclosure(1e-11)
        if enc.lo <= 0:
            continue
        mid = muntz.as_fraction((enc.lo + enc.hi) / 2)
        return (muntz.as_fraction(scale) / mid) * p


def test_criterion_09_muntz_witness():
    with criterion(9, "muntz witness at delta = 0.1: members >= 2 - 3 delta "
                      "and average within 3 delta, certified, tol 1e-8"):
        lad = muntz.ExponentLadder.squares()
        t = muntz.MuntzPolynomial(lad, ((1, 1),))
        rng = random.Random(9)
        delta = 0.1
        for _ in range(20):
            g = _random_unit_poly(rng, lad)
            wit = muntz.daugavet_witness_muntz(t, g, eps=0.5, delta=delta)
            assert wit.m == 20
            assert wit.min_distance >= 2 - 3 * delta - 1e-8
            assert wit.avg_error_direct <= 3 * delta + 1e-8


def test_criterion_10_muntz_decomposition():
    with criterion(10, "muntz convex decomposition: 50 random f with "
                       "||f|| <= 0.9, parts in the ball at 1e-9, exact "
                       "coefficients and endpoint values, < 120 s"):
        start = time.monotonic()
        lad = muntz.ExponentLadder.squares()
        rng = random.Random(10)
        for _ in range(50):
            scale = F(rng.randrange(1, 10), 10)
            f = _random_unit_poly(rng, lad, scale=scale)
            res = muntz.convex_dld2p_decompose_muntz(f)
            assert res.norm_plus.hi <= 1 + 1e-9
            assert res.norm_minus.hi <= 1 + 1e-9
            recon = res.mu * res.f_plus + (1 - res.mu) * res.f_minus
            assert recon.terms == f.terms and recon.const == f.const
            assert res.f_plus.at_one() == 1 and res.f_minus.at_one() == -1
        assert time.monotonic() - start < 120.0


def test_criterion_11_dirichlet_averaging():
    with criterion(11, "dirichlet averaging: 1000 random weight vectors, "
                       "sum k_i = n and error < eps for eps in {.1, .01}"):
        rng = random.Random(11)
        vectors = []
        for _ in range(1000):
            m = rng.randrange(1, 7)
            raw = [rng.randrange(1, 50) for _ in range(m)]
            total = sum(raw)
            vectors.append([F(r, total) for r in raw])
        for eps in (F(1, 10), F(1, 100)):
            for weights in vectors:
                n, counts = sums.dirichlet_average(weights, eps)
                assert sum(counts) == n
                err = sum(abs(w - F(k, n)) for w, k in zip(weights, counts))
                assert err < eps


def test_criterion_12_norm_dichotomy():
    with criterion(12, "l1/linf certified octahedral with exact witnesses; "
                       "lp{1.5,2,3} certified separating; verdicts exclusive"):
        suite = {}
        for name, norm in (("l1", sums.AbsoluteNorm.l1()),
                           ("linf", sums.AbsoluteNorm.linf())):
            res = sums.is_positively_octahedral(norm)
            assert res.verdict and res.exact
            a, b = res.witness
            assert norm(a, b) == 1
            assert norm(a + 1, b) == 2 and norm(a, b + 1) == 2
            suite[name] = (norm, True, sums.has_property_alpha(norm).verdict)
        for p in (1.5, 2.0, 3.0):
            norm = sums.AbsoluteNorm.lp(p)
            alpha = sums.has_property_alpha(norm)
            assert alpha.verdict is True
            suite[f"lp{p}"] = (norm, sums.is_positively_octahedral(norm).verdict,
                               True)
        for name, (norm, octa, alpha) in suite.items():
            assert not (octa and alpha is True), name


def test_criterion_13_delta_without_daugavet():
    with criterion(13, "c (+)_2 c: (x, y)/sqrt2 is a certified Delta point "
                       "at eps in {.5, .1} while the separation record "
                       "refutes Daugavet with a sampled hull bound, < 60 s"):
        start = time.monotonic()
        one = ck.TailSequence((), 1)
        n2 = sums.AbsoluteNorm.l2()
        a = 1 / math.sqrt(2)
        for eps, gamma in ((0.5, 0.2), (0.1, 0.04)):
            lift = sums.sum_delta_lift(one, one, n2, a, a, eps=eps, gamma=gamma)
            assert lift.min_distance >= 2 - eps - 1e-9
            assert lift.avg_error <= gamma + 1e-9

        rec = sums.has_property_alpha(n2, grid_n=2048).record(a, a)
        z = sums.SumPoint(sums.as_fraction(a) * one, sums.as_fraction(a) * one, n2)
        ref = sums.sum_refute_daugavet(z, rec)
        assert ref.delta > 0
        rep = sums.refutation_harness(z, ref, n_members=200, n_combos=200, seed=13,
                                      tol=1e-6)
        assert rep.min_combo_distance >= ref.delta - 1e-6
        assert rep.lp_lower_bound >= ref.delta - 1e-6
        assert time.monotonic() - start < 60.0


def test_criterion_14_sum_daugavet_construction():
    with criterion(14, "c (+)_1 c with witness (1/2, 1/2): families re-verify "
                       "for 20 random targets at eps = 0.2, delta = 0.05, < 30 s"):
        start = time.monotonic()
        rng = random.Random(14)
        one = ck.TailSequence((), 1)
        n1 = sums.AbsoluteNorm.l1()
        targets = []
        for _ in range(20):
            u = ck.random_unit(rng, rng.randrange(0, 4))
            v = ck.random_unit(rng, rng.randrange(0, 4))
            su = F(rng.randrange(0, 11), 10)
            sv = F(rng.randrange(0, 11 - int(10 * su)), 10)
            targets.append(sums.SumPoint(su * u, sv * v, n1))
        results = sums.sum_daugavet_construct(
            one, one, n1, F(1, 2), F(1, 2), targets, eps=F(1, 5), delta=F(1, 20))
        assert len(results) == 20
        for res in results:
            assert res.min_distance >= 2 - F(1, 5) - 1e-9
            assert res.avg_error <= F(1, 20) + 1e-9
        assert time.monotonic() - start < 30.0
