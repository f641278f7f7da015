"""The four workloads: inputs made from a seed, a fixed job list, and the
checks of every job's output.

A workload is built once per process (`build`, part of set-up), warmed up
with one untimed call, and then yields the same job list for every pass.
A job returns plain data (see `checkers`), so the checks never rely on
the program's own verification.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction

import checkers

EPS_GRID = (Fraction(1, 10), Fraction(1, 2), Fraction(1))


def _seq(p):
    return (tuple(p.prefix), p.limit)


class L1Oracle:
    """Criterion 2: every L1 model of at most 4 equal-mass cells with values
    on the 5-point grid.  One job per isometry class: the hull crosscheck of
    its representative at eps in {1/10, 1/2, 1} plus the theorem decision
    on every instance of the class.  The seed orders the classes and seeds
    the crosscheck's probes."""

    MAX_CELLS = 4

    def build(self, seed):
        self.seed = seed
        classes = {}
        for n in range(1, self.MAX_CELLS + 1):
            for kinds in itertools.product(("ATOM", "NONATOMIC"), repeat=n):
                for values in itertools.product(checkers.GRID5, repeat=n):
                    if not any(values):
                        continue
                    nrm = sum(abs(v) for v in values)
                    normed = tuple(v / nrm for v in values)
                    key = tuple(sorted((k, abs(v)) for k, v in zip(kinds, normed)))
                    classes.setdefault(key, []).append((kinds, normed))
        self.classes = list(classes.values())
        random.Random(seed).shuffle(self.classes)

    def warmup(self):
        self._job(self.classes[0][:1])

    def _job(self, instances):
        from deltalab import crosscheck, l1

        def point(kinds, values):
            model = l1.MeasureModel(tuple((f"c{j}", 1, k) for j, k in enumerate(kinds)))
            return l1.StepFunction(model, values)

        kinds, values = instances[0]
        rep = crosscheck.crosscheck_characterizations(point(kinds, values), EPS_GRID,
                                                      seed=self.seed)
        verdicts = [(k, v, l1.is_daugavet_point_l1(point(k, v))[0]) for k, v in instances]
        return {"kinds": kinds, "values": values, "theorem": rep.theorem_daugavet,
                "hull_delta": rep.hull_delta, "hull_daugavet": rep.hull_daugavet,
                "agree": rep.agree, "instances": verdicts}

    def jobs(self):
        return [lambda c=c: self._job(c) for c in self.classes]

    def check(self, outputs):
        errors = checkers.check_l1_oracle(outputs, self.MAX_CELLS)
        errors += [f"crosscheck reports agree = False for {o['kinds']}"
                   for o in outputs if not o["agree"]]
        return errors


class MuntzWitness:
    """Criterion 9: far families around seeded random unit g for f = t on
    the squares ladder, eps 0.5, delta 0.1, so m = 20 spikes each."""

    N_TARGETS = 4
    EPS, DELTA = 0.5, 0.1

    def build(self, seed):
        from deltalab import muntz

        self.ladder = muntz.ExponentLadder.squares()
        self.f = muntz.MuntzPolynomial(self.ladder, ((1, 1),))
        rng = random.Random(seed)
        self.targets = [self._random_unit(rng) for _ in range(self.N_TARGETS)]

    def _random_unit(self, rng):
        """The criterion-9 generator: 1-5 terms t^{k^2}, k <= 6, coefficients
        in eighths, scaled to the midpoint of a certified norm enclosure."""
        from deltalab import muntz

        while True:
            terms = tuple((rng.randrange(1, 7), Fraction(rng.randrange(-8, 9), 8))
                          for _ in range(rng.randrange(1, 6)))
            p = muntz.MuntzPolynomial(self.ladder, terms)
            if not p.terms:
                continue
            enc = p.sup_enclosure(1e-11)
            if enc.lo <= 0:
                continue
            return (1 / muntz.as_fraction((enc.lo + enc.hi) / 2)) * p

    def warmup(self):
        from deltalab import muntz

        muntz.spike_search(self.ladder, 0.5, 0.25)

    def _job(self, g):
        from deltalab import muntz

        w = muntz.daugavet_witness_muntz(self.f, g, eps=self.EPS, delta=self.DELTA)
        return {"g": self._terms(g), "m": w.m,
                "members": [self._terms(mem) for mem in w.members],
                "peaks_u": [s.peak_u for s in w.spikes],
                "avg_bound": w.avg_error_direct}

    @staticmethod
    def _terms(p):
        """(exponent, coefficient) pairs, exponents recomputed as k^2 and
        the constant offset as exponent 0."""
        return [(Fraction(k * k), c) for k, c in p.terms] + [(Fraction(0), p.const)] * (p.const != 0)

    def jobs(self):
        return [lambda g=g: self._job(g) for g in self.targets]

    def check(self, outputs):
        errors = []
        for out in outputs:
            errors += checkers.check_muntz_witness(out, self._terms(self.f), out["g"],
                                                   self.DELTA)
        return errors


class SumConstruct:
    """Criterion 14: far families in c (+)_1 c around (x/2, y/2) with
    x = y = the constant 1, eps 1/5, delta 1/20.  The components u, v come
    from the criterion-14 generator (`ck.random_unit`); their prefix
    lengths and the target norms follow a fixed schedule so that every
    seed asks for the same amount of work: two sphere targets and one
    interior target of norm 1/2.  The seed picks the grid values and the
    split of the norm between the components (both nonzero)."""

    SCHEDULE = ((10, 0, 1), (10, 1, 0), (5, 1, 1))   # (10 * norm, len u, len v)
    EPS, DELTA = Fraction(1, 5), Fraction(1, 20)

    def build(self, seed):
        from deltalab import ck, sums

        rng = random.Random(seed)
        self.one = ck.TailSequence((), 1)
        self.norm = sums.AbsoluteNorm.l1()
        self.targets = []
        for r10, lu, lv in self.SCHEDULE:
            u, v = ck.random_unit(rng, lu), ck.random_unit(rng, lv)
            su = Fraction(rng.randrange(1, r10), 10)
            sv = Fraction(r10, 10) - su
            self.targets.append((sums.SumPoint(su * u, sv * v, self.norm),
                                 (self._scaled(u, su), self._scaled(v, sv))))

    @staticmethod
    def _scaled(p, s):
        return tuple(s * x for x in p.prefix), s * p.limit

    def warmup(self):
        from deltalab import sums

        sums.dirichlet_average_pair([Fraction(1, 3), Fraction(2, 3)],
                                    [Fraction(1, 2), Fraction(1, 2)], Fraction(1, 80))

    def _job(self, target):
        from deltalab import sums

        half = Fraction(1, 2)
        (res,) = sums.sum_daugavet_construct(self.one, self.one, self.norm, half, half,
                                             [target], eps=self.EPS, delta=self.DELTA)
        return {"count": res.count,
                "members": [(_seq(m.x), _seq(m.y)) for m in res.members]}

    def jobs(self):
        return [lambda t=t: self._job(t) for t, _ in self.targets]

    def check(self, outputs):
        errors = []
        anchor = (((), Fraction(1, 2)), ((), Fraction(1, 2)))
        for out, (_, raw) in zip(outputs, self.targets):
            errors += checkers.check_sum_construct(dict(out, target=raw), self.EPS,
                                                   self.DELTA, anchor)
        return errors


def _unit_l1_point(rng, n):
    """A unit step function on n equal-mass cells of seeded kinds."""
    while True:
        values = [Fraction(rng.randrange(-2, 3)) for _ in range(n)]
        if any(values):
            break
    total = sum(abs(v) for v in values) / n
    cells = [{"id": f"c{i}", "mass": f"1/{n}",
              "kind": rng.choice(("ATOM", "NONATOMIC"))} for i in range(n)]
    return {"cells": cells, "values": [str(v / total) for v in values]}


def _ck_point(rng, n, limit):
    """A unit point of c: seeded prefix on the 5-point grid, one entry or
    the limit of modulus 1."""
    grid = ["-1", "-1/2", "0", "1/2", "1"]
    prefix = [rng.choice(grid) for _ in range(n)]
    if abs(Fraction(limit)) != 1:
        prefix[rng.randrange(n)] = rng.choice(("-1", "1"))
    return {"prefix": prefix, "limit": limit}


class CliRequests:
    """Argument vectors through `cli.main`: every README example, then
    heavier seeded variants of every command and space.  A job runs one
    argument vector a fixed number of times, so that even a 2 ms request
    makes a job of a tenth of a second or more."""

    def build(self, seed):
        rng = random.Random(seed)
        js = json.dumps
        l1_one = '{"cells":[{"id":"a","mass":"1","kind":"NONATOMIC"}],"values":["1"]}'
        l1_atom = '{"cells":[{"id":"a","mass":"1","kind":"ATOM"}],"values":["1"]}'
        a = Fraction(rng.randrange(1, 8), 8)
        c1, c2 = Fraction(rng.randrange(1, 4), 8), Fraction(rng.randrange(1, 4), 8)
        weights = [rng.randrange(1, 30) for _ in range(4)]
        weights = ",".join(str(Fraction(w, sum(weights))) for w in weights)
        self.requests = [
            # the README examples
            (["certify", "--space", "ck", "--point", '{"prefix":[1,0.5],"limit":0}'], 50),
            (["certify", "--space", "l1", "--point", l1_one], 50),
            (["witness", "--space", "ck", "--point", '{"prefix":[],"limit":1}',
              "--target", '{"prefix":[],"limit":0}', "--eps", "1/10", "--m", "4"], 50),
            (["decompose", "--space", "muntz", "--point", '{"terms":[[1,"1/2"]]}'], 50),
            (["sums", "--norm", "l2", "--check", "alpha"], 3),
            (["sums", "--dirichlet", "2/5,3/5", "--eps", "1/20"], 50),
            (["bernstein", "--terms", "3", "--s", "0.5", "--grid", "64"], 2),
            (["crosscheck", "--space", "l1", "--point", l1_atom], 5),
            # heavier seeded variants
            (["certify", "--space", "l1", "--point", js(_unit_l1_point(rng, 4))], 50),
            (["certify", "--space", "ck", "--point",
              js(_ck_point(rng, 6, rng.choice(("-1", "0", "1/2", "1"))))], 50),
            (["certify", "--space", "muntz", "--point",
              js({"terms": [[1, str(a)], [3, str(1 - a)]]})], 50),
            (["witness", "--space", "ck", "--point", js(_ck_point(rng, 3, "1")),
              "--target", js(_ck_point(rng, 4, "0")), "--eps", "1/20", "--m", "64"], 5),
            (["witness", "--space", "l1", "--point", l1_one, "--functional",
              '{"space":"l1","coeffs":["1"]}', "--eps", str(Fraction(rng.randrange(1, 4), 4)),
              "--delta", "1/10"], 50),
            (["witness", "--space", "muntz", "--point", '{"terms":[[1,"1"]]}', "--target",
              js({"terms": [[rng.randrange(2, 5), str(c1 - 1)]]}),
              "--eps", "0.5", "--delta", "0.15"], 1),
            (["decompose", "--space", "ck", "--point",
              js(_ck_point(rng, 5, rng.choice(("0", "1/2", "-1/2"))))], 50),
            (["decompose", "--space", "muntz", "--point",
              js({"terms": [[1, str(c1)], [2, str(c2)]]})], 10),
            (["sums", "--norm", "lp:3", "--check", "alpha"], 3),
            (["sums", "--norm", "linf", "--check", "octahedral"], 50),
            (["sums", "--dirichlet", weights, "--eps", "1/200"], 25),
            (["bernstein", "--terms", "5", "--s", "0.5", "--grid", "256"], 1),
            (["crosscheck", "--space", "l1", "--point", js(_unit_l1_point(rng, 3))], 3),
            (["crosscheck", "--space", "ck", "--point",
              js(_ck_point(rng, 2, "0"))], 5),
            (["crosscheck", "--space", "ck", "--point",
              js(_ck_point(rng, 2, rng.choice(("-1", "1")))), "--eps-grid", "1/10,1/2"], 1),
        ]

    def warmup(self):
        # the README crosscheck example: the first request that solves an LP
        self._job(self.requests[7][0], 1)

    @staticmethod
    def _job(argv, reps):
        import deltalab.cli

        outputs, codes = [], []
        for _ in range(reps):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(deltalab.cli.main(list(argv)))
            outputs.append(buf.getvalue())
        return {"argv": argv, "outputs": outputs, "codes": codes}

    def jobs(self):
        return [lambda r=r: self._job(*r) for r in self.requests]

    def check(self, outputs):
        return [f"{' '.join(out['argv'][:3])}: {e}" for out in outputs for e in
                checkers.check_cli_request(out["argv"], out["outputs"], out["codes"])]


WORKLOADS = {
    "l1_oracle": L1Oracle,
    "muntz_witness": MuntzWitness,
    "sum_construct": SumConstruct,
    "cli_requests": CliRequests,
}
