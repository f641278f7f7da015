"""Output checkers that recompute each workload's claims apart from deltalab.

Every checker takes plain data (tuples of Fractions, floats and strings,
or the CLI's JSON text) and returns a list of error strings; an empty
list means the output is correct.  Nothing here imports deltalab: sup
norms of convergent sequences, L1 distances, Muntz values and Dirichlet
errors are recomputed from their definitions, in Fractions where the
claim is exact and in mpmath at 50 digits where it is not.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

GRID5 = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))
MPMATH_DIGITS = 50
TOL = 1e-8  # the acceptance tolerance of the Muntz witness criterion


def num(v) -> Fraction:
    """A report number: an int, a "p/q" string or a 17-digit decimal string."""
    if isinstance(v, bool):
        raise ValueError(f"not a number: {v!r}")
    return Fraction(v)


# ---------------------------------------------------------------------------
# L1 of a finite measure


def l1_daugavet(kinds, values) -> bool:
    """The L1 characterization: f is a Daugavet point iff it vanishes on
    every atom."""
    return all(v == 0 for k, v in zip(kinds, values) if k == "ATOM")


def l1_class_key(kinds, values):
    """Isometry invariant of a unit step function on equal-mass cells."""
    total = sum(abs(v) for v in values)
    return tuple(sorted((k, abs(v) / total) for k, v in zip(kinds, values)))


def l1_enumeration(max_cells=4, grid=GRID5):
    """(instance count, class keys) of all nonzero grid models."""
    keys = set()
    count = 0
    for n in range(1, max_cells + 1):
        for kinds in itertools.product(("ATOM", "NONATOMIC"), repeat=n):
            for values in itertools.product(grid, repeat=n):
                if any(values):
                    count += 1
                    keys.add(l1_class_key(kinds, values))
    return count, keys


def check_l1_oracle(jobs, max_cells=4, grid=GRID5):
    """jobs: one dict per isometry class with keys kinds, values, theorem,
    hull_delta, hull_daugavet and instances [(kinds, values, verdict)]."""
    errors = []
    count, keys = l1_enumeration(max_cells, grid)
    closed_form = sum(2 ** n * (len(grid) ** n - 1) for n in range(1, max_cells + 1))
    if count != closed_form:
        errors.append(f"enumeration count {count} != closed form {closed_form}")
    seen = [l1_class_key(job["kinds"], job["values"]) for job in jobs]
    if len(seen) != len(set(seen)) or set(seen) != keys:
        errors.append(f"{len(seen)} class jobs do not cover the {len(keys)} classes once")
    n_instances = sum(len(job["instances"]) for job in jobs)
    if n_instances != count:
        errors.append(f"{n_instances} theorem decisions, expected {count}")
    for key, job in zip(seen, jobs):
        want = l1_daugavet(job["kinds"], job["values"])
        for field in ("theorem", "hull_delta", "hull_daugavet"):
            if job[field] != want:
                errors.append(f"class {key}: {field} = {job[field]}, expected {want}")
        for kinds, values, verdict in job["instances"]:
            if l1_class_key(kinds, values) != key:
                errors.append(f"instance {kinds} {values} filed under class {key}")
            if verdict != l1_daugavet(kinds, values):
                errors.append(f"instance {kinds} {values}: verdict {verdict}")
    return errors


def l1_distance(f_cells, f_values, g_cells, g_values) -> Fraction:
    """||f - g||_1 where g lives on a refinement of f's model: a refined
    cell id extends its parent's id with ".i" suffixes."""
    parent = dict(zip((c["id"] for c in f_cells), f_values))
    total = Fraction(0)
    for cell, gv in zip(g_cells, g_values):
        fv = parent[cell["id"].split(".")[0]]
        total += num(cell["mass"]) * abs(fv - gv)
    return total


# ---------------------------------------------------------------------------
# C(K) sequences: a prefix followed by a constant limit


def seq_value(prefix, limit, i):
    return prefix[i] if i < len(prefix) else limit


def seq_dist(a, b) -> Fraction:
    """sup |a_i - b_i| of two convergent sequences (prefix, limit)."""
    (pa, la), (pb, lb) = a, b
    n = max(len(pa), len(pb))
    return max([abs(la - lb)] + [abs(seq_value(pa, la, i) - seq_value(pb, lb, i))
                                 for i in range(n)])


def seq_norm(a) -> Fraction:
    return seq_dist(a, ((), Fraction(0)))


def seq_mean(seqs):
    n = max(len(p) for p, _ in seqs)
    m = len(seqs)
    prefix = tuple(sum(seq_value(p, l, i) for p, l in seqs) / m for i in range(n))
    return prefix, sum(l for _, l in seqs) / m


def check_sum_construct(job, eps, delta, anchor):
    """One c (+)_1 c construction.  job: target ((prefix, limit), (prefix,
    limit)), members [((prefix, limit), (prefix, limit))] and count; anchor
    is the pair (a x, b y) the members must be far from."""
    errors = []
    members = job["members"]
    if job["count"] != len(members):
        errors.append(f"count {job['count']} != {len(members)} members")
    if not members:
        return errors + ["no members"]
    ax, ay = anchor
    for i, (mx, my) in enumerate(members):
        d = seq_dist(mx, ax) + seq_dist(my, ay)
        if d < 2 - eps:
            errors.append(f"member {i} at distance {d} < 2 - eps")
        if seq_norm(mx) + seq_norm(my) > 1:
            errors.append(f"member {i} outside the unit ball")
    tx, ty = job["target"]
    avg_x = seq_mean([mx for mx, _ in members])
    avg_y = seq_mean([my for _, my in members])
    err = seq_dist(avg_x, tx) + seq_dist(avg_y, ty)
    if err > delta:
        errors.append(f"average misses the target by {err} > delta")
    return errors


# ---------------------------------------------------------------------------
# Muntz spans: sum of c t^lam with lam = k^2 on the squares ladder


def muntz_at_one(terms) -> Fraction:
    return sum((c for _, c in terms), Fraction(0))


def _mp_value(mp, terms, u):
    """sum c (1 - u)^lam at 50 digits; u given exactly as an mpf."""
    log_t = mp.log1p(-u)
    return mp.fsum(mp.mpf(c.numerator) / c.denominator * mp.exp(lam * log_t)
                   for lam, c in terms)


def _combine(term_lists, weight):
    acc = {}
    for terms in term_lists:
        for lam, c in terms:
            acc[lam] = acc.get(lam, Fraction(0)) + weight * c
    return sorted((lam, c) for lam, c in acc.items() if c)


def check_muntz_witness(job, f_terms, g_terms, delta, grid_points=240):
    """One endpoint-spike far family around g for f.  job: m, members
    (exponent, coefficient) term lists, peaks_u (spike peak depths u =
    1 - t) and avg_bound (the certified sup of g - average).  delta is the
    float the program was given; its exact binary value is used."""
    import mpmath

    mp = mpmath.mp
    mp.dps = MPMATH_DIGITS
    errors = []
    m = math.ceil(2 / delta)
    members = job["members"]
    if job["m"] != m or len(members) != m or len(job["peaks_u"]) != m:
        errors.append(f"family size {job['m']} / {len(members)} members, expected {m}")
    d = Fraction(delta)
    want_at_one = muntz_at_one(g_terms) / (1 + d)
    for i, terms in enumerate(members):
        if muntz_at_one(terms) != want_at_one:
            errors.append(f"member {i}: value at 1 is not g(1)/(1 + delta)")
    floor = 2 - 3 * delta - TOL
    for i, (terms, peak) in enumerate(zip(members, job["peaks_u"])):
        u = mp.mpf(peak)
        gap = abs(_mp_value(mp, terms, u) - _mp_value(mp, f_terms, u))
        if gap < floor:
            errors.append(f"member {i}: |member - f| = {float(gap)} < 2 - 3 delta at u = {peak}")
    bound = job["avg_bound"]
    if bound > 3 * delta + TOL:
        errors.append(f"certified average error {bound} > 3 delta")
    average = _combine(members, Fraction(1, m))
    resid = _combine([g_terms, [(lam, -c) for lam, c in average]], Fraction(1))
    deepest = min(job["peaks_u"], default=1e-3)
    lo = mp.log10(mp.mpf(deepest)) - 3
    us = [mp.power(10, lo + (0 - lo) * j / (grid_points - 1)) for j in range(grid_points)]
    us += [mp.mpf(p) for p in job["peaks_u"]]
    worst = max(abs(_mp_value(mp, resid, u)) for u in us if u < 1)
    if worst > bound + TOL:
        errors.append(f"|g - average| reaches {float(worst)} > certified {bound}")
    return errors


# ---------------------------------------------------------------------------
# CLI reports


def _seq_from_json(obj):
    limit = obj.get("limit")
    return (tuple(num(v) for v in obj.get("prefix", ())),
            None if limit is None else num(limit))


def _muntz_terms_from_json(obj):
    return [(Fraction(int(k) ** 2), num(c)) for k, c in obj["terms"]]


def check_cli_request(argv, outputs, codes):
    """One CLI request run several times: exit codes, byte identity and the
    report's claims re-derived from its own JSON and the arguments."""
    if any(code != 0 for code in codes):
        return [f"exit codes {sorted(set(codes))}"]
    if len(set(outputs)) != 1:
        return ["reports differ between identical runs"]
    args = dict(zip(argv[1::2], argv[2::2])) if len(argv) % 2 == 1 else {}
    args = {k.lstrip("-"): v for k, v in args.items()}
    report = json.loads(outputs[0])
    cmd = argv[0]
    if report.get("command") != cmd or not report.get("results"):
        return ["report has no results"]
    res = report["results"][0]
    space = args.get("space")
    point = json.loads(args["point"]) if "point" in args else None
    errors = []

    def expected_daugavet():
        if space == "l1":
            kinds = [c["kind"] for c in point["cells"]]
            return l1_daugavet(kinds, [num(v) for v in point["values"]])
        if space == "ck":
            return abs(_seq_from_json(point)[1]) == 1
        return abs(muntz_at_one(_muntz_terms_from_json(point))) == 1

    if cmd == "certify":
        if res["is_daugavet_point"] != expected_daugavet():
            errors.append(f"verdict {res['is_daugavet_point']} contradicts the characterization")
    elif cmd == "crosscheck":
        want = expected_daugavet()
        tol = float(args.get("tol", 1e-6 if space == "l1" else 1e-2))
        rows = res["rows"]
        if res["theorem_daugavet"] != want:
            errors.append("theorem verdict contradicts the characterization")
        for row in rows:
            d_ok = float(row["delta_distance"]) <= tol
            if row["delta_ok"] != d_ok:
                errors.append(f"row eps={row['eps']}: delta_ok does not match its distance")
            if row["daugavet_ok"] != (d_ok and float(row["max_probe_distance"]) <= tol):
                errors.append(f"row eps={row['eps']}: daugavet_ok does not match its distances")
        hull_delta = all(r["delta_ok"] for r in rows)
        hull_daug = all(r["daugavet_ok"] for r in rows)
        if (res["hull_delta"], res["hull_daugavet"]) != (hull_delta, hull_daug):
            errors.append("hull verdicts do not summarize the rows")
        agree = hull_delta == want and hull_daug == want
        if res["agree"] != agree or not agree:
            errors.append(f"agree = {res['agree']}, re-derived {agree}")
    elif cmd == "witness" and space == "ck":
        eps = num(args["eps"])
        f = _seq_from_json(point)
        g = _seq_from_json(json.loads(args["target"]))
        members = [_seq_from_json(mem) for mem in res["members"]]
        if len(members) != int(args.get("m", 8)):
            errors.append(f"{len(members)} members, asked for {args.get('m', 8)}")
        dists = [seq_dist(f, mem) for mem in members]
        if min(dists) < 2 - eps or min(dists) != num(res["min_distance"]):
            errors.append(f"min distance {res['min_distance']}, re-derived {min(dists)}")
        if any(seq_norm(mem) > 1 for mem in members):
            errors.append("a member left the unit ball")
        if seq_dist(seq_mean(members), g) != num(res["avg_error"]):
            errors.append("average error does not re-derive")
    elif cmd == "witness" and space == "l1":
        eps, delta = num(args["eps"]), num(args["delta"])
        f_vals = [num(v) for v in point["values"]]
        w = res["witness"]
        g_vals = [num(v) for v in w["values"]]
        dist = l1_distance(point["cells"], f_vals, w["cells"], g_vals)
        if dist != num(res["distance"]) or dist < 2 - eps:
            errors.append(f"distance {res['distance']}, re-derived {dist}")
        if sum(num(c["mass"]) * abs(v) for c, v in zip(w["cells"], g_vals)) != 1:
            errors.append("witness is not a unit vector")
        coeffs = dict(zip((c["id"] for c in point["cells"]),
                          (num(a) for a in json.loads(args["functional"])["coeffs"])))
        value = sum(coeffs[c["id"].split(".")[0]] * v * num(c["mass"])
                    for c, v in zip(w["cells"], g_vals))
        if value != num(res["functional_value"]) or value <= 1 - delta:
            errors.append(f"functional value {res['functional_value']}, re-derived {value}")
    elif cmd == "witness" and space == "muntz":
        delta = float(args["delta"])
        g_terms = _muntz_terms_from_json(json.loads(args["target"]))
        if res["count"] != math.ceil(2 / delta) or len(res["members"]) != res["count"]:
            errors.append(f"family size {res['count']}")
        want = muntz_at_one(g_terms) / (1 + Fraction(delta))
        if any(muntz_at_one(_muntz_terms_from_json(mem)) != want for mem in res["members"]):
            errors.append("a member's value at 1 is not g(1)/(1 + delta)")
        if float(res["min_distance"]) < 2 - 3 * delta - TOL:
            errors.append("min distance below 2 - 3 delta")
        if float(res["avg_error_certified"]) > 3 * delta + TOL:
            errors.append("certified average error above 3 delta")
    elif cmd == "decompose" and space == "ck":
        eps = num(args.get("eps", "1/10"))
        f = _seq_from_json(point)
        mu = num(res["mu"])
        plus, minus = _seq_from_json(res["plus"]), _seq_from_json(res["minus"])
        if mu != (1 + f[1]) / 2 or (plus[1], minus[1]) != (1, -1):
            errors.append("mu or the parts' limits do not re-derive")
        if seq_norm(plus) != 1 or seq_norm(minus) != 1:
            errors.append("a part is not a unit vector")
        n = max(len(plus[0]), len(minus[0]))
        recon = (tuple(mu * seq_value(*plus, i) + (1 - mu) * seq_value(*minus, i)
                       for i in range(n)), mu * plus[1] + (1 - mu) * minus[1])
        err = seq_dist(recon, f)
        if err != num(res["reconstruction_error"]) or err >= eps:
            errors.append(f"reconstruction error {res['reconstruction_error']}, re-derived {err}")
    elif cmd == "decompose" and space == "muntz":
        f = _muntz_terms_from_json(point)
        plus = _muntz_terms_from_json(res["plus"])
        minus = _muntz_terms_from_json(res["minus"])
        mu = num(res["mu"])
        if mu != (muntz_at_one(f) + 1) / 2:
            errors.append("mu does not re-derive")
        if (muntz_at_one(plus), muntz_at_one(minus)) != (1, -1):
            errors.append("parts do not norm at the endpoint")
        mix = _combine([[(lam, mu * c) for lam, c in plus],
                        [(lam, (1 - mu) * c) for lam, c in minus]], Fraction(1))
        if mix != _combine([f], Fraction(1)):
            errors.append("mu plus + (1 - mu) minus is not the point")
        if max(float(res["norm_plus_hi"]), float(res["norm_minus_hi"])) > 1 + TOL:
            errors.append("a part leaves the unit ball")
    elif cmd == "sums" and "dirichlet" in args:
        weights = [Fraction(w) for w in args["dirichlet"].split(",")]
        n, counts = res["n"], res["counts"]
        if sum(counts) != n or len(counts) != len(weights) or min(counts) < 0:
            errors.append(f"dirichlet counts {counts} do not split n = {n}")
        elif sum(abs(w - Fraction(k, n)) for w, k in zip(weights, counts)) >= num(
                args.get("eps", "1/10")):
            errors.append("dirichlet average not within eps")
    elif cmd == "sums":
        norm = args["norm"]
        if args["check"] == "octahedral":
            want = norm in ("l1", "linf")
            if res["verdict"] != want:
                errors.append(f"{norm} octahedral verdict {res['verdict']}")
        elif res["verdict"] is not (norm.startswith("lp:") or norm == "l2"):
            errors.append(f"{norm} alpha verdict {res['verdict']}")
    elif cmd == "bernstein":
        lower, grid = float(res["lower_bound"]), float(res["grid_value"])
        if not (0 < lower and math.isfinite(grid) and float(res["norm_hi"]) > 0):
            errors.append("bernstein bound is not a positive finite number")
    else:
        errors.append(f"no checker for {argv[:3]}")
    return errors
