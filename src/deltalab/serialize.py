"""JSON schemas for points, functionals and certificates.

Text-only: exact rationals serialize as "p/q" strings, floating values as
decimal strings with 17 significant digits (lossless round-trip), ints stay
ints.  Field names are stable; every `*_from_json` inverts its `*_to_json`.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import ck as ck_mod
from . import l1 as l1_mod
from . import muntz as muntz_mod
from . import sums as sums_mod
from .core import Certificate, DeltaLabError, Rank1Operator
from .util import fmt17, frac_str


def num_to_json(x):
    if isinstance(x, bool) or isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, float):
        return fmt17(x)
    raise DeltaLabError(f"cannot serialize numeric {type(x).__name__}")


def num_from_json(v):
    if isinstance(v, (int, float)):
        return Fraction(v)
    if isinstance(v, str):
        if "/" in v:
            return Fraction(v)
        return float(v)
    raise DeltaLabError(f"cannot parse numeric {v!r}")


# ---------------------------------------------------------------------------
# points


def point_to_json(p) -> dict:
    if isinstance(p, l1_mod.StepFunction):
        return {
            "space": "l1",
            "cells": [{"id": c.id, "mass": num_to_json(c.mass), "kind": c.kind.value}
                      for c in p.model.cells],
            "values": [num_to_json(v) for v in p.values],
        }
    if isinstance(p, ck_mod.TailSequence):
        out = {
            "space": "ck",
            "variant": p.variant.value,
            "prefix": [num_to_json(v) for v in p.prefix],
        }
        out["limit"] = None if p.limit is None else num_to_json(p.limit)
        return out
    if isinstance(p, muntz_mod.MuntzPolynomial):
        return {
            "space": "muntz",
            "ladder": ladder_to_json(p.ladder),
            "terms": [[k, num_to_json(c)] for k, c in p.terms],
        }
    if isinstance(p, sums_mod.SumPoint):
        return {
            "space": "sum",
            "norm": p.norm_rule.name(),
            "x": point_to_json(p.x),
            "y": point_to_json(p.y),
        }
    raise DeltaLabError(f"cannot serialize {type(p).__name__}")


def point_from_json(obj, default_space=None):
    if isinstance(obj, str):
        obj = json.loads(obj)
    space = obj.get("space", default_space)
    if space == "l1":
        model = l1_mod.MeasureModel(tuple(
            l1_mod.Cell(c["id"], num_from_json(c["mass"]), l1_mod.CellKind(c["kind"]))
            for c in obj["cells"]))
        return l1_mod.StepFunction(model, tuple(num_from_json(v) for v in obj["values"]))
    if space == "ck":
        variant = ck_mod.Variant(obj.get("variant", "C"))
        limit = obj.get("limit", 0)
        return ck_mod.TailSequence(
            tuple(num_from_json(v) for v in obj["prefix"]),
            None if variant is ck_mod.Variant.LINF_N else num_from_json(limit),
            variant)
    if space == "muntz":
        ladder = ladder_from_json(obj.get("ladder", {"rule": "n^2"}))
        return muntz_mod.MuntzPolynomial(
            ladder, tuple((int(k), num_from_json(c)) for k, c in obj["terms"]))
    if space == "sum":
        norm = sums_mod.AbsoluteNorm.parse(obj["norm"])
        return sums_mod.SumPoint(point_from_json(obj["x"]), point_from_json(obj["y"]), norm)
    raise DeltaLabError(f"unknown space {space!r}")


def ladder_to_json(ladder: muntz_mod.ExponentLadder) -> dict:
    if ladder.explicit is not None:
        return {"explicit": [num_to_json(v) for v in ladder.explicit],
                "includes_constant": ladder.includes_constant}
    return {"rule": ladder.name, "includes_constant": ladder.includes_constant}


def ladder_from_json(obj) -> muntz_mod.ExponentLadder:
    if "explicit" in obj:
        return muntz_mod.ExponentLadder.from_list(
            [num_from_json(v) for v in obj["explicit"]],
            includes_constant=obj.get("includes_constant", False))
    rule = obj.get("rule", "n^2")
    if rule == "n^2":
        lad = muntz_mod.ExponentLadder.squares()
        if obj.get("includes_constant"):
            raise DeltaLabError("built-in ladders are constant-free")
        return lad
    raise DeltaLabError(f"unknown ladder rule {rule!r}")


def parse_ladder_spec(spec: str) -> muntz_mod.ExponentLadder:
    spec = spec.strip()
    if spec in ("n^2", "squares"):
        return muntz_mod.ExponentLadder.squares()
    if spec.startswith("explicit:"):
        return muntz_mod.ExponentLadder.from_list(
            [Fraction(v) for v in spec[len("explicit:"):].split(",")])
    raise DeltaLabError(f"cannot parse ladder spec {spec!r}")


# ---------------------------------------------------------------------------
# functionals


def functional_to_json(phi) -> dict:
    if isinstance(phi, l1_mod.StepFunctional):
        return {"space": "l1", "dual": True,
                "coeffs": [num_to_json(v) for v in phi.coeffs]}
    if isinstance(phi, ck_mod.SequenceFunctional):
        return {"space": "ck", "dual": True,
                "weights": [num_to_json(v) for v in phi.weights],
                "limit_coeff": num_to_json(phi.limit_coeff),
                "variant": phi.variant.value}
    if isinstance(phi, muntz_mod.PointEvaluationFunctional):
        return {"space": "muntz", "dual": True,
                "nodes": [[num_to_json(u), num_to_json(c)] for u, c in phi.nodes]}
    raise DeltaLabError(f"cannot serialize functional {type(phi).__name__}")


def functional_from_json(obj, model=None):
    if isinstance(obj, str):
        obj = json.loads(obj)
    space = obj["space"]
    if space == "l1":
        if model is None:
            raise DeltaLabError("l1 functionals need the measure model")
        return l1_mod.StepFunctional(model, tuple(num_from_json(v) for v in obj["coeffs"]))
    if space == "ck":
        return ck_mod.SequenceFunctional(
            tuple(num_from_json(v) for v in obj["weights"]),
            num_from_json(obj.get("limit_coeff", 0)),
            ck_mod.Variant(obj.get("variant", "C")))
    if space == "muntz":
        return muntz_mod.PointEvaluationFunctional(
            tuple((num_from_json(u), num_from_json(c)) for u, c in obj["nodes"]))
    raise DeltaLabError(f"unknown functional space {space!r}")


# ---------------------------------------------------------------------------
# certificates (outputs only)


def certificate_to_json(cert: Certificate) -> dict:
    out = {"verdict": cert.verdict.value}
    if cert.refutation is not None:
        ref = cert.refutation
        refuter = ref.refuter
        if isinstance(refuter, Rank1Operator):
            rj = {"type": "rank1_projection",
                  "functional": functional_to_json(refuter.functional),
                  "direction": point_to_json(refuter.direction)}
        else:
            rj = {"type": "functional", "functional": functional_to_json(refuter)}
        out["refutation"] = {
            "refuter": rj,
            "bound": num_to_json(ref.bound),
            "margin": num_to_json(ref.margin),
            "note": ref.note,
        }
    if cert.witness:
        out["witness"] = [
            {"eps": num_to_json(rec.eps), "delta": num_to_json(rec.delta),
             "min_distance": num_to_json(rec.min_distance),
             "combo_error": num_to_json(rec.combo_error),
             "members": [[point_to_json(p), num_to_json(w)] for p, w in rec.members]}
            for rec in cert.witness]
    if cert.log:
        out["log"] = [[k, num_to_json(v) if isinstance(v, (int, float, Fraction))
                       else str(v)] for k, v in cert.log]
    return out
