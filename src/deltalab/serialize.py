"""JSON schemas for points, functionals and certificates.

Text-only: exact rationals serialize as "p/q" strings, floating values as
decimal strings with 17 significant digits (lossless round-trip), ints stay
ints.  Field names are stable; every `*_from_json` inverts its `*_to_json`.

Each space's point and functional codecs live with its model and are found
through `sums.SPACES` by the "space" key; the functions here dispatch to
them, and own only the certificate schema and the `--ladder` spec.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import core, muntz, sums
from .core import Certificate, DeltaLabError, Rank1Operator
from .sums import space_hook

num_to_json, num_from_json = core.num_to_json, core.num_from_json
point_to_json, point_from_json = sums.encode_point, sums.decode_point
ladder_to_json, ladder_from_json = muntz.ladder_to_json, muntz.ladder_from_json


def parse_ladder_spec(spec: str) -> muntz.ExponentLadder:
    spec = spec.strip()
    if spec in ("n^2", "squares"):
        return muntz.ExponentLadder.squares()
    if spec.startswith("explicit:"):
        return muntz.ExponentLadder.from_list(
            [Fraction(v) for v in spec[len("explicit:"):].split(",")])
    raise DeltaLabError(f"cannot parse ladder spec {spec!r}")


def functional_to_json(phi) -> dict:
    return space_hook(getattr(phi, "space", None), "functional_to_json",
                      DeltaLabError(f"cannot serialize functional {type(phi).__name__}"))(phi)


def functional_from_json(obj, model=None):
    obj = json.loads(obj) if isinstance(obj, str) else obj
    return space_hook(obj["space"], "functional_from_json",
                      DeltaLabError(f"unknown functional space {obj['space']!r}"))(obj, model)


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
