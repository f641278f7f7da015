"""Batch front-end: certify points, build witnesses, decompose, check norms.

Exit codes: 0 success, 1 usage/malformed input, 2 a construction was built
but failed its own re-verification (the one thing this tool must never let
pass silently).

Reports are deterministic for a fixed RunConfig including the seed; wall
clock timings are only attached under --timings so that default output is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import crosscheck as crosscheck_mod
from . import muntz as muntz_mod
from . import serialize
from . import sums as sums_mod
from .core import CertificationError, DeltaLabError, VerificationError
from .core import num_to_json as _num
from .sums import space_hook
from .util import fmt17


class UsageError(DeltaLabError):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    fmt: str = "json"
    out: Optional[str] = None
    timings: bool = False


def _load_arg(raw: str):
    """Inline JSON or @path to a JSON file."""
    if raw.startswith("@"):
        with open(raw[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(raw)


# ---------------------------------------------------------------------------
# command implementations


def _cmd_certify(params, seed):
    space = params["space"]
    point = serialize.point_from_json(params["point"], default_space=space)
    decide = space_hook(space, "decide", UsageError(f"certify does not know space {space!r}"))
    verdict, cert = decide(point)
    cert.recheck()
    out = {"space": space, "is_daugavet_point": verdict,
           "certificate": serialize.certificate_to_json(cert)}
    if cert.refutation is not None:
        out["bound"] = _num(cert.refutation.bound)
    return [out]


def _cmd_witness(params, seed):
    space = params["space"]
    point = serialize.point_from_json(params["point"], default_space=space)
    eps = Fraction(str(params["eps"]))
    report = space_hook(space, "witness_report", UsageError(f"witness does not know space {space!r}"))
    return [{"space": space, **report(point, eps, params, serialize)}]


def _cmd_decompose(params, seed):
    space = params["space"]
    point = serialize.point_from_json(params["point"], default_space=space)
    report = space_hook(space, "decompose_report",
                        UsageError(f"decompose does not know space {space!r}"))
    return [{"space": space, **report(point, params)}]


def _cmd_sums(params, seed):
    results = []
    if "norm" in params and params.get("check"):
        norm = sums_mod.AbsoluteNorm.parse(params["norm"])
        check = params["check"]
        if check == "octahedral":
            res = sums_mod.is_positively_octahedral(norm)
            results.append({
                "norm": norm.name(), "check": "octahedral", "verdict": res.verdict,
                "witness": None if res.witness is None else [_num(w) for w in res.witness],
                "value": _num(res.value), "exact": res.exact,
            })
        elif check == "alpha":
            res = sums_mod.has_property_alpha(norm)
            results.append({
                "norm": norm.name(), "check": "alpha",
                "verdict": res.verdict if res.verdict is not None else "UNDECIDED",
                "note": res.note,
                "records": [{"c": _num(r.c), "d": _num(r.d), "eps": _num(r.eps),
                             "radius": _num(r.radius), "route": r.route,
                             "sup_bound": _num(r.sup_bound)}
                            for r in res.sample_records],
            })
        else:
            raise UsageError(f"unknown sums check {check!r}")
    if "dirichlet" in params and params["dirichlet"]:
        weights = [Fraction(w) for w in str(params["dirichlet"]).split(",")]
        n, counts = sums_mod.dirichlet_average(weights, Fraction(str(params.get("eps", "1/10"))))
        results.append({"check": "dirichlet", "n": n, "counts": list(counts)})
    if not results:
        raise UsageError("sums needs --check and/or --dirichlet")
    return results


def _cmd_bernstein(params, seed):
    ladder = serialize.parse_ladder_spec(params.get("ladder", "n^2"))
    s = float(Fraction(str(params["s"])))
    res = muntz_mod.bernstein_estimate(
        ladder, int(params["terms"]), s, int(params.get("grid", 128)))
    return [{
        "terms": int(params["terms"]), "s": _num(s),
        "lower_bound": _num(res.lower_bound), "grid_value": _num(res.grid_value),
        "at": _num(res.at), "norm_hi": _num(res.norm_hi),
    }]


def _cmd_crosscheck(params, seed):
    space = params["space"]
    point = serialize.point_from_json(params["point"], default_space=space)
    grid = [Fraction(v) for v in str(params.get("eps_grid", "1/10,1/2,1")).split(",")]
    tol = None if params.get("tol") is None else float(Fraction(str(params["tol"])))

    rep = crosscheck_mod.crosscheck_characterizations(point, grid, tol=tol, seed=seed)
    return [{
        "space": space,
        "agree": rep.agree,
        "theorem_daugavet": rep.theorem_daugavet,
        "hull_delta": rep.hull_delta,
        "hull_daugavet": rep.hull_daugavet,
        "rows": [{"eps": _num(r.eps), "candidates": r.n_candidates,
                  "delta_distance": _num(float(r.delta_distance)),
                  "max_probe_distance": _num(float(max(r.probe_distances, default=0))),
                  "delta_ok": r.delta_ok, "daugavet_ok": r.daugavet_ok}
                 for r in rep.rows],
    }]


_COMMANDS = {
    "certify": _cmd_certify,
    "witness": _cmd_witness,
    "decompose": _cmd_decompose,
    "sums": _cmd_sums,
    "bernstein": _cmd_bernstein,
    "crosscheck": _cmd_crosscheck,
}


def run(config: RunConfig):
    """Dispatch a config; returns (report dict, exit code)."""
    started = time.perf_counter()
    try:
        results = _COMMANDS[config.command](config.params, config.seed)
        code = 0
        error = None
    except (VerificationError, CertificationError) as exc:
        results, code, error = [], 2, f"{type(exc).__name__}: {exc}"
    except (DeltaLabError, ArithmeticError, KeyError, ValueError, TypeError,
            AttributeError, json.JSONDecodeError) as exc:
        results, code, error = [], 1, f"{type(exc).__name__}: {exc}"
    report = {
        "schema": "deltalab/1",
        "command": config.command,
        "seed": config.seed,
        "results": results,
    }
    if error is not None:
        report["error"] = error
    if config.timings:
        report["elapsed_s"] = fmt17(time.perf_counter() - started)
    return report, code


def _emit(report, config: RunConfig) -> str:
    if config.fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["command", "index", "key", "value"])
    for i, res in enumerate(report["results"]):
        for key in sorted(res):
            writer.writerow([report["command"], i, key, json.dumps(res[key])])
    if "error" in report:
        writer.writerow([report["command"], -1, "error", report["error"]])
    return buf.getvalue()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache  # one parser per process, built by the first call
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="deltalab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def spaces(hook):  # the --space choices: the spaces whose model has the hook
        return tuple(s for s, model in sums_mod.SPACES.items() if hasattr(model, hook))

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None)
        sp.add_argument("--timings", action="store_true")

    sp = sub.add_parser("certify", help="decide Daugavet/Delta with a certificate")
    sp.add_argument("--space", required=True, choices=spaces("decide"))
    sp.add_argument("--point", required=True)
    common(sp)

    sp = sub.add_parser("witness", help="construct and re-verify a far family")
    sp.add_argument("--space", required=True, choices=spaces("witness_report"))
    sp.add_argument("--point", required=True)
    sp.add_argument("--target", default=None)
    sp.add_argument("--functional", default=None)
    sp.add_argument("--eps", required=True)
    sp.add_argument("--delta", default="0.1")
    sp.add_argument("--m", type=int, default=8)
    common(sp)

    sp = sub.add_parser("decompose", help="convex split into Daugavet points")
    sp.add_argument("--space", required=True, choices=spaces("decompose_report"))
    sp.add_argument("--point", required=True)
    sp.add_argument("--eps", default="1/10")
    sp.add_argument("--cap", type=int, default=400)
    common(sp)

    sp = sub.add_parser("sums", help="absolute-norm checks and averaging")
    sp.add_argument("--norm", default=None)
    sp.add_argument("--check", choices=("octahedral", "alpha"), default=None)
    sp.add_argument("--dirichlet", default=None)
    sp.add_argument("--eps", default="1/10")
    common(sp)

    sp = sub.add_parser("bernstein", help="derivative-growth constant estimate")
    sp.add_argument("--ladder", default="n^2")
    sp.add_argument("--terms", required=True, type=int)
    sp.add_argument("--s", required=True)
    sp.add_argument("--grid", type=int, default=128)
    common(sp)

    sp = sub.add_parser("crosscheck", help="hull tests vs theorem decision")
    sp.add_argument("--space", required=True, choices=spaces("crosscheck_setup"))
    sp.add_argument("--point", required=True)
    sp.add_argument("--eps-grid", dest="eps_grid", default="1/10,1/2,1")
    sp.add_argument("--tol", default=None)
    common(sp)
    return p


def config_from_args(args) -> RunConfig:
    params = {key: val for key, val in vars(args).items() if val is not None
              and key not in ("command", "seed", "format", "out", "timings")}
    for key in ("point", "target", "functional"):
        if key in params:
            params[key] = _load_arg(params[key])
    return RunConfig(command=args.command, params=params, seed=args.seed,
                     fmt=args.format, out=args.out, timings=args.timings)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
    except (UsageError, json.JSONDecodeError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    report, code = run(config)
    text = _emit(report, config)
    if not config.out:
        sys.stdout.write(text)
        return code
    try:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # an unwritable --out is a usage error, like an unreadable @file
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
