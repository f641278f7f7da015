import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import deltalab
from deltalab import ck, cli, l1, lp, muntz, serialize, sums
from deltalab.core import CertificationError, VerificationError


REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
L1_ONE = '{"cells":[{"id":"a","mass":"1","kind":"NONATOMIC"}],"values":["1"]}'


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_python(args, timeout=120):
    """`python args` in a child process that imports this deltalab."""
    src = str(Path(deltalab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


def run_module(argv, flags=(), timeout=120):
    """`python -m deltalab.cli argv` in a child process."""
    return run_python([*flags, "-m", "deltalab.cli", *argv], timeout=timeout)


# ---------------------------------------------------------------------------
# serialization round trips


def test_point_round_trips():
    m = l1.MeasureModel((("a", F(1, 2), "ATOM"), ("b", F(1, 2), "NONATOMIC")))
    points = [
        l1.StepFunction(m, (1, -1)),
        ck.TailSequence((1, F(1, 2)), F(-1, 4)),
        ck.TailSequence((1,), None, ck.Variant.LINF_N),
        muntz.MuntzPolynomial(muntz.ExponentLadder.squares(), ((1, F(1, 2)), (3, -1))),
        sums.SumPoint(ck.TailSequence((), 1), ck.TailSequence((), 0),
                      sums.AbsoluteNorm.l2()),
    ]
    for p in points:
        back = serialize.point_from_json(serialize.point_to_json(p))
        assert back == p


def test_functional_round_trips():
    m = l1.MeasureModel((("a", 1, "ATOM"),))
    phi = l1.StepFunctional(m, (F(1, 3),))
    back = serialize.functional_from_json(serialize.functional_to_json(phi), model=m)
    assert back == phi
    mu = ck.SequenceFunctional((F(1, 2),), F(1, 2))
    assert serialize.functional_from_json(serialize.functional_to_json(mu)) == mu
    ev = muntz.PointEvaluationFunctional(((0.0, F(1)), (0.25, F(-1, 3))))
    assert serialize.functional_from_json(serialize.functional_to_json(ev)) == ev


def test_unknown_space_in_json_exits_one(capsys):
    code, out = run_cli(["certify", "--space", "ck", "--point", '{"space":"xx","prefix":[]}'],
                        capsys)
    assert code == 1
    assert json.loads(out)["error"] == "DeltaLabError: unknown space 'xx'"
    code, out = run_cli(
        ["witness", "--space", "l1", "--point", L1_ONE,
         "--functional", '{"space":"xx","coeffs":["1"]}', "--eps", "1/2"], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "DeltaLabError: unknown functional space 'xx'"


def test_space_choices_come_from_the_table():
    """Each command offers the spaces whose model has its hook, in table order."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    hooks = {"certify": "decide", "witness": "witness_report",
             "decompose": "decompose_report", "crosscheck": "crosscheck_setup"}
    choices = {}
    for command, hook in hooks.items():
        (space,) = [a for a in sub.choices[command]._actions if a.dest == "space"]
        choices[command] = space.choices
        assert space.choices == tuple(
            name for name, model in sums.SPACES.items() if hasattr(model, hook))
    assert choices == {"certify": ("l1", "ck", "muntz"), "witness": ("l1", "ck", "muntz"),
                       "decompose": ("ck", "muntz"), "crosscheck": ("l1", "ck")}


def test_numbers_are_text_with_17_digits():
    assert serialize.num_to_json(F(3, 4)) == "3/4"
    assert serialize.num_to_json(0.1) == "0.10000000000000001"
    assert serialize.num_from_json("3/4") == F(3, 4)
    assert serialize.num_from_json("0.10000000000000001") == 0.1


# ---------------------------------------------------------------------------
# commands


def test_certify_ck_example(capsys):
    code, out = run_cli(
        ["certify", "--space", "ck", "--point", '{"prefix":[1,0.5],"limit":0}'],
        capsys)
    assert code == 0
    rep = json.loads(out)
    res = rep["results"][0]
    assert res["certificate"]["verdict"] == "DELTA_NO"
    assert res["bound"] == "3/2"


def test_certify_l1(capsys):
    point = json.dumps({"cells": [{"id": "a", "mass": "1", "kind": "NONATOMIC"}],
                        "values": ["1"]})
    code, out = run_cli(["certify", "--space", "l1", "--point", point], capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["certificate"]["verdict"] == "DAUGAVET_YES"


def test_decompose_muntz_example(capsys):
    code, out = run_cli(
        ["decompose", "--space", "muntz", "--point", '{"terms":[[1,"1/2"]]}'],
        capsys)
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["mu"] == "3/4"


def test_sums_alpha_example(capsys):
    code, out = run_cli(["sums", "--norm", "l2", "--check", "alpha"], capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["verdict"] is True


def test_sums_dirichlet_csv(capsys):
    code, out = run_cli(
        ["sums", "--dirichlet", "2/5,3/5", "--eps", "1/20", "--format", "csv"],
        capsys)
    assert code == 0
    assert '"n"' in out or "n" in out
    assert "5" in out


HALF_POLY = 'poly:[(1,"1/2"),("1/2",1)]'


@pytest.mark.parametrize("norm, check, expected", [
    ("poly:[(1,1)]", "octahedral",
     {"verdict": True, "witness": ["1", "1"], "value": "2", "exact": True}),
    (HALF_POLY, "octahedral", {"verdict": False, "value": "1.75", "exact": False}),
    (HALF_POLY, "alpha",
     {"verdict": "UNDECIDED", "note": "neither octahedral nor strictly convex"}),
    ("poly:[(1,1)", "octahedral", None),
    ("poly:((1,1),))", "octahedral", None),
], ids=["square-octahedral", "octagon-octahedral", "octagon-alpha", "unclosed-list",
        "extra-paren"])
def test_sums_polygon_norms(norm, check, expected, capsys):
    code, out = run_cli(["sums", "--norm", norm, "--check", check], capsys)
    report = json.loads(out)
    if expected is None:  # a malformed spec is an input error, not a traceback
        assert code == 1 and report["results"] == []
        assert report["error"] == f"DeltaLabError: cannot parse norm spec {norm!r}"
        return
    assert code == 0
    res = report["results"][0]
    assert res["norm"] == norm  # the label is the spec itself
    assert {k: res[k] for k in expected} == expected


def test_witness_ck(capsys):
    code, out = run_cli(
        ["witness", "--space", "ck", "--point", '{"prefix":[],"limit":1}',
         "--target", '{"prefix":[],"limit":0}', "--eps", "1/10", "--m", "4"],
        capsys)
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["min_distance"] == "2"
    assert res["avg_error"] == "1/4"


def test_witness_l1(capsys):
    code, out = run_cli(
        ["witness", "--space", "l1", "--point", L1_ONE,
         "--functional", '{"space":"l1","coeffs":["1"]}',
         "--eps", "1/2", "--delta", "1/10"],
        capsys)
    assert code == 0
    res = json.loads(out)["results"][0]
    # dyadic default: witness cell of mass 1/8, distance 7/8 + 7 * 1/8
    assert res["distance"] == "7/4"
    assert res["functional_value"] == "1"
    assert res["witness_cell"] == "a.0.0.0"


def test_witness_muntz_takes_fractions(capsys):
    # eps and delta as "p/q" give the report of their decimal spellings
    argv = ["witness", "--space", "muntz", "--point", '{"terms":[[1,"1"]]}',
            "--target", '{"terms":[[2,"-1/2"]]}']
    code, out = run_cli(argv + ["--eps", "1/2", "--delta", "3/20"], capsys)
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["count"] > 0
    code, out = run_cli(argv + ["--eps", "0.5", "--delta", "0.15"], capsys)
    assert code == 0
    assert json.loads(out)["results"][0] == res


def test_witness_muntz_small_delta(capsys):
    # delta 0.05 reaches ladder indices near 2^220, exponents near 2^440
    code, out = run_cli(
        ["witness", "--space", "muntz", "--point", '{"terms":[[1,"1"]]}',
         "--target", '{"terms":[[2,"1/2"]]}', "--eps", "0.5", "--delta", "0.05"],
        capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["count"] == 40


def test_witness_muntz_tail_underflow_exits_one(capsys):
    # at delta 0.02 a spike's tail threshold leaves the float range: nothing
    # was built, so this is a too-short ladder (exit 1), not a failed re-check
    code, out = run_cli(
        ["witness", "--space", "muntz", "--point", '{"terms":[[1,"1"]]}',
         "--target", '{"terms":[[2,"1/2"]]}', "--eps", "0.5", "--delta", "0.02"],
        capsys)
    assert code == 1
    assert json.loads(out)["error"] == (
        "LadderExhaustedError: LADDER_TOO_SHORT: spike tail leaves the float range")


def test_bernstein_command(capsys):
    code, out = run_cli(
        ["bernstein", "--terms", "1", "--s", "0.5", "--grid", "32"], capsys)
    assert code == 0
    res = json.loads(out)["results"][0]
    assert abs(float(res["lower_bound"]) - 1) < 1e-9


def test_bernstein_lp_failure_exits_one(capsys, monkeypatch):
    def fail(c, **kw):
        raise lp.Infeasible("HiGHS gave up")

    monkeypatch.setattr(lp, "linprog_mixed", fail)
    code, out = run_cli(["bernstein", "--terms", "3", "--s", "0.5", "--grid", "16"], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "DeltaLabError: degenerate grid: HiGHS gave up"


def test_bernstein_enclosure_failure_exits_one(capsys, monkeypatch):
    # the command only estimates a constant: an optimizer it cannot enclose
    # is a failed estimate (exit 1), not a failed re-verification (exit 2)
    def fail(*args, **kw):
        raise CertificationError("sup-norm enclosure not within 1e-09")

    monkeypatch.setattr(muntz, "sup_abs_bb", fail)
    code, out = run_cli(["bernstein", "--terms", "3", "--s", "0.5", "--grid", "16"], capsys)
    assert code == 1
    assert json.loads(out)["error"] == ("DeltaLabError: no sup-norm enclosure of the LP "
                                        "optimizer: sup-norm enclosure not within 1e-09")


def test_crosscheck_command(capsys):
    code, out = run_cli(
        ["crosscheck", "--space", "ck", "--point", '{"prefix":[1,0.5],"limit":0}',
         "--tol", "0.05"], capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["agree"] is True


def test_bernstein_takes_a_fraction_s(capsys):
    argv = ["bernstein", "--terms", "3", "--grid", "16", "--s"]
    code, out = run_cli(argv + ["1/2"], capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["s"] == "0.5"
    assert run_cli(argv + ["0.5"], capsys) == (0, out)


def test_crosscheck_takes_a_fraction_tol(capsys):
    argv = ["crosscheck", "--space", "l1", "--point", L1_ONE, "--tol"]
    code, out = run_cli(argv + ["1/100"], capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["agree"] is True
    assert run_cli(argv + ["0.01"], capsys) == (0, out)


# ---------------------------------------------------------------------------
# determinism and exit codes


def test_reports_are_byte_identical(capsys):
    argv = ["crosscheck", "--space", "l1", "--seed", "42", "--point",
            json.dumps({"cells": [{"id": "a", "mass": "1", "kind": "ATOM"},
                                  {"id": "b", "mass": "1", "kind": "ATOM"}],
                        "values": ["1", "0"]})]
    _, out1 = run_cli(argv, capsys)
    _, out2 = run_cli(argv, capsys)
    assert out1 == out2


def test_malformed_point_exits_one(capsys):
    code, _ = run_cli(["certify", "--space", "ck", "--point", "{not json"], capsys)
    assert code == 1
    # JSON of the wrong shape is malformed input too, and gets a report
    for point in ("[1]", '{"prefix":5}'):
        code, out = run_cli(["certify", "--space", "ck", "--point", point], capsys)
        assert code == 1
        assert "error" in json.loads(out)


@pytest.mark.parametrize("cells, values, error", [
    ([("a", "1/2", "NONATOMIC"), ("a", "1/2", "NONATOMIC")], ["1", "1"],
     "DeltaLabError: cell ids must be unique"),
    ([("a", "0", "NONATOMIC")], ["1"], "DeltaLabError: cell 'a' needs positive mass"),
    ([("a", "1", "atom")], ["1"], "ValueError: 'atom' is not a valid CellKind"),
    ([("a", "1", "NONATOMIC")], ["1", "0"], "DeltaLabError: one value per cell required"),
    ([("a", "nan", "NONATOMIC")], ["1"], "ValueError: cannot convert NaN to integer ratio"),
], ids=["duplicate-ids", "zero-mass", "lowercase-kind", "value-count", "nan-mass"])
def test_malformed_l1_point_exits_one(capsys, cells, values, error):
    point = json.dumps({"cells": [{"id": i, "mass": m, "kind": k} for i, m, k in cells],
                        "values": values})
    for argv in (["certify", "--space", "l1", "--point", point],
                 ["crosscheck", "--space", "l1", "--point", point]):
        code, out = run_cli(argv, capsys)
        assert code == 1
        assert json.loads(out)["error"] == error


def test_bad_flag_exits_one(capsys):
    code, _ = run_cli(["certify", "--space", "nowhere", "--point", "{}"], capsys)
    assert code == 1


def test_precondition_violation_exits_one(capsys):
    # non-unit point: rejected input, not a failed verification
    code, out = run_cli(
        ["certify", "--space", "ck", "--point", '{"prefix":[0.5],"limit":0}'],
        capsys)
    assert code == 1
    assert "error" in json.loads(out)
    # lp norms need 1 <= p <= inf, which p = nan fails
    code, out = run_cli(["sums", "--norm", "lp:nan", "--check", "alpha"], capsys)
    assert code == 1
    assert "lp norms need p in [1, inf]" in json.loads(out)["error"]
    # zero delta, zero tol: rejected before anything divides by them
    code, out = run_cli(
        ["witness", "--space", "muntz", "--point", '{"terms":[[1,"1"]]}',
         "--target", '{"terms":[[2,"-1/2"]]}', "--eps", "0.5", "--delta", "0"], capsys)
    assert code == 1
    assert "need 0 < 3*delta < eps" in json.loads(out)["error"]
    code, out = run_cli(
        ["crosscheck", "--space", "ck", "--point", '{"prefix":[1],"limit":0}',
         "--tol", "0"], capsys)
    assert code == 1
    assert "crosscheck needs tol > 0" in json.loads(out)["error"]
    # eps <= 0 and a negative cap: rejected inputs, not failed re-checks
    for argv, message in [
        (["crosscheck", "--space", "l1", "--point", L1_ONE, "--eps-grid", "0"],
         "crosscheck needs eps > 0"),
        (["crosscheck", "--space", "ck", "--point", '{"prefix":["1"],"limit":"1"}',
          "--eps-grid=-1"], "crosscheck needs eps > 0"),
        (["witness", "--space", "ck", "--point", '{"prefix":[],"limit":1}',
          "--target", '{"prefix":[],"limit":0}', "--eps=-1"],
         "witness construction needs eps > 0"),
        (["decompose", "--space", "ck", "--point", '{"prefix":["1/2"],"limit":"1/2"}',
          "--eps", "0"], "decomposition needs eps > 0"),
        (["decompose", "--space", "muntz", "--point", '{"terms":[[1,"1/2"]]}',
          "--cap=-1"], "decomposition needs cap >= 0"),
        # arithmetic errors in the inputs: reported, not a traceback
        (["sums", "--dirichlet", "1/0,1", "--eps", "1/20"], "ZeroDivisionError"),
        (["sums", "--dirichlet", "1/2,1/2", "--eps", "1/0"], "ZeroDivisionError"),
        (["decompose", "--space", "muntz", "--point", '{"terms":[[1,"1/0"]]}'],
         "ZeroDivisionError"),
        (["certify", "--space", "muntz", "--point", '{"terms":[[1,"1e400"]]}'],
         "OverflowError"),
    ]:
        code, out = run_cli(argv, capsys)
        assert code == 1, argv
        assert message in json.loads(out)["error"], argv
    # zero eps: the l1 witness would split cells forever, so it runs in a
    # child process that the timeout stops
    proc = run_module(
        ["witness", "--space", "l1", "--point", L1_ONE,
         "--functional", '{"space":"l1","coeffs":["1"]}', "--eps", "0"], timeout=60)
    assert proc.returncode == 1
    assert "needs eps > 0 and delta > 0" in json.loads(proc.stdout)["error"]


def test_verification_failure_exits_two(capsys, monkeypatch):
    def boom(params, seed):
        raise VerificationError("constructed object failed its re-check")
    monkeypatch.setitem(cli._COMMANDS, "certify", boom)
    code, out = run_cli(["certify", "--space", "ck", "--point", "{}"], capsys)
    assert code == 2
    assert "re-check" in json.loads(out)["error"]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.main(["sums", "--norm", "l1", "--check", "octahedral",
                     "--out", str(path)])
    assert code == 0
    rep = json.loads(path.read_text())
    assert rep["results"][0]["verdict"] is True
    assert rep["results"][0]["witness"] == ["1", "0"]


def test_out_file_holds_the_stdout_report(tmp_path, capsys):
    argv = ["certify", "--space", "ck", "--point", '{"prefix":[1,0.5],"limit":0}']
    _, printed = run_cli(argv, capsys)
    path = tmp_path / "certify.json"
    code, out = run_cli([*argv, "--out", str(path)], capsys)
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8") == printed


@pytest.mark.parametrize("where", ["missing/report.json", "."], ids=["no-dir", "a-dir"])
def test_unwritable_out_exits_one(tmp_path, capsys, where):
    # like an unreadable @file: a usage error on stderr, no traceback
    code = cli.main(["certify", "--space", "l1", "--point", L1_ONE,
                     "--out", str(tmp_path / where)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert not (tmp_path / "missing").exists()


def test_crosscheck_report_ignores_thread_env(monkeypatch, capsys):
    # the report depends on the RunConfig only, never on the environment
    argv = ["crosscheck", "--space", "ck", "--point", '{"prefix":[1],"limit":0}',
            "--tol", "0.05"]
    outs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("DELTA_LAB_THREADS", threads)
        code, out = run_cli(argv, capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["results"][0]["agree"] is True


def test_module_run_without_runtime_warning():
    # `python -m deltalab.cli` must not find deltalab.cli already imported
    proc = run_module(["sums", "--dirichlet", "2/5,3/5", "--eps", "1/20"],
                      flags=["-W", "error::RuntimeWarning"])
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_scipy_solvers_load_with_the_first_lp():
    # numpy and scipy stay importable by name; scipy.sparse and
    # scipy.optimize wait until a command builds or solves an LP
    script = """if True:
        import sys
        import deltalab.cli
        from deltalab import lp
        loaded = lambda: [m for m in ("numpy", "scipy", "scipy.sparse", "scipy.optimize")
                          if m in sys.modules]
        assert deltalab.cli.main(["sums", "--dirichlet", "2/5,3/5", "--eps", "1/20"]) == 0
        print(loaded())
        lp.simplex_float([1.0], [[1.0]], [1.0])
        print(loaded())
    """
    proc = run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [
        "['numpy', 'scipy']", "['numpy', 'scipy', 'scipy.sparse', 'scipy.optimize']"]


# ---------------------------------------------------------------------------
# golden reports: the README examples, byte for byte


def readme_examples():
    lines = (REPO / "README.md").read_text(encoding="utf-8").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("deltalab ")]


def test_readme_lists_the_golden_examples():
    names = [f"readme-{i}-{argv[0]}.json" for i, argv in enumerate(readme_examples(), 1)]
    assert len(names) == 8
    assert sorted(names) == sorted(p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("index, argv", list(enumerate(readme_examples(), 1)))
def test_readme_example_report_is_golden(index, argv, capsys):
    # a change that moves these bytes updates the file and says why
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert out == (GOLDEN / f"readme-{index}-{argv[0]}.json").read_text(encoding="utf-8")


def test_one_parser_serves_every_request(capsys):
    # the cached parser keeps no state between requests: two rounds of the
    # README examples around a usage error and a csv report stay golden
    cli.build_parser.cache_clear()
    golden = [(GOLDEN / f"readme-{i}-{argv[0]}.json").read_text(encoding="utf-8")
              for i, argv in enumerate(readme_examples(), 1)]
    for round_ in range(2):
        for argv, text in zip(readme_examples(), golden):
            assert run_cli(argv, capsys) == (0, text)
        if round_ == 0:
            assert run_cli(["certify", "--space", "ck"], capsys) == (1, "")
            code, out = run_cli(["sums", "--dirichlet", "2/5,3/5", "--format", "csv"], capsys)
            assert code == 0 and out.startswith("command,index,key,value")
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2 * len(golden) + 1)


def test_import_builds_no_parser():
    script = """if True:
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__
        argparse.ArgumentParser.__init__ = lambda self, *a, **k: (
            built.append(1), init(self, *a, **k))[1]
        import deltalab.cli
        assert not built and deltalab.cli.build_parser.cache_info().currsize == 0
        assert deltalab.cli.main(["sums", "--dirichlet", "2/5,3/5"]) == 0
        print(len(built) > 0, deltalab.cli.build_parser.cache_info().misses)
    """
    proc = run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True 1"


# ---------------------------------------------------------------------------
# golden reports: crosschecks whose small hull LPs share HiGHS solves


L1_THREE_CELLS = json.dumps({
    "cells": [{"id": "a", "mass": "1/2", "kind": "NONATOMIC"},
              {"id": "b", "mass": "1/4", "kind": "ATOM"},
              {"id": "c", "mass": "1/4", "kind": "NONATOMIC"}],
    "values": ["1", "1", "-1"]}, separators=(",", ":"))


@pytest.mark.parametrize("name, argv", [
    ("l1-three-cells", ["crosscheck", "--space", "l1", "--seed", "7", "--point", L1_THREE_CELLS]),
    ("ck-small", ["crosscheck", "--space", "ck", "--point", '{"prefix":["1","1"],"limit":"0"}']),
])
def test_batched_crosscheck_report_is_golden(name, argv, capsys, monkeypatch):
    # the l1 distances are closed forms, the ck ones one stacked HiGHS solve
    solves = []
    solve = lp.simplex_float
    monkeypatch.setattr(lp, "simplex_float", lambda *a: solves.append(1) or solve(*a))
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert out == (REPO / "tests" / "golden_crosscheck" / f"{name}.json").read_text(
        encoding="utf-8")
    assert len(solves) == {"l1-three-cells": 0, "ck-small": 1}[name]


def test_l1_crosscheck_loads_no_lp_solver():
    # `python -m deltalab.cli crosscheck` in a fresh process imports
    # scipy.optimize only for a ck point
    script = """if True:
        import runpy, sys
        sys.argv[1:] = ["crosscheck", "--space", sys.argv[1], "--point", sys.argv[2]]
        try:
            runpy.run_module("deltalab.cli", run_name="__main__", alter_sys=True)
        except SystemExit as e:
            assert not e.code, e.code
        print("scipy.optimize" in sys.modules, file=sys.stderr)
    """
    for space, point, loaded in (("l1", L1_THREE_CELLS, "False"),
                                 ("ck", '{"prefix":["1","1"],"limit":"0"}', "True")):
        proc = run_python(["-c", script, space, point])
        assert proc.returncode == 0, proc.stderr
        assert '"agree": true' in proc.stdout and proc.stderr.split() == [loaded]
