"""Each checker accepts the program's real output and rejects doctored
copies of it: a member moved inside 2 - eps, a flipped verdict, a changed
count.  Run with `PYTHONPATH=src python -m pytest bench/test_checkers.py`.
"""

import copy
import json
from fractions import Fraction

import pytest

import checkers
import workloads


@pytest.fixture(scope="module")
def l1_outputs():
    wl = workloads.L1Oracle()
    wl.MAX_CELLS = 2
    wl.build(seed=3)
    return wl, [job() for job in wl.jobs()]


def test_l1_accepts_real_output(l1_outputs):
    wl, outputs = l1_outputs
    assert wl.check(outputs) == []


def test_l1_rejects_flipped_instance_verdict(l1_outputs):
    wl, outputs = l1_outputs
    bad = copy.deepcopy(outputs)
    kinds, values, verdict = bad[0]["instances"][0]
    bad[0]["instances"][0] = (kinds, values, not verdict)
    assert wl.check(bad)


def test_l1_rejects_flipped_hull_verdict(l1_outputs):
    wl, outputs = l1_outputs
    bad = copy.deepcopy(outputs)
    bad[-1]["hull_daugavet"] = not bad[-1]["hull_daugavet"]
    assert wl.check(bad)


def test_l1_rejects_changed_count(l1_outputs):
    wl, outputs = l1_outputs
    assert wl.check(outputs[1:])                       # a class dropped
    bad = copy.deepcopy(outputs)
    bad[0]["instances"] = bad[0]["instances"][1:]      # a decision dropped
    assert wl.check(bad)


@pytest.fixture(scope="module")
def muntz_output():
    wl = workloads.MuntzWitness()
    wl.N_TARGETS = 1
    wl.build(seed=9)
    return wl, [job() for job in wl.jobs()]


def test_muntz_accepts_real_output(muntz_output):
    wl, outputs = muntz_output
    assert wl.check(outputs) == []


def test_muntz_rejects_member_moved_inside(muntz_output):
    wl, outputs = muntz_output
    bad = copy.deepcopy(outputs)
    # the member's spike shrunk to a tenth: still g(1)/(1+delta) at 1,
    # but no longer far from f at the spike's peak
    (k1, c1), (k2, c2) = bad[0]["members"][0][-2:]
    bad[0]["members"][0][-2:] = [(k1, c1 / 10), (k2, c2 / 10)]
    errors = wl.check(bad)
    assert errors and all("2 - 3 delta" in e or "reaches" in e for e in errors)


def test_muntz_rejects_changed_count(muntz_output):
    wl, outputs = muntz_output
    bad = copy.deepcopy(outputs)
    bad[0]["m"] -= 1
    assert wl.check(bad)


def test_muntz_rejects_understated_bound(muntz_output):
    wl, outputs = muntz_output
    bad = copy.deepcopy(outputs)
    bad[0]["avg_bound"] /= 100
    assert any("reaches" in e for e in wl.check(bad))


@pytest.fixture(scope="module")
def sum_output():
    wl = workloads.SumConstruct()
    wl.SCHEDULE = ((10, 1, 0),)
    wl.build(seed=14)
    return wl, [job() for job in wl.jobs()]


def test_sums_accepts_real_output(sum_output):
    wl, outputs = sum_output
    assert wl.check(outputs) == []


def test_sums_rejects_member_moved_inside(sum_output):
    wl, outputs = sum_output
    bad = copy.deepcopy(outputs)
    half = ((), Fraction(1, 2))
    bad[0]["members"][0] = (half, half)                # the anchor itself
    assert any("distance" in e for e in wl.check(bad))


def test_sums_rejects_changed_count(sum_output):
    wl, outputs = sum_output
    bad = copy.deepcopy(outputs)
    bad[0]["count"] += 1
    assert wl.check(bad)


def test_sums_rejects_member_outside_ball(sum_output):
    wl, outputs = sum_output
    bad = copy.deepcopy(outputs)
    (px, lx), y = bad[0]["members"][0]
    bad[0]["members"][0] = ((px, lx * 3), y)
    assert wl.check(bad)


def _cli(argv, reps=2):
    return workloads.CliRequests._job(argv, reps)


def _doctor(out, edit):
    report = json.loads(out["outputs"][0])
    edit(report["results"][0])
    text = json.dumps(report, indent=2) + "\n"
    return [text] * len(out["outputs"])


L1_ONE = '{"cells":[{"id":"a","mass":"1","kind":"NONATOMIC"}],"values":["1"]}'
CK_WITNESS = ["witness", "--space", "ck", "--point", '{"prefix":[],"limit":1}',
              "--target", '{"prefix":[],"limit":0}', "--eps", "1/10", "--m", "4"]


def test_cli_accepts_real_reports():
    for argv in (["certify", "--space", "l1", "--point", L1_ONE], CK_WITNESS,
                 ["sums", "--dirichlet", "2/5,3/5", "--eps", "1/20"],
                 ["decompose", "--space", "muntz", "--point", '{"terms":[[1,"1/2"]]}']):
        out = _cli(argv)
        assert checkers.check_cli_request(argv, out["outputs"], out["codes"]) == []


def test_cli_rejects_flipped_verdict():
    argv = ["certify", "--space", "l1", "--point", L1_ONE]
    out = _cli(argv)
    bad = _doctor(out, lambda r: r.update(is_daugavet_point=not r["is_daugavet_point"]))
    assert checkers.check_cli_request(argv, bad, out["codes"])


def test_cli_rejects_member_moved_inside():
    out = _cli(CK_WITNESS)
    bad = _doctor(out, lambda r: r["members"].__setitem__(
        0, dict(r["members"][0], prefix=["1"] * len(r["members"][0]["prefix"]), limit="1")))
    assert checkers.check_cli_request(CK_WITNESS, bad, out["codes"])


def test_cli_rejects_changed_count():
    argv = ["sums", "--dirichlet", "2/5,3/5", "--eps", "1/20"]
    out = _cli(argv)
    bad = _doctor(out, lambda r: r.update(n=r["n"] + 1))
    assert checkers.check_cli_request(argv, bad, out["codes"])


def test_cli_rejects_differing_reports_and_exit_codes():
    argv = ["certify", "--space", "l1", "--point", L1_ONE]
    out = _cli(argv)
    assert checkers.check_cli_request(argv, [out["outputs"][0], out["outputs"][0] + " "],
                                      out["codes"])
    assert checkers.check_cli_request(argv, out["outputs"], [0, 2])
