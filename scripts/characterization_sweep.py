#!/usr/bin/env python3
"""Sweep the support/limit characterizations against brute-force hull tests.

For a panel of measure-model and sequence-model points, print the theorem
decision next to the crosscheck's hull distances of x (exact on the L1
models, HiGHS floats on the sequence models) and the per-eps verdicts.
Everything here is recomputed; disagreements would be reported in the
final column (none are expected).

Run:  python scripts/characterization_sweep.py
"""

from fractions import Fraction as F

from deltalab import ck, crosscheck, l1

EPS_GRID = [F(1, 10), F(1, 2), F(1)]


def l1_panel():
    def model(*spec):
        return l1.MeasureModel(tuple((f"c{i}", m, k) for i, (m, k) in enumerate(spec)))

    out = []
    out.append(("atom e1", l1.StepFunction(model((1, "ATOM"), (1, "ATOM")), (1, 0))))
    out.append(("nonatomic indicator", l1.StepFunction(model((1, "NONATOMIC")), (1,))))
    out.append(("half atom half cont",
                l1.StepFunction(model((F(1, 2), "ATOM"), (F(1, 2), "NONATOMIC")), (1, 1))))
    out.append(("balanced continuous",
                l1.StepFunction(model((F(1, 2), "NONATOMIC"), (F(1, 2), "NONATOMIC")),
                                (1, -1))))
    return out


def ck_panel():
    return [
        ("limit 1", ck.TailSequence((0,), 1)),
        ("limit -1", ck.TailSequence((F(1, 2), F(-1, 2)), -1)),
        ("peak on prefix", ck.TailSequence((1, F(1, 2)), 0)),
        ("two peaks", ck.TailSequence((1, -1), F(1, 2))),
    ]


def run(panel, tol=None):
    print(f"{'point':<24}{'theorem':<10}{'hull':<8}{'per-eps distances':<36}agree")
    for name, point in panel:
        rep = crosscheck.crosscheck_characterizations(point, EPS_GRID, tol=tol)
        dists = ", ".join(f"{float(r.delta_distance):.2e}" for r in rep.rows)
        print(f"{name:<24}{str(rep.theorem_daugavet):<10}"
              f"{str(rep.hull_daugavet):<8}{dists:<36}{rep.agree}")


def main() -> None:
    print("== L1 step models (exact vertex families) ==")
    run(l1_panel())
    print()
    print("== sequence models (witness families, resolution 2/m) ==")
    run(ck_panel(), tol=0.05)


if __name__ == "__main__":
    main()
