#!/usr/bin/env python3
"""End-to-end reproduction of the Delta-but-not-Daugavet phenomenon.

On Z = c (+)_2 c every unit vector is a Delta point, yet Z has no Daugavet
points at all.  This script drives both halves for the symmetric anchor
z = (x, y)/sqrt(2) with x = y = the constant-one sequence:

* membership: a certified far family whose average approximates z, at two
  eps levels;
* refutation: a separation record for the l2 norm, the direction the far
  hull can never reach, and a sampled + LP-estimated hull distance bound.
  The record's W bound, and with it delta = 1 - sup bound, is proven by
  monotonicity; its eps is a float estimate from unit-arc grids.

Run:  python scripts/delta_but_not_daugavet.py [seed]
"""

import math
import sys

from deltalab import ck, sums
from deltalab.util import as_fraction


def main(seed: int = 0) -> None:
    one = ck.TailSequence((), 1)
    n2 = sums.AbsoluteNorm.l2()
    a = 1 / math.sqrt(2)

    print("space: Z = c (+)_2 c, anchor z = (x, y)/sqrt(2), x = y = (1,1,1,...)")
    print()
    print("-- membership side ------------------------------------------------")
    for eps, gamma in ((0.5, 0.2), (0.1, 0.04)):
        lift = sums.sum_delta_lift(one, one, n2, a, a, eps=eps, gamma=gamma)
        print(f"eps = {eps:>4}: {lift.count} members, "
              f"min distance {lift.min_distance:.6f} >= {2 - eps}, "
              f"average error {lift.avg_error:.6f} <= {gamma}")

    print()
    print("-- refutation side ------------------------------------------------")
    alpha = sums.has_property_alpha(n2, grid_n=4096)
    print(f"l2 separation verdict: {alpha.verdict} ({alpha.note})")
    rec = alpha.record(a, a)
    print(f"record at (1/sqrt2, 1/sqrt2): eps = {rec.eps:.5f} (float estimate), "
          f"W radius = {rec.radius:.5f}, bounded side '{rec.route}' "
          f"<= {rec.sup_bound:.5f} (proven, as is delta = 1 - it)")

    z = sums.SumPoint(as_fraction(a) * one, as_fraction(a) * one, n2)
    ref = sums.sum_refute_daugavet(z, rec)
    print(f"refutation direction on the {ref.side}-side, delta = {ref.delta:.5f}")
    rep = sums.refutation_harness(z, ref, n_members=200, n_combos=200, seed=seed)
    print(f"harness: {rep.n_members} sampled far members, "
          f"min sampled combination distance {rep.min_combo_distance:.5f}, "
          f"LP hull lower bound {rep.lp_lower_bound:.5f} >= delta - 1e-6")
    print()
    print("conclusion: z sits in the closed convex hull of its far set at "
          "every eps, but no far hull ever reaches the unit sphere of the "
          "first component: a Delta point that is not a Daugavet point.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
