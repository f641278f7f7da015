"""Linear-programming kernels.

Two backends solve the same standard form  min c.z  s.t.  A z = b, z >= 0:

* ``simplex_exact`` -- a two-phase tableau simplex over ``Fraction`` entries
  with Bland's smallest-index pivot rule (deterministic, anticycling).  Its
  only caller is ``core.hull_distance_info`` on polyhedral payloads, which
  only the public ``hull_distance[_info]`` reach.
* ``simplex_float`` -- scipy's HiGHS solver on the identical matrices,
  dense or scipy-sparse.  ``core.hull_distances`` passes block-diagonal
  stacks of small hull LPs, one per target of its (points, targets)
  groups (every crosscheck distance), and ``sums.hull_lower_bound_scalarized``
  and the Muntz master LP of ``core._hull_distance_exchange`` one LP each.

The hull LPs that feed both share one layout: ``core.hull_norm_rows``
writes it exactly for ``simplex_exact``, ``core.hull_norm_floats`` in
floats for ``simplex_float``.
``linprog_mixed`` keeps one caller, ``muntz.bernstein_estimate``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy  # sparse and optimize load on first use, with the first LP

from .util import as_fraction


class LPError(ValueError):
    pass


class Infeasible(LPError):
    pass


class Unbounded(LPError):
    pass


def _pivot(tab, basis, r, s):
    piv = tab[r][s]
    row = [v / piv for v in tab[r]]
    tab[r] = row
    for i in range(len(tab)):
        if i != r and tab[i][s] != 0:
            f = tab[i][s]
            tab[i] = [a - f * b for a, b in zip(tab[i], row)]
    basis[r] = s


def _run_simplex(tab, basis, ncols):
    """Optimize the tableau in place; objective is the last row (minimize)."""
    while True:
        obj = tab[-1]
        enter = None
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            return
        leave = None
        best = None
        for i in range(len(tab) - 1):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise Unbounded("objective unbounded below")
        _pivot(tab, basis, leave, enter)


def simplex_exact(c, A, b):
    """Minimize c.z subject to A z = b, z >= 0, exactly over rationals.

    Returns ``(value, z)`` as Fractions. Raises Infeasible/Unbounded.
    """
    m = len(A)
    n = len(c)
    c = [as_fraction(v) for v in c]
    A = [[as_fraction(v) for v in row] for row in A]
    b = [as_fraction(v) for v in b]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]

    # phase 1: artificial variables n..n+m-1
    width = n + m
    tab = []
    for i in range(m):
        row = A[i] + [Fraction(0)] * m + [b[i]]
        row[n + i] = Fraction(1)
        tab.append(row)
    obj = [Fraction(0)] * (width + 1)
    for i in range(m):
        for j in range(width + 1):
            obj[j] -= tab[i][j]
    for i in range(m):
        obj[n + i] = Fraction(0)
    tab.append(obj)
    basis = list(range(n, n + m))
    _run_simplex(tab, basis, width)
    if tab[-1][-1] < 0:
        raise Infeasible("no feasible point")

    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv is not None:
                _pivot(tab, basis, i, piv)

    # drop rows still basic in an artificial (redundant constraints)
    keep = [i for i in range(m) if basis[i] < n]
    tab = [tab[i] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2 objective, reduced against the current basis
    obj = list(c) + [Fraction(0)] * m + [Fraction(0)]
    for i, bi in enumerate(basis):
        if obj[bi] != 0:
            f = obj[bi]
            obj = [a - f * bmt for a, bmt in zip(obj, tab[i])]
    tab.append(obj)
    _run_simplex(tab, basis, n)  # artificials excluded from entering

    z = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            z[bi] = tab[i][-1]
    value = sum(ci * zi for ci, zi in zip(c, z))
    return value, z


def _result(res):
    """(value, z) of a HiGHS result, or the LPError for its status."""
    if res.status == 2:
        raise Infeasible(res.message)
    if res.status == 3:
        raise Unbounded(res.message)
    if not res.success:
        raise LPError(res.message)
    return float(res.fun), res.x


def simplex_float(c, A, b):
    """Same standard form through scipy/HiGHS; `A` dense or scipy-sparse.
    Returns (value, z) as floats."""
    return _result(scipy.optimize.linprog(
        np.asarray(c, dtype=float),
        A_eq=A if scipy.sparse.issparse(A) else np.asarray(A, dtype=float),
        b_eq=np.asarray(b, dtype=float),
        bounds=(0, None),
        method="highs",
    ))


def linprog_mixed(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None):
    """Thin HiGHS wrapper for mixed-form problems (float only)."""
    return _result(scipy.optimize.linprog(
        np.asarray(c, dtype=float),
        A_ub=None if A_ub is None else np.asarray(A_ub, dtype=float),
        b_ub=None if b_ub is None else np.asarray(b_ub, dtype=float),
        A_eq=None if A_eq is None else np.asarray(A_eq, dtype=float),
        b_eq=None if b_eq is None else np.asarray(b_eq, dtype=float),
        bounds=bounds,
        method="highs",
    ))
