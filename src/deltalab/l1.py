"""Finite measure-space model of L1(mu).

A model is a finite list of cells, each carrying a positive mass and a kind:
ATOM (indivisible) or NONATOMIC (may be split with exact mass conservation).
Step functions are constant on cells; the space is isometric to a weighted
l1 over the current cell list, and refining nonatomic cells is how the model
approaches the continuous geometry.

All masses and values are exact rationals, so norms, functional values and
the polyhedral operations below are bit-exact.  The hot kernels work in
integers: `norm` sums integer numerators over a running common denominator
and builds one Fraction at the end, and the far-vertex test compares
integers.  Values this module computes itself (operator results, lifts,
ball vertices) go through trusted constructors; every outside input is
validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import (
    Certificate,
    DeltaLabError,
    Functional,
    Refutation,
    Slice,
    SlicePolytope,
    VerificationError,
    Verdict,
    WitnessRecord,
    crosspolytope_slice_vertices,
    far_distance,
    num_from_json,
    num_to_json,
    require_unit,
    slice_diameter,
    verify_far_family,
)
from .util import UNIT_TOL, as_fraction, sgn


class CellKind(Enum):
    ATOM = "ATOM"
    NONATOMIC = "NONATOMIC"


_KINDS = {k.value: k for k in CellKind}


def _kind(name):
    """The CellKind called `name`, from a table; CellKind() takes members
    and raises its ValueError for anything else."""
    return (_KINDS.get(name) if isinstance(name, str) else None) or CellKind(name)


class AtomIndivisibleError(DeltaLabError):
    """Splitting an atom: the operational content of being an atom."""


class BoundVoidError(DeltaLabError):
    """Requested eps is too large for the refutation formula to bite."""


@dataclass(frozen=True)
class Cell:
    id: str
    mass: Fraction
    kind: CellKind

    def __post_init__(self):
        object.__setattr__(self, "mass", as_fraction(self.mass))
        if self.mass.numerator <= 0:
            raise DeltaLabError(f"cell {self.id!r} needs positive mass")


@dataclass(frozen=True)
class MeasureModel:
    cells: tuple

    def __post_init__(self):
        cells = tuple(
            c if isinstance(c, Cell) else Cell(c[0], c[1], _kind(c[2]))
            for c in self.cells
        )
        object.__setattr__(self, "cells", cells)
        ids = [c.id for c in cells]
        if len(set(ids)) != len(ids):
            raise DeltaLabError("cell ids must be unique")

    def index(self, cell_id: str) -> int:
        for i, c in enumerate(self.cells):
            if c.id == cell_id:
                return i
        raise KeyError(cell_id)

    @property
    def masses(self):
        return tuple(c.mass for c in self.cells)

    def vertex(self, i, s):
        """The ball vertex s * indicator / mass of cell i, s = +-1."""
        vals = [Fraction(0)] * len(self.cells)
        vals[i] = Fraction(s) / self.cells[i].mass
        return StepFunction._from_values(self, tuple(vals))

    def ball_vertices(self):
        """Extreme points of the unit ball: +-(indicator / mass) per cell."""
        return [self.vertex(i, s) for i in range(len(self.cells)) for s in (1, -1)]


@dataclass(frozen=True)
class SplitResult:
    model: MeasureModel
    lift: Callable
    lift_functional: Callable


def _divisible(model: MeasureModel, cell_id: str):
    """(index, cell) of a cell that may be split."""
    i = model.index(cell_id)
    if model.cells[i].kind is CellKind.ATOM:
        raise AtomIndivisibleError(f"cell {cell_id!r} is an atom")
    return i, model.cells[i]


def _split(model: MeasureModel, i: int, parts) -> SplitResult:
    """`model` with cell i replaced by NONATOMIC cells (id, mass) `parts`,
    and lifts that repeat cell i's value on every part."""
    k = len(parts)
    cells = tuple(Cell(cid, mass, CellKind.NONATOMIC) for cid, mass in parts)
    new_model = MeasureModel(model.cells[:i] + cells + model.cells[i + 1:])

    def lift(f: "StepFunction") -> "StepFunction":
        if f.model != model:
            raise DeltaLabError("lift applies to step functions on the split model")
        vals = f.values[:i] + (f.values[i],) * k + f.values[i + 1:]
        return StepFunction._from_values(new_model, vals)

    def lift_functional(phi: "StepFunctional") -> "StepFunctional":
        if phi.model != model:
            raise DeltaLabError("lift applies to functionals on the split model")
        coeffs = phi.coeffs[:i] + (phi.coeffs[i],) * k + phi.coeffs[i + 1:]
        return StepFunctional._from_coeffs(new_model, coeffs)

    return SplitResult(new_model, lift, lift_functional)


def split_cell(model: MeasureModel, cell_id: str, fraction) -> SplitResult:
    """Replace a NONATOMIC cell by two halves of masses f*m and (1-f)*m.

    Returns the refined model plus value-preserving lifts for step functions
    and dual step functions living on the old model.  Mass bookkeeping is
    exact, so lifted norms and functional values do not move.
    """
    fraction = as_fraction(fraction)
    if not 0 < fraction < 1:
        raise DeltaLabError("split fraction must lie in (0,1)")
    i, cell = _divisible(model, cell_id)
    return _split(model, i, [(f"{cell_id}.0", cell.mass * fraction),
                             (f"{cell_id}.1", cell.mass * (1 - fraction))])


def _chain(fns):
    """The composition applying `fns` in order."""
    def apply(v):
        for fn in fns:
            v = fn(v)
        return v
    return apply


def split_even(model: MeasureModel, cell_id: str, pieces: int) -> SplitResult:
    """Split a nonatomic cell c into `pieces` parts of equal mass, in one step.

    The parts are named as a chain of `split_cell` calls would name them,
    each splitting off 1/(pieces - j) of the rest: c.0, c.1.0, ...,
    c.1...1 (pieces - 1 times ".1").  The chain gives every part mass
    m/pieces exactly, so this is the chain's model, built once, with lifts
    that repeat the cell's value.  pieces = 1 returns `model` and identity
    lifts, once the cell is known to be divisible.
    """
    if pieces < 1:
        raise DeltaLabError("pieces must be >= 1")
    i, cell = _divisible(model, cell_id)
    if pieces == 1:
        return SplitResult(model, _chain(()), _chain(()))
    ids = [f"{cell_id}{'.1' * j}.0" for j in range(pieces - 1)] + [cell_id + ".1" * (pieces - 1)]
    mass = cell.mass / pieces
    return _split(model, i, [(cid, mass) for cid in ids])


@dataclass(frozen=True)
class StepFunction:
    model: MeasureModel
    values: tuple

    space = "l1"

    def __post_init__(self):
        vals = tuple(as_fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(self.model.cells):
            raise DeltaLabError("one value per cell required")

    @staticmethod
    def _from_values(model: MeasureModel, values: tuple) -> "StepFunction":
        """Trusted constructor for values this module computed: `values` is
        a tuple of Fractions, one per cell of `model`, so `__post_init__`
        (and `as_fraction`) is skipped.  The fields are the validated ones,
        so ==, hash and repr agree."""
        p = object.__new__(StepFunction)
        p.__dict__.update(model=model, values=values)
        return p

    def norm(self) -> Fraction:
        """sum |v_c| m_c, as integer numerators over a running common
        denominator."""
        num, den = 0, 1
        for v, c in zip(self.values, self.model.cells):
            if v:
                a = abs(v.numerator) * c.mass.numerator
                d = v.denominator * c.mass.denominator
                if den % d:
                    lcm = den // math.gcd(den, d) * d
                    num, den = num * (lcm // den), lcm
                num += a * (den // d)
        return Fraction(num, den)

    def support(self):
        return tuple(c for v, c in zip(self.values, self.model.cells) if v != 0)

    def _binop(self, other, op):
        if not isinstance(other, StepFunction) or other.model != self.model:
            raise DeltaLabError("step functions must share a model")
        return StepFunction._from_values(
            self.model, tuple(op(a, b) for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __neg__(self):
        return StepFunction._from_values(self.model, tuple(-v for v in self.values))

    def __mul__(self, scalar):
        s = as_fraction(scalar)
        return StepFunction._from_values(self.model, tuple(s * v for v in self.values))

    __rmul__ = __mul__

    @staticmethod
    def hull_embedding(points: Sequence["StepFunction"]):
        model = points[0].model
        for p in points[1:]:
            if p.model != model:
                raise DeltaLabError("hull points must share a model")
        return "w1", model.masses, [list(p.values) for p in points]

    def _id_minus_rank1_norm(self, functional: "StepFunctional") -> Fraction:
        """max over ball extreme points e = +-chi_c/m_c of ||e - phi(e) self||."""
        if functional.model != self.model:
            raise DeltaLabError("operator pieces must share a model")
        masses = self.model.masses
        best = Fraction(0)
        for c, m_c in enumerate(masses):
            a_c = functional.coeffs[c]  # phi(chi_c / m_c)
            total = abs(Fraction(1) / m_c - a_c * self.values[c]) * m_c
            total += sum(
                abs(a_c * self.values[d]) * masses[d]
                for d in range(len(masses)) if d != c
            )
            if total > best:
                best = total
        return best


@dataclass(frozen=True)
class StepFunctional(Functional):
    """Dual element: an L-infinity step function, phi(f) = sum a_c f_c m_c."""

    model: MeasureModel
    coeffs: tuple

    space = "l1"

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(as_fraction(v) for v in self.coeffs))
        if len(self.coeffs) != len(self.model.cells):
            raise DeltaLabError("one coefficient per cell required")

    @staticmethod
    def _from_coeffs(model: MeasureModel, coeffs: tuple) -> "StepFunctional":
        """Trusted constructor, as `StepFunction._from_values`."""
        phi = object.__new__(StepFunctional)
        phi.__dict__.update(model=model, coeffs=coeffs)
        return phi

    def __call__(self, f: StepFunction) -> Fraction:
        if f.model != self.model:
            raise DeltaLabError("functional and point live on different models")
        return sum(
            (a * v * c.mass for a, v, c in zip(self.coeffs, f.values, self.model.cells)),
            Fraction(0),
        )

    def dual_norm(self) -> Fraction:
        return max(abs(a) for a in self.coeffs)

    def slice_polytope(self, eps) -> SlicePolytope:
        eps = as_fraction(eps)
        verts = crosspolytope_slice_vertices(self.model.masses, self.coeffs, 1 - eps)
        return SlicePolytope("w1", self.model.masses, tuple(verts))


# ---------------------------------------------------------------------------
# decision procedures and constructions


def is_daugavet_point_l1(f: StepFunction):
    """Daugavet (equivalently Delta) iff no support cell is an atom.

    Returns (verdict, certificate); a negative certificate names the
    offending atom and carries the separating functional with its
    hull-distance bound.
    """
    require_unit(f)
    support = f.support()
    atom = next((c for c in support if c.kind is CellKind.ATOM), None)
    if atom is None:
        cert = Certificate(
            verdict=Verdict.DAUGAVET_YES,
            log=(("support", tuple(c.id for c in support)),),
        )
        return True, cert
    return False, refute_delta_atom(f, atom.id).certificate


@dataclass(frozen=True)
class AtomRefutation:
    eps_used: Fraction
    bound: Fraction
    functional: StepFunctional
    certificate: Certificate


def refute_delta_atom(f: StepFunction, atom_id: str, eps=None) -> AtomRefutation:
    """Quantitative refutation at an atom A in supp(f) with |f|=c there:
    for eps < 2 c mu(A), every convex combination of far points stays at
    least (c - eps/(2 mu(A))) mu(A) away from f."""
    i = f.model.index(atom_id)
    cell = f.model.cells[i]
    if cell.kind is not CellKind.ATOM:
        raise DeltaLabError(f"cell {atom_id!r} is not an atom")
    c = abs(f.values[i])
    if c == 0:
        raise DeltaLabError(f"atom {atom_id!r} is not in supp(f)")
    mu = cell.mass
    if eps is None:
        # eps = c mu lies inside the guard, and the bound is c mu / 2
        eps = c * mu
        bound = eps / 2
    else:
        eps = as_fraction(eps)
        if not 0 < eps < 2 * c * mu:
            raise BoundVoidError(f"need 0 < eps < 2*c*mu(A) = {float(2 * c * mu)}")
        bound = (c - eps / (2 * mu)) * mu
    coeffs = [Fraction(0)] * len(f.model.cells)
    coeffs[i] = Fraction(sgn(f.values[i]))
    phi = StepFunctional._from_coeffs(f.model, tuple(coeffs))
    cert = Certificate(
        verdict=Verdict.DELTA_NO,
        refutation=Refutation(
            refuter=phi,
            bound=bound,
            margin=bound,
            note=f"atom {atom_id!r} carries |f| = {float(c)}; separating functional sign(f)*chi_A",
        ),
        log=(("eps", eps), ("atom", atom_id)),
    )
    return AtomRefutation(eps_used=eps, bound=bound, functional=phi, certificate=cert)


@dataclass(frozen=True)
class L1Witness:
    g: StepFunction
    model: MeasureModel
    f: StepFunction
    functional: StepFunctional
    distance: Fraction
    functional_value: Fraction
    witness_cell: str
    certificate: Certificate = None


def daugavet_witness_l1(f: StepFunction, x0star: StepFunctional, eps, delta,
                        target_mass=None) -> L1Witness:
    """Far point in a prescribed slice, by the normalized-indicator recipe.

    Picks a cell A where |coefficient| of the dual element is maximal, splits
    it (nonatomic) until the f-mass on A is below eps/2, and returns
    g = sign(a_A) * chi_A / mu(A).  Default split depth is the smallest
    dyadic fraction that works; `target_mass` overrides it with a single
    split to the requested mass.  All three postconditions are re-evaluated
    exactly; failure raises instead of returning.
    """
    eps = as_fraction(eps)
    delta = as_fraction(delta)
    if not (eps > 0 and delta > 0):
        raise DeltaLabError("witness construction needs eps > 0 and delta > 0")
    ok, _ = is_daugavet_point_l1(f)
    if not ok:
        raise DeltaLabError("witness construction needs a Daugavet point")
    if abs(x0star.dual_norm() - 1) > UNIT_TOL:
        raise DeltaLabError("dual element must have norm 1")

    i = max(range(len(x0star.coeffs)), key=lambda j: (abs(x0star.coeffs[j]), -j))
    cell = f.model.cells[i]
    fmass_full = abs(f.values[i]) * cell.mass
    if cell.kind is CellKind.ATOM and f.values[i] != 0:
        raise VerificationError(
            "max-coefficient cell is an atom inside supp(f); precondition violated"
        )

    model, fl, xl = f.model, f, x0star
    witness_id = cell.id
    if target_mass is not None:
        target_mass = as_fraction(target_mass)
        if not 0 < target_mass <= cell.mass:
            raise DeltaLabError("target_mass must lie in (0, mass]")
        if abs(f.values[i]) * target_mass >= eps / 2:
            raise DeltaLabError("target_mass leaves too much f-mass on the witness set")
        if target_mass < cell.mass:
            res = split_cell(model, cell.id, target_mass / cell.mass)
            model, fl, xl = res.model, res.lift(f), res.lift_functional(x0star)
            witness_id = f"{cell.id}.0"
    else:
        depth = 0
        while fmass_full * Fraction(1, 2 ** depth) >= eps / 2 and f.values[i] != 0:
            depth += 1
        for _ in range(depth):
            if model.cells[model.index(witness_id)].kind is CellKind.ATOM:
                raise VerificationError("cannot shrink f-mass on an atom")
            res = split_cell(model, witness_id, Fraction(1, 2))
            fl, xl = res.lift(fl), res.lift_functional(xl)
            model = res.model
            witness_id = f"{witness_id}.0"

    g = model.vertex(model.index(witness_id), sgn(x0star.coeffs[i]) or 1)

    dist = far_distance(fl, [g], eps)
    value = xl(g)
    if g.norm() != 1:
        raise VerificationError("witness is not unit norm")
    if not value > 1 - delta:
        raise VerificationError(f"witness misses the slice: phi(g) = {float(value)}")
    cert = Certificate(
        verdict=Verdict.DAUGAVET_YES,
        witness=(WitnessRecord(eps=eps, delta=delta, target=None,
                               members=((g, Fraction(1)),), min_distance=dist,
                               combo_error=Fraction(0), anchor=fl),),
        log=(("functional_value", value),))
    return L1Witness(g=g, model=model, f=fl, functional=xl,
                     distance=dist, functional_value=value,
                     witness_cell=witness_id, certificate=cert)


@dataclass(frozen=True)
class AtomSliceResult:
    slice: Slice
    diameter_bound: Fraction
    exact_diameter: Fraction


def atom_slice(model: MeasureModel, atom_id: str, eps) -> AtomSliceResult:
    """Slice cut by the atom indicator; its exact diameter obeys <= 3*eps."""
    eps = as_fraction(eps)
    i = model.index(atom_id)
    if model.cells[i].kind is not CellKind.ATOM:
        raise DeltaLabError(f"cell {atom_id!r} is not an atom")
    coeffs = [Fraction(0)] * len(model.cells)
    coeffs[i] = Fraction(1)
    phi = StepFunctional(model, tuple(coeffs))
    slc = Slice(phi, eps)
    diam = slice_diameter(slc)
    bound = 3 * eps
    if diam > bound:
        raise VerificationError(
            f"atom slice diameter {float(diam)} exceeds 3*eps = {float(bound)}"
        )
    return AtomSliceResult(slice=slc, diameter_bound=bound, exact_diameter=diam)


# ---------------------------------------------------------------------------
# far families (exact hull decompositions and samplers)


def _pieces(f: StepFunction, eps: Fraction):
    """How many pieces of equal mass `_refine_for_eps` splits each cell of f
    into: ceil(2 |f_c| m_c / eps) for a nonatomic cell where f is nonzero,
    1 for the others."""
    return [math.ceil(2 * abs(v) * c.mass / eps) if v and c.kind is CellKind.NONATOMIC else 1
            for v, c in zip(f.values, f.model.cells)]


def _refine_for_eps(f: StepFunction, eps: Fraction):
    """Split every nonatomic cell finely enough that its positively-signed
    unit spikes are eps-far from f: pieces with |f| mass <= eps/2 each.

    Returns (refined model, lifted f, composite lift for other functions)."""
    if eps <= 0:
        raise DeltaLabError("far families need eps > 0")
    model, fl, lifts = f.model, f, []
    for cell, k in zip(f.model.cells, _pieces(f, eps)):
        if k > 1:
            res = split_even(model, cell.id, k)
            model, fl = res.model, res.lift(fl)
            lifts.append(res.lift)
    return model, fl, _chain(lifts)


def _far_cells(f: StepFunction, eps: Fraction):
    """(pieces, signs) for each cell c of f: the number of parts of c in
    `_refine_for_eps`, each of mass m_p = m_c / pieces, and the signs s whose
    refined ball vertices s chi_p / m_p lie in the far set of f.  This is the
    exact far test of `far_vertices`, made once per cell, as every part of c
    gives the same answer."""
    # ||fl - s chi_p / m_p|| = ||f|| - |w| + |w - s| with w = f_c m_p = p/q;
    # times q > 0 and the denominators of ||f|| = n/d and eps = e/g:
    # (n q - |p| d + |p - s q| d) g >= (2 g - e) d q
    norm = f.norm()
    n, d = norm.numerator, norm.denominator
    e, g = eps.numerator, eps.denominator
    out = []
    for v, cell, k in zip(f.values, f.model.cells, _pieces(f, eps)):
        p, q = v.numerator * cell.mass.numerator, v.denominator * cell.mass.denominator * k
        rest, need = (n * q - abs(p) * d) * g, (2 * g - e) * d * q
        out.append((k, [s for s in (1, -1) if rest + abs(p - s * q) * d * g >= need]))
    return out


def far_vertices(f: StepFunction, eps):
    """Refined-model ball vertices lying in the far set of f.

    Returns (refined model, lifted f, members).  If supp(f) has no atoms
    the convex hull of the members contains the whole refined ball, so these
    vertices decide hull questions for both Delta and Daugavet tests.
    """
    eps = as_fraction(eps)
    model, fl, _ = _refine_for_eps(f, eps)
    members, i = [], 0
    for k, signs in _far_cells(f, eps):
        members += [model.vertex(j, s) for j in range(i, i + k) for s in signs]
        i += k
    return model, fl, members


def delta_family(f: StepFunction, target: StepFunction, eps, gamma=0):
    """Members of the far set of f whose weighted hull hits `target` exactly.

    Needs f unit with atomless support.  Weights are the target's cell
    masses; a +-spike pair absorbs any norm deficit.  The combination error
    is exactly zero, as `core.verify_far_family` checks (gamma accepted for
    interface symmetry).  Returns (members, weights, f, target), f and
    target lifted to the refined model.
    """
    eps = as_fraction(eps)
    require_unit(f)
    ok, _ = is_daugavet_point_l1(f)
    if not ok:
        raise DeltaLabError("far families need atomless support")
    if target.model != f.model:
        raise DeltaLabError("target must live on f's model")
    if target.norm() > 1 + UNIT_TOL:
        raise DeltaLabError("target must lie in the unit ball")

    model, fl, lift = _refine_for_eps(f, eps)
    tgt = lift(target)

    members, weights = [], []
    for j, cell in enumerate(model.cells):
        tv = tgt.values[j]
        if tv == 0:
            continue
        members.append(model.vertex(j, sgn(tv)))
        weights.append(abs(tv) * cell.mass)

    deficit = 1 - sum(weights, Fraction(0))
    if deficit > 0:
        pad = next((j for j, c in enumerate(model.cells) if fl.values[j] == 0), None)
        if pad is None:
            pad = next(j for j, c in enumerate(model.cells)
                       if c.kind is CellKind.NONATOMIC)
        plus = model.vertex(pad, 1)
        members += [plus, -plus]
        weights += [deficit / 2, deficit / 2]

    verify_far_family(fl, members, weights, tgt, eps, 0)
    return members, weights, fl, tgt


def sample_far_members(f: StepFunction, eps, count: int, rng):
    """Deterministic mixed sample of the far set of f: ball vertices, the
    negated-support family, spike elements on split pieces, and filtered
    random mixtures (all re-checked for membership).

    Returns (f lifted to the refined model, members)."""
    eps = as_fraction(eps)
    out = []

    model, fl, verts = far_vertices(f, eps)
    out.extend(verts)

    neg = -fl
    if (fl - neg).norm() >= 2 - eps:
        out.append(neg)

    # random opposite-sign elements: far by construction, then re-checked
    n = len(model.cells)
    lo_scale = max(0, int((1 - eps) * 1000))
    for _ in range(count * 20):
        if len(out) >= count * 2:
            break
        mags = [Fraction(rng.randrange(0, 1001), 1000) for _ in range(n)]
        vals = []
        for j, cell in enumerate(model.cells):
            s = -sgn(fl.values[j]) or (1 if rng.random() < 0.5 else -1)
            vals.append(Fraction(s) * mags[j] / (n * cell.mass))
        cand = StepFunction(model, tuple(vals))
        nrm = cand.norm()
        if nrm == 0:
            continue
        scale = Fraction(rng.randrange(lo_scale, 1001), 1000)
        cand = (scale / nrm) * cand
        if (fl - cand).norm() >= 2 - eps:
            out.append(cand)
    # convex mixtures of far points that stay far (interior far points)
    mixes = []
    for _ in range(count // 4):
        i, j = rng.randrange(len(out)), rng.randrange(len(out))
        t = Fraction(rng.randrange(1, 1000), 1000)
        cand = (1 - t) * out[i] + t * out[j]
        if (fl - cand).norm() >= 2 - eps:
            mixes.append(cand)
    out.extend(mixes)
    return fl, out[:count]


def random_unit(model: MeasureModel, rng) -> Optional[StepFunction]:
    """Random unit-norm step function with values in {-2, ..., 2}."""
    for _ in range(64):
        vals = [Fraction(rng.choice((-2, -1, 0, 1, 2))) for _ in model.cells]
        f = StepFunction(model, tuple(vals))
        nrm = f.norm()
        if nrm != 0:
            return (Fraction(1) / nrm) * f
    return None


# ---------------------------------------------------------------------------
# this model's entry of sums.SPACES

decide = is_daugavet_point_l1


def point_to_json(p: StepFunction) -> dict:
    return {"space": "l1",
            "cells": [{"id": c.id, "mass": num_to_json(c.mass), "kind": c.kind.value}
                      for c in p.model.cells],
            "values": [num_to_json(v) for v in p.values]}


def point_from_json(obj) -> StepFunction:
    model = MeasureModel(tuple(Cell(c["id"], num_from_json(c["mass"]), CellKind(c["kind"]))
                               for c in obj["cells"]))
    return StepFunction(model, tuple(num_from_json(v) for v in obj["values"]))


def functional_to_json(phi: StepFunctional) -> dict:
    return {"space": "l1", "dual": True, "coeffs": [num_to_json(v) for v in phi.coeffs]}


def functional_from_json(obj, model=None) -> StepFunctional:
    if model is None:
        raise DeltaLabError("l1 functionals need the measure model")
    return StepFunctional(model, tuple(num_from_json(v) for v in obj["coeffs"]))


def witness_report(f, eps, params, serialize) -> dict:
    """`witness`: the far step function for --functional."""
    phi = serialize.functional_from_json(params["functional"], model=f.model)
    res = daugavet_witness_l1(f, phi, eps, Fraction(str(params["delta"])))
    return {"witness": point_to_json(res.g), "distance": num_to_json(res.distance),
            "functional_value": num_to_json(res.functional_value),
            "witness_cell": res.witness_cell}


_CROSSCHECK_MIXTURES = 4  # interior far mixtures per eps row of `crosscheck_setup`


def crosscheck_distances(groups):
    """Exact distances for `crosscheck`: for each (far, targets) group, the
    distance of every target y to the hull of the points s chi_C / m_C of
    each cell C of y's model and sign s in far[C], flat and in order.

    In mass coordinates a_C = m_C y_C the norm of y is sum |a_C| and each
    hull point is s e_C, so a hull point t puts weight w_{C,s} >= 0, summing
    to 1, on the far (C, s).  A unit of weight on a far (C, sgn a_C) lowers
    sum |a_C - t_C| by one while the weight there stays within |a_C|, so at
    most min(1, P) is gained, with P the sum of |a_C| over the cells where
    sgn a_C is far.  Every other unit moves t_C away from a_C and costs one,
    unless an equal unit on the other sign of the same cell cancels it,
    which needs a cell with both signs far; such a cell absorbs any leftover
    weight at no cost.  Both bounds are attained, so

        d = sum |a_C| - min(1, P) + max(0, 1 - P) [no cell has both signs far].

    The LP this solves is the crosscheck's hull LP after the orbit
    reduction of `crosscheck_setup`.  It runs in integers over the common
    denominator D of the a_C, where it reads sum |a_C| - D + k max(0, D - P)
    with k = 1 when a cell has both signs far and k = 2 otherwise."""
    out = []
    for far, targets in groups:
        k = 1 if any(len(signs) == 2 for signs in far) else 2
        for y in targets:
            a = [(v.numerator * c.mass.numerator, v.denominator * c.mass.denominator)
                 for v, c in zip(y.values, y.model.cells)]
            den = math.lcm(*(q for _, q in a))
            nums = [p * (den // q) for p, q in a]
            matched = sum(abs(n) for n, signs in zip(nums, far) if sgn(n) in signs)
            out.append(Fraction(sum(map(abs, nums)) - den + k * max(0, den - matched), den))
    return out


def crosscheck_setup(x, tol, rng):
    """(tol, theorem verdict, eps -> (count, groups), `crosscheck_distances`)
    for `crosscheck`.

    The count is that of the far candidates: the refined model's far ball
    vertices and a few interior mixtures of them, drawn from rng.  The
    distances are taken on x's own model: all targets (x, its ball vertices
    and two random unit points) share one group, whose hull is that of the
    means s chi_c / m_c of the far vertices on the parts of cell c with
    sign s, given as the far signs of each cell.  Every target is constant
    on the parts of a cell, and so is far-ness, so the hull LP is symmetric
    under permuting the parts of a cell and has an optimum that weighs them
    equally (Bödi, Herr & Joswig, Math. Program. 137, 2013).  So the
    distances are those to the hull of all candidates, which holds the
    mixtures already.  They are exact (zero or a macroscopic gap), so tol
    defaults to 1e-6."""
    tol = 1e-6 if tol is None else float(tol)
    theorem, _ = is_daugavet_point_l1(x)
    targets = [x, *x.model.ball_vertices()]
    targets += [p for p in (random_unit(x.model, rng) for _ in range(2)) if p]

    def candidates(eps):
        _, xl, members = far_vertices(x, eps)
        added = 0
        for _ in range(_CROSSCHECK_MIXTURES * 8):
            if added >= _CROSSCHECK_MIXTURES or len(members) < 2:
                break
            i, j = rng.randrange(len(members)), rng.randrange(len(members))
            t = Fraction(rng.randrange(1, 1000), 1000)
            cand = (1 - t) * members[i] + t * members[j]
            if (xl - cand).norm() >= 2 - eps:
                members.append(cand)
                added += 1
        return len(members), [([signs for _, signs in _far_cells(x, eps)], targets)]
    return tol, theorem, candidates, crosscheck_distances
