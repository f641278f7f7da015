"""Only the space models branch on a space.

Which spaces exist, and what their JSON, reports and crosscheck set-up look
like, is known to the model modules `l1`, `ck`, `muntz` and `sums` alone;
everyone else goes through the table `sums.SPACES`.  This parses every
other module and flags an `isinstance` test against a payload or
functional class, and any comparison with a space name.  Core types such
as `Rank1Operator` may be tested anywhere.
"""

import ast
import inspect
import random
from fractions import Fraction
from pathlib import Path

import pytest

import deltalab
from deltalab import ck, l1, sums

MODELS = {"l1.py", "ck.py", "muntz.py", "sums.py"}
PAYLOAD_CLASSES = {"StepFunction", "TailSequence", "MuntzPolynomial", "SumPoint",
                   "StepFunctional", "SequenceFunctional", "PointEvaluationFunctional"}
SPACE_NAMES = {"l1", "ck", "muntz", "sum"}
OTHERS = sorted(p for p in Path(deltalab.__file__).parent.glob("*.py") if p.name not in MODELS)


def _names(node):
    """Class names in an isinstance class argument (a name, an attribute or a tuple)."""
    if isinstance(node, ast.Tuple):
        return {n for elt in node.elts for n in _names(elt)}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def _space_literals(node):
    """Space names among the string constants of a comparison operand."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return {s for elt in node.elts for s in _space_literals(elt)}
    if isinstance(node, ast.Constant) and node.value in SPACE_NAMES:
        return {node.value}
    return set()


def space_branches(source):
    """`line N: ...` for each isinstance on a payload class and each
    comparison with a space name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            for name in sorted(_names(node.args[1]) & PAYLOAD_CLASSES):
                found.append(f"line {node.lineno}: isinstance on {name}")
        elif isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                for name in sorted(_space_literals(operand)):
                    found.append(f"line {node.lineno}: compares with {name!r}")
    return found


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_only_the_models_branch_on_a_space(path):
    assert space_branches(path.read_text(encoding="utf-8")) == []


def test_layout_check_flags_a_branch():
    source = ("def f(p, phi, space):\n"
              "    if isinstance(p, l1_mod.StepFunction):\n"
              "        return 1\n"
              "    if isinstance(phi, (Rank1Operator, SequenceFunctional)):\n"
              "        return 2\n"
              "    if space == 'muntz' or space in ('ck', 'other'):\n"
              "        return 3\n"
              "    return isinstance(p, Rank1Operator) or space == 'summit'\n")
    assert space_branches(source) == [
        "line 2: isinstance on StepFunction",
        "line 4: isinstance on SequenceFunctional",
        "line 6: compares with 'muntz'",
        "line 6: compares with 'ck'",
    ]


TRUSTED = {"_from_values", "_from_coeffs"}
CODECS = {"point_from_json", "functional_from_json"}


def trusted_uses(source, codecs_only=False):
    """`line N: name` for each reference to an L1 trusted constructor
    (with codecs_only, only those inside the JSON decoders)."""
    tree = ast.parse(source)
    scopes = [tree]
    if codecs_only:
        scopes = [n for n in ast.walk(tree)
                  if isinstance(n, ast.FunctionDef) and n.name in CODECS]
    return [f"line {node.lineno}: {node.attr}" for scope in scopes for node in ast.walk(scope)
            if isinstance(node, ast.Attribute) and node.attr in TRUSTED]


@pytest.mark.parametrize("path", sorted(Path(deltalab.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_trusted_l1_constructors_stay_inside_l1(path):
    # every outside input, JSON included, goes through the validating
    # constructors; the trusted ones serve values l1 computed itself
    source = path.read_text(encoding="utf-8")
    if path.name == "l1.py":
        assert trusted_uses(source)
        assert trusted_uses(source, codecs_only=True) == []
        assert {n.name for n in ast.walk(ast.parse(source))
                if isinstance(n, ast.FunctionDef)} >= CODECS
    else:
        assert trusted_uses(source) == []


def test_trusted_check_flags_a_decoder():
    source = ("def point_from_json(obj):\n"
              "    return StepFunction._from_values(m, v)\n"
              "def other(m, v):\n"
              "    return StepFunctional._from_coeffs(m, v)\n")
    assert trusted_uses(source) == ["line 2: _from_values", "line 4: _from_coeffs"]
    assert trusted_uses(source, codecs_only=True) == ["line 2: _from_values"]


def test_crosscheck_setup_takes_point_tol_rng():
    # the crosscheck protocol: every model that has it takes (x, tol, rng)
    setups = {name: mod.crosscheck_setup for name, mod in sums.SPACES.items()
              if hasattr(mod, "crosscheck_setup")}
    assert sorted(setups) == ["ck", "l1"]
    for setup in setups.values():
        assert [*inspect.signature(setup).parameters] == ["x", "tol", "rng"]
    # each eps gives (count, groups): count is the row's far candidate
    # count, a group is (hull points, targets), and the first target of the
    # first group is the anchor
    model = l1.MeasureModel((("a", 1, "NONATOMIC"),))
    points = {"l1": l1.StepFunction(model, (1,)), "ck": ck.TailSequence((0,), 1)}
    for name, setup in setups.items():
        _, theorem, builder = setup(points[name], None, random.Random(0))
        count, groups = builder(Fraction(1, 2))
        assert isinstance(count, int) and isinstance(groups, list)
        for hull_points, targets in groups:
            assert isinstance(hull_points, list) and count >= len(hull_points) > 0
            assert all(t.space == name for t in [*hull_points, *targets])
        anchor = groups[0][1][0]
        assert anchor is points[name] and anchor.norm() == 1
        if name == "l1":  # one group, a hull point per far (cell, sign) of x's model
            [(hull_points, targets)] = groups
            assert all(p.model == anchor.model for p in [*hull_points, *targets])
            assert count >= len(hull_points) <= 2 * len(model.cells)
        else:  # a group per target, and a witness family's orbit is one hull point
            assert theorem and all(len(targets) == 1 and count > len(pts)
                                   for pts, targets in groups)
