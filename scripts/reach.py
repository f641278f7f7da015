#!/usr/bin/env python3
"""Which deltalab functions do the user paths never run?

A stdlib `sys.setprofile` hook records every Python function called while
the user paths run in this process:

* the acceptance criteria (`tests/test_acceptance.py`) and the CLI tests
  (`tests/test_cli.py`, the golden reports included), through pytest;
* both reproduction scripts under `scripts/`;
* one pass of each workload of `bench/workloads.py` (seed 404), imported
  as it is and only called.

It prints every function or method of the package that never ran, with its
body line count (first statement to last, docstring included), grouped by
the cluster that still owns it, and the totals.  Test outcomes are ignored:
the hook slows every call, so a timing gate (criterion 14's) can fail under
it.  This is a measurement, not a test; it takes about two minutes.

Run:  python scripts/reach.py
"""

import ast
import contextlib
import io
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import deltalab  # noqa: E402

PACKAGE = Path(deltalab.__file__).resolve().parent
SEED = 404

# (cluster, who still needs it, its functions)
CLUSTERS = (
    ("the exact LP path", "the reference of tests/test_core.py and "
     "tests/test_crosscheck.py; ROADMAP item 5 (verified fallback)",
     ("lp._pivot", "lp._run_simplex", "lp.simplex_exact", "core.hull_norm_rows",
      "core.hull_distance_info", "core.hull_distance")),
    ("the ck slice polytope", "the diameter-two test of tests/test_core.py",
     ("ck.SequenceFunctional.slice_polytope", "core.cube_slice_vertices")),
    ("the delta_family hooks", "the l1 and Muntz sum constructions of tests/test_sums.py",
     ("l1.delta_family", "muntz.delta_family")),
)


def package_functions():
    """{(file, first line): (name, body lines)} of every module-level
    function and class method; the first line is the code object's (the
    first decorator's line, if any)."""
    out = {}

    def walk(body, path, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(node.body, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                lines = node.end_lineno - node.body[0].lineno + 1
                out[str(path), first] = (f"{prefix}{node.name}", lines)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")).body, path,
             "" if path.stem == "__init__" else f"{path.stem}.")
    return out


def run_user_paths():
    """Every code object called while the user paths run."""
    import pytest

    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider",
                     str(ROOT / "tests" / "test_acceptance.py"),
                     str(ROOT / "tests" / "test_cli.py")])
        for script in ("characterization_sweep.py", "delta_but_not_daugavet.py"):
            path = ROOT / "scripts" / script
            sys.argv = [str(path)]
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
        sys.path.insert(0, str(ROOT / "bench"))
        from workloads import WORKLOADS

        for workload in WORKLOADS.values():
            wl = workload()
            wl.build(SEED)
            for job in wl.jobs():
                job()
    finally:
        sys.setprofile(None)
    return {(c.co_filename, c.co_firstlineno) for c in called}


def main():
    functions = package_functions()
    ran = run_user_paths()
    unreached = {key: fn for key, fn in functions.items() if key not in ran}
    owner = {name: cluster for cluster in CLUSTERS for name in cluster[2]}
    groups = {}
    for name, lines in sorted(unreached.values()):
        groups.setdefault(owner.get(name), []).append((name, lines))

    print("\ndeltalab functions the user paths never run (body lines):")
    for cluster in [*CLUSTERS, None]:
        rows = groups.get(cluster)
        if not rows:
            continue
        title = "no owner" if cluster is None else f"{cluster[0]}, kept for {cluster[1]}"
        print(f"  {title}: {sum(n for _, n in rows)} lines")
        for name, lines in rows:
            print(f"    {name:<48} {lines:>4}")
    total = sum(n for _, n in functions.values())
    never = sum(n for _, n in unreached.values())
    print(f"never ran: {len(unreached)} of {len(functions)} functions, "
          f"{never} of {total} body lines")


if __name__ == "__main__":
    main()
