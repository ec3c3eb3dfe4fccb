"""Every public name in src/wavechannel is reached by a command, a script or perfbench.

A name counts as reached when the console entry point, a file under
scripts/ or a file under perfbench/ uses it, or when a reached
top-level definition of the package uses it.  Uses are read from the
AST: plain names, attribute names and imported names, matched by name
alone, so a clash between two modules can only let a name through.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wavechannel"

# Public names that only tests read, each kept for the reason given.
KEPT = {
    "legendre_poly": "the exact P_n whose norms criterion 01 and the family tests check",
    "modified_legendre_poly": "the exact Q_n whose norms criterion 01 and the family tests check",
    "modified_legendre_ode_residual": "criterion 01's exact check of the modified family's ODE",
    "family_norm2": "closed-form family norms that criterion 01 compares with exact integrals",
    "gauss_nodes": "the Gauss-Legendre rule behind the quadrature oracles in tests/oracles.py",
    "QuadratureRule": "the rule that gauss_nodes returns",
}


def _uses(node: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
    return out


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def unreached_public_names() -> dict[str, str]:
    """Public top-level names of the package that no root reaches, by module."""
    graph: dict[str, set[str]] = {}
    public: dict[str, str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for name in _defined(stmt):
                if name == "__all__":
                    continue
                graph.setdefault(name, set()).update(_uses(stmt))
                if not name.startswith("_"):
                    public[name] = path.name
    roots = set(re.findall(r'"wavechannel\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    for path in sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        roots |= _uses(ast.parse(path.read_text()))
    reached: set[str] = set()
    stack = [name for name in roots if name in graph]
    while stack:
        name = stack.pop()
        if name not in reached:
            reached.add(name)
            stack.extend(graph[name] & graph.keys())
    return {name: module for name, module in public.items() if name not in reached}


def test_roots_are_found():
    unreached = unreached_public_names()
    for name in ("main", "run", "lemma_check", "solve_quintic", "channel_identity_check"):
        assert name not in unreached


def test_every_public_name_is_reached_or_kept():
    unreached = unreached_public_names()
    extra = {name: module for name, module in unreached.items() if name not in KEPT}
    assert not extra, f"public names reached only by tests: {extra}"
    stale = sorted(set(KEPT) - set(unreached))
    assert not stale, f"kept names that are reached now, drop them from KEPT: {stale}"


def test_the_package_imports_no_test_oracle():
    # scipy and jsonschema are test oracles: importing the console entry
    # point, which loads every module, must pull in neither (scipy was most
    # of a cold start, jsonschema a fifth of it)
    code = (
        "import pkgutil, sys, wavechannel, wavechannel.cli\n"
        "for m in pkgutil.iter_modules(wavechannel.__path__):\n"
        "    __import__('wavechannel.' + m.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
