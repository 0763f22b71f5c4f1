"""Leftovers of deletions: every name a module of src/dghom imports is
used in that module (or listed in its ``__all__``), every private
(``_``-prefixed) module-level function, class or method is referenced
somewhere in src/dghom, and every public one somewhere in src/dghom, in
perfbench/ or in a code span of README.md.  Tests do not count as
callers: a definition only a test reaches belongs in the tests.  Every
name the benchmark's tracer wraps still resolves, and README's library
tour runs."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dghom"
TREES = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _used_names(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    exported = [n.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for n in node.value.elts]
    return names | set(exported)


def test_every_import_is_used():
    for name, tree in TREES.items():
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    assert bound in used, f"{name}: unused import {bound}"


def _definitions(tree):
    """Module-level functions and classes, and the methods of the classes;
    dunders excluded."""
    defs = list(tree.body) + [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
    return [node.name for node in defs if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.endswith("__")]


def test_every_private_definition_is_referenced():
    used = set().union(*(_used_names(tree) for tree in TREES.values()))
    for name, tree in TREES.items():
        for defined in _definitions(tree):
            if defined.startswith("_"):
                assert defined in used, f"{name}: {defined} is never referenced"


def _readme_names():
    """Identifiers inside the backtick code spans and fenced blocks of
    README.md."""
    text = (ROOT / "README.md").read_text()
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return {name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_public_definition_is_referenced():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    used = set().union(*(_used_names(ast.parse(p.read_text())) for p in files))
    used |= _readme_names()
    for name, tree in TREES.items():
        for defined in _definitions(tree):
            if not defined.startswith("_"):
                assert defined in used, f"{name}: {defined} is never referenced"


def _tracer_targets():
    """The (module, attr) pairs of perfbench/tracer.py's TARGETS, read
    from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in n.targets))
    return [(elt.elts[0].value, elt.elts[1].value) for elt in node.value.elts]


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert targets
    for module, attr in targets:
        owner = importlib.import_module(f"dghom.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"


def test_readme_library_tour_runs(tmp_path):
    """The python block under README's "## Library tour", in a fresh
    interpreter: a stale import path there fails here."""
    text = (ROOT / "README.md").read_text()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, flags=re.S).group(1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
