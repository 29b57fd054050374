"""Every ``__all__`` name under ``src/repro`` has a caller outside ``tests/``.

A name counts as used when a file under ``src/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` loads it as a name, reads it as an attribute,
imports it with ``from ... import`` (a package ``__init__``'s re-exports do
not count), or names it in the qualname part of a ``"repro.mod:qualname"``
string, which is how perfbench names its layer targets.  Names in
``repro.__all__`` are the public API and need no caller; any other exception
goes on ``ALLOWLIST`` with its reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")
ALLOWLIST = {
    "FRAME_KINDS": "the wire ledger's frame-kind vocabulary: the resident-state "
                   "tests assert every recorded kind is in it",
}
_TARGET = re.compile(r"^[A-Za-z_][\w.]*:([A-Za-z_][\w.]*)$")


def _exports(package: Path) -> dict[str, str]:
    """Map each ``__all__`` name under *package* to the modules that list it."""
    found: dict[str, list[str]] = {}
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                for name in ast.literal_eval(node.value):
                    found.setdefault(name, []).append(module.replace(".__init__", ""))
    return {name: ", ".join(modules) for name, modules in found.items()}


def _used_names(root: Path) -> set[str]:
    used: set[str] = set()
    for directory in CALLER_DIRS:
        if not (root / directory).is_dir():
            continue
        for path in (root / directory).rglob("*.py"):
            reexports = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    used.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    target = _TARGET.match(node.value)
                    if target:
                        used.update(target.group(1).split("."))
    return used


def unused_exports(root: Path, package: str = "repro") -> dict[str, str]:
    """``__all__`` names under ``root/src/package`` that no caller uses."""
    used = _used_names(root)
    return {name: module for name, module in _exports(root / "src" / package).items()
            if name not in used}


def test_every_export_has_a_caller():
    unused = {name: module for name, module in unused_exports(ROOT).items()
              if name not in repro.__all__ and name not in ALLOWLIST}
    assert not unused, (
        "exported but called only from tests (delete it, move it into tests/, or "
        "allowlist it with a reason): "
        + "; ".join(f"{name} ({module})" for name, module in sorted(unused.items()))
    )


def test_allowlist_is_current():
    exports = _exports(ROOT / "src" / "repro")
    unused = unused_exports(ROOT)
    assert all(reason for reason in ALLOWLIST.values())
    assert not [name for name in ALLOWLIST if name not in exports], "no longer exported"
    assert not [name for name in ALLOWLIST if name not in unused], "now has a caller"


def test_guard_flags_an_unused_export(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '__all__ = ["used_fn", "unused_fn"]\n\n'
        "def used_fn():\n    return 1\n\n"
        "def unused_fn():\n    return 2\n")
    (package / "__init__.py").write_text("from pkg.mod import used_fn, unused_fn\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("import pkg\n\nprint(pkg.used_fn())\n")
    assert unused_exports(tmp_path, "pkg") == {"unused_fn": "pkg.mod"}
