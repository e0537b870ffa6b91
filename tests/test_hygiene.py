"""Source hygiene: no module imports a name it never uses, and start-up loads no scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The package __init__ imports names only to re-export them.
SOURCES = sorted(
    p for p in (ROOT / "src" / "trapspec").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that are never referenced nor listed in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_unused_and_used_names():
    source = (
        "import math\nimport numpy as np\nfrom os import path, sep\n"
        "__all__ = ['sep']\nprint(np.pi)\n"
    )
    assert unused_imports(source) == ["line 1: math", "line 3: path"]


def package_imports(source: str) -> set[str]:
    """The trapspec modules a source imports, by relative or absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(
                a.name.split(".")[1] for a in node.names if a.name.startswith("trapspec.")
            )
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level:
                if parts[0] != "trapspec":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import module
                found.update(alias.name for alias in node.names)
    return found


def test_numerov_imports_only_errors_from_the_package():
    # The shooting solver and quadrature are the oracle of every closed form,
    # so they may share none of the closed forms' code.
    source = (ROOT / "src" / "trapspec" / "numerov.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"errors"}


def test_import_check_sees_a_closed_form_module():
    source = (
        "import numpy as np\nfrom .errors import finite\nfrom .oscillator3d import tower_state\n"
        "from . import special\nimport trapspec.susy\nfrom trapspec.planar import paul_energy\n"
    )
    assert package_imports(source) == {"errors", "oscillator3d", "special", "susy", "planar"}


def test_cli_import_loads_no_scipy():
    # scipy is imported where the quadrature runs; importing the package and
    # its command line must not pay for it.
    probe = (
        "import sys, trapspec, trapspec.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.stdout == "[]\n"
