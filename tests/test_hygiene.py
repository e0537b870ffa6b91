"""Source hygiene: no unused imports, one public list, oracles share no code with the
closed forms they check, the package runs without scipy, a command runs only the
package modules it uses, and numpy loads only where a command builds an array."""

import ast
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from test_cli import ip_config, paul_config, penning_config, top_config

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trapspec"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def declared_all(tree) -> list[str] | None:
    """The names a module's ``__all__`` assignment lists, or None without one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


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
    used.update(declared_all(tree) or ())
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


def test_every_all_lists_the_package_exports():
    # The package resolves each public name from the __all__ of the first
    # module in its order that lists it, so that list is the only one. That
    # goes wrong silently on a module without an __all__ (nothing of it is
    # published), a name in two lists (the later one is never reached) or a
    # listed name bound to another object.
    import trapspec

    modules = trapspec._MODULES
    assert {"constants", "errors", "numerov", "special", "config", "verification"} <= set(modules)
    owner = {}
    for module in modules:
        source = sys.modules[f"trapspec.{module}"]
        names = getattr(source, "__all__", None)
        assert names is not None, module
        assert len(names) == len(set(names)), module
        for name in names:
            assert name not in owner, f"{name} is in both {owner.get(name)} and {module}"
            owner[name] = module
            assert getattr(trapspec, name) is getattr(source, name)
    public = {
        n for n in dir(trapspec)
        if not n.startswith("_") and not isinstance(getattr(trapspec, n), types.ModuleType)
    }
    assert public == set(owner)
    star = {}
    exec("from trapspec import *", star)
    assert star.keys() - {"__builtins__"} == set(owner)
    assert len(owner) == 87


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


def top_level_imports(source: str) -> set[str]:
    """The top-level packages a source imports by absolute name, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # numpy is the one runtime dependency; scipy is a test reference only.
    assert "scipy" not in top_level_imports(path.read_text(encoding="utf-8"))


def test_scipy_check_sees_a_deferred_import():
    source = (
        "import numpy as np\nfrom . import errors\n"
        "def f():\n    from scipy.integrate import quad\n"
    )
    assert top_level_imports(source) == {"numpy", "scipy"}


def test_exact_rules_import_nothing_from_the_package():
    # The Gram tests' reference shares no code with the quadrature it checks.
    assert package_imports((ROOT / "tests" / "exact_rules.py").read_text(encoding="utf-8")) == set()


def test_import_check_sees_a_closed_form_module():
    source = (
        "import numpy as np\nfrom .errors import finite\nfrom .oscillator3d import tower_state\n"
        "from . import special\nimport trapspec.susy\nfrom trapspec.planar import paul_energy\n"
    )
    assert package_imports(source) == {"errors", "oscillator3d", "special", "susy", "planar"}


# The conductor-level Biot-Savart oracle inside fields.py, which checks the
# field series there, and the geometry records it is built from.
BIOT_SAVART = {
    "_rows", "CircularLoop", "_loop_fields", "StraightWire", "TrapAssembly",
    "biot_savart_field", "_LOOP_RTOL", "_CLEARANCE", "_BLOCK_PAIRS", "_CHUNK_ROWS",
}
GEOMETRY_RECORDS = {"IoffePritchardGeometry", "TopGeometry"}


def module_definitions(tree) -> dict:
    """Each name a module's top level defines, not by import, mapped to its statement."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                found.update((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
    return found


def oracle_leaks(source: str) -> list[str]:
    """Module-level names the Biot-Savart definitions use beyond one another and the records."""
    defined = module_definitions(ast.parse(source))
    assert BIOT_SAVART <= defined.keys()
    used = {
        n.id for name in BIOT_SAVART for n in ast.walk(defined[name]) if isinstance(n, ast.Name)
    }
    return sorted((used & defined.keys()) - BIOT_SAVART - GEOMETRY_RECORDS)


FIELDS_SOURCE = (ROOT / "src" / "trapspec" / "fields.py").read_text(encoding="utf-8")


def test_biot_savart_oracle_uses_no_series_code():
    # The oracle may share no code with the series it checks, though both
    # live in fields.py.
    assert oracle_leaks(FIELDS_SOURCE) == []
    series_side = module_definitions(ast.parse(FIELDS_SOURCE)).keys() - BIOT_SAVART
    assert {"ip_field_cartesian", "top_field_series", "DerivedScales", "_check_kind"} <= series_side


def test_oracle_check_sees_a_series_call():
    tree = ast.parse(FIELDS_SOURCE)
    oracle = module_definitions(tree)["biot_savart_field"]
    oracle.body.insert(0, ast.parse("ip_field_cartesian(None, 0.0, 0.0, 0.0)").body[0])
    assert oracle_leaks(ast.unparse(tree)) == ["ip_field_cartesian"]


def fresh_run(program: str, *argv: str) -> subprocess.CompletedProcess:
    """``program`` run with ``argv`` in a fresh interpreter that imports trapspec from src."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", program, *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def fresh_stdout(program: str) -> str:
    """What ``program`` prints in a fresh interpreter that imports trapspec from src."""
    done = fresh_run(program)
    done.check_returncode()
    return done.stdout


def scipy_loaded_after(statements: str) -> str:
    """The scipy modules loaded once ``statements`` run in a fresh interpreter."""
    return fresh_stdout(
        f"import sys; {statements}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; importing the package and its command
    # line must not load it.
    assert scipy_loaded_after("import trapspec, trapspec.cli") == "[]\n"


def modules_run_after(statements: str) -> tuple[set[str], set[str]]:
    """The trapspec modules registered, and those whose body has run, once
    ``statements`` run in a fresh interpreter.  A module's body has run once
    its namespace holds ``__builtins__``; reading the namespace through
    ``object.__getattribute__`` does not run a deferred body."""
    out = fresh_stdout(
        f"import sys; {statements}; "
        "mods = {n: m for n, m in sys.modules.items() if n.startswith('trapspec.')}; "
        "print(sorted(mods)); "
        "print(sorted(n for n, m in mods.items() "
        "if '__builtins__' in object.__getattribute__(m, '__dict__')))"
    )
    registered, ran = (set(ast.literal_eval(line)) for line in out.splitlines()[-2:])
    return registered, ran


@pytest.mark.parametrize("command,config,idle", [
    (None, None, {"numerov", "verification", "defect"}),
    ("scales", ip_config, {"planar", "numerov", "verification", "defect"}),
    ("spectrum", paul_config, {"fields", "numerov", "verification", "defect"}),
], ids=["import", "scales-ip", "spectrum-paul"])
def test_a_command_runs_only_the_modules_it_uses(tmp_path, command, config, idle):
    import trapspec

    statements = "import trapspec.cli"
    if command:
        statements += f"; trapspec.cli.main({[command, '--config', config(tmp_path)]!r})"
    registered, ran = modules_run_after(statements)
    assert {f"trapspec.{m}" for m in trapspec._MODULES} <= registered
    assert not {f"trapspec.{m}" for m in idle} & ran
    assert "trapspec.config" in ran  # the probe sees a module that ran


def numpy_after_each(commands) -> list:
    """``(exit code, numpy loaded)`` in a fresh interpreter after ``import
    trapspec.cli`` (code None) and then after each command in turn; a command
    that exits, as ``--help`` does, gives its exit code."""
    out = fresh_stdout(
        "import sys, trapspec.cli; seen = [(None, 'numpy' in sys.modules)]\n"
        f"for argv in {commands!r}:\n"
        "    try:\n"
        "        code = trapspec.cli.main(argv)\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "    seen.append((code, 'numpy' in sys.modules))\n"
        "print(seen)"
    )
    return ast.literal_eval(out.splitlines()[-1])


def test_scalar_commands_start_without_numpy(tmp_path):
    # numpy is imported only where an array is built: the closed forms of
    # scales, isotropy, shells and defect, a spectrum of at most
    # cli.SMALL_TABLE_ROWS levels, the verify parser and its combinatorics
    # suite, and the documented error paths build none.
    (tmp_path / "untuned").mkdir()
    ip, top = ip_config(tmp_path), top_config(tmp_path)
    commands = [
        *(["scales", "--config", c] for c in (ip, top, paul_config(tmp_path),
                                               penning_config(tmp_path))),
        ["isotropy", "--config", ip], ["isotropy", "--config", top],
        *(["shells", "--trap", t, "--max-n", "40"] for t in ("ioffe_pritchard", "top", "paul")),
        ["defect", "--config", ip, "--delta", "0.3"], ["defect", "--config", top, "--delta", "0.3"],
        ["verify", "--help"], ["verify", "--suite", "combinatorics"],
        # The two spectra of a cli-session benchmark pass, in SI and natural units.
        ["spectrum", "--config", top, "--max-n", "40"],
        ["spectrum", "--config", ip, "--max-n", "40", "--natural-units"],
        ["spectrum", "--config", paul_config(tmp_path), "--max-n", "30", "--max-k", "12"],
        ["spectrum", "--config", penning_config(tmp_path), "--max-n", "30", "--max-k", "12",
         "--natural-units"],
        ["scales", "--config", str(tmp_path / "missing.json")],
        ["spectrum", "--config", ip, "--natural-units", "--out",
         str(tmp_path / "missing-dir" / "x.csv")],
        ["spectrum", "--config", ip_config(tmp_path / "untuned", bar_current=20.0)],
    ]
    assert numpy_after_each(commands) == [(None, False)] + [(0, False)] * 17 + [
        (2, False), (2, False), (3, False)]


def test_a_missing_out_directory_is_refused_before_any_work(tmp_path):
    # The table is neither computed nor formatted: the command stops with the
    # line the write itself would print, before numpy loads.
    target = tmp_path / "missing-dir" / "x.csv"
    done = fresh_run(
        "import sys, trapspec.cli; code = trapspec.cli.main(sys.argv[1:]); "
        "print(code, 'numpy' in sys.modules)",
        "spectrum", "--config", ip_config(tmp_path), "--natural-units", "--out", str(target),
    )
    assert (done.stdout, done.stderr) == (
        "2 False\n", f"config error: cannot write {target}: No such file or directory\n")
    assert not target.parent.exists()


@pytest.mark.parametrize("command,extra", [
    # A spectrum of 101^2 labels, past cli.SMALL_TABLE_ROWS, is built as arrays.
    ("spectrum", ["--max-n", "200"]), ("field-map", []),
], ids=["spectrum", "field-map"])
def test_array_commands_load_numpy(tmp_path, command, extra):
    # The probe above sees numpy once a command builds an array.
    assert numpy_after_each([[command, "--config", ip_config(tmp_path), *extra]]) == [
        (None, False), (0, True)]


def test_a_module_body_runs_on_first_use():
    assert modules_run_after("import trapspec; trapspec.numerov.solve_eigen")[1] == {
        "trapspec.errors", "trapspec.numerov"}


def test_tracing_installs_after_the_cli_import():
    # perfbench/tracing.py finds each target module in sys.modules and rebinds
    # its functions in every trapspec module: every module must be registered
    # once the command line is imported, loaded or not.
    import trapspec

    statements = (
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r}); import trapspec.cli; "
        "from tracing import Tracer; t = Tracer(); t.install(); t.uninstall()"
    )
    assert {f"trapspec.{m}" for m in trapspec._MODULES} <= modules_run_after(statements)[1]


def test_radial_solves_load_no_scipy(tmp_path):
    # scipy is a test dependency only. With `import scipy` made to fail, every
    # command on the four reference configs, all ten suites and overlap run.
    ip, top, paul, penning = (
        config(tmp_path) for config in (ip_config, top_config, paul_config, penning_config))
    # A Paul spectrum past cli.SMALL_TABLE_ROWS runs the array builder too.
    commands = [["verify", "--suite", "all"], ["spectrum", "--config", paul, "--max-n", "150"]]
    for trap, config in (("ioffe_pritchard", ip), ("top", top), ("paul", paul),
                         ("penning", penning)):
        commands += [
            ["scales", "--config", config], ["spectrum", "--config", config],
            ["wavefunction", "--config", config, "--n-level", "2"], ["susy", "--config", config],
            ["shells", "--trap", trap, "--max-n", "40", "--config", config],
        ]
        if trap in ("ioffe_pritchard", "top"):
            commands += [["field-map", "--config", config], ["isotropy", "--config", config],
                         ["field-map", "--config", config, "--oracle"],
                         ["defect", "--config", config, "--delta", "0.3"]]
    out = fresh_stdout(
        "import contextlib, io, sys; sys.modules['scipy'] = None\n"
        "import numpy as np, trapspec.cli\n"
        "from trapspec import overlap\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [trapspec.cli.main(argv) for argv in {commands!r}]\n"
        "print([codes, overlap(np.exp, np.exp, 0.0, 1.0)])"
    )
    codes, value = ast.literal_eval(out)
    assert codes == [0] * len(commands)
    assert value == pytest.approx((math.e**2 - 1) / 2, rel=1e-14)
