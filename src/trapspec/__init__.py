"""Analytic valence-particle models for magnetic and electric traps.

Closed-form spectra, eigenfunctions, partner-potential hierarchies, and
quantum-defect towers for four trap families (Ioffe-Pritchard, rotating-bias,
driven-quadrupole, and static-quadrupole-with-field), each cross-checked
against independent numerical oracles: a log-mesh radial eigensolver,
conductor-level field summation, and direct quadrature.

Every public module is registered on import but runs only on its first
attribute use, so a command runs only the modules on its own path.  The
package's names resolve on first use, each from the ``__all__`` of the
module that defines it.

numpy is imported inside the functions that build arrays, not at the top of
a module.  The closed forms behind ``scales``, ``isotropy``, ``defect`` and
``shells`` (but for Penning counts) are a few floats each, so those commands,
and a command that stops at a configuration or validation error before any
array is built, run without numpy.  So do ``verify --help`` and the
combinatorics suite: ``verification`` imports numpy in the suites that build
arrays.  The solver (``numerov``) works on arrays throughout and imports it
at the top.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# The public modules, in the order their names resolve.  Each module's
# __all__ is the one list of its public names.
_MODULES = (
    "constants", "errors", "special", "oscillator3d", "numerov", "fields", "susy", "defect",
    "planar", "config", "verification",
)


def _register(name: str):
    """The module ``trapspec.<name>``, in ``sys.modules``; its body runs on first attribute use."""
    qualified = f"{__name__}.{name}"
    if qualified in sys.modules:  # a reload of the package keeps its modules
        return sys.modules[qualified]
    spec = importlib.util.find_spec(qualified)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualified] = module
    spec.loader.exec_module(module)
    return module


for _name in _MODULES:
    globals()[_name] = _register(_name)
del _name


def _public():
    return [name for module in _MODULES for name in globals()[module].__all__]


def __getattr__(name: str):
    """A public name, from the first module in ``_MODULES`` whose ``__all__``
    lists it; it is kept once found, so later uses skip this walk."""
    if name == "__all__":
        return _public()
    # `from trapspec import cli` asks for a submodule before it imports it; no
    # public name is a submodule's, so that question loads nothing.
    if not name.startswith("_") and importlib.util.find_spec(f"{__name__}.{name}") is None:
        for module in _MODULES:
            source = globals()[module]
            if name in source.__all__:
                value = globals()[name] = getattr(source, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_public()))
