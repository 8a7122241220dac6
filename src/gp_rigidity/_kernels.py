"""scipy's compiled LAPACK and pocketfft routines, loaded without scipy's packages.

The solvers call three compiled routines: LAPACK's dgbsv from
``scipy.linalg._flapack``, and pocketfft's dst and r2r_fftpack from
``scipy.fft._pocketfft.pypocketfft``.  Importing them through
``scipy.linalg`` or ``scipy.fft`` runs those packages' ``__init__``, which
load scipy's array-API layer (and with it ``numpy.testing``, ``numpy.ma``,
``numpy.random``) and ``scipy.special``: 0.37 s against 6 ms for the two
extensions alone (2-core machine, scipy 1.17.1).  So each extension is
loaded straight from its file in scipy's install directory:
``importlib.util.find_spec("scipy")`` locates that directory without
running ``scipy/__init__``.  The module is registered in ``sys.modules``
under its dotted name, so a later public scipy import reuses the same
module object, and ``dgbsv`` here is the object that
``scipy.linalg.lapack`` exports.

Both module names are private to scipy.  When the file is not where a wheel
puts it (another install layout) or does not load (for instance a platform
whose ``scipy/__init__`` must first register library directories), the
module is imported the ordinary way, packages included.  Attributes load on
first use, so importing this module loads no scipy.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys

_FLAPACK = "scipy.linalg._flapack"
_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"
_SOURCES = {"dgbsv": _FLAPACK, "dst": _POCKETFFT, "r2r_fftpack": _POCKETFFT}


def _extension_path(name: str) -> str | None:
    """The extension file of scipy's module ``name`` in scipy's install directory, or None."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    base = os.path.join(spec.submodule_search_locations[0], *name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(base + suffix):
            return base + suffix
    return None


def _load(name: str):
    """The module ``name``: the registered one, else loaded from its file, else imported."""
    if name in sys.modules:
        return sys.modules[name]
    path = _extension_path(name)
    if path is not None:
        try:
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except (ImportError, OSError):
            pass
        else:
            sys.modules[name] = module
            return module
    return importlib.import_module(name)


def __getattr__(attr: str):
    if attr not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {attr!r}")
    value = globals()[attr] = getattr(_load(_SOURCES[attr]), attr)
    return value
