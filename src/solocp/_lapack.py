"""The four LAPACK routines solocp runs, without importing scipy.linalg:
dpttrf and dpttrs factor and solve the tridiagonal level precision of the
solo posterior and the Gibbs sampler; dpotrf and dpotrs factor and solve the
oracle's dense marginal covariance.

All four come from scipy's f2py extension scipy.linalg._flapack, the module
scipy.linalg.lapack re-exports them from. Importing scipy.linalg itself costs
far more than the extension: it also clones the numpy namespace for its
array-API layer, which loads numpy.f2py, numpy.testing and numpy.ma. In a
fresh process (medians of 11, 2-core x86-64 VM, Python 3.11, scipy 1.17,
numpy 2.4) `import numpy` takes about 100 ms and `import scipy.linalg.lapack`
another 255-300 ms; finding and loading the extension alone takes about 5 ms.

So this module finds the extension file in scipy's own directory without
running scipy/__init__ or scipy/linalg/__init__, and loads it under scipy's
name, registered in sys.modules. A later `import scipy.linalg` reuses that
module object: nothing is initialised twice, and each routine here is the
object scipy.linalg.lapack exports. One trace of the early load stays: the
package scipy.linalg then has no `_flapack` attribute, because the import
system binds a submodule to its package only when it loads it itself;
`from scipy.linalg import _flapack` still finds it. If the extension is
already loaded, it is used as it is. If it is not where scipy's wheel layout
puts it, or does not load from there, the routines come from
`scipy.linalg.lapack` instead: the same routines, only slower to import.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    """scipy.linalg._flapack, loaded from scipy's directory without importing
    scipy; ImportError when it is not there."""
    module = sys.modules.get(_NAME)
    if module is None:
        scipy = importlib.util.find_spec("scipy")  # locates the package, does not import it
        dirs = [os.path.join(d, "linalg") for d in scipy.submodule_search_locations] if scipy else []
        found = importlib.machinery.PathFinder.find_spec("_flapack", dirs)
        if found is None:
            raise ImportError(f"no {_NAME} extension in scipy's directory")
        loader = importlib.machinery.ExtensionFileLoader(_NAME, found.origin)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_NAME, loader))
        loader.exec_module(module)
        sys.modules[_NAME] = module
    return module


try:
    _flapack = _load_flapack()
except ImportError:  # not where scipy's wheel layout puts it, or not loadable from there
    from scipy.linalg.lapack import dpotrf, dpotrs, dpttrf, dpttrs
else:
    dpotrf, dpotrs, dpttrf, dpttrs = (
        _flapack.dpotrf, _flapack.dpotrs, _flapack.dpttrf, _flapack.dpttrs
    )

__all__ = ["dpotrf", "dpotrs", "dpttrf", "dpttrs"]
