"""Truncated power-series engine for the differential transformation method.

A differential transform maps a function analytic at x = 0 to its Taylor
coefficients; differential equations then become recurrences for those
coefficients. This package provides:

- :mod:`dtmseries.series`: the immutable :class:`Series` value type and the
  linear operator table (sum, scale, product, derivative shift, monomial).
- :mod:`dtmseries.powers`: integer powers by binary powering up to m = 8
  and Miller's single-sum recurrence above, the exponential-of-series
  recurrence, and the naive constructions that serve as their oracles.
- :mod:`dtmseries.lang`: a small DSL that parses an explicit ODE
  ``D(u,m) = f(x, u, ..., D(u,m-1))`` and lowers it to a per-order
  coefficient recurrence.
- :mod:`dtmseries.bratu`: the planar Bratu boundary-value problem solved by
  shooting on the initial slope, with its closed-form reference.
- :mod:`dtmseries.errors`: the typed errors, each with its CLI exit code.
- :mod:`dtmseries.cli`: the ``dtmseries`` command-line tool.

A public name is declared once, in its module's ``__all__``; the package
re-exports each of those lists.
"""

# ``lang`` must load before ``series`` and ``powers`` (their imports of one
# another resolve only in that order), and ``bratu`` imports it first.
from .bratu import *
from .errors import *
from .lang import *
from .powers import *
from .series import *

__version__ = "0.1.0"

__all__ = ["__version__", *series.__all__, *powers.__all__, *lang.__all__, *bratu.__all__,
           *errors.__all__]
