"""Convergence toolkit for the alternating series with |sin(n pi alpha)| weights.

The package decides, certifies, or numerically demonstrates convergence of

    sum_{n >= 1} (-1)^n f(n) |sin(n pi alpha)|

for power weights f(x) = x^-p with 0 < p <= 1 and real alpha given exactly
(rational, quadratic surd, named constant, Liouville-type staircase, or
explicit continued fraction).  Submodules:

- realsource: exact number descriptions and certified dyadic enclosures
- cfrac: certified continued-fraction expansion and the even-denominator pairs
- criterion: the power weight, criterion terms, measure certificates, classifier
- sumengine: partial sums with rounding-error bounds, and the drift law
- cli: the ``dseries`` command-line front end
"""

from . import cfrac, criterion, errors, realsource, sumengine
from .errors import *
from .realsource import *
from .cfrac import *
from .criterion import *
from .sumengine import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *realsource.__all__,
    *cfrac.__all__,
    *criterion.__all__,
    *sumengine.__all__,
]
