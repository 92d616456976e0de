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

from .errors import (
    CertificateError,
    DSeriesError,
    PrecisionLimitError,
    ResourceLimitError,
    TermLimitError,
)
from .realsource import (
    DEFAULT_MAX_BITS,
    Constant,
    DyadicInterval,
    Kind,
    LiouvilleSpec,
    RealSource,
    Schedule,
    approximate,
    liouville_partial,
    make_constant,
    make_liouville,
    make_pq_stream,
    make_rational,
    make_surd,
)
from .cfrac import (
    Convergent,
    Expansion,
    QAlphaEntry,
    expand,
    q_alpha,
)
from .criterion import (
    CriterionSeries,
    CriterionTerm,
    FDescriptor,
    MeasureCertificate,
    Outcome,
    StaircaseLevel,
    Verdict,
    VerdictCertificate,
    classify,
    criterion_partial_sum,
    mahler_certificate,
    make_power_f,
    measure_tail_bound,
    roth_certificate,
    staircase_levels,
)
from .sumengine import (
    DriftPrediction,
    PartialSumResult,
    SumTrace,
    TraceRow,
    drift_predict,
    geometric_checkpoints,
    partial_sum_direct,
    partial_sum_periodic,
    scan_partial_sums,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DSeriesError",
    "ResourceLimitError",
    "PrecisionLimitError",
    "TermLimitError",
    "CertificateError",
    # realsource
    "DEFAULT_MAX_BITS",
    "Kind",
    "Constant",
    "Schedule",
    "DyadicInterval",
    "LiouvilleSpec",
    "RealSource",
    "make_rational",
    "make_surd",
    "make_constant",
    "make_liouville",
    "make_pq_stream",
    "approximate",
    "liouville_partial",
    # cfrac
    "Convergent",
    "QAlphaEntry",
    "Expansion",
    "expand",
    "q_alpha",
    # criterion
    "FDescriptor",
    "CriterionTerm",
    "CriterionSeries",
    "MeasureCertificate",
    "Outcome",
    "VerdictCertificate",
    "Verdict",
    "make_power_f",
    "criterion_partial_sum",
    "measure_tail_bound",
    "roth_certificate",
    "mahler_certificate",
    "classify",
    "StaircaseLevel",
    "staircase_levels",
    # sumengine
    "PartialSumResult",
    "DriftPrediction",
    "TraceRow",
    "SumTrace",
    "partial_sum_direct",
    "partial_sum_periodic",
    "scan_partial_sums",
    "geometric_checkpoints",
    "drift_predict",
]
