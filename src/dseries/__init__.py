"""Convergence toolkit for the alternating series with |sin(n pi alpha)| weights.

The package decides, certifies, or numerically demonstrates convergence of

    sum_{n >= 1} (-1)^n f(n) |sin(n pi alpha)|

for power weights f(x) = x^-p with 0 < p <= 1 and real alpha given exactly
(rational, quadratic surd, named constant, Liouville-type staircase, or
explicit continued fraction).  Submodules:

- realsource: exact number descriptions and certified dyadic enclosures
- cfrac: certified continued-fraction expansion and best-approximation tools
- criterion: the power weight, criterion terms, measure certificates, classifier
- sumengine: high-accuracy partial sums with rounding-error accounting
- cli: the ``dseries`` command-line front end
"""

from .errors import (
    AmbiguousOrderError,
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
    liouville_truncation,
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
    RecordPoint,
    brute_force_best,
    expand,
    q_alpha,
)
from .criterion import (
    Budget,
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
    ApConstant,
    DriftPrediction,
    OscIntegralResult,
    PartialSumResult,
    SumTrace,
    TraceRow,
    a_p_constant,
    alternating_tail_check,
    drift_predict,
    fourier_abs_sin,
    geometric_checkpoints,
    geometric_sum,
    osc_integral,
    partial_sum_direct,
    partial_sum_periodic,
    progression_sum_bound_check,
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
    "AmbiguousOrderError",
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
    "liouville_truncation",
    # cfrac
    "Convergent",
    "QAlphaEntry",
    "RecordPoint",
    "Expansion",
    "expand",
    "brute_force_best",
    "q_alpha",
    # criterion
    "FDescriptor",
    "CriterionTerm",
    "CriterionSeries",
    "MeasureCertificate",
    "Budget",
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
    "OscIntegralResult",
    "ApConstant",
    "partial_sum_direct",
    "partial_sum_periodic",
    "scan_partial_sums",
    "geometric_checkpoints",
    "drift_predict",
    "fourier_abs_sin",
    "geometric_sum",
    "osc_integral",
    "a_p_constant",
    "alternating_tail_check",
    "progression_sum_bound_check",
]
