"""Star functions of meromorphic functions in several complex variables.

The package is organized bottom-up; each module uses the modules listed
before it, only through their public names, and one slice engine serves a
single direction and a whole sample alike (a single slice is a batch of one):

- ``funcdef``: sparse polynomials, rational F = G/H with F(0) = 1, parsing.
- ``slicing``: restriction to complex lines as batched primitives
  (substitution, roots, circle evaluation, the indeterminacy rule, counting
  functions), slice divisors and the Jensen-identity residual.
- ``starcore``: the circular rearrangement T* (sort, one top-k sum per
  theta), the one T* kernel ``star_rows`` over rows of slice coefficients,
  ``star_rings``, its block code on one slice at the (radius, theta) points
  of a stencil, and the single-slice star, sampled from the slice
  coefficients.
- ``sphere``: Monte Carlo averages of T* and the counting data over the
  sphere of directions, and the mean-value stencil of the subharmonicity
  check.
- ``harmonicform``: detection of F(Z) = P(Z . eta), canonical-product Taylor
  data, and the slice-harmonicity test on the same stencil.
- ``cli``: the ``starfn`` command.
"""

from .funcdef import (
    MeroFunction,
    MultiPoly,
    ParseError,
    linear_form,
    load_function,
    parse_function,
    parse_poly,
)
from .harmonicform import (
    CanonicalProduct,
    DetectionReport,
    HarmonicForm,
    TaylorCoeffs,
    detect_harmonic_form,
    load_canonical_product,
    product_taylor_coeffs,
    ray_alignment,
    slice_harmonicity_test,
    verify_harmonic_form,
)
from .slicing import (
    CircleProximityError,
    CountingRecord,
    Direction,
    RootFindingError,
    SliceDivisor,
    counting_big_N,
    counting_record,
    counting_small_n,
    indeterminacy_test,
    jensen_residual,
    slice_divisor,
)
from .sphere import (
    AllDirectionsSkippedError,
    DirectionSample,
    Estimate,
    SliceBatch,
    StarGrid,
    Violation,
    counting_several,
    lelong_number,
    sample_directions,
    star_grid,
    star_several,
    subharmonicity_report,
    subharmonicity_stats,
)
from .starcore import (
    StarValue,
    circle_log_samples,
    level_threshold,
    slice_star_total,
    star_rearranged,
    star_thresholded,
)

__version__ = "0.1.0"

__all__ = [
    "AllDirectionsSkippedError",
    "CanonicalProduct",
    "CircleProximityError",
    "CountingRecord",
    "DetectionReport",
    "Direction",
    "DirectionSample",
    "Estimate",
    "HarmonicForm",
    "MeroFunction",
    "MultiPoly",
    "ParseError",
    "RootFindingError",
    "SliceBatch",
    "SliceDivisor",
    "StarGrid",
    "StarValue",
    "TaylorCoeffs",
    "Violation",
    "circle_log_samples",
    "counting_big_N",
    "counting_record",
    "counting_several",
    "counting_small_n",
    "detect_harmonic_form",
    "indeterminacy_test",
    "jensen_residual",
    "lelong_number",
    "level_threshold",
    "linear_form",
    "load_canonical_product",
    "load_function",
    "parse_function",
    "parse_poly",
    "product_taylor_coeffs",
    "ray_alignment",
    "sample_directions",
    "slice_divisor",
    "slice_harmonicity_test",
    "slice_star_total",
    "star_grid",
    "star_rearranged",
    "star_several",
    "star_thresholded",
    "subharmonicity_report",
    "subharmonicity_stats",
    "verify_harmonic_form",
]
