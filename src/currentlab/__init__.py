"""Integer-weighted chains on geometric simplicial complexes.

Metric spaces, oriented chains with mass and boundary calculus, level-set
slicing, flat-norm and filling-volume optimization, sliced fillings and the
tetrahedral property, interval products, and convergence experiments.
"""

from .metricspace import (
    ArgumentError,
    FiniteMetricSpace,
    InvariantError,
    MetricError,
    PackingReport,
    diameter,
    gh_bounds,
    hausdorff_distance,
    packing_number,
)
from .complexes import (
    CallableMetric,
    ComplexError,
    EuclideanMetric,
    GeometricComplex,
    MatrixMetric,
    PLFunction,
    coordinate_function,
    distance_function,
)
from .currents import (
    SimplicialCurrent,
    boundary,
    chain_from_json,
    chain_to_json,
    evaluate,
    mass,
    push_forward,
    total_mass,
)
from .slicing import (
    SliceResult,
    annulus_mass,
    ball,
    coarea_profile,
    iterated_slice,
    slice_current,
    sphere,
    subdivide_at_level,
)
from .fillvol import (
    FillingReport,
    exhaustive_flat_distance,
    filling_volume,
    filling_volume_0d,
    fillvol_continuity_gap,
    flat_distance,
)
from .slicedfill import (
    C_E3_BAND_INTEGRAL,
    C_E3_POINTWISE_BETA03,
    C_E3_POINTWISE_MIN,
    SlicedFillReport,
    TetraReport,
    ball_context,
    h_function,
    sf_k,
    sliced_fill,
    tetra_check,
)
from .product import (
    ProductComplex,
    check_product_boundary,
    interval_filling_volume,
    product_current,
    sliced_interval_fill,
)
from .convergence import (
    CommonEmbedding,
    SequenceFamily,
    build_family,
    common_embed,
    continuity_sweep,
    joined_complex,
    semicontinuity_report,
)

__version__ = "0.1.0"
