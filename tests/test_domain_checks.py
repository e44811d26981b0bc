"""NaN and non-finite arguments are input errors at every library domain check."""
import math

import numpy as np
import pytest

from currentlab.complexes import distance_function
from currentlab.meshes import grid_mesh
from currentlab.metricspace import ArgumentError, FiniteMetricSpace, packing_number
from currentlab.product import build_product_complex, interval_filling_volume
from currentlab.slicedfill import ball_context, sliced_interval_fill, tetra_check
from currentlab.slicing import annulus_mass, ball, restrict_sublevel, slice_current, sphere

NAN = math.nan
C, T = grid_mesh(2, 2)
RHO = distance_function(C, 0)
X = FiniteMetricSpace.from_points(np.eye(3))

SITES = {
    "ball": lambda: ball(T, 0, NAN),
    "ball_context": lambda: ball_context(T, 0, NAN),
    "interval_filling_volume": lambda: interval_filling_volume(T, NAN),
    "sliced_interval_fill": lambda: sliced_interval_fill(T, 0, 0.5, epsilon=NAN),
    "build_product_complex": lambda: build_product_complex(C, NAN),
    "tetra_check": lambda: tetra_check(T, 0, 0.5, C=NAN, beta=0.5),
    "packing_number": lambda: packing_number(X, NAN),
    "annulus_mass_nan_low": lambda: annulus_mass(T, RHO, NAN, 0.5),
    "annulus_mass_nan_high": lambda: annulus_mass(T, RHO, 0.1, NAN),
    "annulus_mass_infinite": lambda: annulus_mass(T, RHO, -math.inf, 0.5),
    "sphere": lambda: sphere(T, 0, NAN),
    "sphere_zero": lambda: sphere(T, 0, 0.0),
    "sphere_negative": lambda: sphere(T, 0, -1.0),
    "slice_current": lambda: slice_current(T, RHO, NAN),
    "slice_current_infinite": lambda: slice_current(T, RHO, math.inf),
    "restrict_sublevel": lambda: restrict_sublevel(T, RHO, NAN),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_non_finite_argument_is_an_input_error(site):
    with pytest.raises(ArgumentError):
        SITES[site]()
