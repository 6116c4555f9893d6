"""Exact isoperimetric analysis of axis-aligned polyhedra in the unit cube.

The package models closed box unions in [0,1]^n with exact rational
coordinates and provides, on top of that kernel:

- Steiner symmetrization and its invariants (`cubeiso.symmetrize`),
- singular-slice first variations and event-driven slice motions, with the
  reduction of any set to a "special" staircase (`cubeiso.variation`),
- the full minimizer classification in the 3-cube: cube/tube/slab verdicts,
  explicit competitors for everything else, the isoperimetric profile
  min(3 V^(2/3), 2 sqrt(V), 1) with certified comparisons
  (`cubeiso.classify`),
- an independent brute-force lattice oracle over monotone voxel sets
  (`cubeiso.search`), and
- an acceptance suite binding it all together (`cubeiso.acceptance`,
  also exposed as ``cubeiso verify`` on the command line).
"""

from .classify import (
    V1,
    V2,
    ClassificationResult,
    CompetitorCertificate,
    Infeasible,
    ProfileEntry,
    SpecialFamily,
    StationaryParameters,
    classify,
    classify_special,
    competitor,
    profile,
    profile2d,
    realize,
    special_family,
    stationary_parameters,
    strip_profile2d,
    uniqueness_audit,
)
from .enclosure import Enclosure
from .geometry import (
    AxisBox,
    CubeIsometry,
    CubicalSet,
    Rat,
    VoxelSet,
    all_isometries,
    as_rat,
    boundary_faces,
    box,
    devoxelize,
    equal_up_to_isometry,
    voxelize,
)
from .search import (
    BruteResult,
    MonotoneShape,
    brute_min,
    brute_min_general,
    enumerate_monotone,
    strip_brute_min,
)
from .symmetrize import is_symmetrized, steiner, symmetrize_all
from .variation import (
    ReductionStep,
    SliceData,
    StationarityReport,
    VariationEvent,
    check_stationarity,
    event_horizon,
    improve_step,
    is_special,
    merge_step,
    reduce_to_special,
    singular_points,
    slice_data,
    translate_slice,
)

__version__ = "0.1.0"

__all__ = [
    "AxisBox",
    "BruteResult",
    "ClassificationResult",
    "CompetitorCertificate",
    "CubeIsometry",
    "CubicalSet",
    "Enclosure",
    "Infeasible",
    "MonotoneShape",
    "ProfileEntry",
    "Rat",
    "ReductionStep",
    "SliceData",
    "SpecialFamily",
    "StationarityReport",
    "StationaryParameters",
    "V1",
    "V2",
    "VariationEvent",
    "VoxelSet",
    "all_isometries",
    "as_rat",
    "boundary_faces",
    "box",
    "brute_min",
    "brute_min_general",
    "check_stationarity",
    "classify",
    "classify_special",
    "competitor",
    "devoxelize",
    "enumerate_monotone",
    "equal_up_to_isometry",
    "event_horizon",
    "improve_step",
    "is_special",
    "is_symmetrized",
    "merge_step",
    "profile",
    "profile2d",
    "realize",
    "reduce_to_special",
    "singular_points",
    "slice_data",
    "special_family",
    "stationary_parameters",
    "steiner",
    "strip_brute_min",
    "strip_profile2d",
    "symmetrize_all",
    "translate_slice",
    "uniqueness_audit",
    "voxelize",
]
