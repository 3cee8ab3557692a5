"""Delone-set constructions and finite-window order invariants."""

from .address import (
    AddressMap,
    LinearFit,
    MeyerReport,
    build_address_map,
    lattice_basis,
    linear_fit,
    lipschitz_constant,
    meyer_residual,
    path_displacement_distribution,
)
from .atlas import (
    AtlasResult,
    PatchClass,
    atlas_ladder,
    compute_atlas,
    entropy_probe,
    patch_count_profile,
)
from .contfrac import (
    ContinuedFraction,
    construct_alpha_for_growth,
    is_badly_approximable,
    recurrence_formula,
)
from .core import (
    ExactPointSet,
    FloatPointSet,
    Region,
    delone_constants,
    load_point_set,
    make_patch_key,
    natural_distance,
    project,
    save_point_set,
)
from .ergodic import (
    DensityProfile,
    WeightDistribution,
    density_profile,
    oscillation_probe,
    patch_frequency,
    point_count_weight,
    volume_weight,
    white_point_count_weight,
)
from .errors import (
    DegenerateGeometry,
    DeloneLabError,
    InsufficientData,
    InsufficientWindow,
    InvalidArgument,
    NeedsMoreTerms,
    ResourceLimit,
    WindowTooSmall,
)
from .generators import (
    PointSetSource,
    build_source,
    gen_beatty,
    gen_cut_project_1d,
    gen_deleted_lines,
    gen_fibonacci,
    gen_integer_lattice,
    gen_product,
    gen_two_color,
    rho_sequence,
)
from .repetitivity import (
    GrowthReport,
    RepetitivityResult,
    covering_radii,
    covering_radius,
    crystal_gap_probe,
    growth_classification,
    repetitivity_function,
    repetitivity_ladder,
    symbolic_recurrence_oracle,
)
from .spectral import (
    Autocorrelation,
    SpectrumEstimate,
    autocorrelation,
    detect_peaks,
    diffraction_estimate,
)

__version__ = "0.1.0"
