"""Certification toolkit for p-valent harmonic maps f = h + conj(g) on the
unit disk, where the co-analytic part is tied to the analytic part by
g'(z) = z**(m-1) h'(z).

Capabilities: a sufficient cusp-count criterion for p-valence driven by the
boundary phase of h'/z^(p-1); boundary geometry (velocity, concavity, cusp
detection, straight-side checks); winding-number valence certificates with a
Newton preimage oracle; deterministic SVG rendering of image domains; and a
seeded random sweep probing whether the monotonicity condition ever allows
valence above p.
"""

from .fncore import (
    BoundaryHypothesisError,
    DomainError,
    FunctionSpec,
    HarmonicMapSpec,
    HvlError,
    InconsistencyError,
    IndeterminateProbeError,
    ParameterError,
    PoleError,
    PolySeries,
    QuadratureError,
    RationalDeriv,
    RepeatedPoleError,
    ResolutionError,
    ScanQualityError,
    SpecFileError,
    UnwrapError,
    clamp_to_interior,
    eval_f_many,
    eval_g_many,
    eval_g_prime_many,
    eval_h_many,
    eval_h_prime_many,
    eval_h_second_many,
    eval_normalized_deriv_many,
)
from .criterion import (
    CriterionReport,
    PhaseTable,
    RootRecord,
    check_criterion,
    check_monotonicity_margin,
    find_criterion_roots,
    level_set,
    monotonicity_margins,
    phase_function_derivative_many,
    phase_function_many,
    unwrap_boundary_phase,
)
from .geometry import (
    ConcavityReport,
    CurveTrace,
    CuspSet,
    boundary_acceleration_many,
    boundary_velocity_many,
    concavity_check,
    detect_cusps,
    segment_collinearity,
    trace_circle,
)
from .valence import (
    CrossCheck,
    PreimageSet,
    ValenceReport,
    WindingResult,
    cross_check,
    cross_check_many,
    newton_preimages,
    newton_preimages_many,
    valence_scan,
    winding_number,
    winding_numbers,
)
from .render import render_scene
from . import presets

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
