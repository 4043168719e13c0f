"""Numerical stress-tests for stability versions of the Prekopa-Leindler,
Blaschke-Santalo and Brunn-Minkowski inequalities."""

from .bodies import (
    Ball,
    BodyRef,
    ConvexPolygon,
    RevolutionBody,
    minkowski_midpoint,
    symmetric_difference_volume,
    unit_ball_volume,
    volume,
)
from .experiments import ExperimentConfig, FitResult, fit_exponent
from .fmp import FMPReport, fmp_bound_check, gamma_star, homothetic_distance
from .pl1d import (
    GridFn1D,
    PLReport,
    exp_substitution,
    omega,
    pl_deficit,
    pl_report,
    stability_distance,
    sup_convolution_midpoint,
)
from .pln import (
    LevelStack,
    TraceReport,
    minimal_midpoint_stack,
    pl_trace,
    section_profile,
    stack_integral,
)
from .polarity import (
    SantaloResult,
    bm_distance_to_ball,
    bs_deficit,
    cap_cut_body,
    polar,
    santalo_point,
)

__all__ = [
    "Ball",
    "BodyRef",
    "ConvexPolygon",
    "ExperimentConfig",
    "FMPReport",
    "FitResult",
    "GridFn1D",
    "LevelStack",
    "PLReport",
    "RevolutionBody",
    "SantaloResult",
    "TraceReport",
    "bm_distance_to_ball",
    "bs_deficit",
    "cap_cut_body",
    "exp_substitution",
    "fit_exponent",
    "fmp_bound_check",
    "gamma_star",
    "homothetic_distance",
    "minimal_midpoint_stack",
    "minkowski_midpoint",
    "omega",
    "pl_deficit",
    "pl_report",
    "pl_trace",
    "polar",
    "santalo_point",
    "section_profile",
    "stability_distance",
    "stack_integral",
    "sup_convolution_midpoint",
    "symmetric_difference_volume",
    "unit_ball_volume",
    "volume",
]
