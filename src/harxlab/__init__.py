"""Desk-scale adaptive-filtering laboratory.

Simulates Hammerstein ARX plants, runs the LMS / momentum-LMS /
fractional-LMS family against them, measures Wiener-solution gaps and
complex-weight leakage, and ships a small matrix-shape checker that audits
the dimensional consistency of the family's published update and convergence
equations.
"""

# cli is not imported here, so `python -m harxlab.cli` runs it exactly once
from . import analysis, errors, filters, plant, shapecheck
from .analysis import (
    BinomialReport,
    CorrelationEstimate,
    RunRecord,
    SeedData,
    StabilityProbe,
    binomial_report,
    binomial_residual,
    binomial_vector_verdict,
    correlation_summary,
    estimate_correlations,
    run_batch,
    run_experiment,
    run_record_csv,
    run_summary,
    seed_aggregate,
    simulate_seeds,
    stability_probe,
    sweep_cells,
    wiener_solution,
)
from .filters import (
    FilterConfig,
    FilterState,
    StepRecord,
    fractional_factor,
    initial_state,
    predict_error,
    step,
)
from .plant import (
    BasisSet,
    Dataset,
    HarxPlant,
    generate_sequence,
    load_scenario,
    muscle_preset,
    parse_scenario,
    polynomial_basis,
    true_weight_vector,
)

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "cli",
    "errors",
    "filters",
    "plant",
    "shapecheck",
    "BasisSet",
    "BinomialReport",
    "CorrelationEstimate",
    "Dataset",
    "FilterConfig",
    "FilterState",
    "HarxPlant",
    "RunRecord",
    "SeedData",
    "StabilityProbe",
    "StepRecord",
    "binomial_report",
    "binomial_residual",
    "binomial_vector_verdict",
    "correlation_summary",
    "estimate_correlations",
    "fractional_factor",
    "generate_sequence",
    "initial_state",
    "load_scenario",
    "muscle_preset",
    "parse_scenario",
    "polynomial_basis",
    "predict_error",
    "run_batch",
    "run_experiment",
    "run_record_csv",
    "run_summary",
    "seed_aggregate",
    "simulate_seeds",
    "stability_probe",
    "step",
    "sweep_cells",
    "true_weight_vector",
    "wiener_solution",
]
