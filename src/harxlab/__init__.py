"""Desk-scale adaptive-filtering laboratory.

Simulates Hammerstein ARX plants, runs the LMS / momentum-LMS /
fractional-LMS family against them, measures Wiener-solution gaps and
complex-weight leakage, and ships a small matrix-shape checker that audits
the dimensional consistency of the family's published update and convergence
equations.
"""

# cli is not imported here, so `python -m harxlab.cli` runs it exactly once;
# nor is shapecheck, so simulate, sweep and wiener never load the checker
from . import analysis, errors, filters, plant

__version__ = "0.1.0"
