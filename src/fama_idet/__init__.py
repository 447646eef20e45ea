"""Outage, multiplexing-gain and energy-efficiency analysis of
fluid-antenna multiple access with integrated data and energy transfer.

Two independent evaluation routes are exposed for every outage metric:
Monte-Carlo simulation (:mod:`fama_idet.montecarlo`) and deterministic
quadrature of the exact expressions plus their closed-form
approximations (:mod:`fama_idet.analytic`).
"""

from .analytic import (
    ClosedFormPair,
    DEFAULT_QUAD,
    KernelContext,
    QuadratureConvergenceError,
    QuadratureSpec,
    idet_general,
    idet_special_approx,
    idet_special_exact,
    wdt_ehp_approx,
    wdt_ehp_exact,
    wdt_sinr_approx,
    wdt_sinr_exact,
    wet_ehp_approx,
    wet_ehp_exact,
    wet_sinr_approx,
    wet_sinr_exact,
)
from .channel import SystemConfig
from .montecarlo import (
    EnergyEfficiencyReport,
    GainReport,
    Method,
    Metric,
    Strategy,
    estimate_energy_efficiency,
    independence_diagnostic,
    multiplexing_gains,
    simulate_outage_counts,
)
from .specfun import SeriesConvergenceError, mu_from_w

__version__ = "0.1.0"

__all__ = [
    "ClosedFormPair",
    "DEFAULT_QUAD",
    "EnergyEfficiencyReport",
    "GainReport",
    "KernelContext",
    "Method",
    "Metric",
    "QuadratureConvergenceError",
    "QuadratureSpec",
    "SeriesConvergenceError",
    "Strategy",
    "SystemConfig",
    "estimate_energy_efficiency",
    "idet_general",
    "idet_special_approx",
    "idet_special_exact",
    "independence_diagnostic",
    "mu_from_w",
    "multiplexing_gains",
    "simulate_outage_counts",
    "wdt_ehp_approx",
    "wdt_ehp_exact",
    "wdt_sinr_approx",
    "wdt_sinr_exact",
    "wet_ehp_approx",
    "wet_ehp_exact",
    "wet_sinr_approx",
    "wet_sinr_exact",
]
