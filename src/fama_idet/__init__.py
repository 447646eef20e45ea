"""Outage and multiplexing-gain analysis of fluid-antenna multiple access
with integrated data and energy transfer.

Two independent evaluation routes are exposed for every outage metric:
Monte-Carlo simulation (:mod:`fama_idet.montecarlo`) and deterministic
quadrature of the exact expressions plus their closed-form
approximations (:mod:`fama_idet.analytic`).
"""

from .analytic import (
    KernelContext,
    QuadratureConvergenceError,
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
    Method,
    Metric,
    multiplexing_gains,
    simulate_outage_counts,
)
from .specfun import mu_from_w

__version__ = "0.1.0"

__all__ = [
    "KernelContext",
    "Method",
    "Metric",
    "QuadratureConvergenceError",
    "SystemConfig",
    "idet_general",
    "idet_special_approx",
    "idet_special_exact",
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
