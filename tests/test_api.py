"""The public API: the package exports exactly these names."""

import dataclasses

import fama_idet
from fama_idet import analytic


def test_public_names_pinned():
    # a name joins or leaves the API only by an edit here
    assert sorted(fama_idet.__all__) == [
        "KernelContext", "Method", "Metric", "QuadratureConvergenceError",
        "SystemConfig", "idet_general", "idet_special_approx", "idet_special_exact",
        "mu_from_w", "multiplexing_gains", "simulate_outage_counts",
        "wdt_ehp_approx", "wdt_ehp_exact", "wdt_sinr_approx", "wdt_sinr_exact",
        "wet_ehp_approx", "wet_ehp_exact", "wet_sinr_approx", "wet_sinr_exact",
    ]
    assert all(hasattr(fama_idet, name) for name in fama_idet.__all__)


def test_quadrature_spec_keeps_only_the_recheck_switch():
    # the node rounds and the gate are analytic's constants, not settings; the
    # spec stays in analytic, where the benchmark times EXACT without the re-check
    assert [f.name for f in dataclasses.fields(analytic.QuadratureSpec)] == ["richardson_check"]
    assert analytic.DEFAULT_QUAD == analytic.QuadratureSpec(richardson_check=True)
