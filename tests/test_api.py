"""The public API: the package exports exactly these names."""

import fama_idet


def test_public_names_pinned():
    # a name joins or leaves the API only by an edit here
    assert sorted(fama_idet.__all__) == [
        "DEFAULT_QUAD", "GainReport", "KernelContext", "Method", "Metric",
        "QuadratureConvergenceError", "QuadratureSpec", "SeriesConvergenceError",
        "SystemConfig", "idet_general", "idet_special_approx", "idet_special_exact",
        "mu_from_w", "multiplexing_gains", "simulate_outage_counts",
        "wdt_ehp_approx", "wdt_ehp_exact", "wdt_sinr_approx", "wdt_sinr_exact",
        "wet_ehp_approx", "wet_ehp_exact", "wet_sinr_approx", "wet_sinr_exact",
    ]
    assert all(hasattr(fama_idet, name) for name in fama_idet.__all__)
