"""Tests of the benchmark's checks and of its traced workload process.

    python3 -m pytest bench -q

The fixtures in ``fixtures/`` are the CLI outputs of the three workloads at
seed 0, as ``python3 bench/run.py`` writes them to ``bench/out``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from scipy import stats

import checks

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
REF_CELL = checks.reference_cells(REFERENCE, "ref-cell")
SWEEP = checks.reference_cells(REFERENCE, "port-sweep")


def fixture(name: str) -> dict:
    return checks.parse_rows((HERE / "fixtures" / f"{name}.csv").read_text())


def set_count(rows, key, x):
    rows[key]["value"] = f"{x / int(rows[key]['trials']):.12g}"


def sd_count(p, n):
    return math.sqrt(p * (1 - p) * n)


# -- intervals ---------------------------------------------------------------

def test_wilson_has_width_at_zero_and_full_counts():
    lo, hi = checks.wilson(0, 100_000)
    assert lo == 0.0 and hi > 0.0
    assert hi == pytest.approx(checks.Z ** 2 / (100_000 + checks.Z ** 2))
    lo, hi = checks.wilson(100_000, 100_000)
    assert hi == 1.0 and lo < 1.0


def test_wilson_matches_textbook_value():
    lo, hi = checks.wilson(0, 10, z=1.959964)  # Newcombe (1998), table I
    assert lo == 0.0 and hi == pytest.approx(0.2775, abs=1e-4)


def test_same_proportion_is_valid_at_zero_counts():
    assert checks.same_proportion(0, 100_000, 0, 1_000_000)
    assert checks.same_proportion(0, 100_000, 3, 1_000_000)
    assert not checks.same_proportion(0, 100_000, 500, 1_000_000)


def test_same_proportion_flags_a_shift_of_ten_standard_errors():
    n, x_ref, n_ref = 100_000, 280_000, 1_000_000
    p = x_ref / n_ref
    assert checks.same_proportion(round(p * n), n, x_ref, n_ref)
    shifted = round(p * n + 10 * sd_count(p, n))
    assert not checks.same_proportion(shifted, n, x_ref, n_ref)


# -- ref-mc ------------------------------------------------------------------

def test_ref_mc_passes_todays_values():
    assert checks.check_ref_mc(fixture("ref-mc"), REF_CELL) == {}


def test_ref_mc_flags_a_value_outside_its_interval():
    rows = fixture("ref-mc")
    key = ("", "WET_SINR", "MC")
    ref = REF_CELL[""]
    p = ref["counts"]["WET_SINR"] / ref["trials"]
    set_count(rows, key, round(checks.count(rows[key]) - 8 * sd_count(p, 100_000)))
    flagged = checks.check_ref_mc(rows, REF_CELL)
    assert list(flagged) == [key]
    assert "explicit sampler" in flagged[key][0]


def test_ref_mc_flags_a_broken_count_identity():
    rows = fixture("ref-mc")
    key = ("", "IDET_GENERAL", "MC")
    set_count(rows, key, checks.count(rows[key]) + 1)
    flagged = checks.check_ref_mc(rows, REF_CELL)
    assert any("addition law" in r for r in flagged[key])


@pytest.mark.parametrize("low, high", [("WDT_SINR", "WDT_EHP"), ("WET_EHP", "WET_SINR")])
def test_ref_mc_flags_a_broken_ordering(low, high):
    rows = fixture("ref-mc")
    rows[("", low, "MC")]["value"] = rows[("", high, "MC")]["value"]
    rows[("", high, "MC")]["value"] = "0.001"
    assert ("", low, "MC") in checks.check_ref_mc(rows, REF_CELL)


# -- ref-exact ---------------------------------------------------------------

def test_ref_exact_flags_only_the_known_fault():
    flagged = checks.check_ref_exact(fixture("ref-exact"), REF_CELL)
    assert set(flagged) == {("", "IDET_SPECIAL", "EXACT"), ("", "IDET_GENERAL", "EXACT")}
    assert set(flagged) == checks.KNOWN_FAILED["ref-exact"]


def test_ref_exact_flags_a_value_outside_its_interval():
    rows = fixture("ref-exact")
    key = ("", "WDT_EHP", "EXACT")
    lo, _ = checks.wilson(REF_CELL[""]["counts"]["WDT_EHP"], REF_CELL[""]["trials"])
    rows[key]["value"] = f"{lo - 1e-4:.12g}"
    assert key in checks.check_ref_exact(rows, REF_CELL)


def test_ref_exact_flags_a_broken_addition_law():
    rows = fixture("ref-exact")
    key = ("", "IDET_GENERAL", "EXACT")
    rows[key]["value"] = f"{float(rows[key]['value']) + 1e-6:.12g}"
    assert any("addition law" in r for r in checks.check_ref_exact(rows, REF_CELL)[key])


# -- port-sweep --------------------------------------------------------------

def test_port_sweep_flags_only_the_known_fault():
    flagged = checks.check_port_sweep(fixture("port-sweep"), SWEEP)
    assert set(flagged) == checks.KNOWN_FAILED["port-sweep"]
    assert checks.unexpected("port-sweep", flagged) == []


def test_a_known_fault_row_failing_elsewhere_is_unexpected():
    rows = fixture("port-sweep")
    key = ("16", "IDET_SPECIAL", "EXACT")  # the faulty kernel, at a K where it passes today
    rows[key]["value"] = "0.001"
    assert checks.unexpected("port-sweep", checks.check_port_sweep(rows, SWEEP)) == [key]
    # the same row key is known to fail on no other workload
    assert checks.unexpected("ref-exact", {key: ["moved"]}) == [key]


def test_port_sweep_mc_at_zero_count_passes():
    rows = fixture("port-sweep")
    assert checks.count(rows[("64", "WET_EHP", "MC")]) == 0
    assert ("64", "WET_EHP", "MC") not in checks.check_port_sweep(rows, SWEEP)


def test_port_sweep_flags_an_mc_value_outside_its_interval():
    rows = fixture("port-sweep")
    key = ("16", "WET_SINR", "MC")
    set_count(rows, key, checks.count(rows[key]) + round(8 * sd_count(0.585, 100_000)))
    assert key in checks.check_port_sweep(rows, SWEEP)


def test_port_sweep_flags_exact_rising_in_k():
    rows = fixture("port-sweep")
    key = ("32", "WDT_SINR", "EXACT")
    rows[key]["value"] = rows[("16", "WDT_SINR", "EXACT")]["value"]
    rows[("16", "WDT_SINR", "EXACT")]["value"] = f"{float(rows[key]['value']) - 1e-3:.12g}"
    assert any("rises" in r for r in checks.check_port_sweep(rows, SWEEP)[key])


def test_port_sweep_flags_k1_exact_off_its_closed_form():
    rows = fixture("port-sweep")
    key = ("1", "WDT_SINR", "EXACT")
    rows[key]["value"] = f"{float(rows[key]['value']) + 1e-4:.12g}"
    assert any("closed form" in r for r in checks.check_port_sweep(rows, SWEEP)[key])


# -- cells -------------------------------------------------------------------

@pytest.mark.parametrize("workload, section", [("ref-mc", "ref-cell"), ("ref-exact", "ref-cell"),
                                               ("port-sweep", "port-sweep")])
def test_reference_was_made_for_the_workload_cells(workload, section):
    cells = checks.read_cells(HERE / "workloads" / f"{workload}.cfg")
    checks.match_reference(cells, checks.reference_cells(REFERENCE, section))


def test_an_edited_workload_cell_no_longer_fits_the_reference(tmp_path):
    text = (HERE / "workloads" / "port-sweep.cfg").read_text()
    for old, new in (("30 mW", "40 mW"), ("1, 2, 4,", "1, 3, 4,")):
        cfg = tmp_path / "edited.cfg"
        cfg.write_text(text.replace(old, new))
        with pytest.raises(ValueError, match="reference cell"):
            checks.match_reference(checks.read_cells(cfg), SWEEP)
    cfg.write_text(text + "tx_power = 2\n")
    with pytest.raises(ValueError, match="not a benchmark cell parameter"):
        checks.read_cells(cfg)


def test_single_port_quadrature():
    # value of idet_special_exact with its conditioner axes in the right order
    assert checks.single_port_idet_special(3, 10 ** 0.3, 6.0) == pytest.approx(0.5125170219, abs=1e-9)
    # with no SIR constraint the joint event is the chi2(2N) harvest outage
    assert checks.single_port_idet_special(3, 1e12, 6.0) == pytest.approx(stats.chi2.cdf(6.0, 6), abs=1e-9)


# -- traced workload process -------------------------------------------------

def test_traced_child_matches_untraced_and_gathers_worker_spans(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("n_users = 3\nfa_size = 2\nehp_threshold = 30 mW\ntrials = 2000\n"
                   "sweep.axis = n_ports\nsweep.values = 1, 2, 4\n"
                   "sweep.metrics = WDT_SINR:MC, WET_EHP:MC, WET_EHP:EXACT\n")
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    outputs = {}
    for mode in ("plain", "traced"):
        out = tmp_path / f"{mode}.csv"
        own = [str(tmp_path / f"{mode}.json"), repr(time.monotonic())]
        if mode == "traced":
            (tmp_path / "trace").mkdir()
            own += ["--trace", str(tmp_path / "trace")]
        subprocess.run([sys.executable, str(HERE / "child.py"), *own, "--", "sweep", str(cfg),
                        "--workers", "2", "--out", str(out)], env=env, check=True, timeout=120)
        outputs[mode] = out.read_bytes()
    assert outputs["plain"] == outputs["traced"]
    spans = [json.loads(line) for line in (tmp_path / "trace" / "spans.jsonl").read_text().splitlines()]
    names = [s["name"] for s in spans]
    assert names.count("sweep.cell") == 3
    assert names.count("montecarlo.simulate_outage_counts") == 3
    assert len({s["pid"] for s in spans}) >= 2  # spans from the pool workers arrived
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["name"] == "montecarlo.standard_normal":
            assert by_id[s["parent"]]["name"] == "montecarlo.simulate_outage_counts"
