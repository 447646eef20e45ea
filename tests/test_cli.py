"""CLI and sweep runner: config parsing, determinism, exit codes."""

import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from fama_idet import analytic, channel, sweep
from fama_idet.analytic import DEFAULT_QUAD, KernelContext, QuadratureConvergenceError
from fama_idet.channel import SystemConfig
from fama_idet.cli import main
from fama_idet.montecarlo import Method, Metric, simulate_outage_counts, wilson_interval
from fama_idet.sweep import (
    ConfigError,
    SweepSpec,
    _convert,
    compare,
    parse_config,
    render,
    run_sweep,
    spec_from_config,
)

BASE_CFG = """
n_users = 2
n_ports = 2
fa_size = 1
sinr_threshold = 3 dB
ehp_threshold = 10 mW
trials = 5000
seed = 7
sweep.axis = sinr_threshold
sweep.values = 0 dB, 3 dB
sweep.metrics = WDT_SINR:MC, WDT_SINR:EXACT, WET_EHP:MC, WET_EHP:EXACT
"""


def _with_metrics(metrics):
    return BASE_CFG.replace(
        "sweep.metrics = WDT_SINR:MC, WDT_SINR:EXACT, WET_EHP:MC, WET_EHP:EXACT",
        f"sweep.metrics = {metrics}")


def _count_exact_calls(monkeypatch, fail=None):
    """Count the calls per EXACT evaluator, at one K (the sweep's table or
    the module attribute) or over several (the .over_ports of either);
    `fail` raises instead."""
    calls = Counter()

    def counting(fn, metric):
        def counted(*args):
            calls[metric] += 1
            if metric is fail:
                raise QuadratureConvergenceError(f"{metric.value}: forced")
            return fn(*args)
        return counted

    for metric, fn in list(sweep._EXACT_RAYLEIGH.items()):
        counted = counting(fn, metric)
        counted.over_ports = counting(fn.over_ports, metric)
        monkeypatch.setitem(sweep._EXACT_RAYLEIGH, metric, counted)
        monkeypatch.setattr(analytic, fn.__name__, counted)
    return calls


# All six closed forms at the reference cell (N=5, K=200, W=5) at 3 dB and
# 150 mW, where the WDT_SINR closed form clamps at 0 and WET_EHP's does not.
REF_CLOSED_FORMS = """
n_users = 5
n_ports = 200
fa_size = 5
sinr_threshold = 3 dB
ehp_threshold = 150 mW
sweep.metrics = """ + ", ".join(f"{m.value}:CLOSED_FORM" for m in Metric) + "\n"


# Outage against K with all six metrics by MC and two by EXACT: the sweep's
# MC rows come from one nested-K pass at K = 8.
PORT_SWEEP_CFG = """
n_users = 3
fa_size = 2
sinr_threshold = 3 dB
ehp_threshold = 30 mW
trials = 20000
seed = 7
sweep.axis = n_ports
sweep.values = 1, 2, 4, 8
sweep.metrics = """ + ", ".join(f"{m.value}:MC" for m in Metric) + \
    ", WDT_SINR:EXACT, WET_EHP:EXACT\n"


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_suffix_conversions(self):
        assert _convert("3 dB") == pytest.approx(10 ** 0.3)
        assert _convert("-10dB") == pytest.approx(0.1)
        assert _convert("10 mW") == pytest.approx(0.010)
        assert _convert("5 W") == pytest.approx(5.0)
        assert _convert("2.5e-3") == pytest.approx(0.0025)

    def test_round_trip_in_metadata(self):
        spec = spec_from_config(BASE_CFG)
        assert spec.raw_items["sinr_threshold"] == "3 dB"
        assert spec.base.sinr_threshold == pytest.approx(10 ** 0.3)
        assert spec.base.ehp_threshold == pytest.approx(0.010)

    def test_parse_errors_name_the_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("n_users = 2\nnot a pair\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("frobnicate = 1\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("n_users = 2\nn_users = 3\n")

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_config(BASE_CFG.replace("0 dB, 3 dB", " "))
        with pytest.raises(ConfigError, match="nonempty"):
            spec_from_config(BASE_CFG.replace("0 dB, 3 dB", ","))

    def test_bad_axis_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_config(BASE_CFG.replace("sweep.axis = sinr_threshold",
                                              "sweep.axis = nonsense"))

    def test_out_of_range_value_rejected(self):
        bad = BASE_CFG.replace("sweep.axis = sinr_threshold",
                               "sweep.axis = ps_ratio")
        with pytest.raises(ConfigError):
            spec_from_config(bad.replace("0 dB, 3 dB", "0.5, 1.5"))

    def test_metric_specs(self):
        spec = spec_from_config(BASE_CFG)
        assert (Metric.WDT_SINR, Method.MC) in spec.metrics
        assert (Metric.WET_EHP, Method.EXACT) in spec.metrics


class TestRunSweep:
    def test_rows_and_determinism(self, tmp_path):
        spec = spec_from_config(BASE_CFG)
        r1 = run_sweep(spec)
        r2 = run_sweep(spec)
        assert r1.rows == r2.rows
        assert len(r1.rows) == 2 * 4  # two cells, four metric/method pairs
        assert not r1.failed

    def test_worker_counts_agree(self):
        spec = spec_from_config(BASE_CFG)
        assert run_sweep(spec, workers=1).rows == run_sweep(spec, workers=8).rows

    def test_atomic_file_write(self, tmp_path):
        out = tmp_path / "res.csv"
        spec = spec_from_config(BASE_CFG, out=str(out))
        run_sweep(spec)
        text = out.read_text()
        assert "axis,metric,method,value,ci,trials,seconds,error" in text
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

    def test_failed_cell_recorded_in_row(self):
        # CLOSED_FORM with rician_k > 0 is unsupported and must not abort
        cfg = BASE_CFG + "rician_k = 2\n"
        cfg = cfg.replace("sweep.metrics = WDT_SINR:MC, WDT_SINR:EXACT, "
                          "WET_EHP:MC, WET_EHP:EXACT",
                          "sweep.metrics = WDT_SINR:MC, WET_SINR:CLOSED_FORM")
        result = run_sweep(spec_from_config(cfg))
        assert result.failed
        bad = [r for r in result.rows if r["method"] == "CLOSED_FORM"]
        assert all(r["value"] == "NaN" and r["error"] == "unsupported" for r in bad)
        good = [r for r in result.rows if r["method"] == "MC"]
        assert all(not r["error"] for r in good)

    def test_idet_general_reuses_cell_values(self, monkeypatch):
        calls = _count_exact_calls(monkeypatch)
        parts = "WDT_SINR:EXACT, WET_EHP:EXACT, IDET_SPECIAL:EXACT"
        joint = run_sweep(spec_from_config(_with_metrics(
            f"IDET_GENERAL:EXACT, {parts}"))).rows
        # each part evaluated once per distinct input though IDET_GENERAL needs
        # all three: WET_EHP reads no gamma, so the two cells share one call
        assert calls == {Metric.WDT_SINR: 2, Metric.WET_EHP: 1, Metric.IDET_SPECIAL: 2}
        alone = [run_sweep(spec_from_config(_with_metrics(m))).rows
                 for m in ["IDET_GENERAL:EXACT", *parts.split(", ")]]
        assert joint == [rows[cell] for cell in range(2) for rows in alone]

    def test_failed_part_fails_idet_general_again(self, monkeypatch):
        calls = _count_exact_calls(monkeypatch, fail=Metric.WET_EHP)
        rows = run_sweep(spec_from_config(_with_metrics(
            "WET_EHP:EXACT, IDET_GENERAL:EXACT, WDT_SINR:EXACT"))).rows
        assert [r["error"] for r in rows] == ["convergence", "convergence", ""] * 2
        # a failure is kept too: IDET_GENERAL reads the part's stored error,
        # and the second cell the first one's (WET_EHP reads no gamma)
        assert calls[Metric.WET_EHP] == 1
        assert calls[Metric.WDT_SINR] == 2

    def test_rician_idet_general_stops_at_special(self, monkeypatch):
        # IDET_SPECIAL has no Rician expression, so the other parts never run
        calls = _count_exact_calls(monkeypatch)
        rows = run_sweep(spec_from_config(
            _with_metrics("IDET_GENERAL:EXACT") + "rician_k = 2\n")).rows
        assert [r["error"] for r in rows] == ["unsupported"] * 2
        assert calls == {Metric.IDET_SPECIAL: 2}

    @pytest.mark.parametrize("method, table", [("EXACT", "_EXACT_RAYLEIGH"),
                                               ("CLOSED_FORM", "_CLOSED_FORM")])
    def test_idet_general_takes_the_first_failed_part(self, method, table, monkeypatch):
        # the parts go IDET_SPECIAL, WDT_SINR, WET_EHP: IDET_GENERAL carries
        # WDT_SINR's error, not WET_EHP's, whichever row comes first
        def raising(exc):
            def evaluator(ctx):
                raise exc
            return evaluator

        monkeypatch.setitem(getattr(sweep, table), Metric.WDT_SINR,
                            raising(QuadratureConvergenceError("forced")))
        monkeypatch.setitem(getattr(sweep, table), Metric.WET_EHP, raising(ValueError("forced")))
        rows = run_sweep(spec_from_config(_with_metrics(
            f"WET_EHP:{method}, IDET_GENERAL:{method}, WDT_SINR:{method}"))).rows
        assert [r["error"] for r in rows] == ["unsupported", "convergence", "convergence"] * 2

    def test_rician_idet_general_closed_form_is_unsupported(self):
        rows = run_sweep(spec_from_config(
            _with_metrics("IDET_GENERAL:CLOSED_FORM") + "rician_k = 2\n")).rows
        assert [(r["value"], r["error"]) for r in rows] == [("NaN", "unsupported")] * 2

    def test_closed_forms_make_no_exact_call(self, monkeypatch):
        calls = _count_exact_calls(monkeypatch)
        rows = run_sweep(spec_from_config(REF_CLOSED_FORMS, require_axis=False)).rows
        assert [r["error"] for r in rows] == [""] * 6
        assert not calls

    def test_frechet_inconsistent_parts_refuse_idet_general(self, monkeypatch):
        # IDET_SPECIAL may exceed min(WDT_SINR, WET_EHP) by 1e-6 at most; past
        # that, IDET_GENERAL's row carries the addition law's refusal
        for special, value, error in ((0.2 + 5e-7, "0.2999995", ""),
                                      (0.2 + 2e-6, "NaN", "unsupported")):
            parts = {Metric.WDT_SINR: 0.2, Metric.WET_EHP: 0.3, Metric.IDET_SPECIAL: special}
            for m, v in parts.items():
                monkeypatch.setitem(sweep._EXACT_RAYLEIGH, m, lambda ctx, v=v: v)
            rows = run_sweep(spec_from_config(_with_metrics("IDET_GENERAL:EXACT"))).rows
            assert rows == [{"axis": axis, "metric": "IDET_GENERAL", "method": "EXACT",
                             "value": value, "ci": "", "trials": "", "seconds": "",
                             "error": error} for axis in ("1", "1.99526231497")]

    def test_closed_forms_obey_frechet_bounds(self):
        rows = run_sweep(spec_from_config(REF_CLOSED_FORMS, require_axis=False)).rows
        v = {r["metric"]: float(r["value"]) for r in rows}
        wdt, wet = v["WDT_SINR"], v["WET_EHP"]
        assert v["IDET_SPECIAL"] <= min(wdt, wet)
        assert v["IDET_GENERAL"] >= max(wdt, wet)

    def test_idet_general_from_its_own_method(self):
        # the exact and closed-form parts differ in both cells; the EXACT
        # rows come first, so a shared cache would hand them to CLOSED_FORM
        spec = spec_from_config(_with_metrics(
            "WDT_SINR:EXACT, WET_EHP:EXACT, WET_EHP:CLOSED_FORM, "
            "IDET_GENERAL:CLOSED_FORM, WDT_SINR:CLOSED_FORM, IDET_GENERAL:EXACT"))
        rows = run_sweep(spec).rows
        parts = {
            "EXACT": (analytic.wdt_sinr_exact, analytic.wet_ehp_exact,
                      analytic.idet_special_exact),
            "CLOSED_FORM": (analytic.wdt_sinr_approx,
                            analytic.wet_ehp_approx, analytic.idet_special_approx),
        }
        for value in spec.values:
            ctx = KernelContext.from_config(spec.cell_config(value))
            got = {(r["metric"], r["method"]): r["value"] for r in rows
                   if r["axis"] == f"{value:.12g}"}
            for method, fns in parts.items():
                wdt, wet, special = (fn(ctx) for fn in fns)
                assert got["WDT_SINR", method] == f"{wdt:.12g}"
                assert got["WET_EHP", method] == f"{wet:.12g}"
                assert got["IDET_GENERAL", method] == (
                    f"{analytic.idet_general(wdt, wet, special):.12g}")

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers, monkeypatch):
        calls = _count_exact_calls(monkeypatch)
        with pytest.raises(ConfigError, match="--workers must be at least 1"):
            run_sweep(spec_from_config(PORT_SWEEP_CFG), workers=workers)
        assert not calls

    def test_timing_gives_each_cell_its_method_totals(self):
        # a threshold axis runs one pass per cell, so each cell's rows of one
        # method carry that method's total over the cell: here the EXACT rows
        # share the time of WET_SINR's kernel and WDT_EHP's closed form
        spec = dataclasses.replace(spec_from_config(_with_metrics(
            "WDT_SINR:MC, WET_SINR:EXACT, WDT_EHP:EXACT, IDET_GENERAL:EXACT, "
            "WET_EHP:MC")), timing=True)
        rows = run_sweep(spec).rows
        for value in ("1", "1.99526231497"):
            for method in ("MC", "EXACT"):
                seconds = {r["seconds"] for r in rows
                           if r["axis"] == value and r["method"] == method}
                assert len(seconds) == 1 and float(seconds.pop()) > 0.0, (value, method)

    def test_rician_metadata_note(self):
        result = run_sweep(spec_from_config(BASE_CFG + "rician_k = 2\n"))
        assert result.metadata["rician_power_normalization"] == "2/(2+kappa)"


class TestExactMemo:
    """A sweep evaluates each EXACT metric once per distinct kernel input: the
    K tuple, mu, n_users, rician_k and the thresholds sweep._EXACT_READS
    declares for the metric."""

    GAMMA = _with_metrics(", ".join(f"{m.value}:EXACT" for m in Metric)).replace(
        "0 dB, 3 dB", "-3 dB, 0 dB, 3 dB, 6 dB, 9 dB, 12 dB, 15 dB")
    THRESHOLDS = sorted({f.name for f in dataclasses.fields(KernelContext)}
                        - {"mu", "n_users", "n_ports", "rician_k"})

    @pytest.mark.parametrize("field", THRESHOLDS)
    @pytest.mark.parametrize("metric", list(sweep._EXACT_RAYLEIGH), ids=lambda m: m.value)
    def test_declared_fields_are_the_fields_read(self, metric, field):
        # a declared threshold moves the value at this cell; an undeclared one
        # leaves every K's value unchanged to the bit
        base = KernelContext(mu=0.5, gamma_th=2.0, q_hat=5.0, n_users=3, n_ports=4)
        moved = dataclasses.replace(base, **{field: 2.0 * getattr(base, field)})
        ports = sweep._EXACT_RAYLEIGH[metric].over_ports
        got = [ports(ctx, DEFAULT_QUAD, (1, 4)) for ctx in (base, moved)]
        assert all(0.0 < v < 1.0 for v in got[0] + got[1]), got
        assert (repr(got[0]) == repr(got[1])) is (field not in sweep._EXACT_READS[metric])

    def test_gamma_sweep_runs_the_wet_metrics_once(self, monkeypatch):
        calls = _count_exact_calls(monkeypatch)
        spec = spec_from_config(self.GAMMA)
        rows = run_sweep(spec).rows
        assert calls == {Metric.WET_SINR: 1, Metric.WET_EHP: 1, Metric.WDT_SINR: 7,
                         Metric.WDT_EHP: 7, Metric.IDET_SPECIAL: 7}
        # a reused value is the one the cell computes alone, to the bit
        for i in (0, 6):
            alone = run_sweep(dataclasses.replace(spec, values=[spec.values[i]])).rows
            assert rows[6 * i:6 * i + 6] == alone

    def test_ps_ratio_sweep_runs_wdt_sinr_once(self, monkeypatch):
        calls = _count_exact_calls(monkeypatch)
        rows = run_sweep(spec_from_config(_with_metrics("WDT_SINR:EXACT, WET_EHP:EXACT").replace(
            "sweep.axis = sinr_threshold", "sweep.axis = ps_ratio").replace(
            "0 dB, 3 dB", "0.2, 0.5, 0.8"))).rows
        assert calls == {Metric.WDT_SINR: 1, Metric.WET_EHP: 3}
        for metric, distinct in (("WDT_SINR", 1), ("WET_EHP", 3)):
            assert len({r["value"] for r in rows if r["metric"] == metric}) == distinct

    def test_refusal_runs_once_per_input(self, monkeypatch):
        # WET_SINR has no Rician expression: one refusal serves every gamma
        calls = _count_exact_calls(monkeypatch)
        rows = run_sweep(spec_from_config(self.GAMMA.replace(
            ", ".join(f"{m.value}:EXACT" for m in Metric), "WET_SINR:EXACT, WDT_SINR:EXACT")
            + "rician_k = 2\n")).rows
        assert calls == {Metric.WET_SINR: 1, Metric.WDT_SINR: 7}
        assert [r["error"] for r in rows] == ["unsupported", ""] * 7

    def test_each_call_evaluates_afresh(self, monkeypatch):
        calls = _count_exact_calls(monkeypatch)
        spec = spec_from_config(BASE_CFG, trials=2000)
        first = run_sweep(spec).rows
        assert calls == {Metric.WDT_SINR: 2, Metric.WET_EHP: 1}
        assert run_sweep(spec).rows == first
        assert calls == {Metric.WDT_SINR: 4, Metric.WET_EHP: 2}
        compare(spec)
        assert calls == {Metric.WDT_SINR: 6, Metric.WET_EHP: 3}


class TestNestedPortSweep:
    def test_bytes_match_across_workers_and_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, PORT_SWEEP_CFG)
        outputs = []
        for name, workers in (("a", "1"), ("b", "2"), ("c", "1")):
            out = tmp_path / f"{name}.csv"
            assert main(["sweep", cfg, "--workers", workers, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_exact_call_counter_sees_the_port_pass(self, monkeypatch):
        # the pass calls each EXACT evaluator once over all its K, through
        # its .over_ports in sweep._EXACT_RAYLEIGH; _count_exact_calls must
        # see those calls
        calls = _count_exact_calls(monkeypatch)
        rows = run_sweep(spec_from_config(PORT_SWEEP_CFG, trials=2000)).rows
        assert calls == {Metric.WDT_SINR: 1, Metric.WET_EHP: 1}
        assert len(rows) == 4 * 8 and not any(r["error"] for r in rows)

    def test_max_based_counts_never_rise_with_k(self):
        rows = run_sweep(spec_from_config(PORT_SWEEP_CFG)).rows
        for m in ("WDT_SINR", "WET_EHP", "IDET_SPECIAL", "IDET_GENERAL"):
            counts = [round(float(r["value"]) * int(r["trials"])) for r in rows
                      if r["metric"] == m and r["method"] == "MC"]
            assert len(counts) == 4
            assert all(a >= b for a, b in zip(counts, counts[1:])), (m, counts)

    def test_largest_k_row_is_a_plain_run(self, monkeypatch):
        passes = []

        def recorded(cfg, trials, seed, **kw):
            passes.append((cfg.n_ports, kw))
            return simulate_outage_counts(cfg, trials, seed, **kw)

        monkeypatch.setattr(sweep, "simulate_outage_counts", recorded)
        spec = spec_from_config(PORT_SWEEP_CFG)
        rows = run_sweep(spec).rows
        assert passes == [(8, {"cell": 0, "k_values": [1, 2, 4, 8]})]
        plain = simulate_outage_counts(spec.cell_config(8), spec.trials, spec.seed,
                                       cell=0)["counts"]
        got = {r["metric"]: r["value"] for r in rows if r["axis"] == "8" and r["method"] == "MC"}
        assert got == {m.value: f"{plain[m] / spec.trials:.12g}" for m in Metric}

    def test_failing_pass_marks_every_mc_row(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("forced")

        monkeypatch.setattr(sweep, "simulate_outage_counts", fail)
        result = run_sweep(spec_from_config(PORT_SWEEP_CFG))
        mc = [r for r in result.rows if r["method"] == "MC"]
        exact = [r for r in result.rows if r["method"] == "EXACT"]
        assert len(mc) == 4 * 6
        assert all(r["value"] == "NaN" and r["error"] == "unsupported" for r in mc)
        assert len(exact) == 4 * 2
        assert all(not r["error"] and 0.0 < float(r["value"]) < 1.0 for r in exact)


# All six metrics by EXACT against K, K = 1 included (WET_SINR's WET_EHP route).
EXACT_PORT_CFG = """
n_users = 3
fa_size = 2
sinr_threshold = 3 dB
ehp_threshold = 30 mW
sweep.axis = n_ports
sweep.values = 1, 2, 3, 8, 64
sweep.metrics = """ + ", ".join(f"{m.value}:EXACT" for m in Metric) + "\n"


def _per_cell_rows(spec):
    """The rows of every cell as a one-value n_ports sweep gives them: a pass
    at one K, which runs the public evaluators."""
    return [r for v in spec.values for r in run_sweep(dataclasses.replace(spec, values=[v])).rows]


class TestExactPortPass:
    """An n_ports sweep evaluates its EXACT metrics in one pass over its K values."""

    def test_rows_match_per_cell_evaluators(self):
        spec = spec_from_config(EXACT_PORT_CFG)
        outcomes, _ = sweep._run_pass(spec, 0, spec.values, {})
        for v, got in zip(spec.values, outcomes):
            ctx = KernelContext.from_config(spec.cell_config(v))
            direct = {m: fn(ctx) for m, fn in sweep._EXACT_RAYLEIGH.items()}
            direct[Metric.IDET_GENERAL] = analytic.idet_general(
                direct[Metric.WDT_SINR], direct[Metric.WET_EHP], direct[Metric.IDET_SPECIAL])
            # each K's value is its own public evaluator's, to the bit
            assert {m: repr(x) for (m, _), x in got.items()} == {
                m: repr(x) for m, x in direct.items()}, v
        assert run_sweep(spec).rows == _per_cell_rows(spec)

    def test_idet_general_takes_each_k_first_failed_part(self, monkeypatch):
        # WDT_SINR and WET_EHP both fail at K = 8 alone, so the pass composes
        # IDET_GENERAL there from the K's outcomes: WDT_SINR's error first
        parts = {Metric.IDET_SPECIAL: (0.05, 0.05),
                 Metric.WDT_SINR: (0.1, QuadratureConvergenceError("forced")),
                 Metric.WET_EHP: (0.2, ValueError("forced"))}
        for m, (value, at_8) in parts.items():
            monkeypatch.setitem(sweep._EXACT_RAYLEIGH, m, SimpleNamespace(
                over_ports=lambda ctx, quad, ks, v=value, e=at_8: [e if k == 8 else v for k in ks]))
        cfg = EXACT_PORT_CFG.partition("sweep.metrics")[0] + "sweep.metrics = IDET_GENERAL:EXACT\n"
        rows = run_sweep(spec_from_config(cfg)).rows
        assert [(r["axis"], r["value"], r["error"]) for r in rows] == [
            (k, "NaN", "convergence") if k == "8" else (k, "0.25", "")
            for k in ("1", "2", "3", "8", "64")]

    def test_failed_k_keeps_its_error_and_spares_the_others(self, monkeypatch):
        raw = analytic._wet_ehp_raw

        def nan_at_8(ctx, ns, nf, ks):
            return [math.nan if k == 8 else x for k, x in zip(ks, raw(ctx, ns, nf, ks))]

        monkeypatch.setattr(analytic, "_wet_ehp_raw", nan_at_8)
        spec = spec_from_config(EXACT_PORT_CFG)
        rows = run_sweep(spec).rows
        assert rows == _per_cell_rows(spec)
        failed = {(r["axis"], r["metric"]) for r in rows if r["error"]}
        assert failed == {("8", "WET_EHP"), ("8", "IDET_GENERAL")}
        assert all(r["error"] == "convergence" and r["value"] == "NaN"
                   for r in rows if r["error"])

    @pytest.mark.parametrize("extra, refused", [
        ("mu = 1\n", set(Metric)),     # the mu guard of every evaluator
        ("rician_k = 2\n", {Metric.WET_SINR, Metric.WDT_EHP, Metric.IDET_SPECIAL,
                            Metric.IDET_GENERAL}),
    ], ids=["mu", "rician"])
    def test_guard_fails_every_k(self, extra, refused):
        spec = spec_from_config(EXACT_PORT_CFG + extra)
        rows = run_sweep(spec).rows
        assert rows == _per_cell_rows(spec)
        for r in rows:
            assert r["error"] == ("unsupported" if Metric(r["metric"]) in refused else ""), r

    def test_starts_no_pool(self, tmp_path):
        # a gamma sweep of two passes at --workers 2 runs them in the calling
        # process, which never loads the process-pool modules
        cfg, out = write_cfg(tmp_path, BASE_CFG), str(tmp_path / "out.csv")
        src = str(Path(sweep.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys; from fama_idet.cli import main; "
                f"rc = main(['sweep', {cfg!r}, '--workers', '2', '--out', {out!r}]); "
                "print(rc, [m for m in ('multiprocessing', 'concurrent.futures.process') "
                "if m in sys.modules])")
        got = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert got.strip() == "0 []"
        assert "\n1.99526231497,WDT_SINR,EXACT," in Path(out).read_text()

    def test_timing_gives_exact_rows_the_pass_total(self):
        spec = dataclasses.replace(spec_from_config(EXACT_PORT_CFG.replace(
            "sweep.values = 1, 2, 3, 8, 64", "sweep.values = 2, 4")), timing=True)
        seconds = {r["seconds"] for r in run_sweep(spec).rows}
        assert len(seconds) == 1 and float(seconds.pop()) > 0.0


class TestFaSizeSweep:
    CFG = """
n_users = 3
n_ports = 8
sinr_threshold = 3 dB
ehp_threshold = 30 mW
sweep.axis = fa_size
sweep.values = 1, 2, 5
sweep.metrics = WDT_SINR:EXACT, WET_EHP:EXACT
"""

    def test_each_cell_derives_mu_from_its_w(self):
        rows = run_sweep(spec_from_config(self.CFG)).rows
        for w in (1.0, 2.0, 5.0):
            ctx = KernelContext.from_config(SystemConfig(
                n_users=3, n_ports=8, fa_size=w, sinr_threshold=10 ** 0.3, ehp_threshold=0.030))
            for metric, fn in ((Metric.WDT_SINR, analytic.wdt_sinr_exact),
                               (Metric.WET_EHP, analytic.wet_ehp_exact)):
                row, = [r for r in rows if r["axis"] == f"{w:.12g}" and r["metric"] == metric.value]
                assert row["value"] == f"{fn(ctx):.12g}" and not row["error"]
        assert len({r["value"] for r in rows if r["metric"] == "WDT_SINR"}) == 3

    def test_fixed_mu_with_fa_size_axis_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.CFG + "mu = 0.4\n")
        assert main(["sweep", cfg]) == 1
        assert "mu is set" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="mu is set"):
            spec_from_config(self.CFG + "mu = 0.4\n")

    def test_fixed_mu_with_fa_size_axis_refused_in_library_code(self):
        with pytest.raises(ConfigError, match="mu is set"):
            SweepSpec(base=SystemConfig(n_users=3, n_ports=8, mu=0.4), axis="fa_size",
                      values=[1.0, 2.0], metrics=[(Metric.WDT_SINR, Method.EXACT)])
        # a base whose mu is derived from its own W is no override
        SweepSpec(base=SystemConfig(n_users=3, n_ports=8, fa_size=2.0), axis="fa_size",
                  values=[1.0, 2.0], metrics=[(Metric.WDT_SINR, Method.EXACT)])


class TestThreadCounts:
    """Sweep bytes do not depend on the threads that run the MC blocks and
    the WET_SINR slabs (criterion 8's --workers counts start none)."""

    GAMMA = """
n_users = 3
n_ports = 16
fa_size = 2
ehp_threshold = 30 mW
trials = 20000
seed = 7
sweep.axis = sinr_threshold
sweep.values = 0 dB, 3 dB, 6 dB
sweep.metrics = """ + ", ".join(f"{m.value}:{meth.value}" for m in Metric for meth in Method)
    FA_SIZE = TestFaSizeSweep.CFG.replace(
        "sweep.metrics = WDT_SINR:EXACT, WET_EHP:EXACT",
        "trials = 20000\nseed = 7\nsweep.metrics = " + ", ".join(
            f"{m.value}:{meth.value}" for m in Metric for meth in (Method.MC, Method.EXACT)))

    @pytest.mark.parametrize("text", [GAMMA, FA_SIZE], ids=["gamma", "fa_size"])
    def test_bytes_match_across_cpu_counts(self, text, monkeypatch):
        outputs = set()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(channel, "_cpus", lambda cpus=cpus: cpus)
            outputs.add(render(run_sweep(spec_from_config(text)), "csv"))
        assert len(outputs) == 1


class TestNonFiniteInput:
    EVAL = BASE_CFG.replace("sweep.axis = sinr_threshold\n", "").replace(
        "sweep.values = 0 dB, 3 dB\n", "")

    @pytest.mark.parametrize("field", ["sinr_threshold", "ehp_threshold", "fa_size", "mu"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_config_value_exits_1(self, field, value, tmp_path, capsys):
        lines = [l for l in self.EVAL.splitlines() if not l.startswith(field)]
        cfg = write_cfg(tmp_path, "\n".join(lines + [f"{field} = {value}"]) + "\n")
        assert main(["eval", cfg]) == 1
        assert f"{field} must be finite" in capsys.readouterr().err

    def test_swept_value_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG.replace("0 dB, 3 dB", "0 dB, nan"))
        assert main(["sweep", cfg]) == 1
        assert "sinr_threshold must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["n_ports", "n_users"])
    @pytest.mark.parametrize("value, shown", [
        ("inf", "inf"), ("nan", "nan"), ("1e400", "inf"), ("2.5", "2.5")])
    def test_swept_integer_field_exits_1(self, field, value, shown, tmp_path, capsys):
        # int() of these raises OverflowError or names no axis; the check
        # must refuse them first, as it refuses 2.5
        cfg = write_cfg(tmp_path, BASE_CFG.replace("= sinr_threshold", f"= {field}").replace(
            "0 dB, 3 dB", f"2, {value}"))
        assert main(["sweep", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {field} value {shown} is not an integer\n"

    @pytest.mark.parametrize("command, text, want", [
        ("eval", EVAL.replace("= 3 dB", "= 4000 dB"),
         "line 5: field 'sinr_threshold': '4000 dB'"),
        ("sweep", BASE_CFG.replace("0 dB, 3 dB", "0 dB, 4000 dB"),
         "line 10: field 'sweep.values': '0 dB, 4000 dB'"),
    ], ids=["field", "swept"])
    def test_db_value_past_float_range_exits_1(self, command, text, want, tmp_path, capsys):
        # 10.0 ** 400.0 raises OverflowError, not ValueError
        assert main([command, write_cfg(tmp_path, text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {want} is out of float range\n"

    @pytest.mark.parametrize("w", ["nan", "inf", "-2", "0"])
    def test_mu_verb_exits_1(self, w, capsys):
        assert main(["mu", "--w", w]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "positive and finite" in captured.err


@pytest.fixture
def umask():
    """Set the process umask for one test, then restore it."""
    saved = os.umask(0o022)
    yield lambda mask: os.umask(mask)
    os.umask(saved)


class TestOutputMode:
    EVAL = TestNonFiniteInput.EVAL.replace(
        "sweep.metrics = WDT_SINR:MC, WDT_SINR:EXACT, WET_EHP:MC, WET_EHP:EXACT",
        "sweep.metrics = WDT_EHP:EXACT")

    def _mode(self, path):
        return stat.S_IMODE(os.stat(path).st_mode)

    @pytest.mark.parametrize("mask,want", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_new_file_follows_umask(self, mask, want, umask, tmp_path):
        umask(mask)
        cfg = write_cfg(tmp_path, self.EVAL)
        out = tmp_path / "r.csv"
        assert main(["eval", cfg, "--out", str(out)]) == 0
        assert self._mode(out) == want

    def test_compare_out_follows_umask(self, umask, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = tmp_path / "report.txt"
        assert main(["compare", cfg, "--trials", "20000", "--out", str(out)]) == 0
        assert self._mode(out) == 0o644

    def test_existing_file_keeps_its_mode(self, umask, tmp_path):
        cfg = write_cfg(tmp_path, self.EVAL)
        out = tmp_path / "r.csv"
        out.write_text("old\n")
        os.chmod(out, 0o640)
        assert main(["eval", cfg, "--out", str(out)]) == 0
        assert self._mode(out) == 0o640 and "WDT_EHP" in out.read_text()


class TestCompare:
    def test_pass_report(self):
        spec = spec_from_config(BASE_CFG, trials=30_000)
        report = compare(spec)
        assert len(report) == 4  # two cells x two paired metrics
        assert all(line.passed for line in report)

    def test_each_cell_judged_by_its_own_outcomes(self):
        # two cells at one threshold share an axis label, but each draws its
        # MC count from its own substream
        spec = spec_from_config(BASE_CFG.replace("0 dB, 3 dB", "3 dB, 3 dB"), trials=2000)
        mc = [float(r["value"]) for r in run_sweep(spec).rows
              if r["metric"] == "WDT_SINR" and r["method"] == "MC"]
        assert mc[0] != mc[1]
        assert [line.mc for line in compare(spec) if line.metric == "WDT_SINR"] == mc

    def test_exact_between_the_interval_and_twice_its_z_fails(self, monkeypatch):
        # the interval is the Wilson one at z = 3 * 1.96: an EXACT value
        # inside it passes, one between it and the z = 6 * 1.96 bound fails;
        # the first of the two cells is read
        spec = spec_from_config(_with_metrics("WDT_SINR:MC, WDT_SINR:EXACT"), trials=2000)
        line, _ = compare(spec)
        count = round(line.mc * spec.trials)
        lo, hi = wilson_interval(count, spec.trials, 3.0 * 1.96)
        lo6, hi6 = wilson_interval(count, spec.trials, 6.0 * 1.96)
        assert 0.0 < lo6 < lo < line.mc < hi < hi6 < 1.0
        for exact, passed in ((0.5 * (lo6 + lo), False), (0.5 * (hi + hi6), False),
                              (0.5 * (lo + line.mc), True), (0.5 * (line.mc + hi), True)):
            monkeypatch.setitem(sweep._EXACT_RAYLEIGH, Metric.WDT_SINR, lambda ctx: exact)
            got, _ = compare(spec)
            assert got.passed is passed, exact
            assert (got.mc, got.exact, got.lo, got.hi) == (line.mc, exact, lo, hi)

    def test_refused_exact_fails_as_evaluation_error(self, tmp_path, capsys):
        # WET_SINR has no Rician EXACT expression: compare reports the cell
        # as an evaluation error and exits 2
        cfg = write_cfg(tmp_path, """
n_users = 2
n_ports = 2
fa_size = 1
rician_k = 2
sweep.metrics = WET_SINR:MC, WET_SINR:EXACT
""")
        assert main(["compare", cfg, "--trials", "2000"]) == 2
        assert capsys.readouterr().out == "FAIL WET_SINR: evaluation error\n"

    def test_precondition_requires_pair(self):
        spec = spec_from_config(BASE_CFG.replace(
            "sweep.metrics = WDT_SINR:MC, WDT_SINR:EXACT, "
            "WET_EHP:MC, WET_EHP:EXACT",
            "sweep.metrics = WDT_SINR:EXACT",
        ))
        with pytest.raises(ConfigError, match="both MC and EXACT"):
            compare(spec)


class TestCliEntry:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = str(tmp_path / "r.csv")
        assert main(["sweep", cfg, "--out", out]) == 0
        assert os.path.exists(out)

    def test_byte_identical_across_workers(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        o1, o8 = str(tmp_path / "w1.csv"), str(tmp_path / "w8.csv")
        assert main(["sweep", cfg, "--workers", "1", "--out", o1]) == 0
        assert main(["sweep", cfg, "--workers", "8", "--out", o8]) == 0
        assert Path(o1).read_bytes() == Path(o8).read_bytes()

    def test_json_output_schema(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = str(tmp_path / "r.json")
        assert main(["sweep", cfg, "--format", "json", "--out", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert set(doc) == {"metadata", "rows"}
        assert doc["metadata"]["config"]["sinr_threshold"] == "3 dB"
        for row in doc["rows"]:
            assert set(row) == {"axis", "metric", "method", "value", "ci",
                                "trials", "seconds", "error"}

    def test_eval_single_cell(self, tmp_path, capsys):
        text = BASE_CFG.replace("sweep.axis = sinr_threshold\n", "")
        text = text.replace("sweep.values = 0 dB, 3 dB\n", "")
        cfg = write_cfg(tmp_path, text)
        assert main(["eval", cfg]) == 0
        out = capsys.readouterr().out
        assert "WDT_SINR,MC" in out

    def test_compare_exit_codes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG)
        assert main(["compare", cfg, "--trials", "20000"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_compare_out_is_atomic(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = tmp_path / "report.txt"
        assert main(["compare", cfg, "--trials", "20000", "--out", str(out)]) == 0
        assert "PASS" in out.read_text()
        out.unlink()

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        assert main(["compare", cfg, "--trials", "20000", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --out {out}: rename failed\n"
        assert sorted(os.listdir(tmp_path)) == ["run.cfg"]

    @pytest.mark.parametrize("command", ["sweep", "eval", "compare"])
    def test_out_write_error_exits_1(self, command, tmp_path, monkeypatch, capsys):
        # a directory the process may not write to; the tests run as root,
        # for whom no mode bit refuses a write, so mkstemp is made to refuse
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied", kwargs.get("dir"))

        monkeypatch.setattr(tempfile, "mkstemp", refuse)
        cfg = write_cfg(tmp_path, _with_metrics("WDT_SINR:MC, WDT_SINR:EXACT"))
        path = str(tmp_path / "out.csv")
        assert main([command, cfg, "--trials", "2000", "--out", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {path}: [Errno 13] Permission denied")
        assert sorted(os.listdir(tmp_path)) == ["run.cfg"]

    def test_compare_passes_at_zero_counts(self, tmp_path, capsys):
        # both MC counts are 0 at the default 100k trials; EXACT is ~1e-8
        cfg = write_cfg(tmp_path, """
n_users = 3
n_ports = 16
fa_size = 2
ehp_threshold = 20 mW
sweep.metrics = WET_EHP:MC, WET_EHP:EXACT, IDET_SPECIAL:MC, IDET_SPECIAL:EXACT
""")
        assert main(["compare", cfg]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2 and "MC=0 " in out

    @pytest.mark.parametrize("command", ["sweep", "eval", "compare"])
    @pytest.mark.parametrize("kind", ["directory", "non-utf-8"])
    def test_unreadable_config_exits_1_naming_it(self, command, kind, tmp_path, capsys):
        if kind == "directory":
            path, reason = str(tmp_path), "Is a directory"
        else:
            path = str(tmp_path / "latin1.cfg")
            Path(path).write_bytes("# at 30 \u00b0C\nn_users = 3\n".encode("latin-1"))
            reason = "'utf-8' codec can't decode byte 0xb0"
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {path}: {reason}")

    def test_validation_exit_code(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, "sweep.values =\n", name="bad.cfg")
        assert main(["sweep", bad]) == 1
        missing = str(tmp_path / "missing.cfg")
        assert main(["sweep", missing]) == 1

    def test_too_few_trials_rejected_before_any_cell(self, tmp_path, capsys, monkeypatch):
        calls = _count_exact_calls(monkeypatch)
        cfg = write_cfg(tmp_path, PORT_SWEEP_CFG)
        assert main(["sweep", cfg, "--trials", "10"]) == 1
        assert "trials must be >= 1000" in capsys.readouterr().err
        assert not calls
        # without an MC metric the trial count is never read
        spec_from_config(_with_metrics("WDT_SINR:EXACT"), trials=10)

    @pytest.mark.parametrize("command", ["sweep", "eval", "compare"])
    @pytest.mark.parametrize("out", ["dir", "missing/x.csv"])
    def test_unwritable_out_exits_1_before_any_pass(self, command, out, tmp_path, capsys,
                                                     monkeypatch):
        calls = _count_exact_calls(monkeypatch)
        mc_calls = []
        monkeypatch.setattr(sweep, "simulate_outage_counts",
                            lambda *a, **kw: mc_calls.append(1))
        (tmp_path / "dir").mkdir()
        cfg = write_cfg(tmp_path, BASE_CFG)
        path = str(tmp_path / out)
        assert main([command, cfg, "--out", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err
        assert not calls and not mc_calls
        assert sorted(os.listdir(tmp_path)) == ["dir", "run.cfg"]

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_values_without_axis_exit_1_before_any_pass(self, command, tmp_path, capsys,
                                                         monkeypatch):
        calls = _count_exact_calls(monkeypatch)
        mc_calls = []
        monkeypatch.setattr(sweep, "simulate_outage_counts",
                            lambda *a, **kw: mc_calls.append(1))
        cfg = write_cfg(tmp_path, BASE_CFG.replace("sweep.axis = sinr_threshold\n", ""))
        assert main([command, cfg]) == 1
        assert capsys.readouterr().err.startswith("error: sweep.values is set")
        assert not calls and not mc_calls

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_validation(self, workers, tmp_path, capsys, monkeypatch):
        calls = _count_exact_calls(monkeypatch)
        cfg = write_cfg(tmp_path, _with_metrics("WDT_SINR:EXACT"))
        assert main(["eval", cfg, "--workers", workers]) == 1
        assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not calls

    def test_numerical_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG.replace(
            "sweep.metrics = WDT_SINR:MC, WDT_SINR:EXACT, "
            "WET_EHP:MC, WET_EHP:EXACT",
            "sweep.metrics = WET_SINR:CLOSED_FORM",
        ) + "rician_k = 1\n")
        assert main(["sweep", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_mu_verb(self, capsys):
        assert main(["mu", "--w", "5"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.251924182354,
                                                               rel=1e-9)
        assert main(["mu", "--w", "-2"]) == 1

    def test_mu_verb_refuses_w_where_mu_cancels(self, capsys):
        assert main(["mu", "--w", "1e7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds 1e+06 wavelengths" in captured.err

    def test_timing_flag_fills_seconds(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = str(tmp_path / "t.csv")
        assert main(["sweep", cfg, "--timing", "--out", out]) == 0
        lines = [l for l in Path(out).read_text().splitlines() if not l.startswith("#")]
        data = lines[1:]
        assert all(l.split(",")[6] != "" for l in data)
