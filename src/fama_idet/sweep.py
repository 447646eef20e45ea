"""Parameter sweeps over scenario configs with MC and analytic methods.

Configs are flat ``key = value`` text with typed suffixes (dB, mW, W);
sweeps replace one SystemConfig field per cell (an fa_size cell derives its
mu from its W).  MC substreams are keyed by (seed, cell index, block), and an
n_ports sweep's one nested-K pass at its largest K by (seed, 0, block), so
results do not depend on the worker count.  An n_ports sweep also runs its
EXACT metrics as one pass over all its K values, and its cells then only
assemble rows, in this process; other axes evaluate each cell in full, on
`workers` processes.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import stat
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import analytic
from .analytic import DEFAULT_QUAD, KernelContext, QuadratureConvergenceError
from .channel import SystemConfig
from .montecarlo import MIN_TRIALS, Method, Metric, simulate_outage_counts, wilson_interval
from .specfun import SeriesConvergenceError, mu_from_w

_INT_FIELDS = {"n_users", "n_ports"}
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SystemConfig)}

CSV_COLUMNS = ["axis", "metric", "method", "value", "ci", "trials", "seconds", "error"]


class ConfigError(ValueError):
    """Config-file parse or validation error with line diagnostics."""


def _convert(token: str) -> float:
    """Number with an optional typed suffix: dB -> linear, mW -> watts,
    W -> wavelengths (identity)."""
    t = token.strip()
    for suffix, conv in (("dB", lambda x: 10.0 ** (x / 10.0)),
                         ("mW", lambda x: x * 1e-3),
                         ("W", lambda x: x)):
        if t.endswith(suffix):
            head = t[: -len(suffix)].strip()
            if head:
                return conv(float(head))
    return float(t)


def parse_config(text: str) -> dict:
    """Flat key=value text -> {key: (raw token, parsed value)}."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if not key or not raw:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key == "sweep.values":
                value = [_convert(v) for v in raw.split(",") if v.strip()]
            elif key == "sweep.metrics":
                value = [_parse_metric(v, lineno) for v in raw.split(",") if v.strip()]
            elif key in ("sweep.axis",):
                value = raw
            elif key in ("trials", "seed") or key in _INT_FIELDS:
                value = int(raw)
            elif key in _CONFIG_FIELDS:
                value = _convert(raw)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except (ValueError, KeyError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"line {lineno}: field {key!r}: {exc}") from exc
        out[key] = (raw, value)
    return out


def _parse_metric(token: str, lineno: int):
    name, _, method = token.strip().partition(":")
    try:
        return Metric(name.strip().upper()), Method((method or "MC").strip().upper())
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad metric spec {token!r}") from exc


@dataclass
class SweepSpec:
    """One sweep: a base scenario, the swept field, and what to evaluate."""

    base: SystemConfig
    axis: str
    values: list
    metrics: list          # (Metric, Method) pairs
    trials: int = 100_000
    seed: int = 0
    output_path: str | None = None
    format: str = "csv"
    raw_items: dict = field(default_factory=dict)  # config echo for metadata
    timing: bool = False

    def __post_init__(self):
        if self.axis and self.axis not in _CONFIG_FIELDS:
            raise ConfigError(f"sweep.axis {self.axis!r} is not a scenario field")
        if self.axis and not self.values:
            raise ConfigError("sweep.values must be nonempty")
        if not self.metrics:
            raise ConfigError("sweep.metrics must be nonempty")
        if self.trials < MIN_TRIALS and any(meth is Method.MC for _, meth in self.metrics):
            raise ConfigError(f"trials must be >= {MIN_TRIALS} for MC metrics, got {self.trials}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        # each cell derives its own mu, so a base mu other than the derived one was set
        if self.axis == "fa_size" and self.base.mu != mu_from_w(self.base.fa_size):
            raise ConfigError("mu is set, so sweeping fa_size would change nothing; drop mu")
        # constructing each cell validates values against the field invariants
        for v in self.values:
            self.cell_config(v)

    def cell_config(self, value) -> SystemConfig:
        if not self.axis:
            return self.base
        if self.axis in _INT_FIELDS:
            if float(value) != int(value):
                raise ConfigError(f"{self.axis} value {value} is not an integer")
            value = int(value)
        derive_mu = {"mu": None} if self.axis == "fa_size" else {}  # from the cell's own W
        try:
            return dataclasses.replace(self.base, **{self.axis: value}, **derive_mu)
        except ValueError as exc:
            raise ConfigError(f"{self.axis} value {value}: {exc}") from exc


def spec_from_config(
    text: str,
    trials: int | None = None,
    seed: int | None = None,
    fmt: str | None = None,
    out: str | None = None,
    require_axis: bool = True,
    timing: bool = False,
) -> SweepSpec:
    """Build a SweepSpec from config text plus CLI overrides."""
    items = parse_config(text)
    cfg_kwargs = {k: v for k, (_, v) in items.items() if k in _CONFIG_FIELDS}
    try:
        base = SystemConfig(**cfg_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    axis = items.get("sweep.axis", ("", ""))[1]
    if require_axis and not axis:
        raise ConfigError("sweep.axis is required for this command")
    default_metrics = [(m, meth) for m in Metric for meth in (Method.MC, Method.EXACT)]
    return SweepSpec(
        base=base,
        axis=axis,
        values=items.get("sweep.values", ("", []))[1],
        metrics=items.get("sweep.metrics", ("", default_metrics))[1],
        trials=trials if trials is not None else items.get("trials", ("", 100_000))[1],
        seed=seed if seed is not None else items.get("seed", ("", 0))[1],
        output_path=out,
        format=fmt or "csv",
        raw_items={k: raw for k, (raw, _) in items.items()},
        timing=timing,
    )


# One exact evaluator per metric, for Rayleigh and Rician cells alike; each
# reads ctx.rician_k and refuses it where it has no Rician expression.  The
# Rayleigh-only name stays because bench/tracing.py rebinds this table by
# name, until ROADMAP item 4's built-in trace replaces that rebinding.
_EXACT_RAYLEIGH = {
    Metric.WDT_SINR: analytic.wdt_sinr_exact,
    Metric.WET_SINR: analytic.wet_sinr_exact,
    Metric.WDT_EHP: analytic.wdt_ehp_exact,
    Metric.WET_EHP: analytic.wet_ehp_exact,
    Metric.IDET_SPECIAL: analytic.idet_special_exact,
}

# The same evaluators over a tuple of port counts, one result per K (a value
# or the error that K's check raised), for an n_ports sweep's one EXACT pass.
_EXACT_OVER_PORTS = {
    Metric.WDT_SINR: analytic._wdt_sinr_ports,
    Metric.WET_SINR: analytic._wet_sinr_ports,
    Metric.WDT_EHP: analytic._wdt_ehp_ports,
    Metric.WET_EHP: analytic._wet_ehp_ports,
    Metric.IDET_SPECIAL: analytic._idet_special_ports,
}


# One closed form per metric; each refuses Rician cells.
_CLOSED_FORM = {
    Metric.WDT_SINR: lambda ctx: analytic.wdt_sinr_approx(ctx).theorem,
    Metric.WET_SINR: analytic.wet_sinr_approx,
    Metric.WDT_EHP: analytic.wdt_ehp_approx,
    Metric.WET_EHP: analytic.wet_ehp_approx,
    Metric.IDET_SPECIAL: analytic.idet_special_approx,
}


def _analytic_value(ctx: KernelContext, metric: Metric, table: dict, known: dict) -> float:
    """Value of `metric` by the evaluators of `table`.  `known` holds the
    cell's values by that table so far; successes are added to it, so
    IDET_GENERAL reuses its three parts and a part that raised is evaluated
    (and raises) again."""
    if metric in known:
        return known[metric]
    if metric is Metric.IDET_GENERAL:
        # IDET_SPECIAL first: a Rician cell refuses it before the others run
        special = _analytic_value(ctx, Metric.IDET_SPECIAL, table, known)
        v = analytic.idet_general(_analytic_value(ctx, Metric.WDT_SINR, table, known),
                                  _analytic_value(ctx, Metric.WET_EHP, table, known),
                                  special)
    else:
        v = table[metric](ctx)
    known[metric] = v
    return v


def _error_kind(exc: Exception) -> str:
    if isinstance(exc, (QuadratureConvergenceError, SeriesConvergenceError)):
        return "convergence"
    if isinstance(exc, ValueError):
        return "unsupported"
    return type(exc).__name__


def _simulate(spec: SweepSpec, cfg: SystemConfig, cell: int, k_values: list) -> list:
    """One MC pass: (counts, seconds, error kind) for each nested K of
    `k_values`.  A failure is recorded in-row, so the sweep keeps running."""
    t0 = time.perf_counter()
    try:
        nested = simulate_outage_counts(cfg, spec.trials, spec.seed, cell=cell,
                                        k_values=k_values)["nested"]
        per_k, err = [{m: int(nested[m][i]) for m in Metric} for i in range(len(k_values))], ""
    except Exception as exc:
        per_k, err = [None] * len(k_values), _error_kind(exc)
    seconds = time.perf_counter() - t0
    return [(counts, seconds, err) for counts in per_k]


def _exact_pass(spec: SweepSpec, ks: list) -> list:
    """One EXACT pass over the port counts ks, in this process: for each K,
    a table of its EXACT values by metric (each entry returns its value or
    raises its error, as the evaluators would) and the pass's seconds.  Only
    the parts IDET_GENERAL could reach are evaluated for it."""
    t0 = time.perf_counter()
    results = {}

    def run(m: Metric) -> list:
        if m not in results:
            try:
                ctx = KernelContext.from_config(spec.cell_config(max(ks)))
                results[m] = _EXACT_OVER_PORTS[m](ctx, DEFAULT_QUAD, tuple(ks))
            except Exception as exc:    # a guard refuses every K alike
                results[m] = [exc] * len(ks)
        return results[m]

    for m, meth in spec.metrics:
        if meth is not Method.EXACT:
            continue
        if m is not Metric.IDET_GENERAL:
            run(m)
        elif not all(isinstance(v, Exception) for v in run(Metric.IDET_SPECIAL)):
            run(Metric.WDT_SINR)
            run(Metric.WET_EHP)
    seconds = time.perf_counter() - t0
    return [({m: lambda ctx, v=v: analytic._value_or_raise(v) for m, v in zip(results, per_k)},
             seconds) for per_k in zip(*results.values())]


def _evaluate_cell(spec: SweepSpec, idx: int, value, mc=None, exact=None) -> list[dict]:
    """All rows for one axis value.  MC metrics share one simulation pass:
    `mc`, the cell's slice of the sweep's nested pass, or else its own.
    EXACT metrics read `exact`, the cell's slice of the sweep's EXACT pass,
    or else are evaluated here."""
    cfg = spec.cell_config(value)
    axis_label = f"{value:.12g}" if spec.axis else ""
    rows = []
    mc_metrics = [m for m, meth in spec.metrics if meth is Method.MC]
    if mc_metrics:
        counts, mc_seconds, mc_err = mc or _simulate(spec, cfg, idx, [cfg.n_ports])[0]
        for m in mc_metrics:
            if mc_err:
                rows.append(_row(axis_label, m, Method.MC, math.nan, None,
                                 spec.trials, None, mc_err))
                continue
            lo, hi = wilson_interval(counts[m], spec.trials)
            rows.append(_row(axis_label, m, Method.MC, counts[m] / spec.trials,
                             0.5 * (hi - lo), spec.trials,
                             mc_seconds if spec.timing else None, ""))
    # this cell's values per method, shared with IDET_GENERAL; one dict per
    # method, so an EXACT part never stands in for a CLOSED_FORM one
    known = {Method.EXACT: {}, Method.CLOSED_FORM: {}}
    for m, meth in spec.metrics:
        if meth is Method.MC:
            continue
        table = _EXACT_RAYLEIGH if meth is Method.EXACT else _CLOSED_FORM
        pass_seconds = None
        if exact and meth is Method.EXACT:
            table, pass_seconds = exact
        t0 = time.perf_counter()
        try:
            ctx = KernelContext.from_config(cfg)
            v = _analytic_value(ctx, m, table, known[meth])
            err = ""
        except Exception as exc:
            v, err = math.nan, _error_kind(exc)
        seconds = time.perf_counter() - t0 if pass_seconds is None else pass_seconds
        rows.append(_row(axis_label, m, meth, v, None, None,
                         seconds if spec.timing else None, err))
    return rows


def _row(axis, metric, method, value, ci, trials, seconds, error):
    return {
        "axis": axis,
        "metric": metric.value,
        "method": method.value,
        "value": "NaN" if math.isnan(value) else f"{value:.12g}",
        "ci": "" if ci is None else f"{ci:.12g}",
        "trials": "" if trials is None else str(trials),
        "seconds": "" if seconds is None else f"{seconds:.3f}",
        "error": error,
    }


@dataclass
class SweepResult:
    """Tidy rows (one per cell/metric/method) plus the metadata echo."""

    rows: list
    metadata: dict

    @property
    def failed(self) -> bool:
        return any(r["error"] for r in self.rows)


def _metadata(spec: SweepSpec) -> dict:
    meta = {"config": dict(sorted(spec.raw_items.items())),
            "run.trials": spec.trials, "run.seed": spec.seed}
    if spec.base.rician_k > 0.0 or spec.axis == "rician_k":
        # mean received power is held independent of kappa
        meta["rician_power_normalization"] = "2/(2+kappa)"
    return meta


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate every cell (optionally in parallel) and emit the file."""
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    cells = list(enumerate(spec.values)) if spec.axis else [(0, None)]
    mc = exact = [None] * len(cells)
    if spec.axis == "n_ports":
        # one nested-K MC pass at the largest K, keyed as cell 0, and one
        # EXACT pass over every K, both in this process; the cells then only
        # assemble rows, so they run here too
        ks = [int(v) for v in spec.values]  # integers, as __post_init__ checked
        methods = {meth for _, meth in spec.metrics}
        if Method.MC in methods:
            mc = _simulate(spec, spec.cell_config(max(ks)), 0, ks)
        if Method.EXACT in methods:
            exact = _exact_pass(spec, ks)
    if workers > 1 and len(cells) > 1 and spec.axis != "n_ports":
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_evaluate_cell, spec, i, v) for i, v in cells]
            per_cell = [f.result() for f in futures]
    else:
        per_cell = [_evaluate_cell(spec, i, v, m, e) for (i, v), m, e in zip(cells, mc, exact)]
    rows = [r for cell_rows in per_cell for r in cell_rows]
    result = SweepResult(rows, _metadata(spec))
    if spec.output_path:
        write_result(result, spec.output_path, spec.format)
    return result


def render(result: SweepResult, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {"metadata": result.metadata, "rows": result.rows},
            indent=2, sort_keys=True,
        ) + "\n"
    buf = io.StringIO()
    for key, val in sorted(result.metadata.items()):
        if key == "config":
            for k, v in val.items():
                buf.write(f"# {k} = {v}\n")
        else:
            buf.write(f"# {key} = {val}\n")
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(result.rows)
    return buf.getvalue()


def write_result(result: SweepResult, path: str, fmt: str) -> None:
    """Atomic write of the rendered result (see _write_atomic)."""
    _write_atomic(render(result, fmt), path)


def _write_atomic(text: str, path: str) -> None:
    """Atomic write: temp file in the target directory, then rename.  The file
    keeps an existing target's mode; a new one gets 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)     # reading the umask means setting it
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class CompareLine:
    axis: str
    metric: str
    mc: float
    exact: float
    lo: float        # Wilson interval of the MC rate at z = 3 * 1.96
    hi: float
    passed: bool


def compare(spec: SweepSpec, workers: int = 1) -> list[CompareLine]:
    """Cross-validate: EXACT must lie in the MC rate's Wilson interval at z = 3 * 1.96."""
    paired = [m for m in dict.fromkeys(m for m, _ in spec.metrics)
              if (m, Method.MC) in spec.metrics and (m, Method.EXACT) in spec.metrics]
    if not paired:
        raise ConfigError("compare needs at least one metric with both MC and EXACT")
    result = run_sweep(dataclasses.replace(spec, output_path=None), workers=workers)
    by_key = {(r["axis"], r["metric"], r["method"]): r for r in result.rows}
    report = []
    for value in (spec.values if spec.axis else [None]):
        axis_label = f"{value:.12g}" if spec.axis else ""
        for m in paired:
            mc = by_key[(axis_label, m.value, "MC")]
            ex = by_key[(axis_label, m.value, "EXACT")]
            if mc["error"] or ex["error"]:
                report.append(CompareLine(axis_label, m.value, math.nan, math.nan,
                                          math.nan, math.nan, False))
                continue
            mc_v, ex_v = float(mc["value"]), float(ex["value"])
            trials = int(mc["trials"])
            lo, hi = wilson_interval(round(mc_v * trials), trials, 3.0 * 1.96)
            report.append(CompareLine(axis_label, m.value, mc_v, ex_v, lo, hi,
                                      lo <= ex_v <= hi))
    return report
