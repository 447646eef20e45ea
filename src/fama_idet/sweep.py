"""Parameter sweeps over scenario configs with MC and analytic methods.

Configs are flat ``key = value`` text with typed suffixes (dB, mW, W);
sweeps replace one SystemConfig field per cell (an fa_size cell derives its
mu from its W).  A sweep runs as passes in the calling process: one over all
the K of an n_ports axis, else one per cell.  Each method maps a metric to
one outcome per cell: MC counts all six in one simulation at the largest K;
EXACT and the closed forms make one call per distinct kernel input over the
whole sweep, so a gamma sweep runs WET_SINR once, and both compose
IDET_GENERAL from their parts' outcomes by the addition law.
MC substreams are keyed by (seed, pass key, block), the key being the cell
index or 0 for an n_ports pass, so no result depends on the threads that
run the MC blocks and WET_SINR slabs.
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
from dataclasses import dataclass, field

from . import analytic
from .analytic import DEFAULT_QUAD, KernelContext, QuadratureConvergenceError
from .channel import SystemConfig
from .montecarlo import MIN_TRIALS, Method, Metric, simulate_outage_counts, wilson_interval
from .specfun import mu_from_w

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
        except (ValueError, KeyError, OverflowError) as exc:
            if isinstance(exc, ConfigError):
                raise
            why = f"{raw!r} is out of float range" if isinstance(exc, OverflowError) else exc
            raise ConfigError(f"line {lineno}: field {key!r}: {why}") from exc
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
        if self.values and not self.axis:
            raise ConfigError("sweep.values is set, but no sweep.axis to sweep them over")
        if not self.metrics:
            raise ConfigError("sweep.metrics must be nonempty")
        if self.trials < MIN_TRIALS and any(meth is Method.MC for _, meth in self.metrics):
            raise ConfigError(f"trials must be >= {MIN_TRIALS} for MC metrics, got {self.trials}")
        if self.seed < 0:   # SeedSequence refuses it; every seed >= 0 keys its own streams
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        # each cell derives its own mu, so a base mu other than the derived one was set
        if self.axis == "fa_size" and self.base.mu != mu_from_w(self.base.fa_size):
            raise ConfigError("mu is set, so sweeping fa_size would change nothing; drop mu")
        # (metric, method) and the axis label key the rows, so each must be distinct
        pairs = [f"{m.value}:{meth.value}" for m, meth in self.metrics]
        labels = [f"{v:.12g}" for v in self.values]
        for key, seen in (("sweep.metrics", pairs), ("sweep.values", labels)):
            twice = [x for i, x in enumerate(seen) if x in seen[:i]]
            if twice:
                raise ConfigError(f"{key} lists {twice[0]} more than once")
        # constructing each cell validates values against the field invariants
        for v in self.values:
            self.cell_config(v)

    def cell_config(self, value) -> SystemConfig:
        if not self.axis:
            return self.base
        if self.axis in _INT_FIELDS:
            if not float(value).is_integer():   # inf and nan included
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
# reads ctx.rician_k and refuses it where it has no Rician expression.  A pass
# at one K calls the evaluator itself, not its .over_ports, though the values
# are equal to the bit, because bench/tracing.py rebinds this table by name.
_EXACT_RAYLEIGH = {
    Metric.WDT_SINR: analytic.wdt_sinr_exact,
    Metric.WET_SINR: analytic.wet_sinr_exact,
    Metric.WDT_EHP: analytic.wdt_ehp_exact,
    Metric.WET_EHP: analytic.wet_ehp_exact,
    Metric.IDET_SPECIAL: analytic.idet_special_exact,
}

# The KernelContext thresholds each evaluator and closed form reads besides
# mu, n_users and rician_k; with the method and the K tuple they key a sweep's
# analytic outcomes, so a threshold left out must not move a bit of the value
# (TestExactMemo checks each).
_READS = {Metric.WDT_SINR: ("gamma_th",), Metric.WET_SINR: ("q_hat",),
          Metric.WDT_EHP: ("gamma_th",), Metric.WET_EHP: ("q_hat",),
          Metric.IDET_SPECIAL: ("gamma_th", "q_hat")}

# IDET_GENERAL's parts, in the order it is composed from them
_IDET_PARTS = (Metric.IDET_SPECIAL, Metric.WDT_SINR, Metric.WET_EHP)

# One closed form per metric but IDET_GENERAL; each refuses Rician cells
_CLOSED_FORM = {
    Metric.WDT_SINR: analytic.wdt_sinr_approx,
    Metric.WET_SINR: analytic.wet_sinr_approx,
    Metric.WDT_EHP: analytic.wdt_ehp_approx,
    Metric.WET_EHP: analytic.wet_ehp_approx,
    Metric.IDET_SPECIAL: analytic.idet_special_approx,
}


def _error_kind(exc: Exception) -> str:
    if isinstance(exc, QuadratureConvergenceError):
        return "convergence"
    if isinstance(exc, ValueError):
        return "unsupported"
    return type(exc).__name__


def _passes(spec: SweepSpec) -> list[tuple[int, list]]:
    """The sweep's units of work, each (MC cell key, its axis values): one
    pass over an n_ports axis, keyed as cell 0, whose MC draw at the largest
    K nests every other K; else one pass per cell, keyed by its index."""
    values = spec.values if spec.axis else [None]
    if spec.axis == "n_ports":
        return [(0, values)]
    return [(i, [v]) for i, v in enumerate(values)]


def _idet_general(special, wdt, wet):
    """IDET_GENERAL from its parts' outcomes at one cell: the first part's
    error, or else the addition law's value (or its refusal)."""
    for part in (special, wdt, wet):
        if isinstance(part, Exception):
            return part
    try:
        return analytic.idet_general(wdt, wet, special)
    except ValueError as exc:
        return exc


def _analytic(method: Method, cfg: SystemConfig, ks: list, m: Metric, memo: dict) -> list:
    """m's outcome by the analytic `method` at each K of ks, from one call
    per distinct kernel input: `memo` keeps each input's outcomes, a refusal
    included.  Over several K, EXACT calls .over_ports and a closed form runs
    at each K.  IDET_GENERAL evaluates its parts in order until one fails at
    every K, so a Rician cell stops at IDET_SPECIAL."""
    if m is Metric.IDET_GENERAL:
        parts = []
        for part in _IDET_PARTS:
            parts.append(_analytic(method, cfg, ks, part, memo))
            if all(isinstance(v, Exception) for v in parts[-1]):
                return parts[-1]
        return [_idet_general(*at_k) for at_k in zip(*parts)]
    try:
        ctx = KernelContext.from_config(cfg)
    except ValueError as exc:   # no kernel input to key on (q_hat at mu = 1)
        return [exc] * len(ks)
    key = (method, m, tuple(ks), ctx.mu, ctx.n_users, ctx.rician_k,
           *(getattr(ctx, f) for f in _READS[m]))
    if key not in memo:
        fn = (_EXACT_RAYLEIGH if method is Method.EXACT else _CLOSED_FORM)[m]
        try:
            if len(ks) == 1:
                memo[key] = [fn(ctx)]
            elif method is Method.EXACT:
                memo[key] = fn.over_ports(ctx, DEFAULT_QUAD, tuple(ks))
            else:
                memo[key] = [fn(dataclasses.replace(ctx, n_ports=k)) for k in ks]
        except Exception as exc:    # a guard refuses every K alike
            memo[key] = [exc] * len(ks)
    return memo[key]


def _run_pass(spec: SweepSpec, key: int, values: list, memo: dict) -> tuple[list, dict]:
    """One pass over the cells of `values`: per cell, a map from (metric,
    method) to a count, a value or the exception raised; and each method's
    seconds over the pass.  MC runs once at the largest K; each analytic
    metric once per input the sweep's `memo` does not hold yet."""
    cfgs = [spec.cell_config(v) for v in values]
    ks = [cfg.n_ports for cfg in cfgs]
    top = max(cfgs, key=lambda cfg: cfg.n_ports)
    outcomes, seconds = [{} for _ in cfgs], {}
    for method in Method:
        metrics = [m for m, meth in spec.metrics if meth is method]
        if not metrics:
            continue
        t0 = time.perf_counter()
        if method is Method.MC:
            try:
                nested = simulate_outage_counts(top, spec.trials, spec.seed, cell=key,
                                                k_values=ks)["nested"]
                per_cell = {m: [int(count) for count in nested[m]] for m in metrics}
            except Exception as exc:    # recorded in-row, so the sweep keeps running
                per_cell = {m: [exc] * len(cfgs) for m in metrics}
        else:
            per_cell = {m: _analytic(method, top, ks, m, memo) for m in metrics}
        for m, got in per_cell.items():
            for out, v in zip(outcomes, got):
                out[(m, method)] = v
        seconds[method] = time.perf_counter() - t0
    return outcomes, seconds


def _evaluate_cell(spec: SweepSpec, value, outcomes: dict, seconds: dict) -> list[dict]:
    """All rows for one axis value, from its pass's `outcomes` for the cell
    and `seconds` per method; every row carries its method's pass seconds."""
    axis_label = f"{value:.12g}" if spec.axis else ""
    rows = []
    for m, meth in spec.metrics:
        v, ci, err = outcomes[(m, meth)], None, ""
        if isinstance(v, Exception):
            v, err = math.nan, _error_kind(v)
        elif meth is Method.MC:
            lo, hi = wilson_interval(v, spec.trials)
            v, ci = v / spec.trials, 0.5 * (hi - lo)
        rows.append({"axis": axis_label, "metric": m.value, "method": meth.value,
                     "value": "NaN" if math.isnan(v) else f"{v:.12g}",
                     "ci": "" if ci is None else f"{ci:.12g}",
                     "trials": str(spec.trials) if meth is Method.MC else "",
                     "seconds": f"{seconds[meth]:.3f}" if spec.timing else "",
                     "error": err})
    return rows


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


def _cells(spec: SweepSpec, workers: int) -> list[tuple]:
    """Evaluate every pass, sharing one EXACT memo; (axis value, outcome map,
    its pass's seconds per method) for each cell, in axis order.  `workers`
    is only checked: every pass runs in the calling process."""
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    memo = {}
    return [(value, cell, seconds) for key, values in _passes(spec)
            for outcomes, seconds in [_run_pass(spec, key, values, memo)]
            for value, cell in zip(values, outcomes)]


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate every pass, then emit the rows; `workers` changes no byte."""
    rows = [r for value, cell, seconds in _cells(spec, workers)
            for r in _evaluate_cell(spec, value, cell, seconds)]
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
    report = []
    for value, cell, _ in _cells(spec, workers):
        axis_label = f"{value:.12g}" if spec.axis else ""
        for m in paired:
            count, exact = cell[(m, Method.MC)], cell[(m, Method.EXACT)]
            if isinstance(count, Exception) or isinstance(exact, Exception):
                report.append(CompareLine(axis_label, m.value, math.nan, math.nan,
                                          math.nan, math.nan, False))
                continue
            lo, hi = wilson_interval(count, spec.trials, 3.0 * 1.96)
            report.append(CompareLine(axis_label, m.value, count / spec.trials, exact, lo, hi,
                                      lo <= exact <= hi))
    return report
