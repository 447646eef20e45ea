"""Spans around the calls into each fama_idet layer, installed from outside src/.

``install`` rebinds the names that each calling module looks up (for
example ``sweep.simulate_outage_counts`` or ``analytic.marcum_q_outer``) to
wrappers that record a span: name, start, end, parent and a few counts.
Spans stay in memory; spans made in a forked pool worker are appended to a
per-process file in the spill directory, which the parent reads back once
the pool has joined.  ``layer_metrics`` turns the spans into the per-layer
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

EXACT_EVALUATORS = ("wdt_sinr_exact", "wet_sinr_exact", "wdt_ehp_exact",
                    "wet_ehp_exact", "idet_special_exact")


class Tracer:
    """Span recorder for one process and the pool workers it forks."""

    def __init__(self, spill_dir: Path):
        self.pid = os.getpid()
        self.spill_dir = Path(spill_dir)
        self.enabled = True
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._serial = 0

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        pid = os.getpid()
        self._serial += 1
        sid = f"{pid}:{self._serial}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record = {"id": sid, "parent": parent, "name": name, "pid": pid,
                      "start": start, "end": end, **attrs}
            if pid == self.pid:
                self.spans.append(record)
            else:  # a forked pool worker: its memory never reaches the parent
                with open(self.spill_dir / f"spans-{pid}.jsonl", "a") as fh:
                    fh.write(json.dumps(record) + "\n")

    def collect(self) -> list[dict]:
        """This process's spans plus every span the pool workers spilled."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            spans.extend(json.loads(line) for line in path.read_text().splitlines())
        return sorted(spans, key=lambda s: s["start"])


class _TimedGenerator:
    """Generator returned by a traced ``substream``: times its normal draws."""

    def __init__(self, gen, tracer: Tracer, block: str):
        self._gen, self._tracer, self._block = gen, tracer, block

    def standard_normal(self, *args, **kwargs):
        with self._tracer.span("montecarlo.standard_normal", block=self._block) as attrs:
            out = self._gen.standard_normal(*args, **kwargs)
            attrs["bytes"] = int(out.nbytes)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _wrap(tracer: Tracer, fn, name: str, attrs=None):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        with tracer.span(name, **(attrs(*args, **kwargs) if attrs else {})):
            return fn(*args, **kwargs)
    return wrapped


def install(tracer: Tracer, modules) -> dict:
    """Wrap each layer's entry points; returns the original functions by name.

    ``modules`` maps "cli", "sweep", "montecarlo", "analytic" and "channel" to
    the imported fama_idet modules.  The wrapped ``sweep._evaluate_cell`` keeps
    its module and qualified name, so the pool still pickles it by reference
    and forked workers run the wrapper they inherited.
    """
    cli, sweep, mc, an, ch = (modules[k] for k in ("cli", "sweep", "montecarlo", "analytic", "channel"))
    originals = {}

    def rebind(module, attr, name, attrs=None):
        fn = originals[attr] = getattr(module, attr)
        wrapped = _wrap(tracer, fn, name, attrs)
        setattr(module, attr, wrapped)
        return wrapped

    rebind(cli, "spec_from_config", "cli.spec_from_config")
    rebind(cli, "run_sweep", "sweep.run_sweep")
    rebind(sweep, "write_result", "sweep.write_result")
    rebind(sweep, "render", "sweep.render")
    rebind(sweep, "_evaluate_cell", "sweep.cell")
    rebind(sweep, "simulate_outage_counts", "montecarlo.simulate_outage_counts",
           lambda cfg, trials, *a, **kw: {"trials": int(trials)})
    rebind(ch, "mu_from_w", "specfun.mu_from_w")
    rebind(an, "marcum_q_outer", "specfun.marcum_q_outer",
           lambda order, a, b, *r, **kw: {"entries": int(np.size(a) * np.size(b))})

    for attr in EXACT_EVALUATORS:
        wrapped = rebind(an, attr, f"analytic.{attr}",
                         lambda ctx, *a, **kw: {"ctx": dataclasses.asdict(ctx),
                                                "default_quad": not a and not kw})
        for metric, fn in list(sweep._EXACT_RAYLEIGH.items()):
            if fn is originals[attr]:
                sweep._EXACT_RAYLEIGH[metric] = wrapped

    substream = mc.substream
    originals["substream"] = substream

    def traced_substream(seed, cell, block):
        with tracer.span("montecarlo.substream"):
            gen = substream(seed, cell, block)
        if not tracer.enabled:
            return gen
        return _TimedGenerator(gen, tracer, f"{os.getpid()}:{cell}:{block}")

    mc.substream = functools.wraps(substream)(traced_substream)
    return originals


def _total(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _count(spans, name):
    return sum(1 for s in spans if s["name"] == name)


def layer_metrics(spans: list[dict], extras: dict) -> dict:
    """Per-layer metrics from the spans of one traced run plus measured extras.

    ``extras`` carries what spans cannot give: ``import_s``, the
    ``no_recheck_s`` timings, ``parallel_efficiency`` and ``overhead_s``.
    """
    simulate_s = _total(spans, "montecarlo.simulate_outage_counts")
    sample_s = _total(spans, "montecarlo.standard_normal")
    trials = sum(s["trials"] for s in spans if s["name"] == "montecarlo.simulate_outage_counts")
    per_block = {}
    for s in spans:
        if s["name"] == "montecarlo.standard_normal":
            per_block[s["block"]] = per_block.get(s["block"], 0) + s["bytes"]
    exact_spans = [s for s in spans if s["name"].startswith("analytic.")]
    default_exact_s = sum(s["end"] - s["start"] for s in exact_spans if s["default_quad"])
    m = {
        "setup.import_s": extras["import_s"],
        "specfun.mu_from_w_calls": _count(spans, "specfun.mu_from_w"),
        "specfun.mu_from_w_s": _total(spans, "specfun.mu_from_w"),
        "cli.parse_s": _total(spans, "cli.spec_from_config"),
        "montecarlo.simulate_calls": _count(spans, "montecarlo.simulate_outage_counts"),
        "montecarlo.simulate_s": simulate_s,
        "montecarlo.trials_per_s": trials / simulate_s if simulate_s else 0.0,
        "montecarlo.blocks": _count(spans, "montecarlo.substream"),
        "montecarlo.sample_s": sample_s,
        "montecarlo.reduce_s": simulate_s - sample_s,
        "montecarlo.block_bytes": max(per_block.values(), default=0),
        "analytic.exact_calls": len(exact_spans),
    }
    for attr in EXACT_EVALUATORS:
        m[f"analytic.{attr}_s"] = _total(spans, f"analytic.{attr}")
    m.update({
        "analytic.recheck_s": default_exact_s - extras["no_recheck_s"] if exact_spans else 0.0,
        "specfun.marcum_calls": _count(spans, "specfun.marcum_q_outer"),
        "specfun.marcum_s": _total(spans, "specfun.marcum_q_outer"),
        "specfun.marcum_entries": sum(s["entries"] for s in spans
                                      if s["name"] == "specfun.marcum_q_outer"),
        "sweep.cells": _count(spans, "sweep.cell"),
        "sweep.run_s": _total(spans, "sweep.run_sweep"),
        "sweep.render_s": _total(spans, "sweep.render"),
        "sweep.write_s": _total(spans, "sweep.write_result"),
        "sweep.parallel_efficiency": extras["parallel_efficiency"],
        "trace.overhead_s": extras["overhead_s"],
    })
    return m
