"""One workload process: runs the fama-idet CLI once and reports its timings.

Started by ``run.py`` as

    python3 bench/child.py REPORT LAUNCH [--probe] [--trace DIR] -- CLI ARGS...

LAUNCH is the CLOCK_MONOTONIC time at which the parent started this process.
Set-up ends when ``cli.spec_from_config`` returns, i.e. once the package is
imported and every cell's SystemConfig (with its ``mu_from_w``) is built.
``--probe`` stops there.  ``--trace DIR`` installs the span wrappers of
``tracing.py`` and writes the spans to DIR/spans.jsonl; after the traced CLI
run it also times what the spans cannot show (the evaluators without their
1.5x re-check, and run_sweep at 1 and 2 workers).
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path


class _ConfigReady(Exception):
    """Raised by the probe once the CLI's config is built."""


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    report_path, launch = Path(own[0]), float(own[1])
    probe = "--probe" in own
    trace_dir = Path(own[own.index("--trace") + 1]) if "--trace" in own else None

    t0 = time.monotonic()
    from fama_idet import analytic, channel, cli, montecarlo, sweep
    import_s = time.monotonic() - t0

    tracer = originals = None
    if trace_dir is not None:
        import tracing
        tracer = tracing.Tracer(trace_dir)
        originals = tracing.install(tracer, {"cli": cli, "sweep": sweep, "montecarlo": montecarlo,
                                             "analytic": analytic, "channel": channel})

    marks = {}
    build_spec = cli.spec_from_config

    def spec_ready(*args, **kwargs):
        spec = build_spec(*args, **kwargs)
        marks["ready"] = time.monotonic()
        marks["spec"] = spec
        if probe:
            raise _ConfigReady
        return spec

    cli.spec_from_config = spec_ready
    try:
        rc = cli.main(cli_args)
    except _ConfigReady:
        rc = 0
    end = time.monotonic()

    report = {"rc": rc, "import_s": import_s, "setup_s": marks["ready"] - launch,
              "wall_s": end - marks["ready"], "package": str(Path(cli.__file__).parent)}
    if tracer is not None:
        tracer.enabled = False
        report["extras"] = _extras(marks["spec"], tracer, originals, analytic)
        (trace_dir / "spans.jsonl").write_text(
            "".join(json.dumps(s) + "\n" for s in tracer.collect()))
    report_path.write_text(json.dumps(report))
    return 0


def _extras(spec, tracer, originals, analytic) -> dict:
    """Timings the spans of the traced run cannot give."""
    no_recheck_s = 0.0
    quick = analytic.QuadratureSpec(richardson_check=False)
    for s in tracer.collect():
        if s["name"].startswith("analytic.") and s["default_quad"]:
            fn = originals[s["name"].split(".", 1)[1]]
            ctx = analytic.KernelContext(**s["ctx"])
            t0 = time.perf_counter()
            fn(ctx, quick)
            no_recheck_s += time.perf_counter() - t0

    efficiency = 0.0  # a single cell never starts the pool
    if spec.axis and len(spec.values) > 1:
        scratch = dataclasses.replace(spec, output_path=str(tracer.spill_dir / "efficiency.out"))
        seconds = {}
        for workers in (1, 2):
            t0 = time.perf_counter()
            originals["run_sweep"](scratch, workers=workers)
            seconds[workers] = time.perf_counter() - t0
        efficiency = seconds[1] / (2.0 * seconds[2])
    return {"no_recheck_s": no_recheck_s, "parallel_efficiency": efficiency}


if __name__ == "__main__":
    sys.exit(main())
