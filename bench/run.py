"""fama-idet benchmark: three workloads through the ``fama-idet`` CLI, with checks.

    python3 bench/run.py --workload {ref-mc,ref-exact,port-sweep,all} \
        --seed N --seconds S --trace {0,1}

Each workload process is ``bench/child.py`` running ``cli.main`` once on a
config from ``bench/workloads``.  With ``--trace 0`` the workload is rerun
in fresh processes until S seconds have passed, and the medians of the
end-to-end metrics are printed.  With ``--trace 1`` one untraced and one
traced process run, and the per-layer metrics are printed.  Every output
value is checked (``checks.py``); the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# One CLI process at a time, each numpy/scipy call on one BLAS thread; the
# only parallelism is port-sweep's two pool workers, so at most two busy
# threads on this 2-core box.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BUDGET_S = 170.0   # every run ends within 180 s
MIN_SETUPS = 7     # set-up samples per run; short runs add config-only probes


@dataclass(frozen=True)
class Workload:
    config: str
    command: tuple     # CLI subcommand and its fixed options
    values: int        # output values per CLI run
    check: object      # checks.check_* for the parsed rows
    reference: str     # its section of reference.json


WORKLOADS = {
    "ref-mc": Workload("ref-mc.cfg", ("eval",), 6, checks.check_ref_mc, "ref-cell"),
    "ref-exact": Workload("ref-exact.cfg", ("eval",), 6, checks.check_ref_exact, "ref-cell"),
    "port-sweep": Workload("port-sweep.cfg", ("sweep", "--workers", "2"), 70,
                           checks.check_port_sweep, "port-sweep"),
}


class BenchError(RuntimeError):
    """The workload could not be run or its output is malformed."""


def _cli_args(wl: Workload, seed: int, out: Path) -> list[str]:
    return [wl.command[0], str(HERE / "workloads" / wl.config), *wl.command[1:],
            "--seed", str(seed), "--out", str(out)]


def _run_child(tag: str, cli_args: list[str], deadline: float,
               probe: bool = False, trace_dir: Path | None = None) -> dict:
    """Run one workload process; its report plus CPU time and peak RSS."""
    report, log = OUT / f"{tag}.report.json", OUT / f"{tag}.log"
    report.unlink(missing_ok=True)
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{tag}: no time left in the {BUDGET_S:.0f} s budget")
    own = [str(report), repr(time.monotonic())]
    own += ["--probe"] if probe else []
    own += ["--trace", str(trace_dir)] if trace_dir else []
    with open(log, "w") as fh:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *own, "--", *cli_args],
                                cwd=ROOT, env=env, stdout=fh, stderr=fh, start_new_session=True)
    timer = threading.Timer(remaining, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        # wait4 reports the child's CPU time and peak RSS, including the pool
        # workers it has joined (their maximum, for the RSS)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not report.exists():
        tail = log.read_text()[-2000:]
        raise BenchError(f"{tag}: workload process exited {proc.returncode}\n{tail}")
    out = json.loads(report.read_text())
    if out["rc"] != 0:
        raise BenchError(f"{tag}: fama-idet exited {out['rc']}\n{log.read_text()[-2000:]}")
    if Path(out["package"]) != ROOT / "src" / "fama_idet":
        raise BenchError(f"{tag}: imported fama_idet from {out['package']}, not this checkout")
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return out


def _reference_cells(wl: Workload) -> dict:
    """The stored estimate for this workload's cells, refused if made for others."""
    reference = json.loads((HERE / "reference.json").read_text())
    ref_cells = checks.reference_cells(reference, wl.reference)
    try:
        checks.match_reference(checks.read_cells(HERE / "workloads" / wl.config), ref_cells)
    except ValueError as exc:
        raise BenchError(f"reference.json does not fit {wl.config}: {exc}") from exc
    return ref_cells


def _check(name: str, wl: Workload, text: str, ref_cells: dict, rounds: int) -> dict:
    """Check one CLI output; every round of a run wrote the same bytes."""
    try:
        rows = checks.parse_rows(text)
        if len(rows) != wl.values:
            raise ValueError(f"expected {wl.values} output values, got {len(rows)}")
        broken = [k for k, r in rows.items() if r["error"] or r["value"] == "NaN"]
        if broken:
            raise ValueError(f"rows with an evaluation error: {broken}")
        flagged = wl.check(rows, ref_cells)
    except (KeyError, ValueError) as exc:
        raise BenchError(f"{name}: malformed output: {exc}") from exc
    for key, reasons in sorted(flagged.items()):
        print(f"failed {name} axis={key[0] or '-'} {key[1]}:{key[2]}: {'; '.join(reasons)}")
    return {"correct": not checks.unexpected(name, flagged), "attempted": rounds * len(rows),
            "failed": rounds * len(flagged)}


def _read_outputs(paths: list[Path]) -> str:
    texts = {p.read_text() for p in paths}
    if len(texts) != 1:
        raise BenchError("output bytes differ between runs of the same workload and seed")
    return texts.pop()


def measure(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    wl = WORKLOADS[name]
    ref_cells = _reference_cells(wl)
    # compiles bytecode and warms the file cache; not counted
    _run_child(f"{name}-warmup", _cli_args(wl, seed, OUT / f"{name}-warmup.csv"), deadline, probe=True)
    if trace:
        return _measure_traced(name, wl, seed, ref_cells, deadline)

    reps, outs = [], []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        outs.append(OUT / f"{name}-{len(reps)}.csv")
        reps.append(_run_child(f"{name}-{len(reps)}", _cli_args(wl, seed, outs[-1]), deadline))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUPS:
        probe = _run_child(f"{name}-probe", _cli_args(wl, seed, OUT / f"{name}-probe.csv"),
                           deadline, probe=True)
        setups.append(probe["setup_s"])
    result = _check(name, wl, _read_outputs(outs), ref_cells, len(reps))
    result["metrics"] = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    result["samples"] = {"runs": len(reps), "setups": len(setups)}
    return result


def _measure_traced(name: str, wl: Workload, seed: int, ref_cells: dict, deadline: float) -> dict:
    plain_out, traced_out = OUT / f"{name}-untraced.csv", OUT / f"{name}-traced.csv"
    plain = _run_child(f"{name}-untraced", _cli_args(wl, seed, plain_out), deadline)
    trace_dir = OUT / f"trace-{name}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir()
    traced = _run_child(f"{name}-traced", _cli_args(wl, seed, traced_out), deadline,
                        trace_dir=trace_dir)
    if plain_out.read_bytes() != traced_out.read_bytes():
        raise BenchError(f"{name}: tracing changed the output bytes")
    result = _check(name, wl, plain_out.read_text(), ref_cells, 2)
    spans = [json.loads(line) for line in (trace_dir / "spans.jsonl").read_text().splitlines()]
    extras = dict(traced["extras"], import_s=traced["import_s"],
                  overhead_s=traced["wall_s"] - plain["wall_s"])
    result["metrics"] = tracing.layer_metrics(spans, extras)
    return result


def _with_units(metrics: dict, declared: list) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "fama_idet" / "__init__.py").is_file():
        print(f"error: no fama_idet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            # "all" is for people, not for a time budget: each workload gets its own
            budget = time.monotonic() + BUDGET_S if args.workload == "all" else deadline
            res = measure(name, args.seed, args.seconds, bool(args.trace), budget)
            res["metrics"] = _with_units(res["metrics"], declared)
            results[name] = res
            for metric, m in res["metrics"].items():
                print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
            if "samples" in res:
                print(f"{name} medians over {res['samples']['runs']} workload processes"
                      f" and {res['samples']['setups']} set-ups")
            print(f"{name} attempted = {res['attempted']} failed = {res['failed']}"
                  f" correct = {res['correct']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        summary = {n: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                   for n, r in results.items()}
        print(json.dumps({"workloads": summary}))
        return 0 if all(r["correct"] for r in results.values()) else 1
    res = results[args.workload]
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
