"""Make ``reference.json``: outage counts from the explicit Gaussian composition.

This route draws each trial's K x N gain matrix with ``channel.generate_rayleigh``,
forms the per-port statistics with ``channel.port_statistics``, picks ports
with ``strategy.select_wdt_port`` / ``select_wet_port`` and tests the chosen
ports with ``channel.sinr_at_port`` / ``ehp_at_port``.  It shares no code with
``montecarlo`` (block sampler, Philox substreams, counting) or ``analytic``,
so the benchmark checks both of them against it.

Run from the repository root (about 6 minutes on 2 cores):

    python3 bench/make_reference.py

The cells are read from ``workloads/``: the reference cell from
``ref-mc.cfg`` (``ref-exact.cfg`` must give the same cell) and one cell per
K from ``port-sweep.cfg``.  Trials are split into chunks, each on its own
``SeedSequence(SEED, spawn_key=(cell, chunk))`` stream, so the counts do not
depend on the worker count.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from checks import read_cells  # noqa: E402
from fama_idet.channel import (SystemConfig, ehp_at_port, generate_rayleigh,  # noqa: E402
                               port_statistics, sinr_at_port)
from fama_idet.strategy import select_wdt_port, select_wet_port  # noqa: E402

SEED = 20260717
TRIALS = 1_000_000  # per cell
CHUNK = 50_000
WORKERS = 2
METRICS = ("WDT_SINR", "WET_SINR", "WDT_EHP", "WET_EHP", "IDET_SPECIAL", "IDET_GENERAL")


def cells():
    """(name, SystemConfig keywords) of every cell, as the workload configs give them."""
    ref_cell = read_cells(HERE / "workloads" / "ref-mc.cfg")
    if read_cells(HERE / "workloads" / "ref-exact.cfg") != ref_cell:
        raise SystemExit("ref-mc.cfg and ref-exact.cfg give different cells")
    yield "ref-cell", ref_cell[""]
    for axis, cell in read_cells(HERE / "workloads" / "port-sweep.cfg").items():
        yield f"port-sweep/{axis}", cell


def count_chunk(cell_index: int, kwargs: dict, chunk: int, trials: int) -> dict:
    cfg = SystemConfig(**kwargs)
    rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(cell_index, chunk)))
    counts = dict.fromkeys(METRICS, 0)
    for _ in range(trials):
        real = generate_rayleigh(cfg, 0, rng)
        ps = port_statistics(real, cfg)
        kd, ke = select_wdt_port(ps).port, select_wet_port(ps).port
        wdt_fail = sinr_at_port(real, kd) < cfg.sinr_threshold
        wet_fail = ehp_at_port(real, ke, cfg) < cfg.ehp_threshold
        counts["WDT_SINR"] += wdt_fail
        counts["WET_EHP"] += wet_fail
        counts["WET_SINR"] += ehp_at_port(real, kd, cfg) < cfg.ehp_threshold
        counts["WDT_EHP"] += sinr_at_port(real, ke) < cfg.sinr_threshold
        counts["IDET_SPECIAL"] += wdt_fail and wet_fail
        counts["IDET_GENERAL"] += wdt_fail or wet_fail
    return {m: int(v) for m, v in counts.items()}


def main() -> int:
    all_cells = dict(cells())
    tasks = [(i, name, kwargs, c) for i, (name, kwargs) in enumerate(all_cells.items())
             for c in range(TRIALS // CHUNK)]
    with ProcessPoolExecutor(WORKERS, mp_context=get_context("spawn")) as pool:
        futures = [(name, pool.submit(count_chunk, i, kwargs, c, CHUNK))
                   for i, name, kwargs, c in tasks]
        totals = {}
        for name, fut in futures:
            acc = totals.setdefault(name, dict.fromkeys(METRICS, 0))
            for m, v in fut.result().items():
                acc[m] += v

    doc = {
        "sampler": "channel.generate_rayleigh + port_statistics + strategy.select_*",
        "command": "python3 bench/make_reference.py",
        "seed": SEED,
        "ref-cell": {"config": all_cells["ref-cell"], "trials": TRIALS,
                     "counts": totals["ref-cell"]},
        "port-sweep": {
            name.split("/")[1]: {"config": kwargs, "trials": TRIALS, "counts": totals[name]}
            for name, kwargs in all_cells.items() if name.startswith("port-sweep/")
        },
    }
    out = HERE / "reference.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
