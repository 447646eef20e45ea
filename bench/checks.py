"""Output checks for the benchmark workloads.

Every check compares a value against a route apart from the one that made
it: MC rows against the stored explicit-composition estimate
(``reference.json``) or a closed form, EXACT rows against the same stored
estimate or a scipy quadrature, plus count identities and orderings that
hold by construction.  A check returns ``{row key: [reasons]}`` for the rows
it flags; a row is one output value, keyed ``(axis, metric, method)``.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

from scipy import integrate, stats

# Half-width of every interval in standard errors.  A correct value falls
# outside with probability ~2e-9 per check, so the failed set does not move
# from seed to seed; a value 6 standard errors off is flagged.
Z = 6.0
# EXACT against a closed form or a scipy quadrature: the evaluators' own
# convergence gate is 10 * rel_tol_target = 1e-5.
QUAD_TOL = 1e-5
# Orderings among quadrature values allow for their independent rounding.
ORDER_TOL = 1e-9

METRICS = ("WDT_SINR", "WET_SINR", "WDT_EHP", "WET_EHP", "IDET_SPECIAL", "IDET_GENERAL")

# Output values that fail today, per workload, because idet_special_exact
# (analytic.py) reads its inner (v1, v2) matrix as (v2, v1), swapping the
# chi2(2) and chi2(2(N-1)) conditioner weights; IDET_GENERAL EXACT inherits
# the error through the addition law.  A flagged row outside its workload's
# set makes the run incorrect.
KNOWN_FAILED = {
    "ref-mc": frozenset(),
    "ref-exact": frozenset({("", "IDET_SPECIAL", "EXACT"), ("", "IDET_GENERAL", "EXACT")}),
    "port-sweep": frozenset({(k, "IDET_SPECIAL", "EXACT") for k in ("1", "2", "4", "8")}
                            | {(k, "IDET_GENERAL", "EXACT") for k in ("1", "2", "4")}),
}

# The cell parameters a workload config may set.  The rest of SystemConfig
# keeps its defaults, which the K = 1 closed forms spell out here so that
# they do not read the program's config.
CELL_KEYS = ("n_users", "n_ports", "fa_size", "ps_ratio", "sinr_threshold", "ehp_threshold")
RUN_KEYS = ("trials", "sweep.axis", "sweep.values", "sweep.metrics")
TX_POWER_W, DISTANCE_M, PATHLOSS_EXP = 1.0, 10.0, 2.0
# A stored reference cell must equal the workload's cell to this tolerance.
CONFIG_RTOL = 1e-12


def _number(token: str) -> float:
    """'3 dB' -> linear, '110 mW' -> watts, else a plain number."""
    t = token.strip()
    if t.endswith("dB"):
        return 10.0 ** (float(t[:-2]) / 10.0)
    if t.endswith("mW"):
        return float(t[:-2]) * 1e-3
    return float(t)


def read_cells(path) -> dict:
    """A workload config -> {axis: SystemConfig keywords}, axis '' for one cell.

    A parser of its own, so that the config file is the one place a cell is
    defined and ``reference.json`` can be matched against it.  Keys outside
    ``CELL_KEYS`` and ``RUN_KEYS`` are refused.
    """
    fields = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = (part.strip() for part in line.partition("="))
        if key not in CELL_KEYS + RUN_KEYS:
            raise ValueError(f"{path}: key {key!r} is not a benchmark cell parameter")
        fields[key] = raw

    def cell(extra):
        raw = dict(fields, **extra)
        missing = [k for k in CELL_KEYS if k not in raw]
        if missing:
            raise ValueError(f"{path}: cell parameters missing: {missing}")
        return {k: int(raw[k]) if k in ("n_users", "n_ports") else _number(raw[k])
                for k in CELL_KEYS}

    if "sweep.axis" not in fields:
        return {"": cell({})}
    axis = fields["sweep.axis"]
    return {v.strip(): cell({axis: v.strip()}) for v in fields["sweep.values"].split(",")}


def reference_cells(reference: dict, section: str) -> dict:
    """{axis: stored cell} for one section of ``reference.json``."""
    cells = reference[section]
    return {"": cells} if "counts" in cells else cells


def match_reference(cells: dict, ref_cells: dict) -> None:
    """Raise ValueError unless the stored cells were made for these cells."""
    if set(cells) != set(ref_cells):
        raise ValueError(f"reference cells {sorted(ref_cells)} are not the workload's {sorted(cells)}")
    for axis, cell in cells.items():
        stored = ref_cells[axis]["config"]
        if set(stored) != set(cell) or any(
                not math.isclose(stored[k], v, rel_tol=CONFIG_RTOL) for k, v in cell.items()):
            raise ValueError(f"reference cell {axis or '-'} {stored} is not the workload's {cell};"
                             " remake it with python3 bench/make_reference.py")


def unexpected(workload: str, flagged: dict) -> list:
    """Flagged rows that are not known to fail on this workload."""
    return sorted(k for k in flagged if k not in KNOWN_FAILED[workload])


def parse_rows(text: str) -> dict:
    """CSV output of the CLI -> {(axis, metric, method): row dict}."""
    body = "".join(line for line in io.StringIO(text) if not line.startswith("#"))
    rows = {}
    for row in csv.DictReader(io.StringIO(body)):
        key = (row["axis"], row["metric"], row["method"])
        if key in rows:
            raise ValueError(f"duplicate row {key}")
        rows[key] = row
    return rows


def count(row) -> int:
    """Integer MC count behind a row; the value is count / trials exactly."""
    trials = int(row["trials"])
    c = round(float(row["value"]) * trials)
    if abs(c - float(row["value"]) * trials) > 1e-6:
        raise ValueError(f"MC value {row['value']} is not a count over {trials}")
    return c


def wilson(x: int, n: int, z: float = Z) -> tuple[float, float]:
    """Wilson score interval for x successes in n trials (Wilson, JASA 1927).

    Unlike the Wald interval its width stays positive at x = 0 and x = n.
    """
    p = x / n
    z2 = z * z
    centre = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = z / (1 + z2 / n) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return max(0.0, centre - half), min(1.0, centre + half)


def same_proportion(x1: int, n1: int, x2: int, n2: int, z: float = Z) -> bool:
    """Newcombe's hybrid score interval for p1 - p2 contains 0.

    Built from the two Wilson intervals, so it is valid at zero counts.
    """
    p1, p2 = x1 / n1, x2 / n2
    l1, u1 = wilson(x1, n1, z)
    l2, u2 = wilson(x2, n2, z)
    d = p1 - p2
    lo = d - math.sqrt((p1 - l1) ** 2 + (u2 - p2) ** 2)
    hi = d + math.sqrt((u1 - p1) ** 2 + (p2 - l2) ** 2)
    return lo <= 0.0 <= hi


def _flag(out: dict, key, reason: str) -> None:
    out.setdefault(key, []).append(reason)


def _mc_vs_reference(rows, axis, ref_cell, out):
    n_ref = ref_cell["trials"]
    for m in METRICS:
        key = (axis, m, "MC")
        if key not in rows:
            continue
        row = rows[key]
        x, n = count(row), int(row["trials"])
        if not same_proportion(x, n, ref_cell["counts"][m], n_ref):
            _flag(out, key, f"MC {x}/{n} differs from the explicit sampler's "
                            f"{ref_cell['counts'][m]}/{n_ref}")


def _exact_vs_reference(rows, axis, ref_cell, out):
    n_ref = ref_cell["trials"]
    for m in METRICS:
        key = (axis, m, "EXACT")
        if key not in rows:
            continue
        lo, hi = wilson(ref_cell["counts"][m], n_ref)
        v = float(rows[key]["value"])
        if not lo <= v <= hi:
            _flag(out, key, f"EXACT {v:.6g} outside the explicit sampler's "
                            f"Wilson interval [{lo:.6g}, {hi:.6g}]")


def _identities(rows, axis, method, out):
    """Addition law and orderings among the six values of one cell.

    MC counts come from the same draws, so they hold exactly; quadrature
    values hold them up to their independent rounding.
    """
    if method == "MC":
        v, tol = {m: count(rows[(axis, m, method)]) for m in METRICS}, 0
    else:
        v, tol = {m: float(rows[(axis, m, method)]["value"]) for m in METRICS}, ORDER_TOL
    keys = {m: (axis, m, method) for m in METRICS}
    if abs(v["IDET_GENERAL"] - (v["WDT_SINR"] + v["WET_EHP"] - v["IDET_SPECIAL"])) > tol:
        for m in ("IDET_GENERAL", "WDT_SINR", "WET_EHP", "IDET_SPECIAL"):
            _flag(out, keys[m], "addition law fails")
    if v["IDET_SPECIAL"] > min(v["WDT_SINR"], v["WET_EHP"]) + tol:
        _flag(out, keys["IDET_SPECIAL"], "IDET_SPECIAL exceeds min(WDT_SINR, WET_EHP)")
    if v["WDT_SINR"] > v["WDT_EHP"] + tol:
        _flag(out, keys["WDT_SINR"], "WDT_SINR exceeds WDT_EHP")
    if v["WET_EHP"] > v["WET_SINR"] + tol:
        _flag(out, keys["WET_EHP"], "WET_EHP exceeds WET_SINR")


def check_ref_mc(rows: dict, ref_cells: dict) -> dict:
    out = {}
    _mc_vs_reference(rows, "", ref_cells[""], out)
    _identities(rows, "", "MC", out)
    return out


def check_ref_exact(rows: dict, ref_cells: dict) -> dict:
    out = {}
    _exact_vs_reference(rows, "", ref_cells[""], out)
    _identities(rows, "", "EXACT", out)
    return out


def single_port_idet_special(n: int, gamma: float, t: float) -> float:
    """P(X < gamma Y, X + Y < t) for X ~ chi2(2), Y ~ chi2(2(n-1)) independent.

    At K = 1 this is IDET_SPECIAL: the port's SIR X/Y and its harvested power
    (proportional to X + Y) both miss their thresholds.
    """
    fx, fy = stats.chi2(2), stats.chi2(2 * (n - 1))
    kink = t / (1.0 + gamma)  # gamma y = t - y

    def integrand(y):
        return fy.pdf(y) * fx.cdf(min(gamma * y, t - y))

    return sum(integrate.quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12)[0]
               for a, b in ((0.0, kink), (kink, t)))


def single_port_values(cell: dict) -> dict:
    """Closed forms of a K = 1 cell, one per metric."""
    n, gamma = cell["n_users"], cell["sinr_threshold"]
    # harvest threshold in units of the chi2(2N) port power: Q_th d^beta / ((1-rho) P)
    t = cell["ehp_threshold"] * DISTANCE_M ** PATHLOSS_EXP / ((1.0 - cell["ps_ratio"]) * TX_POWER_W)
    wdt = 1.0 - (1.0 + gamma) ** -(n - 1)
    wet = float(stats.chi2.cdf(t, 2 * n))
    special = single_port_idet_special(n, gamma, t)
    return {"WDT_SINR": wdt, "WDT_EHP": wdt, "WET_EHP": wet, "WET_SINR": wet,
            "IDET_SPECIAL": special, "IDET_GENERAL": wdt + wet - special}


def _single_port(rows, axis, cell, out):
    closed = single_port_values(cell)
    for m, v in closed.items():
        mc = rows.get((axis, m, "MC"))
        if mc is not None:
            lo, hi = wilson(count(mc), int(mc["trials"]))
            if not lo <= v <= hi:
                _flag(out, (axis, m, "MC"), f"K=1 closed form {v:.6g} outside "
                                            f"the MC Wilson interval [{lo:.6g}, {hi:.6g}]")
        ex = rows.get((axis, m, "EXACT"))
        if ex is not None and abs(float(ex["value"]) - v) > QUAD_TOL:
            _flag(out, (axis, m, "EXACT"), f"K=1 EXACT {float(ex['value']):.6g} "
                                           f"differs from the closed form {v:.6g}")
    for a, b in (("WDT_SINR", "WDT_EHP"), ("WET_EHP", "WET_SINR")):
        if count(rows[(axis, a, "MC")]) != count(rows[(axis, b, "MC")]):
            _flag(out, (axis, a, "MC"), f"K=1 counts of {a} and {b} differ")


def check_port_sweep(rows: dict, ref_cells: dict) -> dict:
    out = {}
    axes = sorted({k[0] for k in rows}, key=float)
    for axis in axes:
        ref_cell = ref_cells[axis]
        _mc_vs_reference(rows, axis, ref_cell, out)
        _exact_vs_reference(rows, axis, ref_cell, out)
        _identities(rows, axis, "MC", out)
    _single_port(rows, "1", ref_cells["1"]["config"], out)
    exact_metrics = sorted({m for _, m, meth in rows if meth == "EXACT"})
    for m in exact_metrics:
        for prev, cur in zip(axes, axes[1:]):
            if float(rows[(cur, m, "EXACT")]["value"]) > float(rows[(prev, m, "EXACT")]["value"]) + ORDER_TOL:
                _flag(out, (cur, m, "EXACT"), f"EXACT rises from K={prev} to K={cur}")
    return out
