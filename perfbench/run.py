"""Benchmark of the pseudotherm command line, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed sequence of `pseudotherm` subcommands (steps).  Each
step runs in a fresh Python process, so the per-point caches start cold, as
they do for a user.  The seed picks one of VARIANTS shifted copies of each
step's grid; each copy has its seed-commit tables stored under
`reference/STEP/vK/`, and every step's tables are checked against them.

With --trace 0 the workload is repeated until --seconds have passed (at
least MIN_RUNS times) and the medians of wall_s, setup_s, cpu_s and
peak_rss_mb are reported.  With --trace 1 untraced and traced repetitions
alternate; the traced ones give the per-layer metrics (see spans.py), their
tables must equal the untraced ones byte for byte, and the median tracing
overhead is reported.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A per-run record with the environment goes
to .perfbench/results/.  The human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
WORK = ROOT / ".perfbench"

VARIANTS = 8
MIN_RUNS = 3
# Start no new repetition after RUN_BUDGET_S, and stop any step at
# DEADLINE_S, so that a run ends within 180 s even when the program hangs.
RUN_BUDGET_S = 120
DEADLINE_S = 170

# Float cells match when |got - ref| <= FLOAT_RTOL * max(|got|, |ref|) + FLOAT_ATOL.
# Summation-order changes move the printed 12th digit; bisection results
# (T_c, cycle alphas) may move by their own 1e-8 tolerance.
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9
EXACT_COLUMNS = {"z_sign", "valid", "feasible", "degenerate", "reason", "kind"}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _isotherm(k):
    return [
        "--g", "1.73", "spinodal", "--t-values", "0.144",
        "--alpha-min", f"{0.2 + 0.001 * k:.4f}", "--alpha-max", f"{0.4 + 0.001 * k:.4f}",
        "--alpha-steps", "15",
    ]


def _tc_map(k):
    return [
        "--workers", "2", "tc-map",
        "--alpha-min", f"{0.002 * k:.4f}", "--alpha-max", f"{1.2 + 0.002 * k:.4f}",
        "--alpha-steps", "6", "--g-values", "1.0,1.73",
    ]


def _carnot(k):
    return [
        "--config", str(HERE / "carnot_system.json"), "--g", "1.73",
        "cycle", "--kind", "carnot",
        "--t-values", f"{0.4 + 0.005 * k:.4f},0.7", "--x-values", "3.5,4.5,5.5",
    ]


def _thermo_gap(k):
    return [
        "--alpha", "0.36", "--g", "1.73", "thermo",
        "--t-min", "0.05", "--t-max", f"{15 + 0.1 * k:.2f}", "--t-steps", "120", "--gap",
    ]


def _count(table, column, pred):
    cols, rows = table
    i = cols.index(column)
    return sum(1 for r in rows if pred(r[i]))


# step -> (argv for variant k, tables written, physics counts over those tables)
STEPS = {
    "isotherm": (
        _isotherm,
        ["spinodal_loci.tsv", "spinodal_intervals.tsv"],
        {"spinodal_intervals": lambda t: _count(
            t["spinodal_intervals.tsv"], "kind", lambda v: v == "spinodal")},
    ),
    "tc-map": (
        _tc_map,
        ["tc_map.tsv"],
        {"nonzero_tc": lambda t: _count(t["tc_map.tsv"], "T_c", lambda v: float(v) != 0.0)},
    ),
    "carnot-grid": (
        _carnot,
        ["cycle_carnot.tsv", "cycle_carnot_max_by_x.tsv", "cycle_carnot_max_by_t.tsv"],
        {"infeasible_cells": lambda t: _count(
            t["cycle_carnot.tsv"], "feasible", lambda v: v == "0")},
    ),
    "thermo-gap": (
        _thermo_gap,
        ["thermo.tsv"],
        {"invalid_rows": lambda t: _count(t["thermo.tsv"], "valid", lambda v: v == "0")},
    ),
}

# fresh: every parameter point is new, so the per-point caches are bypassed.
# revisit: points and tables are reused, so the caches and the per-table
# work set the cost.
WORKLOADS = {
    "fresh": ("isotherm", "tc-map"),
    "revisit": ("carnot-grid", "thermo-gap"),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


# ------------------------------------------------------------------ tables


def read_table(path: Path):
    """(comment lines, columns, rows) of one TSV the CLI wrote."""
    comments, columns, rows = [], None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif columns is None:
            columns = line.split("\t")
        elif line:
            rows.append(line.split("\t"))
    return comments, columns, rows


def _float_close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y):
        return False
    return abs(x - y) <= FLOAT_RTOL * max(abs(x), abs(y)) + FLOAT_ATOL


def compare_tables(step: str, got: Path, ref: Path) -> list[str]:
    """Differences between the tables in `got` and the reference tables."""
    _, names, counts = STEPS[step]
    problems, got_tables, ref_tables = [], {}, {}
    for name in names:
        if not (got / name).is_file() or not (ref / name).is_file():
            problems.append(f"{name}: not written, or no reference table")
            continue
        g_com, g_cols, g_rows = read_table(got / name)
        r_com, r_cols, r_rows = read_table(ref / name)
        got_tables[name], ref_tables[name] = (g_cols, g_rows), (r_cols, r_rows)
        if g_com != r_com:
            problems.append(f"{name}: configuration block differs")
        if g_cols != r_cols:
            problems.append(f"{name}: columns {g_cols} != {r_cols}")
            continue
        if len(g_rows) != len(r_rows):
            problems.append(f"{name}: {len(g_rows)} rows, reference has {len(r_rows)}")
            continue
        for i, (g_row, r_row) in enumerate(zip(g_rows, r_rows)):
            for col, a, b in zip(r_cols, g_row, r_row):
                same = a == b if col in EXACT_COLUMNS else _float_close(a, b)
                if not same:
                    problems.append(f"{name} row {i} {col}: {a} != reference {b}")
    if not problems:
        for key, fn in counts.items():
            g, r = fn(got_tables), fn(ref_tables)
            if g != r:
                problems.append(f"{key}: {g} != reference {r}")
    return problems


def same_bytes(names, a: Path, b: Path) -> list[str]:
    """Names of the tables whose bytes differ between directories a and b."""
    return [n for n in names if (a / n).read_bytes() != (b / n).read_bytes()]


# ------------------------------------------------------------- invocations


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PSEUDOTHERM_CONFIG"}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def invoke(step: str, k: int, trace: bool, workdir: Path, env: dict,
           deadline: float = math.inf) -> dict:
    """Run one step in a cold process and check its tables; returns its record."""
    shutil.rmtree(workdir, ignore_errors=True)
    out = workdir / "out"
    out.mkdir(parents=True)
    result = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result), "1" if trace else "0",
           str(SRC), "--", "--out", str(out), *STEPS[step][0](k)]
    spawn = time.monotonic()
    timeout = None if deadline == math.inf else max(1.0, deadline - spawn)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"{step}: stopped at the run's deadline after {timeout:.0f} s"]}
    if proc.returncode != 0 or not result.is_file():
        tail = (proc.stderr or "").strip().splitlines()[-3:]
        return {"problems": [f"{step}: child exited {proc.returncode}: {' | '.join(tail)}"]}
    rec = json.loads(result.read_text(encoding="utf-8"))
    rec["setup_s"] = rec["ready"] - spawn
    rec["out"] = out
    problems = list(rec.get("trace_problems", []))
    if rec["rc"] != 0:
        problems.append(f"pseudotherm exited {rec['rc']}: {proc.stderr.strip()[-300:]}")
    elif not Path(rec["module"]).is_relative_to(SRC):
        problems.append(f"imported {rec['module']}, not the checkout's src/")
    else:
        problems += compare_tables(step, out, REFERENCE / step / f"v{k}")
    rec["problems"] = [f"{step}: {p}" for p in problems]
    return rec


def repeat(workload: str, k: int, trace: bool, workdir: Path, env: dict,
           deadline: float = math.inf) -> dict:
    """One repetition of the workload: each step once, in order."""
    steps = {s: invoke(s, k, trace, workdir / s, env, deadline) for s in WORKLOADS[workload]}
    rec = {"steps": steps, "problems": [p for r in steps.values() for p in r["problems"]]}
    if not rec["problems"]:
        recs = steps.values()
        rec.update(
            wall_s=sum(r["wall_s"] for r in recs),
            cpu_s=sum(r["cpu_s"] for r in recs),
            peak_rss_mb=max(r["peak_rss_mb"] for r in recs),
            setups=[r["setup_s"] for r in recs],
        )
    return rec


# ---------------------------------------------------------------- records


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return None
    return ref


def environment(env: dict) -> dict:
    import numpy as np
    from importlib.metadata import PackageNotFoundError, version

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {k: deps.get(k, {}).get("name") for k in ("blas", "lapack")},
        "blas_version": deps.get("blas", {}).get("version"),
        "blas_config": deps.get("blas", {}).get("openblas configuration"),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: env[k] for k in THREAD_VARS},
    }


# -------------------------------------------------------------------- runs


def _more(start, seconds, done, least):
    elapsed = time.monotonic() - start
    return (done < least or elapsed < seconds) and elapsed < RUN_BUDGET_S


def run_timed(workload, k, seconds, env, work):
    """Repeat the workload untraced; medians of the end-to-end metrics."""
    start = time.monotonic()
    records = []
    while _more(start, seconds, len(records), MIN_RUNS):
        records.append(repeat(workload, k, False, work, env, start + DEADLINE_S))
    good = [r for r in records if not r["problems"]]
    metrics = {
        name: statistics.median(r[name] for r in good) if good else 0.0
        for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    setups = [s for r in good for s in r["setups"]]
    metrics["setup_s"] = statistics.median(setups) if setups else 0.0
    return records, metrics, dict(END_TO_END)


def run_traced(workload, k, seconds, env, work):
    """Alternate untraced and traced repetitions; per-layer medians."""
    start = time.monotonic()
    records, pairs = [], []
    while _more(start, seconds, len(pairs), 1):
        order = (False, True) if len(pairs) % 2 == 0 else (True, False)
        pair = {t: repeat(workload, k, t, work / f"trace{int(t)}", env, start + DEADLINE_S)
                for t in order}
        if not pair[False]["problems"] and not pair[True]["problems"]:
            for step in WORKLOADS[workload]:
                diff = same_bytes(STEPS[step][1], pair[False]["steps"][step]["out"],
                                  pair[True]["steps"][step]["out"])
                if diff:
                    pair[True]["problems"].append(f"{step}: traced tables differ: {diff}")
        if not pairs:
            for step in WORKLOADS[workload]:
                src = work / "trace1" / step / "spans.tsv"
                if src.is_file():
                    shutil.copy(src, WORK / "results" / f"{workload}-{step}-spans.tsv")
            if not pair[True]["problems"]:
                for step, rec in pair[True]["steps"].items():
                    _print_shares(step, rec)
        records += [pair[False], pair[True]]
        pairs.append(pair)

    ok = [p for p in pairs if not p[False]["problems"] and not p[True]["problems"]]
    layers = [
        spans.layer_metrics([r["layer_totals"] for r in p[True]["steps"].values()]) for p in ok
    ]
    metrics = {
        name: statistics.median(m[name] for m in layers) if layers else 0.0
        for name in spans.LAYER_METRICS
    }
    metrics["trace.overhead_s"] = statistics.median(
        p[True]["wall_s"] - p[False]["wall_s"] for p in ok
    ) if ok else 0.0
    return records, metrics, {name: _unit(name) for name in metrics}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith(".rows"):
        return "rows"
    return "count"


def _print_shares(step, rec):
    """Self time of a traced step by span, then summed by layer (module)."""
    print(f"self time by span, traced {step} ({rec['wall_s']:.3f} s):", file=sys.stderr)
    print(f"  {'span':34s} {'calls':>8s} {'incl_s':>9s} {'self_s':>9s} {'share':>7s}",
          file=sys.stderr)
    layers = {}
    for name, calls, incl, own, share in rec["shares"]:
        print(f"  {name:34s} {calls:8d} {incl:9.4f} {own:9.4f} {100 * share:6.2f}%",
              file=sys.stderr)
        layer = layers.setdefault(name.split(".")[0], [0.0, 0.0])
        layer[0] += own
        layer[1] += share
    print("  by layer: " + ", ".join(
        f"{name} {own:.3f} s ({100 * share:.1f}%)"
        for name, (own, share) in sorted(layers.items(), key=lambda kv: -kv[1][0])
    ), file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pseudotherm" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}/pseudotherm", file=sys.stderr)
        return 2
    k = args.seed % VARIANTS
    missing = [s for s in WORKLOADS[args.workload] if not (REFERENCE / s / f"v{k}").is_dir()]
    if missing:
        print(f"perfbench: no reference tables for {missing} v{k}", file=sys.stderr)
        return 2

    env = child_env()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "pseudotherm")],
                   env=env, check=True)
    work = WORK / f"work-{os.getpid()}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    load_start = os.getloadavg()
    try:
        runner = run_traced if args.trace else run_timed
        records, metrics, units = runner(args.workload, k, args.seconds, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_end = os.getloadavg()

    failed = [r for r in records if r["problems"]]
    for r in failed:
        print(f"FAILED: {'; '.join(r['problems'][:5])}", file=sys.stderr)
    summary = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": k,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": {s: STEPS[s][0](k) for s in WORKLOADS[args.workload]},
        "environment": environment(env),
        "load_avg_start": load_start,
        "load_avg_end": load_end,
        "error_rate": len(failed) / len(records),
        "samples": [
            {
                "problems": r["problems"],
                **{s: {m: sr.get(m) for m in END_TO_END} for s, sr in r["steps"].items()},
            }
            for r in records
        ],
        "result": summary,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"{args.workload} seed {args.seed} (variant {k}): {len(records)} repetitions, "
          f"{len(failed)} failed, error_rate {record['error_rate']:.3f}", file=sys.stderr)
    for n, v in metrics.items():
        print(f"  {n:40s} {v:14.6f} {units[n]}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
