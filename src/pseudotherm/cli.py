"""Command-line interface: configuration, sweeps, and tabular output.

Every subcommand writes delimiter-separated text with a header naming the
columns and a comment block recording the fully resolved configuration, so
a run can be reproduced from its own output.  Floats are printed with 12
significant digits and nothing else varies between runs: identical config
means byte-identical files.

Exit codes: 0 success, 2 infeasible request (e.g. empty grid), 1 internal
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import spectral, stability, thermo
from .cycles import efficiency_grid
from .errors import InfeasibleRequest
from .model import G0_REFERENCE, ModelParams, fit_rescaling, fold_plan, rescale

CONFIG_ENV_VAR = "PSEUDOTHERM_CONFIG"

_MODEL_KEYS = {
    f"model.{f.name}": f.name
    for f in fields(ModelParams)
    if f.name not in ("Omega", "Omega1", "Omega2")
}
_SYSTEM_KEYS = {
    "system.Omega": "Omega",
    "system.Omega1": "Omega1",
    "system.Omega2": "Omega2",
}
VALID_KEYS = sorted(_MODEL_KEYS) + sorted(_SYSTEM_KEYS)


def params_from_mapping(mapping: dict) -> ModelParams:
    """Build ModelParams from flat `model.*` / `system.*` keys.

    Unknown keys are a hard error so a typo cannot silently fall back to a
    default.  A boolean number, a register size (system.Omega1/Omega2) that
    is not an integer, and any value ModelParams refuses are infeasible.
    """
    kwargs = {}
    for key, value in mapping.items():
        name = _MODEL_KEYS.get(key, _SYSTEM_KEYS.get(key))
        if name is None:
            raise ValueError(
                f"unknown configuration key {key!r}; valid keys: {', '.join(VALID_KEYS)}"
            )
        if name == "coupling_z":
            kwargs[name] = value
            continue
        if isinstance(value, bool):
            raise InfeasibleRequest(f"{key} must be a number, got {value!r}")
        kwargs[name] = float(value)
        if name in ("Omega1", "Omega2"):
            if not kwargs[name].is_integer():
                raise InfeasibleRequest(f"{key} must be an integer, got {value!r}")
            kwargs[name] = int(kwargs[name])
    _finite((k, v) for k, v in kwargs.items() if k != "coupling_z")
    try:
        return ModelParams(**kwargs)
    except ValueError as exc:
        raise InfeasibleRequest(str(exc)) from None


def _finite(values) -> None:
    """Refuse a non-finite model value among (name, value) pairs, before
    ModelParams would fail on it."""
    for name, v in values:
        if not math.isfinite(v):
            raise InfeasibleRequest(f"{name} must be finite, got {v!r}")


def load_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("configuration file must hold a flat JSON object")
    return data


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if math.isnan(v):
            return "nan"
        return f"{float(v):.12g}"
    return str(v)


def write_table(path: str, columns, rows, config: dict) -> None:
    """Emit one table: '# key = value' comment block, header, data rows."""
    lines = [f"# {k} = {_fmt(config[k])}" for k in sorted(config)]
    lines.append("\t".join(columns))
    for row in rows:
        lines.append("\t".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path: str):
    """Parse a file produced by write_table: (meta, columns, rows-as-strings)."""
    meta, columns, rows = {}, None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            elif columns is None:
                columns = line.split("\t")
            else:
                rows.append(line.split("\t"))
    if columns is None:
        raise ValueError(f"no header line in {path}")
    return meta, columns, rows


def _resolved_config(p: ModelParams, extra: dict) -> dict:
    out = {}
    for key, name in {**_MODEL_KEYS, **_SYSTEM_KEYS}.items():
        out[key] = getattr(p, name)
    out.update(extra)
    return out


def _parallel_map(fn, items, workers: int):
    """[fn(x) for x in items], in a pool of `workers` threads when there are
    at least two of each."""
    items = list(items)
    if workers <= 1 or len(items) < 2:
        return [fn(x) for x in items]
    # concurrent.futures pulls in logging (~10 ms); single-worker steps skip it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _grid(lo: float, hi: float, steps: int) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InfeasibleRequest(f"grid bounds must be finite, got [{lo}, {hi}]")
    if steps < 1 or not lo <= hi:
        raise InfeasibleRequest(f"empty grid [{lo}, {hi}] x {steps}")
    if steps == 1:
        return np.array([lo])
    return np.linspace(lo, hi, steps)


def _values_arg(text: str) -> list[float]:
    try:
        vals = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise InfeasibleRequest(f"{text!r} is not a comma-separated list of numbers") from None
    if not vals:
        raise InfeasibleRequest("empty value list")
    return vals


def _temperatures(values):
    """The requested temperatures, refused unless every one is positive and finite."""
    if not all(0.0 < t < math.inf for t in values):
        raise InfeasibleRequest("temperatures must be positive and finite")
    return values


def _alpha_grid(args) -> np.ndarray:
    """The --alpha-min/--alpha-max/--alpha-steps grid, refused unless every
    alpha is non-negative."""
    if args.alpha_min < 0.0:
        raise InfeasibleRequest(
            f"an alpha sweep must be non-negative, got --alpha-min {args.alpha_min}"
        )
    return _grid(args.alpha_min, args.alpha_max, args.alpha_steps)


# ---------------------------------------------------------------- subcommands


def cmd_blocks_dump(p: ModelParams, args, config) -> None:
    rows = [
        (b.nv.N, b.nv.tau, b.nv.k, b.nv.S, b.qb.s1, b.qb.s2, b.mult, b.dim)
        for b in p.blocks()
    ]
    write_table(
        os.path.join(args.out, "blocks.tsv"),
        ["N", "tau", "k", "S", "s1", "s2", "mult", "dim"],
        rows,
        config,
    )


def cmd_spectrum(p: ModelParams, args, config) -> None:
    w, _ = spectral.block_eigen_data(p)
    plan = fold_plan(p)
    rows = [
        (i, b.mult, e.real, e.imag)
        for i, (b, si) in enumerate(zip(plan.blocks, plan.shape_index))
        for e in w[slice(*plan.bounds[si])]
    ]
    write_table(
        os.path.join(args.out, "spectrum.tsv"),
        ["block-id", "mult", "ReE", "ImE"],
        rows,
        config,
    )


def cmd_eps(p: ModelParams, args, config) -> None:
    if args.steps < 2 or not -math.inf < args.lo < args.hi < math.inf:
        raise InfeasibleRequest(
            f"eps needs a finite sweep lo < hi of at least 2 steps, got "
            f"[{args.lo}, {args.hi}] x {args.steps}"
        )
    if args.param == "alpha" and args.lo < 0.0:
        raise InfeasibleRequest(f"an alpha sweep must be non-negative, got --lo {args.lo}")
    if not args.precision > 0.0:
        raise InfeasibleRequest(f"--precision {args.precision} must be positive")
    pts = spectral.find_eps(p, args.param, args.lo, args.hi, args.steps, args.precision)
    rows = [
        (e.param, e.value, e.bracket[0], e.bracket[1], e.re_coalesce, e.gamma)
        for e in pts
    ]
    write_table(
        os.path.join(args.out, "eps.tsv"),
        ["param", "value", "bracket_lo", "bracket_hi", "ReE_coalesce", "gamma"],
        rows,
        config,
    )


def cmd_tc_map(p: ModelParams, args, config) -> None:
    if not thermo.TC_T_MIN < args.t_max < math.inf:
        raise InfeasibleRequest(
            f"--t-max {args.t_max} must be finite and exceed the scan's lowest "
            f"temperature {thermo.TC_T_MIN}"
        )
    alphas = _alpha_grid(args)
    g_values = _values_arg(args.g_values) if args.g_values else [p.g]

    _finite(("g", g) for g in g_values)
    tasks = [(g, a) for g in g_values for a in alphas]
    points = [p.with_(alpha=float(a), g=float(g)) for g, a in tasks]

    # one stacked solve per batch of points; a point whose certificate
    # proves Z > 0 on the whole scan has T_c 0 here, and the workers scan and
    # bisect Z(T) at the others
    def scan(batch, tables):
        def one(i):
            return thermo.critical_temperature(batch[i], t_max=args.t_max, table=tables[i])

        tcs = [0.0] * len(batch)
        open_ = [
            i for i, (q, table) in enumerate(zip(batch, tables))
            if not thermo.zero_free_on_grid(q, t_max=args.t_max, table=table)
        ]
        for i, tc in zip(open_, _parallel_map(one, open_, args.workers)):
            tcs[i] = tc
        return tcs

    tcs = thermo.sweep_tables(points, scan)
    rows = [(a, g, tc) for (g, a), tc in zip(tasks, tcs)]
    write_table(
        os.path.join(args.out, "tc_map.tsv"), ["alpha", "g", "T_c"], rows, config
    )


def cmd_thermo(p: ModelParams, args, config) -> None:
    t_values = _temperatures(_grid(args.t_min, args.t_max, args.t_steps))
    if args.nv_count is not None:
        if args.nv_count < 1:
            raise InfeasibleRequest(f"--nv-count {args.nv_count} must be at least 1")
        r = rescale(p, p.Omega1, args.nv_count, 0.0)
        p = p.with_(E=r.Er, g=r.gr, Omega=args.nv_count / 2.0)
        # record the point computed, E and g to every digit, so that the
        # header reproduces the table without --nv-count
        config = {
            **config,
            "model.E": repr(p.E),
            "model.g": repr(p.g),
            "system.Omega": p.Omega,
            "run.nv_count": args.nv_count,
        }
    table = thermo.thermal_table(p)
    gaps = (
        thermo.gap_curve(p, t_values)
        if args.gap
        else [math.nan] * len(t_values)
    )
    rows = []
    for t, delta in zip(t_values, gaps):
        pt = thermo.potentials(p, float(t), table=table)
        rows.append(
            (
                t,
                t / p.D,
                pt.z_sign,
                pt.ln_abs_z,
                pt.F,
                pt.U,
                pt.S,
                pt.Cv,
                delta,
                pt.valid,
            )
        )
    write_table(
        os.path.join(args.out, "thermo.tsv"),
        ["T", "Tr", "z_sign", "ln_abs_Z", "F", "U", "S", "Cv", "Delta", "valid"],
        rows,
        config,
    )


def cmd_spinodal(p: ModelParams, args, config) -> None:
    t_values = _temperatures(_values_arg(args.t_values))
    alphas = _alpha_grid(args)
    if len(alphas) < stability.MIN_POINTS or not np.all(np.diff(alphas) > 0):
        raise InfeasibleRequest(
            f"spinodal needs a strictly increasing alpha grid of at least "
            f"{stability.MIN_POINTS} points, got [{args.alpha_min}, {args.alpha_max}] "
            f"x {args.alpha_steps}"
        )
    isotherms = stability.compute_isotherms(p, t_values, alphas)
    for iso in isotherms:
        if np.sum(iso.valid) < stability.MIN_POINTS:
            raise InfeasibleRequest(
                f"the isotherm at T={iso.T:g} has fewer than {stability.MIN_POINTS} valid points"
            )
    results = [stability.spinodal_analysis(iso) for iso in isotherms]
    loci, intervals = [], []
    for iso, res in zip(isotherms, results):
        for a, f in res.minima:
            loci.append((res.T, "minimum", a, f))
        for a in res.inflections:
            loci.append((res.T, "inflection", a, np.interp(a, iso.alphas, iso.F)))
        for kind, ivals in (
            ("binodal", res.binodal),
            ("metastable", res.metastable),
            ("spinodal", res.spinodal),
            ("indeterminate", res.indeterminate),
        ):
            for lo, hi in ivals:
                intervals.append((res.T, kind, lo, hi))
        for (lo, hi), peq in zip(res.binodal, res.p_eq):
            intervals.append((res.T, "p_eq", lo, peq))
    write_table(
        os.path.join(args.out, "spinodal_loci.tsv"),
        ["T", "kind", "alpha", "F"],
        loci,
        config,
    )
    write_table(
        os.path.join(args.out, "spinodal_intervals.tsv"),
        ["T", "kind", "lo", "hi_or_peq"],
        intervals,
        config,
    )


def cmd_cycle(p: ModelParams, args, config) -> None:
    t_values = _temperatures(_values_arg(args.t_values))
    x_values = _values_arg(args.x_values)
    if not all(math.isfinite(x) for x in x_values):
        raise InfeasibleRequest(f"--x-values {args.x_values} must be finite")
    for flag, values in (("--t-values", t_values), ("--x-values", x_values)):
        if len(set(values)) < len(values):
            raise InfeasibleRequest(f"{flag} repeats a value")
        if len(values) < 2:
            raise InfeasibleRequest(f"{flag} holds one value: the grid has no cell")
    if args.kind == "stirling" and not min(x_values) > 0.0:
        raise InfeasibleRequest(f"stirling alphas must be positive, got {args.x_values}")
    if args.kind == "carnot" and not 0.0 <= args.bracket_lo < args.bracket_hi < math.inf:
        raise InfeasibleRequest(
            f"the alpha bracket [{args.bracket_lo}, {args.bracket_hi}] must be a "
            f"finite non-negative interval lo < hi"
        )
    grid = efficiency_grid(
        p,
        args.kind,
        t_values,
        x_values,
        bracket=(args.bracket_lo, args.bracket_hi),
    )
    xname = "S" if args.kind == "carnot" else "alpha"
    rows = [
        (
            c.T1,
            c.T2,
            c.x1,
            c.x2,
            c.eta,
            c.eta_classical,
            c.delta_eta,
            c.feasible,
            c.degenerate,
            c.reason,
        )
        for c in grid.cells
    ]
    write_table(
        os.path.join(args.out, f"cycle_{args.kind}.tsv"),
        ["T1", "T2", f"{xname}1", f"{xname}2", "eta", "eta_classical",
         "delta_eta", "feasible", "degenerate", "reason"],
        rows,
        config,
    )
    for name, proj in (
        (f"cycle_{args.kind}_max_by_x.tsv", grid.max_eta_by_x()),
        (f"cycle_{args.kind}_max_by_t.tsv", grid.max_eta_by_t()),
    ):
        prow = [
            (k[0], k[1], c.eta, c.eta_classical, c.delta_eta)
            for k, c in sorted(proj.items())
        ]
        cols = (
            [f"{xname}1", f"{xname}2"] if "by_x" in name else ["T1", "T2"]
        ) + ["eta_max", "eta_classical", "delta_eta"]
        write_table(os.path.join(args.out, name), cols, prow, config)


def cmd_rescale_fit(p: ModelParams, args, config) -> None:
    np_values = _values_arg(args.np_values)
    if not all(n >= 1 and float(n).is_integer() for n in np_values):
        raise InfeasibleRequest(f"--np-values must be integers of at least 1, got {np_values}")
    for name, v in (("--g0", args.g0), ("--target", args.target)):
        if v is not None and not 0.0 < v < math.inf:
            raise InfeasibleRequest(f"{name} must be positive and finite, got {v!r}")
    fit = fit_rescaling(np_values, g0=args.g0, target=args.target)
    rows = [
        (n, g, fit.factor(n), r)
        for n, g, r in zip(fit.np_values, fit.g_values, fit.residuals)
    ]
    cfg = dict(config)
    cfg["fit.a"] = fit.a
    cfg["fit.b"] = fit.b
    write_table(
        os.path.join(args.out, "rescale_fit.tsv"),
        ["Np", "G_star", "f_fit", "residual"],
        rows,
        cfg,
    )


def cmd_oracle_check(p: ModelParams, args, config) -> None:
    from . import oracle

    try:
        ops = oracle.fock_operators(oracle.FockSpace(p.Omega, p.Omega1, p.Omega2))
    except ValueError as exc:     # the Fock dimension cap
        raise InfeasibleRequest(str(exc)) from None
    mism = []
    wf = oracle.fock_spectrum(p, ops)
    wb = oracle.block_union_spectrum(p)
    spec_err = float(np.max(np.abs(wf - wb)))
    if spec_err > 1e-8:
        mism.append(f"spectrum multiset mismatch {spec_err:.3e}")
    z_err = 0.0
    for beta in (0.1, 1.0, 5.0, 20.0):
        zf = oracle.fock_partition(wf, beta)
        zb = thermo.partition_function(thermo.thermal_table(p), beta, p.muS, p.muQb)
        z_err = max(z_err, abs(zf - zb) / abs(zf))
    if z_err > 1e-8:
        mism.append(f"partition mismatch {z_err:.3e}")
    rows = [("spectrum_multiset", spec_err), ("partition_rel", z_err)]
    write_table(
        os.path.join(args.out, "oracle_check.tsv"),
        ["check", "max_error"],
        rows,
        config,
    )
    if mism:
        raise InfeasibleRequest("; ".join(mism))


# -------------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pseudotherm",
        description="Exact thermodynamics of an asymmetrically coupled "
        "spin-ensemble / pairing-register model",
    )
    ap.add_argument("--config", help=f"JSON config path (or ${CONFIG_ENV_VAR})")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--alpha", type=float, help="override model.alpha")
    ap.add_argument("--g", type=float, help="override model.g")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("blocks-dump")
    sub.add_parser("spectrum")

    eps = sub.add_parser("eps")
    eps.add_argument("--param", choices=("alpha", "g"), default="alpha")
    eps.add_argument("--lo", type=float, default=0.02)
    eps.add_argument("--hi", type=float, default=1.6)
    eps.add_argument("--steps", type=int, default=100)
    eps.add_argument("--precision", type=float, default=1e-4)

    tc = sub.add_parser("tc-map")
    tc.add_argument("--alpha-min", type=float, default=0.0)
    tc.add_argument("--alpha-max", type=float, default=1.2)
    tc.add_argument("--alpha-steps", type=int, default=100)
    tc.add_argument("--g-values", help="comma list; default: configured g")
    tc.add_argument("--t-max", type=float, default=2.0)

    th = sub.add_parser("thermo")
    th.add_argument("--t-min", type=float, default=0.05)
    th.add_argument("--t-max", type=float, default=15.0)
    th.add_argument("--t-steps", type=int, default=100)
    th.add_argument("--gap", action="store_true", help="include pairing gap column")
    th.add_argument("--nv-count", type=int, help="rescale E, g for this ensemble size")

    sp = sub.add_parser("spinodal")
    sp.add_argument("--t-values", required=True, help="comma list of temperatures (GHz)")
    sp.add_argument("--alpha-min", type=float, default=0.05)
    sp.add_argument("--alpha-max", type=float, default=0.9)
    sp.add_argument("--alpha-steps", type=int, default=stability.DEFAULT_ALPHA_POINTS)

    cy = sub.add_parser("cycle")
    cy.add_argument("--kind", choices=("carnot", "stirling"), required=True)
    cy.add_argument("--t-values", required=True, help="comma list of temperatures")
    cy.add_argument(
        "--x-values",
        required=True,
        help="comma list of entropies (carnot) or alphas (stirling)",
    )
    cy.add_argument("--bracket-lo", type=float, default=0.02)
    cy.add_argument("--bracket-hi", type=float, default=1.6)

    rf = sub.add_parser("rescale-fit")
    rf.add_argument("--np-values", default="2,3,4")
    rf.add_argument("--g0", type=float, default=G0_REFERENCE)
    rf.add_argument("--target", type=float, default=None,
                    help="target zero-T gap; default: self-consistent")

    sub.add_parser("oracle-check")
    return ap


_DISPATCH = {
    "blocks-dump": cmd_blocks_dump,
    "spectrum": cmd_spectrum,
    "eps": cmd_eps,
    "tc-map": cmd_tc_map,
    "thermo": cmd_thermo,
    "spinodal": cmd_spinodal,
    "cycle": cmd_cycle,
    "rescale-fit": cmd_rescale_fit,
    "oracle-check": cmd_oracle_check,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        raise InfeasibleRequest(f"--workers {args.workers} must be at least 1")
    overrides = {f"model.{name}": getattr(args, name) for name in ("alpha", "g")}
    p = params_from_mapping(
        {**load_config(args.config), **{k: v for k, v in overrides.items() if v is not None}}
    )
    os.makedirs(args.out, exist_ok=True)
    config = _resolved_config(p, {"run.command": args.command})
    _DISPATCH[args.command](p, args, config)
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except InfeasibleRequest as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
