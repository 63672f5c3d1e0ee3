"""Reversible Carnot and Stirling cycles on the (T, alpha) state surface.

The asymmetry parameter plays the role of volume.  All processes run
through equilibrium states, so isothermal heats are T*dS and works follow
from the first law per leg; U and S are exact state functions of the
block-decomposed ensemble, which makes cycle closure automatic and exposes
the genuinely physical questions: whether the requested corners exist at
all, and what happens when a leg touches the region where the partition
function vanishes.

Corner alphas are solved on S(T, alpha): a coarse scan of the bracket,
whose points are solved as one batch (thermo.thermal_tables) and whose S
values are memoized per temperature, then a bisection of single points.

Sign convention: work done ON the system and heat ABSORBED by the system
are positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CycleInfeasible, NoSolutionError
from .model import ModelParams
from .thermo import potentials, thermal_tables

__all__ = [
    "CycleSpec",
    "CornerState",
    "Leg",
    "CycleResult",
    "SolveResult",
    "solve_alpha",
    "carnot_cycle",
    "stirling_cycle",
    "stirling_classical_efficiency",
    "efficiency_grid",
    "GridResult",
]

DEFAULT_BRACKET = (0.02, 1.6)
ALPHA_TOL = 1e-8
COARSE_CACHE_SIZE = 256


@dataclass(frozen=True)
class CycleSpec:
    """Requested cycle corners.

    Carnot: two adiabats at entropies S1 < S2 and two isotherms at
    T1 < T2; the alphas realizing the entropies are solved inside
    `bracket`.  Stirling: two constant-alpha legs at alpha1 < alpha2 and
    two isotherms.
    """

    kind: str
    T1: float
    T2: float
    S1: float | None = None
    S2: float | None = None
    alpha1: float | None = None
    alpha2: float | None = None
    bracket: tuple = DEFAULT_BRACKET

    def __post_init__(self):
        if self.kind not in ("carnot", "stirling"):
            raise ValueError("kind must be carnot or stirling")
        if not self.T1 < self.T2:
            raise ValueError("need T1 < T2")
        if self.kind == "carnot":
            if self.S1 is None or self.S2 is None or not self.S1 <= self.S2:
                raise ValueError("carnot needs S1 <= S2")
        else:
            if self.alpha1 is None or self.alpha2 is None or not self.alpha1 < self.alpha2:
                raise ValueError("stirling needs alpha1 < alpha2")
        if not self.bracket[0] < self.bracket[1]:
            raise ValueError("empty alpha bracket")


@dataclass(frozen=True)
class CornerState:
    T: float
    alpha: float
    S: float
    U: float
    F: float
    z_nonpositive: bool


@dataclass(frozen=True)
class Leg:
    name: str
    Q: float
    W: float
    dU: float
    dS: float


@dataclass(frozen=True)
class SolveResult:
    alpha: float
    root_count: int
    residual: float


@dataclass(frozen=True)
class CycleResult:
    kind: str
    corners: tuple
    legs: tuple
    W_T: float
    Q_in: float
    Q_out: float
    eta: float
    eta_classical: float
    cop: float
    R_alpha: float | None
    energy_residual: float
    entropy_residual: float
    degenerate: bool


def _state(p: ModelParams, t: float, alpha: float) -> CornerState | None:
    pt = potentials(p.with_(alpha=float(alpha)), t)
    if not pt.valid:
        return None
    return CornerState(
        T=t, alpha=float(alpha), S=pt.S, U=pt.U, F=pt.F,
        z_nonpositive=pt.z_nonpositive,
    )


def _entropy(p: ModelParams, t: float, alpha: float, table=None) -> float:
    pt = potentials(p.with_(alpha=float(alpha)), t, table=table)
    return pt.S if pt.valid else math.nan


@lru_cache(maxsize=COARSE_CACHE_SIZE)
def _coarse_entropy(p, t, bracket, coarse) -> tuple:
    """S(T, alpha), NaN at invalid points, on the coarse grid of the
    bracket.  The grid is solved as one thermal_tables batch; only the
    floats are kept, and every target entropy at (p, T) shares them."""
    grid = np.linspace(bracket[0], bracket[1], coarse)
    tables = thermal_tables(p.with_(alpha=float(a)) for a in grid)
    return tuple(_entropy(p, t, a, table) for a, table in zip(grid, tables))


@lru_cache(maxsize=4096)
def _solve_alpha_cached(p, t, s_target, bracket, tol, coarse):
    return _solve_alpha_impl(p, t, s_target, bracket, tol, coarse)


def solve_alpha(
    p: ModelParams,
    t: float,
    s_target: float,
    bracket: tuple = DEFAULT_BRACKET,
    tol: float = ALPHA_TOL,
    coarse: int = 64,
) -> SolveResult:
    """Solve S(T, alpha) = s_target for alpha inside the bracket.

    The bracket is scanned on a coarse grid (invalid state points fragment
    it); each sign change of S - s_target marks one root.  The smallest-
    alpha root is bisected to |dalpha| <= tol and returned along with the
    total root count.  Results are memoized: cycle grids revisit the same
    corner many times.  The coarse S(alpha) curve is solved in one batch
    and memoized per (p, T, bracket, coarse), so the targets of one
    temperature share it; the bisection takes cached single-point tables.
    """
    return _solve_alpha_cached(p, t, s_target, tuple(bracket), tol, coarse)


def _solve_alpha_impl(p, t, s_target, bracket, tol, coarse) -> SolveResult:
    grid = np.linspace(bracket[0], bracket[1], coarse)
    s_vals = np.array(_coarse_entropy(p, t, bracket, coarse))
    ok = np.isfinite(s_vals)
    diff = s_vals - s_target

    intervals = []
    for i in range(len(grid) - 1):
        if not (ok[i] and ok[i + 1]):
            continue
        if diff[i] == 0.0:
            intervals.append((grid[i], grid[i], 0.0))
        elif diff[i] * diff[i + 1] < 0.0:
            intervals.append((grid[i], grid[i + 1], diff[i]))
    if ok[-1] and diff[-1] == 0.0:
        intervals.append((grid[-1], grid[-1], 0.0))

    if not intervals:
        attained = s_vals[ok]
        raise NoSolutionError(
            f"S(T={t:.6g}, alpha) never reaches {s_target:.6g} in "
            f"[{bracket[0]:.4g}, {bracket[1]:.4g}]",
            attained_min=float(np.min(attained)) if len(attained) else None,
            attained_max=float(np.max(attained)) if len(attained) else None,
        )

    lo, hi, d_lo = intervals[0]
    if lo == hi:
        return SolveResult(alpha=float(lo), root_count=len(intervals), residual=0.0)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        d_mid = _entropy(p, t, mid) - s_target
        if math.isnan(d_mid):
            # invalid sliver inside the interval: fall back to the valid side
            mid_lo = lo + 0.25 * (hi - lo)
            d_mid = _entropy(p, t, mid_lo) - s_target
            if math.isnan(d_mid):
                raise NoSolutionError(
                    f"bracket around alpha={mid:.6g} fragmented by invalid points"
                )
            mid = mid_lo
        if d_mid == 0.0:
            lo = hi = mid
            break
        if (d_mid > 0) == (d_lo > 0):
            lo, d_lo = mid, d_mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    return SolveResult(
        alpha=float(alpha),
        root_count=len(intervals),
        residual=abs(_entropy(p, t, alpha) - s_target),
    )


def _close_cycle(kind, corners, legs, eta_classical, r_alpha):
    """Assemble the cycle bookkeeping, oriented so the engine direction is
    the traversal with net work done BY the system (W_T < 0).

    The corner set fixes the cycle only up to orientation; reversing the
    traversal negates every leg's Q and W exactly.  When the requested
    corner order yields net work input, the engine is the reversed
    traversal (for this model S typically falls with alpha, so the
    heat-absorbing isothermal runs towards smaller alpha).
    """
    w_t = math.fsum(l.W for l in legs)
    if w_t > 0:
        legs = [Leg(l.name, -l.Q, -l.W, -l.dU, -l.dS) for l in reversed(legs)]
        corners = tuple(reversed(corners))
        w_t = -w_t

    q_in = math.fsum(l.Q for l in legs if l.Q > 0)
    q_out = math.fsum(l.Q for l in legs if l.Q < 0)
    du = math.fsum(l.dU for l in legs)
    ds = math.fsum(l.dS for l in legs)
    degenerate = any(c.z_nonpositive for c in corners)

    if q_in > 0:
        eta = abs(w_t) / q_in
    else:
        eta = 0.0
        degenerate = True
    if abs(w_t) < 1e-12 * max(q_in, 1.0):
        eta = 0.0
        degenerate = True

    # refrigerator = the reversed traversal: heat absorbed at the cold
    # isotherm over net work input
    q_cold = math.fsum(-l.Q for l in legs if l.name.endswith("@T1") and l.Q < 0)
    w_rev = -w_t
    cop = q_cold / w_rev if w_rev > 0 else math.inf

    return CycleResult(
        kind=kind,
        corners=tuple(corners),
        legs=tuple(legs),
        W_T=w_t,
        Q_in=q_in,
        Q_out=q_out,
        eta=eta,
        eta_classical=eta_classical,
        cop=cop,
        R_alpha=r_alpha,
        energy_residual=abs(du),
        entropy_residual=abs(ds),
        degenerate=degenerate,
    )


def carnot_cycle(p: ModelParams, spec: CycleSpec) -> CycleResult:
    """Two isotherms (T2 hot, T1 cold) joined by two constant-entropy legs.

    Corner order: A=(T2,S1) -> B=(T2,S2) -> C=(T1,S2) -> D=(T1,S1).
    Isothermal legs carry Q = T dS; adiabats carry W = dU.
    """
    if spec.kind != "carnot":
        raise ValueError("spec.kind must be carnot")
    corners = {}
    for name, (t, s) in {
        "A": (spec.T2, spec.S1),
        "B": (spec.T2, spec.S2),
        "C": (spec.T1, spec.S2),
        "D": (spec.T1, spec.S1),
    }.items():
        try:
            sol = solve_alpha(p, t, s, bracket=spec.bracket)
        except NoSolutionError as exc:
            raise CycleInfeasible(
                f"corner {name} (T={t:.6g}, S={s:.6g}) unsolvable: {exc}", leg=name
            ) from exc
        state = _state(p, t, sol.alpha)
        if state is None:
            raise CycleInfeasible(f"corner {name} lies on an invalid point", leg=name)
        corners[name] = state

    a, b, c, d = corners["A"], corners["B"], corners["C"], corners["D"]
    legs = []
    for name, s0, s1, iso_t in (
        ("isothermal@T2", a, b, spec.T2),
        ("adiabat S2", b, c, None),
        ("isothermal@T1", c, d, spec.T1),
        ("adiabat S1", d, a, None),
    ):
        du = s1.U - s0.U
        ds = s1.S - s0.S
        q = iso_t * ds if iso_t is not None else 0.0
        legs.append(Leg(name=name, Q=q, W=du - q, dU=du, dS=ds))

    r_alpha = (b.alpha / c.alpha) / (a.alpha / d.alpha)
    eta_classical = 1.0 - spec.T1 / spec.T2
    res = _close_cycle("carnot", (a, b, c, d), legs, eta_classical, r_alpha)
    if spec.S1 == spec.S2:
        res = CycleResult(**{**res.__dict__, "eta": 0.0, "degenerate": True})
    return res


def stirling_classical_efficiency(t1, t2, alpha1, alpha2) -> float:
    """Ideal-gas comparator with 5/2 isochoric heat capacity and volume ratio
    alpha2/alpha1."""
    if t1 == t2:
        return 0.0
    return (t2 - t1) / (t2 + 2.5 * (t2 - t1) / math.log(alpha2 / alpha1))


def stirling_cycle(p: ModelParams, spec: CycleSpec) -> CycleResult:
    """Two isotherms joined by two constant-alpha legs.

    Corner order: A=(T2,a1) -> B=(T2,a2) -> C=(T1,a2) -> D=(T1,a1);
    constant-alpha legs carry W = 0, Q = dU.
    """
    if spec.kind != "stirling":
        raise ValueError("spec.kind must be stirling")
    states = {}
    for name, (t, alpha) in {
        "A": (spec.T2, spec.alpha1),
        "B": (spec.T2, spec.alpha2),
        "C": (spec.T1, spec.alpha2),
        "D": (spec.T1, spec.alpha1),
    }.items():
        st = _state(p, t, alpha)
        if st is None:
            raise CycleInfeasible(f"corner {name} lies on an invalid point", leg=name)
        states[name] = st

    a, b, c, d = states["A"], states["B"], states["C"], states["D"]
    legs = []
    for name, s0, s1, iso_t in (
        ("isothermal@T2", a, b, spec.T2),
        ("isochoric@a2", b, c, None),
        ("isothermal@T1", c, d, spec.T1),
        ("isochoric@a1", d, a, None),
    ):
        du = s1.U - s0.U
        ds = s1.S - s0.S
        if iso_t is None:
            legs.append(Leg(name=name, Q=du, W=0.0, dU=du, dS=ds))
        else:
            q = iso_t * ds
            legs.append(Leg(name=name, Q=q, W=du - q, dU=du, dS=ds))

    eta_classical = stirling_classical_efficiency(
        spec.T1, spec.T2, spec.alpha1, spec.alpha2
    )
    res = _close_cycle("stirling", (a, b, c, d), legs, eta_classical, None)
    if spec.T1 == spec.T2:
        res = CycleResult(**{**res.__dict__, "eta": 0.0, "degenerate": True})
    return res


@dataclass(frozen=True)
class GridCell:
    T1: float
    T2: float
    x1: float               # S1 or alpha1
    x2: float               # S2 or alpha2
    eta: float
    eta_classical: float
    feasible: bool
    degenerate: bool
    reason: str = ""

    @property
    def delta_eta(self) -> float:
        return self.eta - self.eta_classical


@dataclass(frozen=True)
class GridResult:
    kind: str
    cells: tuple

    def max_eta_by_x(self):
        """Best efficiency per (x1, x2) pair over all temperature pairs."""
        return self._project(lambda c: (c.x1, c.x2))

    def max_eta_by_t(self):
        """Best efficiency per (T1, T2) pair over all x pairs."""
        return self._project(lambda c: (c.T1, c.T2))

    def _project(self, keyfun):
        best = {}
        for c in self.cells:
            if not c.feasible or c.degenerate:
                continue
            k = keyfun(c)
            if k not in best or c.eta > best[k].eta:
                best[k] = c
        return best


def efficiency_grid(
    p: ModelParams,
    kind: str,
    t_values,
    x_values,
    bracket: tuple = DEFAULT_BRACKET,
) -> GridResult:
    """Run every ordered (T1 < T2) x (x1 < x2) cell of the grid.

    x is entropy for Carnot and alpha for Stirling.  Infeasible cells are
    recorded with their reason, never dropped.
    """
    t_values = sorted(float(t) for t in t_values)
    x_values = sorted(float(x) for x in x_values)
    if kind not in ("carnot", "stirling"):
        raise ValueError("kind must be carnot or stirling")
    cells = []
    for i1, t1 in enumerate(t_values):
        for t2 in t_values[i1 + 1 :]:
            for j1, x1 in enumerate(x_values):
                for x2 in x_values[j1 + 1 :]:
                    try:
                        if kind == "carnot":
                            spec = CycleSpec(
                                kind="carnot", T1=t1, T2=t2, S1=x1, S2=x2, bracket=bracket
                            )
                            res = carnot_cycle(p, spec)
                        else:
                            spec = CycleSpec(
                                kind="stirling", T1=t1, T2=t2, alpha1=x1, alpha2=x2
                            )
                            res = stirling_cycle(p, spec)
                        cells.append(
                            GridCell(
                                T1=t1, T2=t2, x1=x1, x2=x2,
                                eta=res.eta,
                                eta_classical=res.eta_classical,
                                feasible=True,
                                degenerate=res.degenerate,
                            )
                        )
                    except CycleInfeasible as exc:
                        cells.append(
                            GridCell(
                                T1=t1, T2=t2, x1=x1, x2=x2,
                                eta=math.nan,
                                eta_classical=math.nan,
                                feasible=False,
                                degenerate=False,
                                reason=str(exc).splitlines()[0][:120],
                            )
                        )
    return GridResult(kind=kind, cells=tuple(cells))
