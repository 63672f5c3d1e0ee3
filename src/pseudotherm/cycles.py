"""Reversible Carnot and Stirling cycles on the (T, alpha) state surface.

The asymmetry parameter plays the role of volume.  All processes run
through equilibrium states, so isothermal heats are T*dS and works follow
from the first law per leg; U and S are exact state functions of the
block-decomposed ensemble, which makes cycle closure automatic and exposes
the genuinely physical questions: whether the requested corners exist at
all, and what happens when a leg touches the region where the partition
function vanishes.

A cycle is one CycleSpec (kind, T1, T2, x1, x2): two isotherms joined by
two legs at x1 and x2, where x is the entropy S of a Carnot adiabat and the
alpha of a Stirling isochore.  Both kinds take one path: one corner step
solves every distinct corner of a cycle or a grid, then one builder checks
the corners and books the four legs of each cycle.  Stirling corners sit at
given alphas, whose spectrum tables are solved together.  Carnot corner
alphas are solved on S(T, alpha) together (solve_alphas): one coarse scan
of the bracket, which gives the S curve of every temperature, then a
lockstep bisection (roots.bisect) that solves the midpoints of all open
corners together at each step.  Every such solve is one
thermo.sweep_potentials call, which gives the state at each (alpha, T) item
and holds one sweep batch's tables at a time.

Sign convention: work done ON the system and heat ABSORBED by the system
are positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CycleInfeasible, NoSolutionError
from .model import ModelParams
from .roots import bisect
from .thermo import sweep_potentials

__all__ = [
    "CycleSpec",
    "CornerState",
    "Leg",
    "CycleResult",
    "SolveResult",
    "solve_alpha",
    "solve_alphas",
    "cycle",
    "stirling_classical_efficiency",
    "efficiency_grid",
    "GridResult",
]

DEFAULT_BRACKET = (0.02, 1.6)
ALPHA_TOL = 1e-8


@dataclass(frozen=True)
class CycleSpec:
    """Requested cycle corners: two isotherms at T1 < T2 joined by two legs
    at x1 and x2.

    Carnot: x is the entropy of two adiabats, x1 <= x2, and the alphas
    realizing the entropies are solved inside `bracket`.  Stirling: x is
    the alpha of two constant-alpha legs, 0 < x1 < x2; the bracket is not
    used.
    """

    kind: str
    T1: float
    T2: float
    x1: float
    x2: float
    bracket: tuple = DEFAULT_BRACKET

    def __post_init__(self):
        if self.kind not in ("carnot", "stirling"):
            raise ValueError("kind must be carnot or stirling")
        if not self.T1 < self.T2:
            raise ValueError("need T1 < T2")
        if self.kind == "carnot":
            if not self.x1 <= self.x2:
                raise ValueError("carnot needs S1 <= S2")
            if not self.bracket[0] < self.bracket[1]:
                raise ValueError("empty alpha bracket")
        else:
            if not self.x1 < self.x2:
                raise ValueError("stirling needs alpha1 < alpha2")
            if not self.x1 > 0.0:
                raise ValueError("stirling needs alpha1 > 0")


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
    state: CornerState | None = field(default=None, compare=False, repr=False)


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


def _swept(p: ModelParams, items) -> list:
    """The CornerState, or None on an invalid point, at each (T, alpha)
    item, from one thermo.sweep_potentials call over the distinct alphas,
    each at the temperatures of its items; no items (no Carnot corner with
    a root) make no solve."""
    items = list(items)
    temps = {}
    for t, a in items:
        temps.setdefault(float(a), []).append(t)
    swept = sweep_potentials([p.with_(alpha=a) for a in temps], temps.values())
    states = {
        (t, a): CornerState(T=t, alpha=a, S=pt.S, U=pt.U, F=pt.F, z_nonpositive=pt.z_nonpositive)
        if pt.valid
        else None
        for a, pts in zip(temps, swept)
        for t, pt in zip(temps[a], pts)
    }
    return [states[t, float(a)] for t, a in items]


def _first_root(grid, s_vals, t, s_target, bracket) -> tuple:
    """(lo, hi, d_lo, root count) of the smallest-alpha sign change of
    S - s_target on the coarse grid; lo == hi where a grid point hits it."""
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
    return (*intervals[0], len(intervals))


def solve_alphas(
    p: ModelParams,
    targets,
    bracket: tuple = DEFAULT_BRACKET,
    tol: float = ALPHA_TOL,
    coarse: int = 64,
) -> list:
    """Solve S(T, alpha) = S for alpha inside the bracket, for every (T, S)
    target together.

    The bracket is scanned on a coarse grid (invalid state points fragment
    it); each sign change of S - S_target marks one root.  The grid is
    solved once, by one thermo.sweep_potentials call at every target
    temperature, which gives the S curve of each.  The smallest-alpha root
    of each target is bisected to width <= tol in lockstep by roots.bisect:
    each step solves the midpoints of every open bracket together, and the
    quarter points that retry invalid midpoints in a second solve.  One
    last solve at the roots gives each residual and corner state.  Each of
    these solves is one sweep_potentials call too (_swept).  Each point of
    a sweep is solved on its own, so a target gets the alpha, root count
    and residual that it gets when solved alone, bit for bit.

    Returns one entry per target: a SolveResult, whose `state` is None where
    the root lies on an invalid point, or the NoSolutionError of a target
    that has no root.
    """
    targets = list(targets)
    if not targets:
        return []
    grid = np.linspace(bracket[0], bracket[1], coarse)
    temps = list(dict.fromkeys(t for t, _ in targets))
    # per grid alpha, the ThermoPoint at each temperature
    swept = sweep_potentials([p.with_(alpha=float(a)) for a in grid], [temps] * len(grid))
    curves = {
        t: np.array([pts[j].S if pts[j].valid else math.nan for pts in swept])
        for j, t in enumerate(temps)
    }

    out = [None] * len(targets)
    counts, brackets, signs = {}, {}, {}
    for k, (t, s_target) in enumerate(targets):
        try:
            lo, hi, d_lo, counts[k] = _first_root(grid, curves[t], t, s_target, bracket)
        except NoSolutionError as exc:
            out[k] = exc
            continue
        brackets[k] = (lo, hi)
        signs[k] = math.copysign(1.0, d_lo)

    def side(points):
        states = _swept(p, [(targets[k][0], a) for k, a in points.items()])
        s = [math.nan if state is None else state.S for state in states]
        return {k: (s_k - targets[k][1]) * signs[k] for k, s_k in zip(points, s)}

    alphas = {}
    for k, (alpha, lo, hi) in bisect(brackets, side, tol=tol).items():
        if math.isnan(alpha):
            out[k] = NoSolutionError(
                f"bracket around alpha={(lo + hi) / 2:.6g} fragmented by invalid points"
            )
        else:
            alphas[k] = alpha

    roots = _swept(p, [(targets[k][0], alpha) for k, alpha in alphas.items()])
    for (k, alpha), state in zip(alphas.items(), roots):
        residual = abs((state.S if state is not None else math.nan) - targets[k][1])
        out[k] = SolveResult(
            alpha=float(alpha), root_count=counts[k], residual=residual, state=state
        )
    return out


@lru_cache(maxsize=4096)
def _solve_alpha_cached(p, t, s_target, bracket, tol, coarse):
    (res,) = solve_alphas(p, [(t, s_target)], bracket, tol, coarse)
    if isinstance(res, NoSolutionError):
        raise res
    return res


def solve_alpha(
    p: ModelParams,
    t: float,
    s_target: float,
    bracket: tuple = DEFAULT_BRACKET,
    tol: float = ALPHA_TOL,
    coarse: int = 64,
) -> SolveResult:
    """Solve S(T, alpha) = s_target for alpha inside the bracket.

    The one-target call of solve_alphas: the smallest-alpha root found on
    the coarse grid is bisected to |dalpha| <= tol (or until its midpoint
    rounds onto an end) and returned along with the total root count and
    the corner state at the root; NoSolutionError when S never reaches
    s_target.  Results are memoized per (p, T, S, bracket, tol, coarse).
    A caller with several targets should pass them to solve_alphas
    together, which solves the coarse grid once and bisects them in
    lockstep.
    """
    return _solve_alpha_cached(p, t, s_target, tuple(bracket), tol, coarse)


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


def _corners(spec: CycleSpec) -> dict:
    """Corner name -> (T, x) in the order A-D."""
    return {"A": (spec.T2, spec.x1), "B": (spec.T2, spec.x2),
            "C": (spec.T1, spec.x2), "D": (spec.T1, spec.x1)}


def _corner_states(p: ModelParams, specs) -> dict:
    """(T, x) -> CornerState, None on an invalid point, or a Carnot corner's
    NoSolutionError, for the distinct corners of specs of one kind and one
    bracket.  Carnot corners are solved by one solve_alphas call, Stirling
    corners by one _swept call over their distinct alphas."""
    specs = list(specs)
    corners = list(dict.fromkeys(c for spec in specs for c in _corners(spec).values()))
    if specs and specs[0].kind == "carnot":
        solved = solve_alphas(p, corners, bracket=specs[0].bracket)
        return {
            c: sol if isinstance(sol, NoSolutionError) else sol.state
            for c, sol in zip(corners, solved)
        }
    return dict(zip(corners, _swept(p, corners)))


def _cycle(spec: CycleSpec, states: dict) -> CycleResult:
    """The cycle of spec from its corner states (see _corner_states); the
    corners are checked in the order A-D.

    Isotherms carry Q = T dS, Carnot adiabats Q = 0 and Stirling isochores
    Q = dU; every leg has W = dU - Q.
    """
    corners = []
    for name, (t, x) in _corners(spec).items():
        state = states[t, x]
        if isinstance(state, NoSolutionError):
            raise CycleInfeasible(
                f"corner {name} (T={t:.6g}, S={x:.6g}) unsolvable: {state}", leg=name
            ) from state
        if state is None:
            raise CycleInfeasible(f"corner {name} lies on an invalid point", leg=name)
        corners.append(state)

    carnot = spec.kind == "carnot"
    a, b, c, d = corners
    legs = []
    for name, s0, s1, iso_t in (
        ("isothermal@T2", a, b, spec.T2),
        ("adiabat S2" if carnot else "isochoric@a2", b, c, None),
        ("isothermal@T1", c, d, spec.T1),
        ("adiabat S1" if carnot else "isochoric@a1", d, a, None),
    ):
        du = s1.U - s0.U
        ds = s1.S - s0.S
        q = iso_t * ds if iso_t is not None else 0.0 if carnot else du
        legs.append(Leg(name=name, Q=q, W=du - q, dU=du, dS=ds))

    if carnot:
        eta_classical = 1.0 - spec.T1 / spec.T2
        r_alpha = (b.alpha / c.alpha) / (a.alpha / d.alpha)
    else:
        eta_classical = stirling_classical_efficiency(spec.T1, spec.T2, spec.x1, spec.x2)
        r_alpha = None
    res = _close_cycle(spec.kind, corners, legs, eta_classical, r_alpha)
    if carnot and spec.x1 == spec.x2:
        res = CycleResult(**{**res.__dict__, "eta": 0.0, "degenerate": True})
    return res


def cycle(p: ModelParams, spec: CycleSpec) -> CycleResult:
    """Two isotherms (T2 hot, T1 cold) joined by two legs at x1 and x2.

    Corner order: A=(T2,x1) -> B=(T2,x2) -> C=(T1,x2) -> D=(T1,x1).
    Isothermal legs carry Q = T dS.  Carnot adiabats carry W = dU, and
    their four corner alphas are solved together by one solve_alphas call;
    Stirling constant-alpha legs carry W = 0, Q = dU, and their two alphas
    are solved as one batch.
    """
    return _cycle(spec, _corner_states(p, [spec]))


def stirling_classical_efficiency(t1, t2, alpha1, alpha2) -> float:
    """Ideal-gas comparator with 5/2 isochoric heat capacity and volume ratio
    alpha2/alpha1."""
    if t1 == t2:
        return 0.0
    return (t2 - t1) / (t2 + 2.5 * (t2 - t1) / math.log(alpha2 / alpha1))


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
    recorded with their reason, never dropped.  The distinct corners of all
    cells are solved together by one corner step (_corner_states).
    """
    t_values = sorted(float(t) for t in t_values)
    x_values = sorted(float(x) for x in x_values)
    if kind not in ("carnot", "stirling"):
        raise ValueError("kind must be carnot or stirling")
    specs = [
        CycleSpec(kind, t1, t2, x1, x2, bracket)
        for i1, t1 in enumerate(t_values)
        for t2 in t_values[i1 + 1 :]
        for j1, x1 in enumerate(x_values)
        for x2 in x_values[j1 + 1 :]
    ]
    states = _corner_states(p, specs)
    cells = []
    for spec in specs:
        try:
            res = _cycle(spec, states)
        except CycleInfeasible as exc:
            outcome = dict(eta=math.nan, eta_classical=math.nan, feasible=False,
                           degenerate=False, reason=str(exc).splitlines()[0][:120])
        else:
            outcome = dict(eta=res.eta, eta_classical=res.eta_classical, feasible=True,
                           degenerate=res.degenerate)
        cells.append(GridCell(T1=spec.T1, T2=spec.T2, x1=spec.x1, x2=spec.x2, **outcome))
    return GridResult(kind=kind, cells=tuple(cells))
