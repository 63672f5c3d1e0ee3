"""Isotherm analysis in the asymmetry parameter: pressure, spinodal
classification, lever-rule mixing, and the Maxwell cross-relation.

Below the critical temperature the free energy F(alpha) can develop
several local minima.  The interval between two adjacent minima is the
binodal zone; inside it, the stretch between the two inflection points is
the unstable (spinodal) zone and the remainder is metastable.  A
heterogeneous state mixing the two minima beats the homogeneous one
everywhere inside the binodal; its free energy is the chord (lever rule)
and the equilibrium pressure is the chord slope magnitude.

Extrema and inflections are located from discrete differences with local
parabolic refinement; no global fits, since F can oscillate near zeros of
the partition function.  State points with non-positive Z are excluded
from stencils and poison their intervals ("indeterminate").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassificationError, InvalidPointError
from .model import ModelParams
from .thermo import potentials, sweep_potentials

__all__ = [
    "Isotherm",
    "SpinodalResult",
    "compute_isotherm",
    "compute_isotherms",
    "pressure_from_f",
    "pressure_alpha",
    "spinodal_analysis",
    "heterogeneous_free_energy",
    "maxwell_check",
]

DEFAULT_ALPHA_POINTS = 400
MIN_POINTS = 5          # fewest valid grid points an isotherm is classified on


@dataclass(frozen=True)
class Isotherm:
    """Free energy along an alpha grid at fixed temperature."""

    T: float
    alphas: np.ndarray
    F: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.alphas) <= 0):
            raise ValueError("alpha grid must be strictly increasing")


@dataclass(frozen=True)
class SpinodalResult:
    """Classified stability structure of one isotherm.

    Intervals partition each binodal: binodal = metastable U spinodal.
    p_eq holds the chord-slope pressure of each binodal.  Intervals that
    contain invalid state points are reported as indeterminate instead of
    classified.
    """

    T: float
    minima: tuple            # (alpha, F) pairs, parabola-refined
    inflections: tuple       # alpha values, refined
    binodal: tuple           # (lo, hi) intervals
    metastable: tuple
    spinodal: tuple
    indeterminate: tuple
    p_eq: tuple
    minima_stable: bool      # minima count unchanged under grid halving


def compute_isotherms(p: ModelParams, t_values, alphas) -> list[Isotherm]:
    """F along the alpha grid at each temperature of t_values.

    F and validity come from one thermo.sweep_potentials call over the
    grid: the tables do not depend on T, so one solve serves every
    isotherm, and the sweep holds one batch's tables at a time.
    """
    alphas = np.asarray(list(alphas), dtype=float)
    t_values = [float(t) for t in t_values]
    points = [p.with_(alpha=float(a)) for a in alphas]
    states = sweep_potentials(points, [t_values] * len(points))     # per alpha, per T
    return [
        Isotherm(
            T=t,
            alphas=alphas,
            F=np.array([s[j].F for s in states], dtype=float),
            valid=np.array([s[j].valid for s in states], dtype=bool),
        )
        for j, t in enumerate(t_values)
    ]


def compute_isotherm(p: ModelParams, t: float, alphas) -> Isotherm:
    """F along the alpha grid at temperature t (see compute_isotherms)."""
    return compute_isotherms(p, [t], alphas)[0]


def pressure_from_f(f_of_alpha, alpha: float, rel_step: float = 1e-3) -> float:
    """p_alpha = -dF/dalpha by central difference with one Richardson step."""
    h = rel_step * max(abs(alpha), 1.0)

    def deriv(hh: float) -> float:
        f_hi, f_lo = f_of_alpha(alpha + hh), f_of_alpha(alpha - hh)
        if not (math.isfinite(f_hi) and math.isfinite(f_lo)):
            raise InvalidPointError(
                f"invalid free energy in the stencil around alpha={alpha:.6g}"
            )
        return (f_hi - f_lo) / (2.0 * hh)

    d1, d2 = deriv(h), deriv(0.5 * h)
    return -(4.0 * d2 - d1) / 3.0


def pressure_alpha(p: ModelParams, t: float, alpha: float, rel_step: float = 1e-3) -> float:
    """Conjugate pressure to the asymmetry parameter at (T, alpha)."""

    def f(a: float) -> float:
        pt = potentials(p.with_(alpha=float(a)), t)
        return pt.F if pt.valid else math.nan

    return pressure_from_f(f, alpha, rel_step=rel_step)


def _parabolic_vertex(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Vertex of the parabola through three points."""
    c = np.polyfit(x, y, 2)
    if c[0] == 0.0:
        return float(x[1]), float(y[1])
    xv = -c[1] / (2.0 * c[0])
    yv = float(np.polyval(c, xv))
    lo, hi = float(x[0]), float(x[2])
    xv = min(max(xv, lo), hi)
    return float(xv), yv


def _valid_runs(valid: np.ndarray):
    runs = []
    start = None
    for i, ok in enumerate(valid):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(valid)))
    return runs


def _find_features(alphas, f):
    """Minima (refined (alpha, F)) and inflection alphas on one valid run."""
    minima, inflections = [], []
    d1 = np.diff(f) / np.diff(alphas)
    for j in range(len(d1) - 1):
        if d1[j] < 0.0 <= d1[j + 1]:
            minima.append(_parabolic_vertex(alphas[j : j + 3], f[j : j + 3]))
    mid = 0.5 * (alphas[:-1] + alphas[1:])
    d2 = np.diff(d1) / np.diff(mid)
    for j in range(len(d2) - 1):
        if d2[j] == 0.0:
            continue
        if d2[j] * d2[j + 1] < 0.0:
            # linear zero crossing of the (piecewise-linear) second derivative
            x0, x1 = mid[j : j + 2].mean(), mid[j + 1 : j + 3].mean()
            t_frac = d2[j] / (d2[j] - d2[j + 1])
            inflections.append(float(x0 + t_frac * (x1 - x0)))
    return minima, inflections


def _features(alphas, f, valid):
    """Sorted minima and inflections over the valid runs of at least
    MIN_POINTS points of one isotherm."""
    minima, inflections = [], []
    for lo, hi in _valid_runs(valid):
        if hi - lo < MIN_POINTS:
            continue
        m, infl = _find_features(alphas[lo:hi], f[lo:hi])
        minima.extend(m)
        inflections.extend(infl)
    return sorted(minima), sorted(inflections)


def spinodal_analysis(iso: Isotherm, check_stability: bool = True) -> SpinodalResult:
    """Classify one isotherm into binodal / metastable / spinodal intervals.

    Minima come from sign changes of the discrete first derivative
    (- to +), inflections from sign changes of the second; both are
    refined locally.  No minima means a homogeneous phase (empty result).
    """
    if int(np.sum(iso.valid)) < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} valid grid points")

    minima, inflections = _features(iso.alphas, iso.F, iso.valid)

    binodal, metastable, spinodal, indeterminate, p_eq = [], [], [], [], []
    invalid_alphas = iso.alphas[~iso.valid]
    for (a1, f1), (a2, f2) in zip(minima[:-1], minima[1:]):
        if np.any((invalid_alphas > a1) & (invalid_alphas < a2)):
            indeterminate.append((a1, a2))
            continue
        binodal.append((a1, a2))
        p_eq.append(abs((f2 - f1) / (a2 - a1)))
        inside = [x for x in inflections if a1 < x < a2]
        if len(inside) >= 2:
            i1, i2 = inside[0], inside[-1]
            spinodal.append((i1, i2))
            metastable.append((a1, i1))
            metastable.append((i2, a2))
        else:
            metastable.append((a1, a2))

    stable = True
    if check_stability and len(iso.alphas) >= 9:
        half_minima, _ = _features(iso.alphas[::2], iso.F[::2], iso.valid[::2])
        stable = len(half_minima) == len(minima)

    return SpinodalResult(
        T=iso.T,
        minima=tuple(minima),
        inflections=tuple(inflections),
        binodal=tuple(binodal),
        metastable=tuple(metastable),
        spinodal=tuple(spinodal),
        indeterminate=tuple(indeterminate),
        p_eq=tuple(p_eq),
        minima_stable=stable,
    )


def _interp_f(iso: Isotherm, alpha: float) -> float:
    return float(np.interp(alpha, iso.alphas[iso.valid], iso.F[iso.valid]))


def heterogeneous_free_energy(res: SpinodalResult, iso: Isotherm, alpha: float) -> float:
    """Lever-rule mixed free energy inside the binodal containing alpha.

    F_het = (a2-a)/(a2-a1) F1 + (a-a1)/(a2-a1) F2; must not exceed the
    homogeneous F(alpha) inside the binodal.
    """
    for (a1, f1), (a2, f2) in zip(res.minima[:-1], res.minima[1:]):
        if (a1, a2) in res.binodal and a1 <= alpha <= a2:
            c1 = (a2 - alpha) / (a2 - a1)
            f_het = c1 * f1 + (1.0 - c1) * f2
            f_hom = _interp_f(iso, alpha)
            scale = max(abs(f_hom), abs(f_het), 1.0)
            if f_het > f_hom + 1e-9 * scale:
                raise ClassificationError(
                    f"lever-rule mixture above homogeneous F at alpha={alpha:.6g}"
                )
            return f_het
    raise ValueError(f"alpha={alpha:.6g} lies in no binodal interval")


def maxwell_check(
    p: ModelParams, t: float, alpha: float, rel_step: float = 1e-3
) -> dict:
    """Cross-relation dS/dalpha|_T = dp_alpha/dT|_alpha by central differences.

    Returns both sides and their residual relative to max(|lhs|, |rhs|, eps).
    If any stencil point is invalid the residual is NaN and flagged.
    """
    h_a = rel_step * max(abs(alpha), 1.0)
    h_t = rel_step * t

    def entropy(a: float) -> float:
        pt = potentials(p.with_(alpha=float(a)), t)
        return pt.S if pt.valid else math.nan

    try:
        s_hi, s_lo = entropy(alpha + h_a), entropy(alpha - h_a)
        lhs = (s_hi - s_lo) / (2.0 * h_a)
        p_hi = pressure_alpha(p, t + h_t, alpha, rel_step=rel_step)
        p_lo = pressure_alpha(p, t - h_t, alpha, rel_step=rel_step)
        rhs = (p_hi - p_lo) / (2.0 * h_t)
    except InvalidPointError:
        return {"dS_dalpha": math.nan, "dp_dT": math.nan, "residual": math.nan,
                "crossed_invalid": True}
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        return {"dS_dalpha": lhs, "dp_dT": rhs, "residual": math.nan,
                "crossed_invalid": True}
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)
    return {"dS_dalpha": lhs, "dp_dT": rhs, "residual": residual,
            "crossed_invalid": False}
