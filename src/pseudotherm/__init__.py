"""Exact thermodynamics of a collective spin ensemble asymmetrically coupled
to a two-level pairing register.

The model block-diagonalizes over conserved quantum numbers, which makes the
grand partition function an exact finite sum: complex-conjugate eigenvalue
pairs fold into real Boltzmann terms that can cancel, producing zeros of Z at
real temperature in the broken-symmetry phase.  The package computes complex
spectra, exceptional points, thermodynamic potentials, phase-stability
constructions and quantum heat cycles on top of that sum.
"""

from .blocks import BlockLabel, enumerate_blocks
from .model import ModelParams, RescaledParams, rescale
from .spectral import diagonalize, find_eps, ground_state_info
from .thermo import (
    ThermoPoint,
    critical_temperature,
    find_zeros,
    pairing_gap,
    partition_function,
    potentials,
)

__all__ = [
    "BlockLabel",
    "ModelParams",
    "RescaledParams",
    "ThermoPoint",
    "critical_temperature",
    "diagonalize",
    "enumerate_blocks",
    "find_eps",
    "find_zeros",
    "ground_state_info",
    "pairing_gap",
    "partition_function",
    "potentials",
    "rescale",
]

__version__ = "0.1.0"
