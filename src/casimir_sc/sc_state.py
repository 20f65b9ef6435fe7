"""Thermodynamic state of the superconducting film and the field modulation.

Critical field H_c(T) = H_c(0) (1 - (T/Tc)^2), penetration depth
lambda(T) = lambda(0) (1 - (T/Tc)^4)^(-1/2), the field-shifted transition
temperature, phase resolution, and the square-wave drive H(t), F_C(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .errors import DomainError
from .materials import MaterialParams


class Phase(Enum):
    NORMAL = "normal"
    SUPERCONDUCTING = "superconducting"


@dataclass(frozen=True)
class ThermoPoint:
    temperature: float  # K
    field: float        # Oe
    phase: Phase


@dataclass(frozen=True)
class ModulationSpec:
    """Square-wave field drive around H_c(base_temperature)."""

    base_temperature: float  # K
    h: float                 # modulation amplitude, Oe
    frequency: float         # Hz

    def __post_init__(self) -> None:
        if not 0.0 < self.base_temperature < math.inf:
            raise DomainError("base_temperature must be positive and finite")
        if not 0.0 < self.h < math.inf:
            raise DomainError("modulation amplitude h must be positive and finite")
        if not 0.0 < self.frequency < math.inf:
            raise DomainError("modulation frequency must be positive and finite")

    @property
    def period(self) -> float:
        return 1.0 / self.frequency


@dataclass(frozen=True)
class ForceSignal:
    """Two-level force waveform F(t) = mean + jump * f(t)."""

    mean_force: float  # fN
    jump: float        # fN
    waveform: Callable[[float], float] = field(compare=False)


def critical_field(material: MaterialParams, T: float) -> float:
    """Parabolic H_c(T) in Oe, defined on 0 <= T <= tc."""
    if not material.is_superconductor():
        raise DomainError(f"{material.name} is not a superconductor")
    if T < 0.0 or T > material.tc:
        raise DomainError("critical_field requires 0 <= T <= tc")
    if T == material.tc:
        return 0.0
    return material.hc0 * (1.0 - (T / material.tc) ** 2)


def penetration_depth(material: MaterialParams, T: float) -> float:
    """lambda(T) in nm; diverges toward tc and is undefined at or above it."""
    if not material.is_superconductor():
        raise DomainError(f"{material.name} is not a superconductor")
    if T < 0.0 or T >= material.tc:
        raise DomainError("penetration_depth requires 0 <= T < tc")
    return material.lambda0 / math.sqrt(1.0 - (T / material.tc) ** 4)


def shifted_tc(material: MaterialParams, H: float) -> float:
    """Field-shifted transition temperature tc * sqrt(1 - H/hc0)."""
    if not material.is_superconductor():
        raise DomainError(f"{material.name} is not a superconductor")
    if H < 0.0 or H > material.hc0:
        raise DomainError("shifted_tc requires 0 <= H <= hc0")
    return material.tc * math.sqrt(1.0 - H / material.hc0)


def resolve_phase(material: MaterialParams, T: float, H: float) -> ThermoPoint:
    """Superconducting iff T < tc and H < H_c(T); the boundary is normal."""
    if T < 0.0 or H < 0.0:
        raise DomainError("resolve_phase requires T >= 0 and H >= 0")
    if material.is_superconductor() and T < material.tc and H < critical_field(material, T):
        phase = Phase.SUPERCONDUCTING
    else:
        phase = Phase.NORMAL
    return ThermoPoint(temperature=T, field=H, phase=phase)


def pulse_f(t: float, period: float) -> float:
    """Odd unit-amplitude square pulse: +1/2 on (0, period/2), 0 at the jumps."""
    if period <= 0.0:
        raise DomainError("pulse period must be positive")
    tau = math.fmod(t, period)
    if tau < 0.0:
        tau += period
    half = 0.5 * period
    if tau == 0.0 or tau == half:
        return 0.0
    return 0.5 if tau < half else -0.5


def field_waveform(spec: ModulationSpec, material: MaterialParams, t: float) -> ThermoPoint:
    """H(t) = H_c(T) + h f(t) with the instantaneous-switch idealization."""
    if spec.base_temperature >= material.tc:
        raise DomainError("modulation base temperature must sit below tc")
    hc = critical_field(material, spec.base_temperature)
    h_now = hc + spec.h * pulse_f(t, spec.period)
    return resolve_phase(material, spec.base_temperature, h_now)


def force_signal(mean: float, jump: float, spec: ModulationSpec) -> ForceSignal:
    """Force waveform F(t) = mean + jump * f(t) for the drive in spec."""
    period = spec.period

    def waveform(t: float) -> float:
        return mean + jump * pulse_f(t, period)

    return ForceSignal(mean_force=mean, jump=jump, waveform=waveform)
