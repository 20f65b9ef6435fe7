"""Casimir force change across the field-driven superconducting transition.

Computes the finite-temperature Lifshitz free energy between a gold-coated
sphere and a thick lead film, with Drude optics for the normal state and
dirty-limit BCS (Mattis-Bardeen) optics for the superconducting state, and
the resulting sphere-plate force jump via the proximity force approximation.
"""

from .constants import CONST, PhysConstants
from .errors import ConfigError, ConvergenceError, DomainError, PfaAccuracyWarning
from .materials import (
    GOLD,
    LEAD,
    REGISTRY,
    GapModel,
    MaterialParams,
    bcs_gap,
    default_gap,
    dirty_limit_ratio,
    drude_eps,
    eps_bcs,
    g_on_matsubara_grid,
    g_zero_limit,
    mattis_bardeen_g,
)
from .sc_state import (
    ForceSignal,
    ModulationSpec,
    Phase,
    ThermoPoint,
    critical_field,
    field_waveform,
    force_signal,
    penetration_depth,
    pulse_f,
    resolve_phase,
    shifted_tc,
)
from .lifshitz import (
    DeltaForceResult,
    EngineConfig,
    FreeEnergyResult,
    ReflectionPair,
    delta_force_pfa,
    free_energy,
    free_energy_difference,
    fresnel_te,
    fresnel_tm,
    ideal_mirror_free_energy,
    matsubara_xi,
    zero_mode_reflections,
)

__version__ = "0.1.0"

__all__ = [
    "CONST",
    "PhysConstants",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "PfaAccuracyWarning",
    "GOLD",
    "LEAD",
    "REGISTRY",
    "GapModel",
    "MaterialParams",
    "bcs_gap",
    "default_gap",
    "dirty_limit_ratio",
    "drude_eps",
    "eps_bcs",
    "g_on_matsubara_grid",
    "g_zero_limit",
    "mattis_bardeen_g",
    "ForceSignal",
    "ModulationSpec",
    "Phase",
    "ThermoPoint",
    "critical_field",
    "field_waveform",
    "force_signal",
    "penetration_depth",
    "pulse_f",
    "resolve_phase",
    "shifted_tc",
    "DeltaForceResult",
    "EngineConfig",
    "FreeEnergyResult",
    "ReflectionPair",
    "delta_force_pfa",
    "free_energy",
    "free_energy_difference",
    "fresnel_te",
    "fresnel_tm",
    "ideal_mirror_free_energy",
    "matsubara_xi",
    "zero_mode_reflections",
    "__version__",
]
