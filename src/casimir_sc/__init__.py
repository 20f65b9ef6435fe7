"""Casimir force change across the field-driven superconducting transition.

Computes the finite-temperature Lifshitz free energy between a gold-coated
sphere and a thick lead film, with Drude optics for the normal state and
dirty-limit BCS (Mattis-Bardeen) optics for the superconducting state, and
the resulting sphere-plate force jump via the proximity force approximation.
"""

from .materials import LEAD, default_gap  # noqa: F401

__version__ = "0.1.0"
