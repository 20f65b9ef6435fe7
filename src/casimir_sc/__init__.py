"""Casimir force change across the field-driven superconducting transition.

Computes the finite-temperature Lifshitz free energy between a gold-coated
sphere and a thick lead film, with Drude optics for the normal state and
dirty-limit BCS (Mattis-Bardeen) optics for the superconducting state, and
the resulting sphere-plate force jump via the proximity force approximation.
"""

__version__ = "0.1.0"


def __getattr__(name: str):
    # numpy loads on first use, after cli.py has set its BLAS thread count
    if name in ("LEAD", "default_gap"):
        from . import materials
        return getattr(materials, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
