"""The references of summation_references.json, recomputed, the physics
reference's g against the 30-digit energy integral, and the engine's error
estimates against the summation references."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from casimir_sc.constants import CONST
from casimir_sc.lifshitz import EngineConfig, free_energy, free_energy_difference
from casimir_sc.materials import GOLD, LEAD, bcs_gap, mattis_bardeen_g
from casimir_sc.sc_state import shifted_tc

REFERENCES = json.loads(Path(__file__).with_name("summation_references.json")
                        .read_text(encoding="utf-8"))["references"]


def _evaluate(call: str) -> float:
    """A reference's call, with the names the file says are in scope."""
    return eval(call, {"oracles": oracles, "EngineConfig": EngineConfig, "GOLD": GOLD,
                       "LEAD": LEAD, "shifted_tc": shifted_tc})


def test_delta_f_200_reference_recomputes():
    """The cheapest reference, ΔF at 200 Oe (0.2 s, 20,039 terms), comes
    back from its recorded call to 1e-12."""
    ref = REFERENCES["delta_f_200"]
    assert _evaluate(ref["call"]) == pytest.approx(ref["value"], rel=1e-12, abs=0.0)


def test_delta_f_200_physics_reference_recomputes():
    """The physics reference at 200 Oe, the same sum on mattis_bardeen_g at
    each xi_l (0.8 s), comes back from its recorded call to 1e-12."""
    ref = REFERENCES["delta_f_200_energy_integral"]
    assert _evaluate(ref["call"]) == pytest.approx(ref["value"], rel=1e-12, abs=0.0)


def test_physics_reference_g_matches_mpmath():
    """The physics reference's g, mattis_bardeen_g at xi_l for l = 1, 10, 100
    and 1,000 at 200 Oe, is the 30-digit mpmath energy integral to 1e-10,
    the column's goal (1.2e-13 seen)."""
    T = shifted_tc(LEAD, 200.0)
    xi = 2.0 * math.pi * CONST.k_b * T * np.array([1.0, 10.0, 100.0, 1000.0])
    delta = bcs_gap(LEAD, T)
    for x, g in zip(xi, mattis_bardeen_g(LEAD, xi, T)):
        want = oracles.g_energy_integral_mp(float(x), delta, CONST.k_b * T) / LEAD.gamma
        assert g == pytest.approx(want, rel=1e-10, abs=0.0), x


@pytest.mark.parametrize("name", ["delta_f_200", "delta_f_775", "f_normal_200"])
def test_error_estimate_bounds_distance_to_summation_reference(name):
    """The engine's error estimate covers its distance from each summation
    reference (F_n - F_s: 3.2e-7 and 1.5e-6 relative off, against estimates
    of 3.4e-7 and 1.65e-6; F_n: 1.3e-14 off, against 1.0e-9)."""
    ref = REFERENCES[name]
    series = free_energy if ref["quantity"] == "F_n" else free_energy_difference
    res = series(GOLD, LEAD, shifted_tc(LEAD, ref["field_oe"]), ref["gap_nm"], EngineConfig())
    assert res.error_estimate >= abs(res.value - ref["value"])
