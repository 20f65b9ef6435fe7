"""The summation references of summation_references.json, recomputed."""

import json
from pathlib import Path

import pytest

import oracles
from casimir_sc.lifshitz import EngineConfig
from casimir_sc.materials import GOLD, LEAD
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
