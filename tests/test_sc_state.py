import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_sc.errors import DomainError
from casimir_sc.materials import GOLD, LEAD
from casimir_sc.sc_state import (
    ModulationSpec,
    Phase,
    critical_field,
    field_waveform,
    force_signal,
    penetration_depth,
    pulse_f,
    resolve_phase,
    shifted_tc,
)


# ---------------------------------------------------------------------------
# critical field and shifted transition temperature


def test_critical_field_endpoints():
    assert critical_field(LEAD, 0.0) == 800.0
    assert critical_field(LEAD, 7.2) == 0.0


def test_critical_field_at_624():
    assert critical_field(LEAD, 6.24) == pytest.approx(200.0, abs=1.5)


def test_critical_field_domain():
    with pytest.raises(DomainError):
        critical_field(LEAD, 7.3)
    with pytest.raises(DomainError):
        critical_field(LEAD, -0.1)
    with pytest.raises(DomainError):
        critical_field(GOLD, 1.0)


def test_shifted_tc_examples():
    assert shifted_tc(LEAD, 200.0) == pytest.approx(6.24, abs=0.01)
    assert shifted_tc(LEAD, 0.0) == 7.2
    assert shifted_tc(LEAD, 800.0) == 0.0
    with pytest.raises(DomainError):
        shifted_tc(LEAD, 800.1)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=800.0))
def test_shifted_tc_inverts_critical_field(h):
    t = shifted_tc(LEAD, h)
    assert critical_field(LEAD, t) == pytest.approx(h, rel=1e-10, abs=1e-7)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-3, max_value=7.2))
def test_critical_field_inverts_shifted_tc(t):
    # below t ~ sqrt(eps)*tc the round trip loses the (t/tc)^2 increment to
    # float rounding inside 1 - H/hc0; the endpoint itself stays exact
    h = critical_field(LEAD, t)
    assert shifted_tc(LEAD, h) == pytest.approx(t, rel=1e-10, abs=1e-9)


def test_round_trip_corner_points():
    assert shifted_tc(LEAD, critical_field(LEAD, 0.0)) == 0.0
    assert shifted_tc(LEAD, critical_field(LEAD, 7.2)) == 7.2
    assert critical_field(LEAD, shifted_tc(LEAD, 0.0)) == 0.0
    assert critical_field(LEAD, shifted_tc(LEAD, 800.0)) == 800.0


# ---------------------------------------------------------------------------
# penetration depth


def test_penetration_depth_values():
    assert penetration_depth(LEAD, 0.0) == 35.0
    assert penetration_depth(LEAD, 3.6) == pytest.approx(35.0 / math.sqrt(1 - 0.0625),
                                                         rel=1e-12)
    assert penetration_depth(LEAD, 3.6) == pytest.approx(1.0328 * 35.0, rel=1e-4)
    assert penetration_depth(LEAD, 0.999 * 7.2) > 10 * 35.0


def test_penetration_depth_domain():
    with pytest.raises(DomainError):
        penetration_depth(LEAD, 7.2)
    with pytest.raises(DomainError):
        penetration_depth(LEAD, 7.3)


# ---------------------------------------------------------------------------
# phase resolution


def test_resolve_phase_examples():
    assert resolve_phase(LEAD, 6.24, 150.0).phase is Phase.SUPERCONDUCTING
    assert resolve_phase(LEAD, 6.24, 250.0).phase is Phase.NORMAL
    assert resolve_phase(LEAD, 8.0, 0.0).phase is Phase.NORMAL
    assert resolve_phase(GOLD, 0.5, 0.0).phase is Phase.NORMAL


def test_resolve_phase_boundary_is_normal():
    h_c = critical_field(LEAD, 4.0)
    assert resolve_phase(LEAD, 4.0, h_c).phase is Phase.NORMAL
    assert resolve_phase(LEAD, 7.2, 0.0).phase is Phase.NORMAL


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=8.0),
       st.floats(min_value=0.0, max_value=900.0),
       st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_resolve_phase_monotone(t, h, dh, dt):
    base = resolve_phase(LEAD, t, h).phase
    if base is Phase.NORMAL:
        assert resolve_phase(LEAD, t, h + dh).phase is Phase.NORMAL
        assert resolve_phase(LEAD, t + dt, h).phase is Phase.NORMAL


# ---------------------------------------------------------------------------
# pulse and waveforms


def test_pulse_values():
    period = 1.0 / 300.0
    assert pulse_f(period / 4.0, period) == 0.5
    assert pulse_f(-period / 4.0, period) == -0.5
    assert pulse_f(0.0, period) == 0.0
    assert pulse_f(period / 2.0, period) == 0.0


@settings(max_examples=10_000, deadline=None)
@given(st.floats(min_value=-50.0, max_value=50.0))
def test_pulse_periodic_and_odd(t):
    period = 1.0
    # keep away from the switching instants, where float reduction of the
    # two arguments can land on opposite sides of the jump
    frac = t - math.floor(t)
    if min(abs(frac), abs(frac - 0.5), abs(frac - 1.0)) < 1e-9:
        return
    assert pulse_f(t + period, period) == pulse_f(t, period)
    assert pulse_f(-t, period) == -pulse_f(t, period)
    assert pulse_f(t, period) in (-0.5, 0.0, 0.5)


def test_field_waveform_phases():
    spec = ModulationSpec(base_temperature=6.24, h=20.0, frequency=300.0)
    period = spec.period
    up = field_waveform(spec, LEAD, period / 4.0)
    down = field_waveform(spec, LEAD, 3.0 * period / 4.0)
    h_c = critical_field(LEAD, 6.24)
    assert up.field == pytest.approx(h_c + 10.0, rel=1e-12)
    assert up.phase is Phase.NORMAL
    assert down.field == pytest.approx(h_c - 10.0, rel=1e-12)
    assert down.phase is Phase.SUPERCONDUCTING


def test_field_waveform_two_phases_per_period():
    spec = ModulationSpec(base_temperature=5.0, h=12.0, frequency=100.0)
    period = spec.period
    n = 1000
    phases = [field_waveform(spec, LEAD, (k + 0.5) * period / n).phase for k in range(n)]
    assert phases.count(Phase.NORMAL) == n // 2
    assert phases.count(Phase.SUPERCONDUCTING) == n // 2


def test_modulation_spec_validation():
    good = dict(base_temperature=5.0, h=10.0, frequency=300.0)
    for key in good:
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="positive and finite"):
                ModulationSpec(**{**good, key: bad})
    spec = ModulationSpec(base_temperature=7.5, h=10.0, frequency=300.0)
    with pytest.raises(DomainError):
        field_waveform(spec, LEAD, 0.0)


# ---------------------------------------------------------------------------
# force signal


def test_force_signal_structure():
    spec = ModulationSpec(base_temperature=6.24, h=20.0, frequency=300.0)
    sig = force_signal(mean=100.0, jump=18.0, spec=spec)
    period = spec.period
    assert sig.waveform(period / 4.0) == pytest.approx(109.0, rel=1e-15)
    assert sig.waveform(3.0 * period / 4.0) == pytest.approx(91.0, rel=1e-15)
    assert sig.waveform(0.0) == pytest.approx(100.0, rel=1e-15)


def test_force_signal_constant_when_jump_zero():
    spec = ModulationSpec(base_temperature=6.24, h=20.0, frequency=300.0)
    sig = force_signal(mean=42.0, jump=0.0, spec=spec)
    for frac in (0.1, 0.3, 0.7, 0.9):
        assert sig.waveform(frac * spec.period) == 42.0


def test_force_signal_period_average():
    spec = ModulationSpec(base_temperature=6.24, h=20.0, frequency=250.0)
    sig = force_signal(mean=57.0, jump=11.0, spec=spec)
    n = 4096
    samples = [sig.waveform((k + 0.5) * spec.period / n) for k in range(n)]
    assert sum(samples) / n == pytest.approx(57.0, rel=1e-12)
