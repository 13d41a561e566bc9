"""Differential suite: indexed fan-out with waves vs the brute per-edge oracle.

The spatial-index channel hands every transmission's signal edges to the
kernel as one wave (replayed from a cached template in all-static worlds,
sorted once per transmit in mobile ones).  It must produce
**bit-identical** :class:`~repro.metrics.ExperimentResult`\\ s (including
``events_executed``) to the slowest, most literal execution path: the
brute-force channel scan, which schedules every edge as its own event.
Every optimisation in the stack is therefore falsifiable by one equality on
the full result dataclass.

Scenarios are drawn at random by hypothesis across protocol, node count,
duration and seed, in static and mobile variants.  On failure the *runnable
spec JSON* is attached via ``hypothesis.note`` so a counterexample can be
replayed with ``python -m repro quick --scenario <file>`` directly.

Example budgets follow the profiles in ``tests/conftest.py`` (``dev``
locally, ``--hypothesis-profile=ci`` in the differential CI job).
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace

import pytest
from hypothesis import currently_in_test_context, given, note
from hypothesis import strategies as st

from repro.builder import NetworkBuilder
from repro.config import ScenarioConfig
from repro.scenariospec import SCENARIO_SCHEMA_VERSION, ScenarioSpec


def make_spec(
    protocol: str, mobile: bool, n: int, duration_s: float, seed: int
) -> ScenarioSpec:
    cfg = replace(
        ScenarioConfig(), node_count=n, duration_s=duration_s, seed=seed
    )
    return ScenarioSpec.from_legacy(cfg, protocol, mobile=mobile)


def run_spec(spec: ScenarioSpec, *, oracle: bool) -> dict:
    """Build + run one spec; the full result dict minus wall-clock time.

    The oracle side disables the spatial index, so every signal edge is
    scheduled (and dispatched) as its own event.
    """
    net = NetworkBuilder(spec, spatial_index=not oracle).build()
    result = asdict(net.run())
    result.pop("wallclock_s")  # the only legitimately nondeterministic field
    return result


def assert_waves_identical(
    protocol: str, mobile: bool, n: int, duration_s: float, seed: int
) -> dict:
    """Oracle vs waves: full-result bit identity, spec noted on failure."""
    spec = make_spec(protocol, mobile, n, duration_s, seed)
    # Attach the runnable spec JSON to any failure: via hypothesis notes
    # inside property tests, via captured stdout (shown only on failure)
    # for the deterministic cases.
    repro_hint = (
        f"spec (run with `python -m repro quick --scenario <file>`):\n"
        f"{spec.to_json(indent=2)}"
    )
    if currently_in_test_context():
        note(repro_hint)
    else:
        print(repro_hint)
    want = run_spec(spec, oracle=True)
    got = run_spec(spec, oracle=False)
    assert got == want
    assert got["events_executed"] == want["events_executed"] > 0
    return got


class TestRandomScenarioEquivalence:
    """Hypothesis-drawn worlds: waves reproduce the per-edge oracle.

    Static worlds replay cached wave templates; mobile worlds sort their
    survivors into a fresh wave at every transmit.
    """

    @pytest.mark.parametrize("mobile", [False, True], ids=["static", "mobile"])
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=4, max_value=40),
        protocol=st.sampled_from(["basic", "pcmac"]),
        duration_s=st.sampled_from([2.0, 3.0, 5.0]),
    )
    def test_full_results_bit_identical(self, mobile, seed, n, protocol, duration_s):
        assert_waves_identical(protocol, mobile, n, duration_s, seed)


class TestDenseBlockEquivalence:
    """Deterministic worlds dense enough that waves carry ~100 edges."""

    @pytest.mark.parametrize("protocol", ["basic", "pcmac"])
    def test_static_dense_world(self, protocol):
        result = assert_waves_identical(
            protocol, mobile=False, n=80, duration_s=3.0, seed=5
        )
        assert result["sent"] > 0  # non-vacuous: traffic actually flowed

    def test_mobile_world_uses_per_transmit_wave_sort(self):
        assert_waves_identical("basic", mobile=True, n=70, duration_s=3.0, seed=9)


class TestRetiredEngineSlot:
    """Specs up to schema 7 may name an ``engine``; it is read and ignored."""

    @pytest.mark.parametrize(
        "engine",
        [
            "default",
            {"name": "turbo", "params": {"bucket_width_s": 0.05}},
            {"name": "default", "params": {"scheduler": "calendar", "fanout": "soa"}},
        ],
    )
    def test_engine_key_loads_and_is_ignored(self, engine):
        spec = make_spec("pcmac", True, 10, 2.0, 7)
        legacy = spec.to_dict()
        legacy["schema"] = 7
        legacy["components"]["engine"] = engine
        again = ScenarioSpec.from_json(json.dumps(legacy))
        assert again == spec
        assert again.key() == spec.key()
        assert again.to_dict()["schema"] == SCENARIO_SCHEMA_VERSION == 8
        assert "engine" not in again.to_dict()["components"]

    def test_engine_slot_is_rejected_at_the_current_schema(self):
        """Only old files may carry it; today's writer never emits it."""
        data = make_spec("basic", False, 6, 2.0, 1).to_dict()
        data["components"]["engine"] = "default"
        with pytest.raises(ValueError, match="unknown component slot"):
            ScenarioSpec.from_dict(data)
