"""The ``bulk_exact`` contract: scalar vs numpy propagation bit-identity.

A model that advertises ``bulk_exact = True`` promises that
``gain_at_many`` equals ``gain_at`` bit for bit, so a caller may use bulk
values wherever scalar ones are required; a single ulp of divergence would
break the bit-identity guarantee the differential suite enforces on whole
``ExperimentResult``s.  These tests pin the contract at its source:

* :class:`FreeSpace` and :class:`TwoRayGround` — exact equality on a wide
  log-spaced distance sweep, plus adversarial points (the clamp boundary,
  the two-ray crossover and its float neighbours).
* :class:`LogDistanceShadowing` — declared inexact, so the channel's
  fan-out evaluates it with scalar ``gain_at``; we assert it *stays*
  declared inexact and that bulk results remain within a ~1-ulp
  tolerance.
* :func:`distance` — the scalar helper must match the equivalent numpy
  expression bit-for-bit (the reason it is not ``math.hypot``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.phy.propagation import (
    MIN_DISTANCE_M,
    FreeSpace,
    LogDistanceShadowing,
    TwoRayGround,
    distance,
)

MODELS_EXACT = [
    pytest.param(FreeSpace(), id="free_space"),
    pytest.param(TwoRayGround(), id="two_ray"),
    pytest.param(
        TwoRayGround(frequency_hz=2.4e9, height_tx_m=1.0, height_rx_m=2.0,
                     system_loss=1.2),
        id="two_ray_24ghz",
    ),
]


def _sweep(model) -> np.ndarray:
    """Distances covering clamp, both branches, and branch boundaries."""
    pts = list(np.geomspace(1e-3, 5e4, 400))
    pts += [0.0, MIN_DISTANCE_M, MIN_DISTANCE_M * (1 + 1e-15)]
    cross = getattr(model, "crossover_m", None)
    if cross is not None:
        pts += [cross, math.nextafter(cross, 0.0), math.nextafter(cross, math.inf)]
    return np.asarray(pts, dtype=float)


class TestBulkExactModels:
    @pytest.mark.parametrize("model", MODELS_EXACT)
    def test_flag_is_set(self, model):
        assert model.bulk_exact is True

    @pytest.mark.parametrize("model", MODELS_EXACT)
    def test_bulk_matches_scalar_bitwise(self, model):
        d = _sweep(model)
        bulk = model.gain_at_many(d)
        scalar = np.array([model.gain_at(float(x)) for x in d])
        # == on floats is exactly the bit-identity we promise (no NaNs here).
        mismatch = np.nonzero(bulk != scalar)[0]
        assert mismatch.size == 0, (
            f"{type(model).__name__}: {mismatch.size} bulk/scalar mismatches, "
            f"first at d={d[mismatch[0]]!r}: "
            f"{bulk[mismatch[0]].hex()} != {scalar[mismatch[0]].hex()}"
        )

    @pytest.mark.parametrize("model", MODELS_EXACT)
    def test_bulk_matches_base_class_loop(self, model):
        """The closed-form override equals the base fromiter fallback."""
        d = _sweep(model)
        base = super(type(model), model).gain_at_many(d)
        assert np.array_equal(model.gain_at_many(d), base)

    def test_two_ray_continuous_at_crossover(self):
        model = TwoRayGround()
        c = model.crossover_m
        below = model.gain_at(math.nextafter(c, 0.0))
        at = model.gain_at(c)
        assert at == pytest.approx(below, rel=1e-12)


class TestInexactModelContract:
    def test_log_distance_stays_declared_inexact(self):
        # If someone flips this flag the channel would start scheduling
        # powers from a path that is NOT bit-identical — fail loudly.
        assert LogDistanceShadowing().bulk_exact is False

    @pytest.mark.parametrize(
        "model",
        [
            pytest.param(LogDistanceShadowing(), id="default"),
            pytest.param(LogDistanceShadowing(exponent=4.0, shadowing_db=3.0),
                         id="exp4_shadowed"),
        ],
    )
    def test_log_distance_within_cull_tolerance(self, model):
        d = _sweep(model)
        bulk = model.gain_at_many(d)
        scalar = np.array([model.gain_at(float(x)) for x in d])
        # The channel never uses these bulk values; bound their divergence.
        np.testing.assert_allclose(bulk, scalar, rtol=1e-12)


class TestDistanceHelper:
    def test_matches_numpy_expression_bitwise(self):
        rng = np.random.default_rng(7)
        ax, ay = rng.uniform(0, 5000, 500), rng.uniform(0, 5000, 500)
        bx, by = rng.uniform(0, 5000, 500), rng.uniform(0, 5000, 500)
        dx, dy = ax - bx, ay - by
        bulk = np.sqrt(dx * dx + dy * dy)
        scalar = np.array(
            [distance((x1, y1), (x2, y2))
             for x1, y1, x2, y2 in zip(ax, ay, bx, by)]
        )
        assert np.array_equal(bulk, scalar)

    def test_symmetric(self):
        # (rx - src) vs (src - rx) is exact negation; dx*dx is identical.
        a, b = (12.34, 56.78), (90.12, 3.456)
        assert distance(a, b) == distance(b, a)
