"""Ablation experiments for PCMAC's fiat design constants.

The paper fixes four knobs without sensitivity analysis; each function here
sweeps one of them under an otherwise fixed scenario so the benches can
chart the trade-off:

* ``margin_coefficient`` (0.7) — how much of an advertised tolerance a
  contender may consume;
* ``control_rate_bps`` (500 kbps) — the control channel's bandwidth, which
  sets PCN airtime and hence its collision window;
* ``three_way_data`` — PCMAC with the classic four-way DATA handshake
  re-enabled (isolates how much of the gain comes from removing the ACK);
* ``history_expiry_s`` (3 s) — how long a gain estimate stays trusted.

Every sweep expands into content-addressed :class:`~repro.campaign.spec.RunSpec`
cells and routes through the campaign runner, so all ablations accept
``jobs`` (worker count) and ``store`` (on-disk memoisation).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.campaign.runner import run_specs
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore
from repro.config import ScenarioConfig
from repro.experiments.scenario import ExperimentResult
from repro.scenariospec import ComponentSpec, ScenarioSpec


def _run_keyed(
    keyed_specs: list[tuple], *, jobs: int, store: ResultStore | None
) -> dict:
    """Execute ``(label, spec)`` pairs; return ``label -> result``."""
    specs = [spec for _, spec in keyed_specs]
    report = run_specs(specs, jobs=jobs, store=store)
    return {
        label: report.results[spec.key()] for label, spec in keyed_specs
    }


def run_margin_ablation(
    base: ScenarioConfig,
    coefficients: Sequence[float] = (0.5, 0.7, 0.9, 1.0),
    *,
    jobs: int = 1,
    store: ResultStore | None = None,
) -> dict[float, ExperimentResult]:
    """PCMAC throughput/delay as the 0.7 admission margin varies."""
    keyed = [
        (
            coeff,
            RunSpec(
                scenario=ScenarioSpec(
                    cfg=replace(
                        base, pcmac=replace(base.pcmac, margin_coefficient=coeff)
                    ),
                    mac="pcmac",
                )
            ),
        )
        for coeff in coefficients
    ]
    return _run_keyed(keyed, jobs=jobs, store=store)


def run_control_rate_ablation(
    base: ScenarioConfig,
    rates_kbps: Sequence[float] = (100, 250, 500, 1000),
    *,
    jobs: int = 1,
    store: ResultStore | None = None,
) -> dict[float, ExperimentResult]:
    """PCMAC sensitivity to the control channel bandwidth."""
    keyed = [
        (
            rate,
            RunSpec(
                scenario=ScenarioSpec(
                    cfg=replace(
                        base,
                        pcmac=replace(base.pcmac, control_rate_bps=rate * 1000.0),
                    ),
                    mac="pcmac",
                )
            ),
        )
        for rate in rates_kbps
    ]
    return _run_keyed(keyed, jobs=jobs, store=store)


def run_handshake_ablation(
    base: ScenarioConfig,
    *,
    jobs: int = 1,
    store: ResultStore | None = None,
) -> dict[str, ExperimentResult]:
    """PCMAC with three-way vs four-way DATA handshake."""
    keyed = [
        ("three_way", RunSpec(scenario=ScenarioSpec(cfg=base, mac="pcmac"))),
        (
            "four_way",
            RunSpec(
                scenario=ScenarioSpec(
                    cfg=replace(
                        base, pcmac=replace(base.pcmac, three_way_data=False)
                    ),
                    mac="pcmac",
                )
            ),
        ),
    ]
    return _run_keyed(keyed, jobs=jobs, store=store)


def run_propagation_ablation(
    base: ScenarioConfig,
    exponents: Sequence[float] = (2.4, 2.7, 3.0),
    protocols: Sequence[str] = ("basic", "pcmac"),
    *,
    jobs: int = 1,
    store: ResultStore | None = None,
) -> dict[tuple[str, float], ExperimentResult]:
    """PCMAC-vs-basic under log-distance path loss instead of two-ray.

    The paper's results live entirely in the NS-2 two-ray world; this checks
    that PCMAC's advantage is a property of the protocol, not of the ``1/d⁴``
    branch's conveniently sharp cut-off.  Higher exponents shrink all ranges
    (thresholds are unchanged), so absolute throughput drops with the
    exponent; the claim under test is only the protocol *ordering*.
    """
    keyed = []
    for exponent in exponents:
        model = ComponentSpec(
            "log_distance", frequency_hz=base.phy.frequency_hz, exponent=exponent
        )
        for protocol in protocols:
            keyed.append(
                (
                    (protocol, exponent),
                    RunSpec(
                        scenario=ScenarioSpec(
                            cfg=base, mac=protocol, propagation=model
                        )
                    ),
                )
            )
    return _run_keyed(keyed, jobs=jobs, store=store)


def run_history_expiry_ablation(
    base: ScenarioConfig,
    expiries_s: Sequence[float] = (0.5, 3.0, 10.0),
    *,
    jobs: int = 1,
    store: ResultStore | None = None,
) -> dict[float, ExperimentResult]:
    """Power-history lifetime sweep (stale gains vs constant max-power misses)."""
    keyed = [
        (
            expiry,
            RunSpec(
                scenario=ScenarioSpec(
                    cfg=replace(
                        base, power=replace(base.power, history_expiry_s=expiry)
                    ),
                    mac="pcmac",
                )
            ),
        )
        for expiry in expiries_s
    ]
    return _run_keyed(keyed, jobs=jobs, store=store)
