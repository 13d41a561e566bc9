"""Run specifications: frozen, content-addressed descriptions of one run.

A :class:`RunSpec` wraps the declarative
:class:`~repro.scenariospec.ScenarioSpec` — the single input to
:class:`~repro.builder.NetworkBuilder` — and is what the campaign runner
executes and the result store addresses.  Because the spec is an immutable
value type it can be

* hashed into a stable content key (:meth:`RunSpec.key`) for the result
  store — the key is computed over the *serialized scenario*, so cached
  results stay addressable by **what** ran, not by the Python call-site
  that ran it (``repro quick --scenario spec.json`` and a campaign cell
  describing the same scenario share a key),
* serialized into the fleet's work queue and rebuilt by any worker, and
* re-expanded into an identical simulation anywhere, any time.

The historical constructor ``RunSpec(cfg, protocol, positions=..., ...)``
still works: legacy keywords are translated through
:meth:`ScenarioSpec.from_legacy` exactly like the ``build_network`` shim.

:class:`Campaign` is the grid counterpart: protocols × loads × seeds over a
base config, expanded in the same nesting order the paper's serial sweep
used (load outermost, then protocol, then seed) so progress output and
result assembly stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Sequence

from repro.config import ScenarioConfig
from repro.obs.telemetry import DEFAULT_SLICES, TelemetryFn, run_sliced
from repro.registry import registry
from repro.scenariospec import SCENARIO_SCHEMA_VERSION, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.scenario import BuiltNetwork, ExperimentResult

#: The schema governing content keys.  RunSpec.key() delegates to
#: ScenarioSpec.key(), so this is definitionally the scenario schema —
#: aliased (not hand-copied) to keep the store's meta.json self-description
#: from drifting when the scenario serialisation is bumped.
SPEC_SCHEMA_VERSION = SCENARIO_SCHEMA_VERSION


@dataclass(frozen=True, init=False)
class RunSpec:
    """One simulation cell: a content-addressable scenario description."""

    scenario: ScenarioSpec

    def __init__(
        self,
        cfg: ScenarioConfig | None = None,
        protocol: str | None = None,
        *,
        scenario: ScenarioSpec | None = None,
        positions: Sequence[tuple[float, float]] | None = None,
        mobile: bool = True,
        routing: str = "aodv",
        flow_pairs: Sequence[tuple[int, int]] | None = None,
        propagation: Any = None,
    ) -> None:
        if scenario is not None:
            if cfg is not None or protocol is not None:
                raise ValueError(
                    "pass either scenario= or the legacy (cfg, protocol, ...) "
                    "arguments, not both"
                )
        else:
            if cfg is None or protocol is None:
                raise ValueError(
                    "RunSpec needs scenario= or the legacy (cfg, protocol) pair"
                )
            scenario = ScenarioSpec.from_legacy(
                cfg,
                protocol,
                positions=positions,
                mobile=mobile,
                routing=routing,
                flow_pairs=flow_pairs,
                propagation=propagation,
            )
        object.__setattr__(self, "scenario", scenario)

    # -------------------------------------------------------------- accessors

    @property
    def cfg(self) -> ScenarioConfig:
        """The cell's numeric configuration."""
        return self.scenario.cfg

    @property
    def protocol(self) -> str:
        """The cell's MAC component name."""
        return self.scenario.mac.name

    @property
    def seed(self) -> int:
        """The cell's RNG seed (carried by the config)."""
        return self.scenario.cfg.seed

    @property
    def load_kbps(self) -> float:
        """The cell's aggregate offered load [kbps]."""
        return self.scenario.cfg.traffic.offered_load_bps / 1000.0

    # --------------------------------------------------------------- identity

    def describe(self) -> dict:
        """Canonical JSON-able description (the hash pre-image) — the
        serialized :class:`ScenarioSpec`."""
        return self.scenario.canonical()

    def key(self) -> str:
        """Stable content hash identifying this cell in a result store."""
        return self.scenario.key()

    def label(self) -> str:
        """Short human-readable cell name for progress lines."""
        return self.scenario.label()

    # -------------------------------------------------------------- execution

    def build(self) -> "BuiltNetwork":
        """Wire the network this spec describes."""
        return self.scenario.build()

    def run(
        self,
        progress: TelemetryFn | None = None,
        *,
        slices: int = DEFAULT_SLICES,
    ) -> "ExperimentResult":
        """Build and execute the cell, returning its summary.

        With ``progress`` the cell runs in ``slices`` sim-time slices and
        ``progress`` receives a :class:`~repro.obs.telemetry.RunProgress`
        after each (see :func:`~repro.obs.telemetry.run_sliced`).
        """
        if progress is None:
            return self.scenario.run()
        return run_sliced(self, progress, slices=slices)


@dataclass(frozen=True)
class Campaign:
    """A protocol × load × seed grid over one base scenario."""

    base: ScenarioConfig
    protocols: tuple[str, ...]
    loads_kbps: tuple[float, ...]
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        mac_registry = registry("mac")
        for proto in self.protocols:
            if proto not in mac_registry:
                raise ValueError(
                    f"unknown protocol {proto!r}; "
                    f"choose from {', '.join(mac_registry.names())}"
                )
        if not (self.protocols and self.loads_kbps and self.seeds):
            raise ValueError("protocols, loads_kbps and seeds must be non-empty")

    @classmethod
    def build(
        cls,
        base: ScenarioConfig,
        protocols: Sequence[str],
        loads_kbps: Sequence[float],
        seeds: Sequence[int],
    ) -> "Campaign":
        """Normalising constructor (accepts any sequences)."""
        return cls(
            base=base,
            protocols=tuple(protocols),
            loads_kbps=tuple(float(x) for x in loads_kbps),
            seeds=tuple(int(s) for s in seeds),
        )

    @property
    def size(self) -> int:
        """Number of cells in the grid."""
        return len(self.protocols) * len(self.loads_kbps) * len(self.seeds)

    def specs(self) -> list[RunSpec]:
        """Expand the grid (load outermost, then protocol, then seed)."""
        out: list[RunSpec] = []
        for load in self.loads_kbps:
            for proto in self.protocols:
                for seed in self.seeds:
                    cfg = replace(
                        self.base,
                        seed=seed,
                        traffic=replace(
                            self.base.traffic, offered_load_bps=load * 1000.0
                        ),
                    )
                    out.append(
                        RunSpec(scenario=ScenarioSpec(cfg=cfg, mac=proto))
                    )
        return out
