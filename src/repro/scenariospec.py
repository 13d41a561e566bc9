"""Declarative scenario descriptions: components as data, hashable, JSON-safe.

A :class:`ScenarioSpec` is the single input to
:class:`~repro.builder.NetworkBuilder`: the numeric
:class:`~repro.config.ScenarioConfig` plus one :class:`ComponentSpec`
(component name + params) per scenario slot — ``mac``, ``placement``,
``mobility``, ``routing``, ``traffic``, ``propagation``, ``energy``,
``observability``, ``faults``, ``reception`` — and optional explicit
flow endpoints.  Because every field is an immutable value type the
spec is hashable, picklable, and round-trips through JSON without loss::

    spec = ScenarioSpec(
        cfg=ScenarioConfig(node_count=16, duration_s=20.0),
        mac="pcmac",
        placement=ComponentSpec("grid"),
        traffic=ComponentSpec("poisson"),
    )
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    assert ScenarioSpec.from_json(spec.to_json()).key() == spec.key()

``key()`` is a stable content hash (independent of process, machine and
``PYTHONHASHSEED``) — the campaign result store addresses cached results by
*what* ran, not by the Python call-site that ran it.

Component names are resolved against :mod:`repro.registry` at *build* time;
a spec mentioning an unregistered component is still constructible and
hashable (it describes a scenario this process merely cannot build).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.config import ScenarioConfig
from repro.registry import SLOTS as COMPONENT_SLOTS

#: Bump when the spec serialisation or simulation semantics change
#: incompatibly — stored content keys then stop matching and are recomputed.
#: 3: the ``energy`` component slot joined the spec (default ``null``).
#: 4: the ``observability`` component slot joined the spec (default ``null``).
#: 5: the ``faults`` component slot joined the spec (default ``null``).
#: 6: the ``reception`` component slot joined the spec (default ``null``).
#: 7: the ``engine`` component slot joined the spec (default ``default`` —
#:    heap scheduler, scalar fan-out, no event pooling).
#: 8: the ``engine`` slot left the spec again: every engine was
#:    dispatch-order preserving, so it only hashed a no-op into every key.
SCENARIO_SCHEMA_VERSION = 8

#: Older schemas :meth:`ScenarioSpec.from_dict` still reads.  Schema-2/3/4/
#: 5/6 files simply lack the ``energy`` / ``observability`` / ``faults`` /
#: ``reception`` slots, which take their identity-preserving defaults;
#: files up to schema 7 may carry an ``engine`` slot (:data:`_RETIRED_SLOTS`),
#: which is ignored — results were bit-identical across engines.  The
#: simulated scenario is identical, so old spec.json files keep working
#: (they hash, like everything this build loads, under the current schema).
_READABLE_SCHEMAS = frozenset({2, 3, 4, 5, 6, 7, SCENARIO_SCHEMA_VERSION})

#: Component slots older schemas had and this one dropped, with the last
#: schema that had them: read and ignored in files of those schemas.
_RETIRED_SLOTS = {"engine": 7}


def _freeze(value: Any) -> Any:
    """Recursively convert lists/tuples to tuples (hashable spec values)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        raise TypeError(
            "component params must be scalars or (nested) sequences, not dicts"
        )
    return value


def _jsonable(value: Any) -> Any:
    """Recursively convert tuples to lists (JSON-ready spec values)."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    return value


def _normalize_numbers(value: Any) -> Any:
    """Render every non-bool number as float (hash pre-image only).

    JSON spells ``300000`` and ``300000.0`` differently, so without this a
    hand-written int in ``spec.json`` would content-hash away from the
    float-typed spec a Campaign generates for the *same* scenario.  The
    normalisation is applied to :meth:`ScenarioSpec.canonical` — never to
    :meth:`ScenarioSpec.to_dict` output, which must round-trip exact types.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return float(value)
    if isinstance(value, list):
        return [_normalize_numbers(v) for v in value]
    if isinstance(value, dict):
        return {k: _normalize_numbers(v) for k, v in value.items()}
    return value


@dataclass(frozen=True, init=False)
class ComponentSpec:
    """One slot's component choice: a registered name plus its params.

    Params are stored as a sorted tuple of ``(key, value)`` pairs so the
    spec stays hashable; :attr:`params_dict` gives the mapping view.
    """

    name: str
    params: tuple[tuple[str, Any], ...]

    def __init__(self, name: str, /, **params: Any) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"component name must be a non-empty string, got {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(
            self,
            "params",
            tuple(sorted((k, _freeze(v)) for k, v in params.items())),
        )

    @classmethod
    def of(cls, name: str, params: Mapping[str, Any] | None = None) -> "ComponentSpec":
        """Build from a name and an optional params mapping."""
        return cls(name, **dict(params or {}))

    @property
    def params_dict(self) -> dict[str, Any]:
        """The params as a plain dict (values still frozen tuples)."""
        return dict(self.params)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form: ``{"name": ..., "params": {...}}``."""
        return {"name": self.name, "params": _jsonable(self.params_dict)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any] | str) -> "ComponentSpec":
        """Inverse of :meth:`to_dict`; a bare string means no params."""
        if isinstance(data, str):
            return cls(data)
        unknown = set(data) - {"name", "params"}
        if unknown:
            raise ValueError(
                f"unknown component field(s): {', '.join(sorted(unknown))} "
                "(a component is {\"name\": ..., \"params\": {...}})"
            )
        name = data.get("name")
        if name is None:
            raise ValueError(
                'component dict is missing "name" '
                '(a component is {"name": ..., "params": {...}})'
            )
        return cls.of(name, data.get("params"))

    def __str__(self) -> str:
        if not self.params:
            return self.name
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.name}({inner})"


# ---------------------------------------------------------------------------
# ScenarioConfig <-> dict
# ---------------------------------------------------------------------------


def config_to_dict(cfg: Any) -> dict[str, Any]:
    """Serialise a (nested) frozen config dataclass to a JSON-able dict."""
    return _jsonable(dataclasses.asdict(cfg))


def config_from_dict(cls: type, data: Mapping[str, Any]) -> Any:
    """Rebuild ``cls`` from (possibly sparse) ``data``.

    Missing fields keep their defaults, nested dataclasses recurse, and JSON
    lists become the tuples the frozen configs declare — so a hand-written
    ``spec.json`` only needs the values it overrides.
    """
    hints = typing.get_type_hints(cls)
    kwargs: dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        hint = hints.get(f.name)
        if dataclasses.is_dataclass(hint) and isinstance(value, Mapping):
            value = config_from_dict(hint, value)
        elif isinstance(value, list):
            value = _freeze(value)
        kwargs[f.name] = value
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s): {', '.join(sorted(unknown))}"
        )
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# ScenarioSpec
# ---------------------------------------------------------------------------


def _component(default: str):
    return field(default_factory=lambda: ComponentSpec(default))


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete scenario as data: numerics + one component per slot."""

    cfg: ScenarioConfig = field(default_factory=ScenarioConfig)
    mac: ComponentSpec = _component("basic")
    placement: ComponentSpec = _component("uniform")
    mobility: ComponentSpec = _component("waypoint")
    routing: ComponentSpec = _component("aodv")
    traffic: ComponentSpec = _component("cbr")
    propagation: ComponentSpec = _component("two_ray")
    energy: ComponentSpec = _component("null")
    observability: ComponentSpec = _component("null")
    faults: ComponentSpec = _component("null")
    reception: ComponentSpec = _component("null")
    #: Explicit (src, dst) flow endpoints; None = random distinct pairs.
    flow_pairs: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        # Ergonomics: accept bare component names ("pcmac") for any slot.
        for slot in COMPONENT_SLOTS:
            value = getattr(self, slot)
            if isinstance(value, str):
                object.__setattr__(self, slot, ComponentSpec(value))
            elif not isinstance(value, ComponentSpec):
                raise TypeError(
                    f"{slot} must be a ComponentSpec or component name, "
                    f"got {value!r}"
                )
        if self.flow_pairs is not None:
            object.__setattr__(
                self,
                "flow_pairs",
                tuple((int(s), int(d)) for s, d in self.flow_pairs),
            )

    # ------------------------------------------------------------- identity

    def components(self) -> dict[str, ComponentSpec]:
        """Slot name → component spec, in canonical slot order."""
        return {slot: getattr(self, slot) for slot in COMPONENT_SLOTS}

    def canonical(self) -> dict[str, Any]:
        """Canonical JSON-able description (the content-hash pre-image).

        Numbers are normalised to floats here (and only here) so the same
        scenario hashes identically however its numerics were spelled —
        see :func:`_normalize_numbers`.
        """
        return _normalize_numbers(
            {
                "schema": SCENARIO_SCHEMA_VERSION,
                "cfg": config_to_dict(self.cfg),
                "components": {
                    slot: spec.to_dict()
                    for slot, spec in self.components().items()
                },
                "flow_pairs": _jsonable(self.flow_pairs),
            }
        )

    def key(self) -> str:
        """Stable content hash identifying this scenario across processes."""
        blob = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        ).encode()
        return hashlib.sha256(blob).hexdigest()[:32]

    def label(self) -> str:
        """Short human-readable name for progress lines."""
        return (
            f"{self.mac.name}@"
            f"{self.cfg.traffic.offered_load_bps / 1000.0:g}kbps/"
            f"seed{self.cfg.seed}"
        )

    # ---------------------------------------------------------------- (de)ser

    def to_dict(self) -> dict[str, Any]:
        """Full JSON-able form (same shape as :meth:`canonical`, but with
        exact numeric types preserved for lossless round-tripping)."""
        return {
            "schema": SCENARIO_SCHEMA_VERSION,
            "cfg": config_to_dict(self.cfg),
            "components": {
                slot: spec.to_dict() for slot, spec in self.components().items()
            },
            "flow_pairs": _jsonable(self.flow_pairs),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output or a sparse hand-written
        dict (missing cfg fields and slots keep the paper defaults)."""
        schema = data.get("schema", SCENARIO_SCHEMA_VERSION)
        if schema not in _READABLE_SCHEMAS:
            raise ValueError(
                f"scenario schema {schema!r} is not supported "
                f"(this build reads schemas "
                f"{', '.join(str(s) for s in sorted(_READABLE_SCHEMAS))})"
            )
        unknown = set(data) - {"schema", "cfg", "components", "flow_pairs"}
        if unknown:
            raise ValueError(
                f"unknown scenario field(s): {', '.join(sorted(unknown))}"
            )
        components = {
            slot: spec
            for slot, spec in data.get("components", {}).items()
            if schema > _RETIRED_SLOTS.get(slot, -1)
        }
        bad_slots = set(components) - set(COMPONENT_SLOTS)
        if bad_slots:
            raise ValueError(
                f"unknown component slot(s): {', '.join(sorted(bad_slots))}; "
                f"slots: {', '.join(COMPONENT_SLOTS)}"
            )
        kwargs: dict[str, Any] = {
            slot: ComponentSpec.from_dict(spec)
            for slot, spec in components.items()
        }
        if data.get("cfg") is not None:
            kwargs["cfg"] = config_from_dict(ScenarioConfig, data["cfg"])
        pairs = data.get("flow_pairs")
        if pairs is not None:
            kwargs["flow_pairs"] = tuple((int(s), int(d)) for s, d in pairs)
        return cls(**kwargs)

    def to_json(self, *, indent: int | None = None) -> str:
        """Serialise to JSON text."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        """Write the spec to ``path`` as pretty-printed JSON."""
        Path(path).write_text(self.to_json(indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        """Read a spec from a JSON file."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # ------------------------------------------------------------- execution

    def build(self, **builder_kwargs: Any):
        """Wire the network this spec describes (see
        :class:`~repro.builder.NetworkBuilder` for the runtime-only knobs)."""
        from repro.builder import NetworkBuilder

        return NetworkBuilder(self, **builder_kwargs).build()

    def run(self, **builder_kwargs: Any):
        """Build and execute, returning the
        :class:`~repro.experiments.scenario.ExperimentResult`."""
        return self.build(**builder_kwargs).run()

    # ---------------------------------------------------------------- legacy

    @classmethod
    def from_legacy(
        cls,
        cfg: ScenarioConfig,
        protocol: str,
        *,
        positions: Sequence[tuple[float, float]] | None = None,
        mobile: bool = True,
        routing: str = "aodv",
        flow_pairs: Sequence[tuple[int, int]] | None = None,
        propagation: Any = None,
    ) -> "ScenarioSpec":
        """Map the historical ``build_network(cfg, protocol, ...)`` keyword
        surface onto a declarative spec (the compatibility-shim translation).
        """
        placement = (
            ComponentSpec("uniform")
            if positions is None
            else ComponentSpec(
                "explicit", positions=tuple((float(x), float(y)) for x, y in positions)
            )
        )
        return cls(
            cfg=cfg,
            mac=ComponentSpec(protocol),
            placement=placement,
            mobility=ComponentSpec("waypoint" if mobile else "static"),
            routing=ComponentSpec(routing),
            traffic=ComponentSpec("cbr"),
            propagation=_propagation_component(propagation),
            flow_pairs=(
                tuple((int(s), int(d)) for s, d in flow_pairs)
                if flow_pairs is not None
                else None
            ),
        )


def _propagation_component(model: Any) -> ComponentSpec:
    """Translate a legacy propagation-model *instance* into a component spec.

    ``None`` keeps the paper default (two-ray derived from ``cfg.phy``); a
    model instance maps to its registered component with every declared field
    captured as params, so the spec fully determines the model.
    """
    if model is None:
        return ComponentSpec("two_ray")
    from repro.phy.propagation import FreeSpace, LogDistanceShadowing, TwoRayGround

    names = {
        TwoRayGround: "two_ray",
        FreeSpace: "free_space",
        LogDistanceShadowing: "log_distance",
    }
    name = names.get(type(model))
    if name is None:
        raise TypeError(
            f"cannot express propagation model {type(model).__name__} as a "
            "registered component; construct a ScenarioSpec with an explicit "
            "propagation=ComponentSpec(...) instead"
        )
    params = {
        f.name: getattr(model, f.name) for f in dataclasses.fields(model)
    }
    return ComponentSpec.of(name, params)
