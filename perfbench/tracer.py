"""Span tracing of subsetlab's layer boundaries, installed from outside.

Every call between subsetlab modules goes through a module or class
attribute (``qcore.apply_unitary``, ``ow.apply_oracle``,
``emulate.generate_s_minus``, ...), so replacing those attributes with
timing wrappers traces each layer boundary without touching the package.
``Tracer.install`` swaps the wrappers in; ``Tracer.uninstall`` puts every
original back.  Nothing is replaced unless a tracer is installed.

Spans (name, start, end, parent) are kept in flat arrays and reduced at the
end to per-boundary calls, inclusive time and self time.  A few work
counters are taken at the same boundaries from the values the calls
return or the objects they build.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Boundary:
    """A traced attribute: ``subsetlab.<module>[.<cls>].<attr>``, reported
    under ``name``.  Several attributes may share one name."""

    name: str
    module: str
    cls: str | None
    attr: str


BOUNDARIES = (
    Boundary("qcore.apply_unitary", "qcore", None, "apply_unitary"),
    Boundary("qcore.measure_computational", "qcore", None, "measure_computational"),
    Boundary("oracleworld.apply_oracle", "oracleworld", None, "apply_oracle"),
    Boundary("oracleworld.oracle_axis_state", "oracleworld", None, "oracle_axis_state"),
    Boundary("symsub.reflect_blocks", "symsub", None, "reflect_blocks"),
    Boundary("emulate.generate_s_minus", "emulate", None, "generate_s_minus"),
    Boundary("emulate.EmulationEngine.build", "emulate", "EmulationEngine", "__init__"),
    Boundary("emulate.EmulationEngine.apply_query", "emulate", "EmulationEngine", "apply_query"),
    Boundary("emulate.EmulationEngine.apply_unitary", "emulate", "EmulationEngine", "apply_unitary"),
    Boundary(
        "emulate.EmulatedAcceptProcedure.accept_probability",
        "emulate",
        "EmulatedAcceptProcedure",
        "accept_probability",
    ),
    Boundary("emulate.emulation_error", "emulate", None, "emulation_error"),
    Boundary("tomography.PovmFamily.element", "tomography", "PovmFamily", "element"),
    Boundary(
        "tomography.CircuitAcceptProcedure.accept_probability",
        "tomography",
        "CircuitAcceptProcedure",
        "accept_probability",
    ),
    Boundary("tomography.exact_accept_prob", "tomography", None, "exact_accept_prob"),
    Boundary("tomography.gentle_search", "tomography", None, "gentle_search"),
    Boundary("tomography.shadow_tomography", "tomography", None, "shadow_tomography"),
    Boundary("schemes.mint_state", "schemes", "MoneyScheme", "mint_state"),
    Boundary("schemes.exact_verify_prob", "schemes", "MoneyScheme", "exact_verify_prob"),
    Boundary("schemes.exact_verify_prob", "schemes", "OwsgCandidate", "exact_verify_prob"),
    Boundary("attacks.prepare_resources", "attacks", None, "prepare_resources"),
    Boundary("attacks.owsg_attack", "attacks", None, "owsg_attack"),
    Boundary("attacks.money_forge", "attacks", None, "money_forge"),
)

#: Boundary names in report order (each once).
SPAN_NAMES = tuple(dict.fromkeys(b.name for b in BOUNDARIES))


def owner_of(module: str, cls: str | None):
    mod = importlib.import_module(f"subsetlab.{module}")
    return mod if cls is None else getattr(mod, cls)


class Tracer:
    """Records spans at every boundary in ``BOUNDARIES`` while installed."""

    def __init__(self) -> None:
        self._name = array("i")
        self._parent = array("i")
        self._outer = array("b")  # 1 unless a same-name span is open
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._depth = [0] * len(SPAN_NAMES)
        self._saved: list[tuple[object, str, object]] = []
        self.queries = 0
        self.attempts = 0
        self.copies = 0
        self.resource_queries = 0  # sum of ResourceState.oracle_queries
        self.builds = 0
        self.sector_entries = 0
        self.compressed_state_bytes = 0

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        after = {
            "emulate.generate_s_minus": self._after_generate,
            "emulate.EmulationEngine.build": self._after_engine,
            "attacks.prepare_resources": self._after_resources,
        }
        for b in BOUNDARIES:
            owner = owner_of(b.module, b.cls)
            fn = owner.__dict__[b.attr]
            idx = SPAN_NAMES.index(b.name)
            self._replace(owner, b.attr, self._span(idx, fn, after.get(b.name)))
        env_cls = owner_of("oracleworld", "OracleEnv")
        record_query = env_cls.__dict__["record_query"]

        def counted_query(env, lam):
            self.queries += 1
            return record_query(env, lam)

        self._replace(env_cls, "record_query", counted_query)
        family_cls = owner_of("tomography", "PovmFamily")
        post_init = family_cls.__dict__["__post_init__"]

        def counted_builder(family):
            post_init(family)
            builder = family.builder

            def build(key):
                self.builds += 1
                return builder(key)

            family.builder = build

        self._replace(family_cls, "__post_init__", counted_builder)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans and counters -----------------------------------------------

    def _span(self, idx: int, fn, after):
        clock = time.perf_counter
        names, parents, outer = self._name, self._parent, self._outer
        starts, ends, stack, depth = self._start, self._end, self._stack, self._depth

        def wrapped(*args, **kwargs):
            i = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            outer.append(depth[idx] == 0)
            ends.append(0.0)
            stack.append(i)
            depth[idx] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                depth[idx] -= 1
            if after is not None:
                after(args, result)
            return result

        return wrapped

    def _after_generate(self, args, result) -> None:
        self.attempts += result.attempts
        self.copies += int(result.succeeded)

    def _after_engine(self, args, result) -> None:
        engine = args[0]
        self.sector_entries += sum(engine.sector_sizes)
        size = (1 << engine.num_main_qubits) * math.prod(engine.sector_sizes) * 16
        self.compressed_state_bytes = max(self.compressed_state_bytes, size)

    def _after_resources(self, args, result) -> None:
        self.resource_queries += sum(result.oracle_queries.values())

    @property
    def span_count(self) -> int:
        return len(self._start)

    def span_arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays (names index ``SPAN_NAMES``)."""
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "outer": np.frombuffer(self._outer, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per boundary: calls, inclusive seconds (outermost spans of the
        name only, so recursion is not counted twice) and self seconds
        (span time not covered by child spans)."""
        spans = self.span_arrays()
        names, parents = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        covered = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        width = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names[spans["outer"]], dur[spans["outer"]], minlength=width)
        self_s = np.bincount(names, dur - covered, minlength=width)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(SPAN_NAMES)
        }


def save_spans(tracer: Tracer, path) -> None:
    np.savez_compressed(path, names=np.array(SPAN_NAMES), **tracer.span_arrays())


def attribute_snapshot() -> dict[tuple[str, ...], object]:
    """Every attribute of every loaded subsetlab module and of every class
    those modules define, keyed by (module, [class,] attribute)."""
    snap: dict[tuple[str, ...], object] = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("subsetlab"):
            continue
        for attr, value in vars(mod).items():
            snap[(modname, attr)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    snap[(modname, attr, cattr)] = cvalue
    return snap


def changed_attributes(before: dict, after: dict) -> list[str]:
    """Attributes of `before` that are missing from `after` or not the same
    object there."""
    return [
        f"attribute {'.'.join(key)} was replaced"
        for key, value in before.items()
        if key not in after or after[key] is not value
    ]


def per_layer_metrics(tracer: Tracer, trials: int) -> dict[str, dict]:
    """Per-layer metrics per trial, in ``BENCHMARK.json`` order."""
    out: dict[str, dict] = {}
    for name, row in tracer.layer_totals().items():
        out[f"{name}.calls"] = {"value": row["calls"] / trials, "unit": "calls/trial"}
        out[f"{name}.total_s"] = {"value": row["total_s"] / trials, "unit": "s/trial"}
        out[f"{name}.self_s"] = {"value": row["self_s"] / trials, "unit": "s/trial"}
    yield_ = tracer.copies / tracer.attempts if tracer.attempts else 0.0
    counters = (
        ("oracleworld.queries", tracer.queries / trials, "queries/trial"),
        ("emulate.generate_s_minus.attempts", tracer.attempts / trials, "attempts/trial"),
        ("emulate.copy_yield", yield_, "copies/attempt"),
        ("emulate.sector_entries", tracer.sector_entries / trials, "entries/trial"),
        ("emulate.compressed_state_mb", tracer.compressed_state_bytes / 1e6, "MB"),
        ("tomography.PovmFamily.builds", tracer.builds / trials, "builds/trial"),
    )
    for name, value, unit in counters:
        out[name] = {"value": value, "unit": unit}
    return out
