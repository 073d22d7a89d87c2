"""Oracle instances over random subsets and the oracle-aided circuit model.

An oracle instance at level ``lam`` is the (lam+1)-qubit unitary

    U = I - 2 |1><1| (x) |S-><S-|

for a hidden subset S of {0,1}^lam \\ {0^lam} of size 2^(lam/2), where
|S-> = (|S> - |0^lam>)/sqrt(2) and |S> is the uniform superposition over S.
With the control qubit at |1> the oracle swaps |0^lam> and |S> and fixes
everything orthogonal to their span; with control |0> it is the identity.
It is its own inverse, so no separate inverse gate exists.

Circuits are gate lists over base unitaries, tagged oracle queries,
mid-circuit measurements with classical control, trailing discards, and
(for rewritten circuits) symmetric-subspace reflections.  A simple
line-oriented text format serializes circuits built from named gates; see
:func:`parse_circuit`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import qcore, symsub
from .qcore import (
    POLICY,
    CapacityError,
    DensityMatrix,
    Rng,
    StateVector,
)

__all__ = [
    "SubsetSpec",
    "OracleEnv",
    "Gate",
    "OracleAidedCircuit",
    "RunResult",
    "sample_subset",
    "subset_states",
    "oracle_axis_state",
    "apply_oracle",
    "oracle_matrix",
    "evolve",
    "run_circuit",
    "is_deferred",
    "parse_circuit",
    "format_circuit",
    "named_gate_matrix",
]

MIN_LAMBDA = 2
MAX_LAMBDA = 12


@dataclass(frozen=True)
class SubsetSpec:
    """A subset S of {0,1}^lam \\ {0^lam} with |S| = 2^(lam/2), lam even."""

    lam: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.lam % 2 != 0 or not MIN_LAMBDA <= self.lam <= MAX_LAMBDA:
            raise ValueError(f"lambda must be even and in [{MIN_LAMBDA}, {MAX_LAMBDA}]")
        members = tuple(sorted(int(m) for m in self.members))
        object.__setattr__(self, "members", members)
        size = 1 << (self.lam // 2)
        if len(members) != size or len(set(members)) != size:
            raise ValueError(f"subset must have exactly {size} distinct members")
        for m in members:
            if not 1 <= m < (1 << self.lam):
                raise ValueError(f"member {m} out of range (0^lam is excluded)")

    @property
    def size(self) -> int:
        return len(self.members)

    def member_strings(self) -> tuple[str, ...]:
        return tuple(format(m, f"0{self.lam}b") for m in self.members)


class OracleEnv:
    """A finite family of subset oracles, one per level, with query counters.

    Specs are immutable; counters only increase (incremented atomically).
    """

    def __init__(self, specs: Mapping[int, SubsetSpec] | Iterable[SubsetSpec]):
        if isinstance(specs, Mapping):
            table = dict(specs)
        else:
            table = {s.lam: s for s in specs}
        for lam, spec in table.items():
            if lam != spec.lam:
                raise ValueError(f"spec for lambda {spec.lam} registered under {lam}")
        self._specs = dict(sorted(table.items()))
        self._counters = {lam: 0 for lam in self._specs}
        self._lock = threading.Lock()

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(self._specs)

    def spec(self, lam: int) -> SubsetSpec:
        try:
            return self._specs[lam]
        except KeyError:
            raise KeyError(f"no subset spec registered for lambda={lam}") from None

    def query_count(self, lam: int) -> int:
        return self._counters[lam]

    def total_queries(self) -> int:
        return sum(self._counters.values())

    def record_query(self, lam: int) -> None:
        with self._lock:
            self._counters[lam] += 1


def sample_subset(lam: int, rng: Rng) -> SubsetSpec:
    """Uniform subset of {0,1}^lam \\ {0^lam} of size 2^(lam/2)."""
    if lam % 2 != 0 or not MIN_LAMBDA <= lam <= MAX_LAMBDA:
        raise ValueError(f"lambda must be even and in [{MIN_LAMBDA}, {MAX_LAMBDA}]")
    size = 1 << (lam // 2)
    picks = rng.choice_no_replace((1 << lam) - 1, size) + 1  # shift past 0^lam
    return SubsetSpec(lam, tuple(int(p) for p in picks))


def subset_states(spec: SubsetSpec) -> tuple[StateVector, StateVector, StateVector]:
    """The lam-qubit states (|S>, |S->, |S+>) for a subset spec."""
    dim = 1 << spec.lam
    s = np.zeros(dim, dtype=np.complex128)
    s[list(spec.members)] = 1.0 / np.sqrt(spec.size)
    zero = np.zeros(dim, dtype=np.complex128)
    zero[0] = 1.0
    s_minus = (s - zero) / np.sqrt(2.0)
    s_plus = (s + zero) / np.sqrt(2.0)
    return (
        StateVector(spec.lam, s),
        StateVector(spec.lam, s_minus),
        StateVector(spec.lam, s_plus),
    )


def oracle_axis_state(spec: SubsetSpec) -> StateVector:
    """|1>|S->, the (lam+1)-qubit axis the oracle reflects about."""
    _, s_minus, _ = subset_states(spec)
    one = qcore.basis_state(1, 1)
    return qcore.tensor(one, s_minus)


def oracle_matrix(spec: SubsetSpec) -> np.ndarray:
    """Materialized (lam+1)-qubit matrix I - 2|1,S-><1,S-| (small-lam checks)."""
    axis = oracle_axis_state(spec).amplitudes
    return np.eye(axis.shape[0], dtype=np.complex128) - 2.0 * np.outer(axis, axis.conj())


def apply_oracle(
    state: StateVector,
    env: OracleEnv,
    lam: int,
    targets: Sequence[int],
    *,
    count: bool = True,
) -> StateVector:
    """Apply the level-lam subset oracle on lam+1 target qubits.

    The rank-1 reflection about |1,S-> (``qcore.reflect_about_axis``);
    cost O(2^num_qubits).  Increments the query counter unless
    ``count=False``.
    """
    spec = env.spec(lam)
    targets = tuple(int(t) for t in targets)
    if len(targets) != lam + 1:
        raise ValueError(f"oracle at lambda={lam} needs {lam + 1} targets, got {len(targets)}")
    qcore._validate_targets(state.num_qubits, targets)
    axis = oracle_axis_state(spec).amplitudes
    out = qcore.reflect_about_axis(state, axis, targets)
    if count:
        env.record_query(lam)
    return out


# ---------------------------------------------------------------------------
# Gates and circuits


def _phase_gate(angle: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * angle)]).astype(np.complex128)


_FIXED_GATES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.diag([1.0, -1.0]).astype(np.complex128),
    "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0),
    "S": _phase_gate(np.pi / 2),
    "T": _phase_gate(np.pi / 4),
    "CX": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(np.complex128),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
    ),
}


def named_gate_matrix(name: str, arity: int) -> np.ndarray:
    """Matrix for a named gate at the given target count.

    Besides the fixed table, supports the variadic families ``MCX`` (all
    targets but the last control an X on the last), ``MCZ``, ``REFL0``
    (I - 2|0..0><0..0|), ``CREFL0`` (REFL0 on the tail, controlled on the
    first target) and ``CSWAP``/``CCX``.
    """
    name = name.upper()
    if name in _FIXED_GATES:
        mat = _FIXED_GATES[name]
        if mat.shape[0] != (1 << arity):
            raise ValueError(f"gate {name} expects {int(np.log2(mat.shape[0]))} targets")
        return mat
    dim = 1 << arity
    if name in ("CCX", "MCX"):
        if arity < 2:
            raise ValueError(f"{name} needs at least 2 targets")
        mat = np.eye(dim, dtype=np.complex128)
        a, b = dim - 2, dim - 1
        mat[a, a] = mat[b, b] = 0.0
        mat[a, b] = mat[b, a] = 1.0
        return mat
    if name == "MCZ":
        if arity < 1:
            raise ValueError("MCZ needs at least 1 target")
        diag = np.ones(dim, dtype=np.complex128)
        diag[dim - 1] = -1.0
        return np.diag(diag)
    if name == "CSWAP":
        if arity != 3:
            raise ValueError("CSWAP needs 3 targets")
        mat = np.eye(8, dtype=np.complex128)
        mat[5, 5] = mat[6, 6] = 0.0
        mat[5, 6] = mat[6, 5] = 1.0
        return mat
    if name == "REFL0":
        diag = np.ones(dim, dtype=np.complex128)
        diag[0] = -1.0
        return np.diag(diag)
    if name == "CREFL0":
        if arity < 2:
            raise ValueError("CREFL0 needs at least 2 targets")
        diag = np.ones(dim, dtype=np.complex128)
        diag[1 << (arity - 1)] = -1.0
        return np.diag(diag)
    raise ValueError(f"unknown gate name {name!r}")


@dataclass(frozen=True)
class Gate:
    """One circuit element; use the class-method constructors."""

    kind: str
    targets: tuple[int, ...]
    matrix: np.ndarray | None = None
    name: str | None = None
    lam: int | None = None
    tag: str | None = None
    condition: tuple[str, int] | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def unitary(
        cls,
        matrix_or_name: np.ndarray | str,
        targets: Sequence[int],
        condition: tuple[str, int] | None = None,
    ) -> "Gate":
        targets = tuple(int(t) for t in targets)
        if isinstance(matrix_or_name, str):
            name = matrix_or_name.upper()
            matrix = named_gate_matrix(name, len(targets))
        else:
            name = None
            matrix = np.asarray(matrix_or_name, dtype=np.complex128)
            if matrix.shape != (1 << len(targets), 1 << len(targets)):
                raise ValueError("matrix shape does not match target count")
        return cls("unitary", targets, matrix=matrix, name=name, condition=condition)

    @classmethod
    def oracle(cls, lam: int, targets: Sequence[int]) -> "Gate":
        targets = tuple(int(t) for t in targets)
        if len(targets) != lam + 1:
            raise ValueError(f"oracle gate at lambda={lam} needs {lam + 1} targets")
        return cls("oracle", targets, lam=int(lam))

    @classmethod
    def measure(cls, targets: Sequence[int], tag: str) -> "Gate":
        return cls("measure", tuple(int(t) for t in targets), tag=str(tag))

    @classmethod
    def discard(cls, targets: Sequence[int]) -> "Gate":
        return cls("discard", tuple(int(t) for t in targets))

    @classmethod
    def symreflect(cls, blocks: Sequence[Sequence[int]]) -> "Gate":
        blocks = tuple(tuple(int(a) for a in b) for b in blocks)
        flat = tuple(a for b in blocks for a in b)
        return cls("symreflect", flat, blocks=blocks)


@dataclass(frozen=True)
class OracleAidedCircuit:
    """An ordered gate list over a fixed qubit count.

    ``declared_query_count`` maps each queried lambda to its oracle-gate
    count and is validated against the gate list.
    """

    num_qubits: int
    gates: tuple[Gate, ...]
    declared_query_count: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_qubits > POLICY.max_state_qubits:
            raise CapacityError(
                f"circuit width {self.num_qubits} exceeds {POLICY.max_state_qubits} qubits"
            )
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        seen_tags: set[str] = set()
        counts: dict[int, int] = {}
        for g in gates:
            for t in g.targets:
                if not 0 <= t < self.num_qubits:
                    raise ValueError(f"gate target {t} out of range")
            if len(set(g.targets)) != len(g.targets):
                raise ValueError("duplicate targets in gate")
            if g.kind == "oracle":
                counts[g.lam] = counts.get(g.lam, 0) + 1
            elif g.kind == "measure":
                if g.tag in seen_tags:
                    raise ValueError(f"duplicate measurement tag {g.tag!r}")
                seen_tags.add(g.tag)
            if g.condition is not None:
                if g.kind != "unitary":
                    raise ValueError("only unitary gates may be classically controlled")
                if g.condition[0] not in seen_tags:
                    raise ValueError(
                        f"gate conditioned on unknown tag {g.condition[0]!r}"
                    )
        declared = dict(self.declared_query_count) or counts
        if declared != counts:
            raise ValueError(
                f"declared query counts {declared} != actual oracle gates {counts}"
            )
        object.__setattr__(self, "declared_query_count", counts)

    @property
    def query_levels(self) -> tuple[int, ...]:
        return tuple(sorted(self.declared_query_count))

    def total_queries(self) -> int:
        return sum(self.declared_query_count.values())


@dataclass
class RunResult:
    output: StateVector | DensityMatrix
    record: dict[str, tuple[int, ...]]


def is_deferred(circuit: OracleAidedCircuit) -> bool:
    """True when measurements/discards only appear as a trailing suffix and
    no gate is classically controlled."""
    tail = False
    for g in circuit.gates:
        if g.kind in ("measure", "discard"):
            tail = True
        elif tail:
            return False
        if g.condition is not None:
            return False
    return True


def unitary_prefix(circuit: OracleAidedCircuit) -> tuple[Gate, ...]:
    """The leading unitary/oracle/symreflect gates of a deferred circuit."""
    if not is_deferred(circuit):
        raise ValueError("circuit is not in deferred-measurement form")
    return tuple(g for g in circuit.gates if g.kind in ("unitary", "oracle", "symreflect"))


def _apply_gate(
    state: StateVector, g: Gate, env: OracleEnv | None, count: bool
) -> StateVector:
    """One unitary, oracle or symreflect gate, applied unconditionally."""
    if g.kind == "unitary":
        return qcore.apply_unitary(state, g.matrix, g.targets)
    if g.kind == "oracle":
        if env is None:
            raise ValueError("oracle gate requires an oracle environment")
        return apply_oracle(state, env, g.lam, g.targets, count=count)
    if g.kind == "symreflect":
        amps = symsub.reflect_blocks(state.amplitudes, state.num_qubits, g.blocks)
        return StateVector(state.num_qubits, amps)
    raise ValueError(f"unsupported gate kind {g.kind!r}")


def evolve(
    state: StateVector,
    gates: Iterable[Gate],
    env: OracleEnv | None,
    *,
    count: bool,
) -> StateVector:
    """Apply unconditioned unitary, oracle and symreflect gates in order.

    The one way to evolve a circuit prefix (such as ``unitary_prefix``) on
    a pure state.  Oracle gates need ``env`` and bump its query counters
    when ``count`` is true; exact analyses pass ``count=False``.
    """
    for g in gates:
        state = _apply_gate(state, g, env, count)
    return state


def run_circuit(
    circuit: OracleAidedCircuit,
    env: OracleEnv | None,
    input_state: StateVector,
    rng: Rng,
) -> RunResult:
    """Execute gates in order on a pure input.

    Mid-circuit measurements sample via the Born rule and gate any
    classically-controlled unitaries; trailing discards produce a
    density-matrix output via partial trace.  Oracle gates require ``env``
    and bump its query counters.
    """
    if input_state.num_qubits != circuit.num_qubits:
        raise ValueError("input qubit count does not match circuit")
    state = input_state
    record: dict[str, tuple[int, ...]] = {}
    discards: list[int] = []
    for g in circuit.gates:
        if g.kind == "discard":
            discards.extend(g.targets)
            continue
        if discards:
            raise ValueError("discard gates must form a trailing suffix")
        if g.kind == "measure":
            bits, state, _ = qcore.measure_computational(state, g.targets, rng)
            record[g.tag] = bits
            continue
        if g.condition is not None:
            tag, want = g.condition
            if tag not in record:
                raise ValueError(f"condition tag {tag!r} not yet measured")
            if qcore.bits_to_index(record[tag]) != want:
                continue
        state = _apply_gate(state, g, env, True)
    if discards:
        keep = [q for q in range(circuit.num_qubits) if q not in set(discards)]
        rho = qcore.partial_trace(qcore.promote(state), keep)
        return RunResult(rho, record)
    return RunResult(state, record)


# ---------------------------------------------------------------------------
# Text serialization


def format_circuit(circuit: OracleAidedCircuit) -> str:
    """Serialize a circuit of named gates to the line-oriented text format."""
    lines = [f"qubits {circuit.num_qubits}"]
    for g in circuit.gates:
        if g.kind == "unitary":
            if g.name is None:
                raise ValueError("cannot serialize a raw-matrix gate")
            targets = " ".join(str(t) for t in g.targets)
            if g.condition is None:
                lines.append(f"gate {g.name} {targets}")
            else:
                lines.append(f"cgate {g.condition[0]}={g.condition[1]} {g.name} {targets}")
        elif g.kind == "oracle":
            lines.append(f"oracle {g.lam} " + " ".join(str(t) for t in g.targets))
        elif g.kind == "measure":
            lines.append(f"measure {g.tag} " + " ".join(str(t) for t in g.targets))
        elif g.kind == "discard":
            lines.append("discard " + " ".join(str(t) for t in g.targets))
        else:
            raise ValueError(f"gate kind {g.kind!r} has no text form")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> OracleAidedCircuit:
    """Parse the text format produced by :func:`format_circuit`.

    Grammar (one item per line, ``#`` comments allowed)::

        qubits N
        gate NAME t0 [t1 ...]
        cgate TAG=VALUE NAME t0 [t1 ...]
        oracle LAMBDA t0 ... t_lambda
        measure TAG t0 [t1 ...]
        discard t0 [t1 ...]
    """
    num_qubits: int | None = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        try:
            if kind == "qubits":
                num_qubits = int(parts[1])
            elif kind == "gate":
                gates.append(Gate.unitary(parts[1], [int(t) for t in parts[2:]]))
            elif kind == "cgate":
                tag, value = parts[1].split("=", 1)
                gates.append(
                    Gate.unitary(
                        parts[2],
                        [int(t) for t in parts[3:]],
                        condition=(tag, int(value)),
                    )
                )
            elif kind == "oracle":
                lam = int(parts[1])
                gates.append(Gate.oracle(lam, [int(t) for t in parts[2:]]))
            elif kind == "measure":
                gates.append(Gate.measure([int(t) for t in parts[2:]], parts[1]))
            elif kind == "discard":
                gates.append(Gate.discard([int(t) for t in parts[1:]]))
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if num_qubits is None:
        raise ValueError("missing 'qubits N' header")
    return OracleAidedCircuit(num_qubits, tuple(gates))
