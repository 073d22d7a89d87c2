"""Gentle search and shadow tomography over keyed accept/reject families.

Exact acceptance probabilities are the baseline that every
measurement-driven run is checked against.  A circuit procedure evolves a
pure input with ``oracleworld.evolve``; a mixed input is eigendecomposed
(it has only the procedure's arity in qubits) and its accept probability
is the eigenvalue-weighted sum over the eigenvectors.  The
measurement-driven implementations consume fresh input copies per
measurement, so each measurement is an independent Bernoulli draw at the
element's exact accept probability; sample counts follow this module's own
batch formulas, which are deliberately simpler (and larger) than the
asymptotically optimal ones from the shadow-tomography literature.  The
output guarantees are the contract:

* gentle search returns a key accepting with probability >= c - epsilon,
  with probability >= 1 - delta, given that some key reaches c;
* shadow tomography returns estimates within epsilon of every exact
  accept probability, with probability >= 1 - delta.

The CLI's ``SAMPLE_NOTE`` states this divergence from the literature's
sample complexity in the report of every command that runs these
procedures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Protocol

import numpy as np

from . import oracleworld as ow
from . import qcore
from .qcore import POLICY, DensityMatrix, Rng, StateVector

__all__ = [
    "AcceptProcedure",
    "CircuitAcceptProcedure",
    "CallableAcceptProcedure",
    "PovmFamily",
    "EstimateTable",
    "exact_accept_prob",
    "gentle_search",
    "GentleSearchResult",
    "gentle_search_batch_size",
    "shadow_tomography",
    "shadow_batch_size",
]


class AcceptProcedure(Protocol):
    """An accept/reject measurement on a fixed-arity quantum input."""

    @property
    def arity(self) -> int: ...

    def accept_probability(self, state: StateVector | DensityMatrix) -> float: ...


@dataclass
class CircuitAcceptProcedure:
    """A deferred circuit with a designated accept qubit.

    The challenge occupies ``input_qubits``; every other wire starts at
    |0>.  Oracle gates are evaluated against ``env`` without charging its
    query counters (the exact path is an analysis tool, not an algorithm).
    A mixed challenge goes through the same pure path, once per
    eigenvector of its density matrix.
    """

    circuit: ow.OracleAidedCircuit
    input_qubits: tuple[int, ...]
    accept_qubit: int
    env: ow.OracleEnv | None = None

    def __post_init__(self) -> None:
        if not ow.is_deferred(self.circuit):
            raise ValueError("accept procedures need deferred-measurement circuits")
        if self.circuit.declared_query_count and self.env is None:
            raise ValueError("oracle-aided procedure needs an environment")

    @property
    def arity(self) -> int:
        return len(self.input_qubits)

    def accept_probability(self, state: StateVector | DensityMatrix) -> float:
        if state.num_qubits != self.arity:
            raise ValueError(
                f"expected a {self.arity}-qubit input, got {state.num_qubits}"
            )
        if isinstance(state, DensityMatrix):
            # Linear in the input: weight the pure-path probabilities of
            # the eigenvectors by their eigenvalues.
            weights, vectors = np.linalg.eigh(state.entries)
            return sum(
                float(w) * self.accept_probability(StateVector(self.arity, v))
                for w, v in zip(weights, vectors.T)
                if w > 0.0
            )
        main = qcore.embed_state(state, self.circuit.num_qubits, self.input_qubits)
        main = ow.evolve(main, ow.unitary_prefix(self.circuit), self.env, count=False)
        return float(qcore.born_probabilities(main, [self.accept_qubit])[1])


@dataclass
class CallableAcceptProcedure:
    """Wrap an exact accept-probability function (emulated verifiers, etc.)."""

    arity: int
    fn: Callable[[StateVector | DensityMatrix], float]

    def accept_probability(self, state: StateVector | DensityMatrix) -> float:
        return self.fn(state)


@dataclass
class PovmFamily:
    """A keyed collection of accept/reject procedures of equal arity."""

    keys: tuple[Hashable, ...]
    builder: Callable[[Hashable], AcceptProcedure]
    resource_arity: int
    _cache: dict[Hashable, AcceptProcedure] = field(default_factory=dict, repr=False)
    _key_set: frozenset = field(init=False, repr=False)

    def __post_init__(self) -> None:
        keys = tuple(self.keys)
        if not keys:
            raise ValueError("key set must be non-empty")
        key_set = frozenset(keys)
        if len(key_set) != len(keys):
            raise ValueError("duplicate keys in family")
        object.__setattr__(self, "keys", tuple(sorted(keys)))
        object.__setattr__(self, "_key_set", key_set)

    def element(self, key: Hashable) -> AcceptProcedure:
        if key not in self._cache:
            if key not in self._key_set:
                raise KeyError(f"unknown key {key!r}")
            proc = self.builder(key)
            if proc.arity != self.resource_arity:
                raise ValueError(
                    f"element for {key!r} has arity {proc.arity}, family expects "
                    f"{self.resource_arity}"
                )
            self._cache[key] = proc
        return self._cache[key]


def exact_accept_prob(
    family: PovmFamily, key: Hashable, state: StateVector | DensityMatrix
) -> float:
    """Exact Born accept probability of one family element on `state`."""
    p = family.element(key).accept_probability(state)
    tol = POLICY.prob_atol
    if not -tol <= p <= 1 + tol:
        raise AssertionError(f"accept probability {p} outside [0,1]")
    return float(min(max(p, 0.0), 1.0))


# ---------------------------------------------------------------------------
# Gentle search


def gentle_search_batch_size(num_keys: int, epsilon: float, delta: float) -> int:
    levels = max(1, math.ceil(math.log2(num_keys)))
    return math.ceil(8.0 * math.log(2.0 * levels / delta) / epsilon**2)


@dataclass
class GentleSearchResult:
    key: Hashable
    copies_used: int
    estimates: dict[Hashable, float]


def gentle_search(
    family: PovmFamily,
    state: StateVector | DensityMatrix,
    c: float,
    epsilon: float,
    delta: float,
    rng: Rng,
    exact: bool = False,
) -> GentleSearchResult:
    """Find a key whose element accepts `state` with probability >= c - eps.

    Binary descent over key blocks: at each level the two halves of the
    surviving block are scored, and scoring a half spends a fresh batch of
    ``ceil(8 ln(2 log|K|/delta) / eps^2)`` input copies, each measured
    against a uniformly random key drawn from the half's current
    best-estimate subfamily (untested keys are treated optimistically so
    they get tried).  The half with the larger best estimate survives; on a
    tie the lexicographically smaller block does.  With ``exact=True`` the
    scores are exact accept probabilities and no copies are consumed, which
    lands on the lexicographically first maximizer.

    The caller promises that some key reaches c (mirrored precondition);
    the returned key satisfies the c - epsilon guarantee with probability
    at least 1 - delta over the measurement randomness.
    """
    keys = list(family.keys)
    batch = gentle_search_batch_size(len(keys), epsilon, delta)
    exact_probs: dict[Hashable, float] = {}

    def exact_p(k: Hashable) -> float:
        if k not in exact_probs:
            exact_probs[k] = exact_accept_prob(family, k, state)
        return exact_probs[k]

    successes: dict[Hashable, int] = {k: 0 for k in keys}
    trials: dict[Hashable, int] = {k: 0 for k in keys}
    used = 0

    def estimate(k: Hashable) -> float:
        if exact:
            return exact_p(k)
        if trials[k] == 0:
            return 1.0  # optimistic prior: untested keys get measured
        return successes[k] / trials[k]

    def score_block(block: list[Hashable]) -> float:
        nonlocal used
        if exact:
            return max(exact_p(k) for k in block)
        for _ in range(batch):
            best = max(estimate(k) for k in block)
            subfamily = [k for k in block if estimate(k) == best]
            k = subfamily[rng.integers(0, len(subfamily))]
            successes[k] += rng.bernoulli(exact_p(k))
            trials[k] += 1
            used += 1
        return max(estimate(k) for k in block)

    active = keys
    while len(active) > 1:
        half = (len(active) + 1) // 2
        first, second = active[:half], active[half:]
        if score_block(first) >= score_block(second):
            active = first
        else:
            active = second
    estimates = {k: (exact_p(k) if exact else estimate(k)) for k in keys}
    return GentleSearchResult(active[0], used, estimates)


# ---------------------------------------------------------------------------
# Shadow tomography


@dataclass(frozen=True)
class EstimateTable:
    """Estimates in [0,1], keyed like the family that produced them."""

    values: dict[Hashable, float]
    copies_used: int

    def __post_init__(self) -> None:
        for k, v in self.values.items():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"estimate {v} for key {k!r} outside [0,1]")

    def __getitem__(self, key: Hashable) -> float:
        return self.values[key]

    def worst_error(self, exact_values: Mapping[Hashable, float]) -> float:
        return max(abs(self.values[k] - exact_values[k]) for k in self.values)


def shadow_batch_size(num_keys: int, epsilon: float, delta: float) -> int:
    return math.ceil(math.log(2.0 * num_keys / delta) / (2.0 * epsilon**2))


def shadow_tomography(
    family: PovmFamily,
    state: StateVector | DensityMatrix,
    epsilon: float,
    delta: float,
    rng: Rng,
    exact: bool = False,
) -> EstimateTable:
    """Estimate every element's accept probability on `state`.

    Independent per-key batches of ``ceil(ln(2M/delta) / (2 eps^2))`` fresh
    copies; Hoeffding plus a union bound gives worst-key error <= epsilon
    with probability >= 1 - delta.  With ``exact=True`` the exact values
    are returned and no copies are consumed.
    """
    m = len(family.keys)
    batch = shadow_batch_size(m, epsilon, delta)
    values: dict[Hashable, float] = {}
    for k in family.keys:
        p = exact_accept_prob(family, k, state)
        if exact:
            values[k] = p
        else:
            values[k] = rng.binomial(batch, p) / batch
    return EstimateTable(values, 0 if exact else m * batch)
