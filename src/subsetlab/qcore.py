"""Exact linear-algebra substrate: pure states, mixed states, unitaries,
measurement, reductions, overlap and fidelity.

Conventions
-----------
Qubit 0 is the *most significant* bit of the amplitude index: the basis
state ``|b_0 b_1 ... b_{n-1}>`` sits at index ``sum(b_j << (n-1-j))``.
Fidelities are exact (eigendecomposition based); sampling happens only
in experiment harnesses that pass an explicit :class:`Rng`.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "NumericalPolicy",
    "POLICY",
    "CapacityError",
    "StateVector",
    "DensityMatrix",
    "Rng",
    "basis_state",
    "zero_state",
    "state_from_amplitudes",
    "apply_unitary",
    "reflect_about_axis",
    "axis_weight",
    "born_probabilities",
    "measure_computational",
    "tensor",
    "permute_qubits",
    "embed_state",
    "extract_pure",
    "promote",
    "partial_trace",
    "fidelity",
    "overlap",
]


@dataclass(frozen=True)
class NumericalPolicy:
    """The one record of the package's tolerances and capacity bounds.

    Its fields fall into four groups:

    * state invariants (``norm_atol``, ``herm_atol``, ``trace_atol``,
      ``eig_floor``, ``pure_metric_atol``), read by the state constructors,
      unitary application and reductions;
    * ``prob_atol``, the slack on an exact probability or on a bound it
      must respect: vanishing measurement branches, accept probabilities
      inside [0, 1], scheme correctness at registration, exact copies and
      identical challenge notes, the emulation bound, and the CLI's exact
      verdicts;
    * ``closed_form_atol``, an enumerated value against its closed form;
    * capacity bounds (``max_state_qubits``, ``max_density_qubits``,
      ``max_block_factorial``, ``max_engine_entries``).

    Five literals stay inline.  Three are cutoffs inside one numerical
    kernel, not tolerances on a result:

    * ``emulate._main_axis_action``: 1e-14 for a structural zero and for
      a unit phase, 1e-12 for a unit modulus;
    * ``qefid._sampled_td_gram``: 1e-12, the relative rank cut of its
      Gram matrices;
    * ``cli.three_sigma``: 1e-12, the variance floor.

    No field matches the other two in role:

    * ``cli._cmd_emulate_bound``: 1e-8, the q=1 closed-form verdict on
      inner products that carry the compressed engine's rounding;
    * ``qcore.StateVector.__post_init__``: 1e-7, the norm error beyond
      which a state is rejected instead of renormalized.

    A test reads this list and fails on any other such literal.
    """

    norm_atol: float = 1e-10
    herm_atol: float = 1e-9
    trace_atol: float = 1e-9
    eig_floor: float = -1e-8
    prob_atol: float = 1e-9
    pure_metric_atol: float = 1e-8
    closed_form_atol: float = 1e-12
    max_state_qubits: int = 22
    max_density_qubits: int = 13
    max_block_factorial: int = 5040
    max_engine_entries: int = 1 << 26


#: The one numerical-policy instance consulted across the package.
POLICY = NumericalPolicy()


class CapacityError(ValueError):
    """Raised when an operation would exceed the desk-scale capacity bounds."""


def _check_state_capacity(num_qubits: int) -> None:
    if num_qubits > POLICY.max_state_qubits:
        raise CapacityError(
            f"state of {num_qubits} qubits exceeds the {POLICY.max_state_qubits}-qubit cap"
        )


def _check_density_capacity(num_qubits: int) -> None:
    if num_qubits > POLICY.max_density_qubits:
        raise CapacityError(
            f"density matrix of {num_qubits} qubits exceeds the "
            f"{POLICY.max_density_qubits}-qubit cap"
        )


@dataclass(frozen=True)
class StateVector:
    """A pure state of ``num_qubits`` qubits.

    ``amplitudes`` has length ``2**num_qubits`` and unit L2 norm within
    ``POLICY.norm_atol``.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be nonnegative")
        _check_state_capacity(self.num_qubits)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        amps = amps.reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape[0] != 1 << self.num_qubits:
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, got {amps.shape[0]}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-7:
            # Far from normalized: reject outright rather than silently fix.
            raise ValueError(f"state norm {norm} is not 1")
        if abs(norm - 1.0) > POLICY.norm_atol:
            object.__setattr__(self, "amplitudes", amps / norm)
        self.amplitudes.flags.writeable = False

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def probability(self, index: int) -> float:
        return float(abs(self.amplitudes[index]) ** 2)


@dataclass(frozen=True)
class DensityMatrix:
    """A mixed state of ``num_qubits`` qubits.

    Hermitian within ``POLICY.herm_atol`` entrywise, unit trace within
    ``POLICY.trace_atol``, eigenvalues above ``POLICY.eig_floor``.
    """

    num_qubits: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be nonnegative")
        _check_density_capacity(self.num_qubits)
        mat = np.asarray(self.entries, dtype=np.complex128)
        d = 1 << self.num_qubits
        if mat.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > POLICY.herm_atol:
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > POLICY.trace_atol:
            raise ValueError(f"trace {tr} is not 1 within tolerance")
        eigs = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
        if float(eigs.min()) < POLICY.eig_floor:
            raise ValueError(f"negative eigenvalue {eigs.min()} below tolerance")
        object.__setattr__(self, "entries", mat)
        self.entries.flags.writeable = False

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


class Rng:
    """Deterministic random stream with derivable per-trial substreams.

    A fixed ``seed`` yields a fixed stream; ``child(i)`` yields an
    independent stream for trial ``i``, deterministically.  Backed by
    PCG64 through numpy's SeedSequence spawning.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._spawn_key = tuple(_spawn_key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self._spawn_key)
        self.generator = np.random.Generator(np.random.PCG64(seq))

    def child(self, index: int) -> "Rng":
        return Rng(self.seed, self._spawn_key + (int(index),))

    def random(self) -> float:
        return float(self.generator.random())

    def integers(self, low: int, high: int) -> int:
        return int(self.generator.integers(low, high))

    def bit(self) -> int:
        return int(self.generator.integers(0, 2))

    def bernoulli(self, p: float) -> int:
        return int(self.generator.random() < p)

    def binomial(self, n: int, p: float) -> int:
        return int(self.generator.binomial(n, p))

    def choice_no_replace(self, population: int, size: int) -> np.ndarray:
        return np.sort(self.generator.choice(population, size=size, replace=False))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, spawn_key={self._spawn_key})"


# ---------------------------------------------------------------------------
# Construction helpers


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational basis state ``|index>`` (qubit 0 = most significant bit)."""
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def zero_state(num_qubits: int) -> StateVector:
    return basis_state(num_qubits, 0)


def state_from_amplitudes(amps: Sequence[complex]) -> StateVector:
    amps = np.asarray(amps, dtype=np.complex128)
    n = int(round(math.log2(amps.shape[0])))
    if 1 << n != amps.shape[0]:
        raise ValueError("amplitude length is not a power of two")
    return StateVector(n, amps)


def bits_to_index(bits: Sequence[int]) -> int:
    index = 0
    for b in bits:
        index = (index << 1) | (b & 1)
    return index


def index_to_bits(index: int, width: int) -> tuple[int, ...]:
    return tuple((index >> (width - 1 - j)) & 1 for j in range(width))


# ---------------------------------------------------------------------------
# Unitary application


def _validate_targets(num_qubits: int, targets: Sequence[int]) -> tuple[int, ...]:
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate targets {targets}")
    for t in targets:
        if not 0 <= t < num_qubits:
            raise ValueError(f"target {t} out of range for {num_qubits} qubits")
    return targets


def apply_unitary(
    state: StateVector, unitary: np.ndarray, targets: Sequence[int]
) -> StateVector:
    """Apply a ``2^k x 2^k`` operator to the ``k`` target qubits.

    Identity on every other qubit; preserves the norm within
    ``POLICY.norm_atol``.
    """
    targets = _validate_targets(state.num_qubits, targets)
    unitary = np.asarray(unitary, dtype=np.complex128)
    k = len(targets)
    if unitary.shape != (1 << k, 1 << k):
        raise ValueError(
            f"operator shape {unitary.shape} does not match {k} target qubits"
        )
    tensor_amps = state.amplitudes.reshape((2,) * state.num_qubits)
    # Contract the matrix's input legs with the target axes; tensordot puts
    # the k output legs first, so move them back to `targets`.
    moved = np.tensordot(
        unitary.reshape((2,) * (2 * k)), tensor_amps, axes=(range(k, 2 * k), targets)
    )
    out = np.moveaxis(moved, range(k), targets).reshape(-1)
    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > POLICY.norm_atol:
        raise ValueError(f"operator is not unitary on its targets (norm {norm})")
    return StateVector(state.num_qubits, out)


def _axis_coefficients(
    state: StateVector, axis: np.ndarray, targets: Sequence[int]
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Move the target block last and take <axis| on it.

    Returns the moved tensor shape, the (branches x 2^k) block matrix and
    one coefficient <axis|block> per branch of the other qubits.
    """
    n = state.num_qubits
    k = len(targets)
    tens = state.amplitudes.reshape((2,) * n)
    moved = np.moveaxis(tens, targets, range(n - k, n))
    block = np.ascontiguousarray(moved).reshape(-1, 1 << k)
    return moved.shape, block, block @ axis.conj()


def reflect_about_axis(
    state: StateVector, axis: np.ndarray, targets: Sequence[int]
) -> StateVector:
    """Apply I - 2|axis><axis| on the target block, identity elsewhere.

    The rank-1 update psi - 2 <axis|psi> |axis> per branch of the other
    qubits; cost O(2^num_qubits).  ``axis`` is a unit vector of length
    2^len(targets).
    """
    n = state.num_qubits
    k = len(targets)
    shape, block, coeff = _axis_coefficients(state, axis, targets)
    block = block - 2.0 * np.outer(coeff, axis)
    out = np.moveaxis(block.reshape(shape), range(n - k, n), targets)
    return StateVector(n, out.reshape(-1))


def axis_weight(state: StateVector, axis: np.ndarray, targets: Sequence[int]) -> float:
    """|| (<axis| (x) I_rest) |state> ||^2, the weight of the axis component
    on the target block."""
    _, _, coeff = _axis_coefficients(state, axis, targets)
    return float(np.sum(np.abs(coeff) ** 2))


# ---------------------------------------------------------------------------
# Measurement


def born_probabilities(state: StateVector, targets: Sequence[int]) -> np.ndarray:
    """Exact Born probabilities for measuring `targets`, indexed by outcome."""
    targets = _validate_targets(state.num_qubits, targets)
    tens = np.abs(state.amplitudes.reshape((2,) * state.num_qubits)) ** 2
    other = tuple(a for a in range(state.num_qubits) if a not in targets)
    probs = tens.sum(axis=other) if other else tens
    # Surviving axes follow sorted(targets); present them in caller order.
    axis_of = {t: i for i, t in enumerate(sorted(targets))}
    probs = np.transpose(probs, [axis_of[t] for t in targets])
    return probs.reshape(-1)


def measure_computational(
    state: StateVector, targets: Sequence[int], rng: Rng
) -> tuple[tuple[int, ...], StateVector, float]:
    """Measure the target qubits in the computational basis.

    Returns ``(outcome bits, collapsed state, probability)`` where the
    probability is the exact Born weight of the sampled outcome and the
    collapsed state is renormalized.
    """
    targets = _validate_targets(state.num_qubits, targets)
    tens = state.amplitudes.reshape((2,) * state.num_qubits)
    marg = np.abs(tens) ** 2
    other = tuple(a for a in range(state.num_qubits) if a not in targets)
    probs = marg.sum(axis=other) if other else marg
    # Axes of `probs` correspond to sorted(targets); view in caller order.
    sorted_targets = sorted(targets)
    axis_of = {t: i for i, t in enumerate(sorted_targets)}
    probs_caller = np.transpose(probs, [axis_of[t] for t in targets])
    flat = probs_caller.reshape(-1)
    total = float(flat.sum())
    if total < POLICY.prob_atol:
        raise ValueError("state has vanishing norm on all branches")
    r = rng.random() * total
    cum = np.cumsum(flat)
    outcome_index = int(np.searchsorted(cum, r, side="right"))
    outcome_index = min(outcome_index, flat.shape[0] - 1)
    prob = float(flat[outcome_index] / total)
    bits = index_to_bits(outcome_index, len(targets))
    # Project and renormalize.
    slicer: list[object] = [slice(None)] * state.num_qubits
    for t, b in zip(targets, bits):
        slicer[t] = b
    collapsed = np.zeros_like(tens)
    collapsed[tuple(slicer)] = tens[tuple(slicer)]
    collapsed = collapsed.reshape(-1)
    collapsed = collapsed / np.linalg.norm(collapsed)
    return bits, StateVector(state.num_qubits, collapsed), prob


# ---------------------------------------------------------------------------
# Composition and reduction


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; `a`'s qubits become the most significant block."""
    _check_state_capacity(a.num_qubits + b.num_qubits)
    return StateVector(
        a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes)
    )


def permute_qubits(state: StateVector, new_positions: Sequence[int]) -> StateVector:
    """Move qubit ``i`` to position ``new_positions[i]``."""
    n = state.num_qubits
    new_positions = _validate_targets(n, new_positions)
    if len(new_positions) != n:
        raise ValueError("permutation must mention every qubit")
    tens = state.amplitudes.reshape((2,) * n)
    tens = np.moveaxis(tens, range(n), new_positions)
    return StateVector(n, tens.reshape(-1))


def embed_state(
    sub: StateVector, num_qubits: int, qubits: Sequence[int]
) -> StateVector:
    """Place `sub` on the listed qubits of a larger |0...0>-padded state."""
    qubits = _validate_targets(num_qubits, qubits)
    if len(qubits) != sub.num_qubits:
        raise ValueError("qubit list does not match the sub-state size")
    padded = tensor(sub, zero_state(num_qubits - sub.num_qubits))
    rest = [q for q in range(num_qubits) if q not in qubits]
    positions = list(qubits) + rest
    return permute_qubits(padded, positions)


def extract_pure(state: StateVector, keep: Sequence[int]) -> StateVector:
    """Extract the pure state of the kept qubits.

    Requires the kept qubits to be unentangled with the rest; raises if the
    reduced state is not pure within ``POLICY.pure_metric_atol``.
    """
    keep = _validate_targets(state.num_qubits, keep)
    n = state.num_qubits
    rest = [q for q in range(n) if q not in keep]
    tens = state.amplitudes.reshape((2,) * n)
    tens = np.transpose(tens, list(keep) + rest)
    mat = tens.reshape(1 << len(keep), 1 << len(rest))
    gram = mat @ mat.conj().T
    purity = float(np.real(np.trace(gram @ gram)))
    if abs(purity - 1.0) > POLICY.pure_metric_atol:
        raise ValueError(f"kept qubits are entangled with the rest (purity {purity})")
    # Product state: every nonzero column of `mat` is proportional to the
    # kept factor; read it off the heaviest column.
    col_norms = np.linalg.norm(mat, axis=0)
    j = int(np.argmax(col_norms))
    return StateVector(len(keep), mat[:, j] / col_norms[j])


def promote(state: StateVector) -> DensityMatrix:
    """Pure-to-mixed promotion |psi><psi|."""
    _check_density_capacity(state.num_qubits)
    return DensityMatrix(state.num_qubits, np.outer(state.amplitudes, state.amplitudes.conj()))


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every qubit not in `keep`; kept qubits keep their order."""
    keep = tuple(int(q) for q in keep)
    n = rho.num_qubits
    for q in keep:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range")
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate qubits in keep")
    traced = tuple(q for q in range(n) if q not in keep)
    tens = rho.entries.reshape((2,) * (2 * n))
    for offset, q in enumerate(traced):
        ax = q - offset
        tens = np.trace(tens, axis1=ax, axis2=ax + (n - offset))
    k = len(keep)
    mat = tens.reshape(1 << k, 1 << k)
    # Axes survive in ascending qubit order; permute to the caller's order.
    order = np.argsort(np.argsort(keep))
    if not np.array_equal(order, np.arange(k)):
        tens = mat.reshape((2,) * (2 * k))
        perm = list(order) + [k + o for o in order]
        inv = np.argsort(perm)
        tens = np.transpose(tens, inv)
        mat = tens.reshape(1 << k, 1 << k)
    return DensityMatrix(k, mat)


# ---------------------------------------------------------------------------
# Overlap and fidelity


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("dimension mismatch")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector | DensityMatrix, b: StateVector | DensityMatrix) -> float:
    """Uhlmann fidelity; |<a|b>|^2 for pure inputs."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return float(abs(overlap(a, b)) ** 2)
    if isinstance(a, StateVector):
        a, b = b, a
    if isinstance(b, StateVector):
        if a.num_qubits != b.num_qubits:
            raise ValueError("dimension mismatch")
        v = b.amplitudes
        return float(np.real(np.vdot(v, a.entries @ v)))
    if a.num_qubits != b.num_qubits:
        raise ValueError("dimension mismatch")
    sa = _psd_sqrt(a.entries)
    inner = sa @ b.entries @ sa
    eigs = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    eigs = np.clip(eigs, 0.0, None)
    return float(np.sqrt(eigs).sum() ** 2)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    eigs = np.clip(eigs, 0.0, None)
    return (vecs * np.sqrt(eigs)) @ vecs.conj().T
