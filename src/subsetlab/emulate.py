"""Reflection emulation: rewriting oracle queries into symmetric-subspace
reflections over copies of |1>|S->, plus copy generation and
projection-via-reflection.

Two exact evaluation paths exist for a rewritten circuit:

* the explicit path runs the rewritten circuit on the literally prepared
  copy registers (small copy counts only; width is capped), and
* the compressed path tracks the copy registers in a per-level bosonic
  occupation basis.  Because every operation on the copies is a
  permutation-symmetric reflection, the copies stay in the symmetric
  sector with at most one new excitation per query, so the reachable basis
  is tiny and the cost is independent of the copy count.

Both paths agree to numerical precision; tests pin that.

Each level's sector is built from its creation map ``B``: column (i, m),
the query block in mode i and the copies in occupation m, goes to the
occupation m + e_i of all ell+1 registers with weight sqrt(n_i(m) + 1).
The symmetric projector is ``B^T B / (ell+1)`` (Harrow's A A^dagger,
arXiv:1308.6595), and a query applies ``I - 2P`` as two products with the
sparse ``B``, never forming ``P``.  Mode 0 of the copies is |1>|S->; the
query block is taken into that basis and back by the Householder mirror
``I - 2|w><w|``, w = (|0> - |1>|S->)/sqrt(2), which costs O(N) per
amplitude vector where a dense basis change costs O(N^2).  Only the
mirror depends on the oracle.  ``B`` depends on the shape (N, ell,
cutoff) alone, so engines of one shape share it through a bounded cache,
and an engine is built where it is used.

Emulated verifiers (``EmulatedAcceptProcedure``) evaluate only the
oracle's light cone in the compressed basis: the qubits linked to an
oracle block by a chain of shared gates, where the input qubits count as
linked to each other because the challenge may be entangled across them.
Every other qubit evolves as a plain state vector.  The state is a
product across that split, so the result is exact (after Markov and Shi's
light-cone contraction, arXiv:quant-ph/0511069).  ``emulation_error``
stays full-width on purpose: it is the engine's cross-check against the
oracle path, and its printed numbers should not depend on how the circuit
factorizes.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from . import oracleworld as ow
from . import qcore
from .qcore import POLICY, CapacityError, Rng, StateVector

__all__ = [
    "project_via_reflection",
    "generate_s_minus",
    "GenerateResult",
    "EmulationPlan",
    "build_emulation",
    "EmulationEngine",
    "CompressedState",
    "emulation_error",
    "EmulationErrorResult",
    "single_query_inner_product",
    "emulation_bound",
    "run_emulated_explicit",
    "EmulatedAcceptProcedure",
    "random_oracle_circuit",
    "pre_query_state",
    "LruCache",
]

MIN_GUARANTEED_ELL = 4


# ---------------------------------------------------------------------------
# Projection via one controlled reflection


def project_via_reflection(
    input_state: StateVector, target: StateVector, rng: Rng
) -> tuple[bool, StateVector | None]:
    """One-query projection onto `target`.

    Runs ancilla |+>, controlled reflection about the target, Hadamard,
    ancilla measurement.  Success probability is exactly
    |<target|input>|^2; on success the output equals the target up to
    phase.
    """
    if input_state.num_qubits != target.num_qubits:
        raise ValueError("input and target must have the same qubit count")
    n = input_state.num_qubits
    plus = qcore.state_from_amplitudes([1 / math.sqrt(2), 1 / math.sqrt(2)])
    joint = qcore.tensor(plus, input_state)
    axis = np.kron(np.array([0.0, 1.0]), target.amplitudes)  # |1>|target>
    joint = qcore.reflect_about_axis(joint, axis, list(range(n + 1)))
    joint = qcore.apply_unitary(joint, ow.named_gate_matrix("H", 1), [0])
    bits, collapsed, _ = qcore.measure_computational(joint, [0], rng)
    if bits[0] != 1:
        return False, None
    return True, qcore.extract_pure(collapsed, list(range(1, n + 1)))


@dataclass
class GenerateResult:
    state: StateVector | None
    attempts: int
    succeeded: bool


def generate_s_minus(
    env: ow.OracleEnv, lam: int, kappa: int, rng: Rng
) -> GenerateResult:
    """Produce |S_lam -> with at most `kappa` repeat-until-success attempts.

    Each attempt queries the oracle once on |+>|0^lam> and Hadamard-measures
    the control; the minus outcome leaves exactly |S_lam -> (up to phase)
    with per-attempt probability exactly 1/2.  Overall failure probability
    is 2^-kappa.
    """
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    H = ow.named_gate_matrix("H", 1)
    for attempt in range(1, kappa + 1):
        st = qcore.zero_state(lam + 1)
        st = qcore.apply_unitary(st, H, [0])
        st = ow.apply_oracle(st, env, lam, list(range(lam + 1)))
        st = qcore.apply_unitary(st, H, [0])
        bits, collapsed, _ = qcore.measure_computational(st, [0], rng)
        if bits[0] == 1:
            return GenerateResult(
                qcore.extract_pure(collapsed, list(range(1, lam + 1))),
                attempt,
                True,
            )
    return GenerateResult(None, kappa, False)


# ---------------------------------------------------------------------------
# Rewriting plans


@dataclass(frozen=True)
class EmulationPlan:
    """An oracle-free rewrite of a circuit plus the copy-register layout.

    Copy blocks (one per level and copy index, each level+1 qubits wide,
    holding |1>|S->) are appended after the source registers.  The
    rewritten gate list replaces every oracle gate with a
    symmetric-subspace reflection over its query block and that level's
    copy blocks.  ``materialize()`` builds the explicit rewritten circuit,
    which is only possible within the global width cap; the compressed
    evaluator does not need it.
    """

    source: ow.OracleAidedCircuit
    ell_per_lambda: dict[int, int]
    copy_offsets: dict[int, tuple[int, ...]]
    rewritten_gates: tuple[ow.Gate, ...]
    total_qubits: int
    below_guaranteed_regime: bool

    def materialize(self) -> ow.OracleAidedCircuit:
        return ow.OracleAidedCircuit(self.total_qubits, self.rewritten_gates)


def build_emulation(
    circuit: ow.OracleAidedCircuit, ell_per_lambda: Mapping[int, int] | int
) -> EmulationPlan:
    """Plan the oracle-free rewrite of a deferred-measurement circuit.

    ``ell_per_lambda`` gives the copy count per queried level (one integer
    applies to all levels).  Copy counts below 4 are allowed but flagged:
    the error bound's derivation assumes at least 4.
    """
    if not ow.is_deferred(circuit):
        raise ValueError("circuit must be in deferred-measurement form")
    levels = circuit.query_levels
    if isinstance(ell_per_lambda, int):
        ells = {lam: int(ell_per_lambda) for lam in levels}
    else:
        ells = {lam: int(ell_per_lambda[lam]) for lam in levels}
    for lam, ell in ells.items():
        if ell < 1:
            raise ValueError(f"need at least one copy for lambda={lam}")
    offset = circuit.num_qubits
    copy_offsets: dict[int, tuple[int, ...]] = {}
    for lam in levels:
        block = lam + 1
        copy_offsets[lam] = tuple(offset + i * block for i in range(ells[lam]))
        offset += ells[lam] * block
    rewritten: list[ow.Gate] = []
    for g in circuit.gates:
        if g.kind != "oracle":
            rewritten.append(g)
            continue
        blocks = [g.targets] + [
            tuple(range(o, o + g.lam + 1)) for o in copy_offsets[g.lam]
        ]
        rewritten.append(ow.Gate.symreflect(blocks))
    return EmulationPlan(
        source=circuit,
        ell_per_lambda=ells,
        copy_offsets=copy_offsets,
        rewritten_gates=tuple(rewritten),
        total_qubits=offset,
        below_guaranteed_regime=any(e < MIN_GUARANTEED_ELL for e in ells.values()),
    )


def run_emulated_explicit(
    plan: EmulationPlan, env: ow.OracleEnv, input_state: StateVector, rng: Rng
) -> ow.RunResult:
    """Run the materialized rewritten circuit on input (x) literal copies.

    Small copy counts only; the copy registers are prepared exactly.
    """
    circuit = plan.materialize()
    joint = input_state
    for lam in sorted(plan.copy_offsets):
        chi = ow.oracle_axis_state(env.spec(lam))
        for _ in plan.copy_offsets[lam]:
            joint = qcore.tensor(joint, chi)
    return ow.run_circuit(circuit, env, joint, rng)


# ---------------------------------------------------------------------------
# Compressed evaluation


@dataclass
class _Sector:
    ell: int
    size: int  # K, the number of copy occupations
    mirror: np.ndarray  # w of the mirror I - 2|w><w| that maps |0> to |1>|S->
    creation: sp.csc_matrix  # B; B^T B / (ell+1) is the symmetric projector


def _creation_map(dim: int, ell: int, cutoff: int) -> sp.csc_matrix:
    """The creation map B of one level's truncated symmetric sector.

    The sector's copy occupations are the multisets m of the excited modes
    1..dim-1 with at most `cutoff` elements, vacuum first; mode 0 holds the
    other ell - |m| copies.  Column i*K + index(m) of B is |i> on the query
    block times |m> on the copies.  B sends it to the occupation m + e_i of
    all ell+1 registers with weight sqrt(n_i(m) + 1), so B^T B / (ell+1) is
    the projector onto the symmetric subspace, restricted to the sector
    (Harrow, arXiv:1308.6595).  B has one nonzero per column, and its
    columns cover only the sector, so the cutoff needs no special case.
    """
    occupations = []
    for k in range(cutoff + 1):
        combos = np.array(
            list(combinations_with_replacement(range(1, dim), k)), dtype=np.int64
        )
        # Left-padded with mode 0, so every row stays sorted.
        occupations.append(np.pad(combos, ((0, 0), (cutoff - k, 0))))
    occ = np.concatenate(occupations)
    K = occ.shape[0]
    modes = np.repeat(np.arange(dim), K)
    grown = np.sort(np.column_stack([np.tile(occ, (dim, 1)), modes]), axis=1)
    # The total is always ell+1, so the sorted excited modes name a grown
    # occupation.  Rank the rows one column at a time: a key is a prefix's
    # rank times dim plus the next mode, so it stays below dim^2 K.
    rows = np.zeros(dim * K, dtype=np.int64)
    for column in grown.T:
        _, rows = np.unique(rows * dim + column, return_inverse=True)
    # n_i(m) + 1 is the count of i in the grown row; for mode 0 the padding
    # holds cutoff - |m| + 1 of the ell - |m| + 1 zeros.
    counts = (grown == modes[:, None]).sum(axis=1) + (ell - cutoff) * (modes == 0)
    return sp.csc_matrix(
        (np.sqrt(counts), rows, np.arange(dim * K + 1)),
        shape=(int(rows.max()) + 1, dim * K),
    )


def _build_sector(ell: int, cutoff: int, chi: np.ndarray) -> _Sector:
    dim = chi.shape[0]
    creation = _CREATION_MAPS.get((dim, ell, cutoff))
    if creation is None:
        creation = _creation_map(dim, ell, cutoff)
        _CREATION_MAPS.put((dim, ell, cutoff), creation)
    # chi = |1>|S-> has chi[0] = 0, so w = (|0> - chi)/sqrt(2) is a unit
    # vector and I - 2|w><w| swaps |0> and chi.  Any unitary that maps |0>
    # to chi serves: the sector is invariant under unitaries that fix
    # mode 0, and the projector commutes with V^(x)(ell+1).
    mirror = -chi / np.linalg.norm(chi)
    mirror[0] += 1.0
    return _Sector(ell, creation.shape[1] // dim, mirror / math.sqrt(2.0), creation)


def _apply_mirror(w: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """(I - 2|w><w|) on axis 1 of `flat`, of shape (R, N, K)."""
    overlap = np.tensordot(w.conj(), flat, axes=(0, 1))
    return flat - 2.0 * w[:, None] * overlap[:, None, :]


def _main_axis_action(
    matrix: np.ndarray, targets: tuple[int, ...], n: int
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Gather/scale realization of phased-permutation or diagonal gates.

    Returns (source indices, per-index phases or None) over the 2^n main
    axis when the matrix moves each basis state to a single basis state;
    None for genuinely dense matrices.  Cached per (matrix, targets, n),
    in a 1-tuple so that a cached None is a hit.
    """
    key = (matrix.tobytes(), targets, n)
    cached = _MAIN_ACTION_CACHE.get(key)
    if cached is not None:
        return cached[0]
    result = None
    dim = matrix.shape[0]
    k = len(targets)
    nonzero = np.abs(matrix) > 1e-14
    if nonzero.sum() == dim and np.all(nonzero.sum(axis=0) == 1):
        rows = np.argmax(nonzero, axis=0)
        vals = matrix[rows, np.arange(dim)]
        if np.allclose(np.abs(vals), 1.0, atol=1e-12):
            # Column c goes to row rows[c] with phase vals[c]; per output
            # index, read from the preimage column.
            inv = np.empty(dim, dtype=np.int64)
            inv[rows] = np.arange(dim)
            m = np.arange(1 << n, dtype=np.int64)
            bits = np.zeros(1 << n, dtype=np.int64)
            for j, t in enumerate(targets):
                bits = (bits << 1) | ((m >> (n - 1 - t)) & 1)
            src_bits = inv[bits]
            src = m
            for j, t in enumerate(targets):
                bit = (src_bits >> (k - 1 - j)) & 1
                shift = n - 1 - t
                src = (src & ~(1 << shift)) | (bit << shift)
            phases = vals[bits]
            if np.allclose(phases, 1.0, atol=1e-14):
                phases = None
            result = (src, phases)
    _MAIN_ACTION_CACHE.put(key, (result,))
    return result


@dataclass
class CompressedState:
    """Joint amplitudes over (main register, per-level occupation bases)."""

    num_main_qubits: int
    sector_sizes: tuple[int, ...]
    array: np.ndarray  # shape (2^n, K_1, ..., K_m)

    def norm(self) -> float:
        return float(np.linalg.norm(self.array))

    def accept_probability(self, qubit: int) -> float:
        """Total weight of main-register states with `qubit` = 1."""
        n = self.num_main_qubits
        tens = self.array.reshape((2,) * n + self.sector_sizes)
        sl: list[object] = [slice(None)] * tens.ndim
        sl[qubit] = 1
        return float(np.sum(np.abs(tens[tuple(sl)]) ** 2))

    def inner_with_plain(self, plain: StateVector) -> complex:
        """<plain (x) pristine copies | self>; the pristine copy state is the
        zero-excitation occupation in every sector."""
        vac = self.array[(slice(None),) + (0,) * len(self.sector_sizes)]
        return complex(np.vdot(plain.amplitudes, vac))


class EmulationEngine:
    """Exact evaluator for rewritten circuits in the compressed basis.

    Supports unitary and oracle gates (oracle gates are interpreted as the
    rewritten symmetric reflection over the query block and that level's
    copies).  Cost depends on the excitation cutoff (the per-level query
    count), not on the copy counts.
    """

    def __init__(
        self,
        env: ow.OracleEnv,
        num_main_qubits: int,
        ell_per_lambda: Mapping[int, int],
        cutoff_per_lambda: Mapping[int, int],
    ):
        self.env = env
        self.num_main_qubits = num_main_qubits
        self.levels = tuple(sorted(ell_per_lambda))
        # Checked before any sector is built: a level's sector holds every
        # occupation of the N-1 excited modes with at most `cutoff`
        # excitations, C(N-1+cutoff, cutoff) = K of them (N = 2^(lam+1)),
        # and each needs ell - cutoff >= 0 copies left in mode 0.  Building
        # a creation map takes int64 temporaries of N*K*(cutoff+1) entries.
        entries, temporaries = 1 << num_main_qubits, 0
        for lam in self.levels:
            ell, cutoff = int(ell_per_lambda[lam]), int(cutoff_per_lambda[lam])
            if ell < cutoff:
                raise ValueError(f"copy count {ell} below excitation cutoff {cutoff}")
            dim = 1 << (lam + 1)
            size = math.comb(dim - 1 + cutoff, cutoff)
            entries *= size
            temporaries = max(temporaries, dim * size * (cutoff + 1))
        if entries > POLICY.max_engine_entries:
            raise CapacityError(
                f"compressed state of {entries} entries exceeds the configured cap"
            )
        if temporaries > POLICY.max_engine_entries:
            raise CapacityError(
                f"building a sector takes {temporaries} entries, over the configured cap"
            )
        self.sectors: dict[int, _Sector] = {}
        for lam in self.levels:
            chi = ow.oracle_axis_state(env.spec(lam)).amplitudes
            self.sectors[lam] = _build_sector(
                int(ell_per_lambda[lam]), int(cutoff_per_lambda[lam]), chi
            )
        self.sector_sizes = tuple(self.sectors[lam].size for lam in self.levels)

    def initial_state(self, input_state: StateVector) -> CompressedState:
        if input_state.num_qubits != self.num_main_qubits:
            raise ValueError("input does not match the main register")
        shape = (1 << self.num_main_qubits,) + self.sector_sizes
        arr = np.zeros(shape, dtype=np.complex128)
        arr[(slice(None),) + (0,) * len(self.sector_sizes)] = input_state.amplitudes
        return CompressedState(self.num_main_qubits, self.sector_sizes, arr)

    def apply_unitary(
        self, state: CompressedState, matrix: np.ndarray, targets: Sequence[int]
    ) -> CompressedState:
        n = self.num_main_qubits
        k = len(targets)
        targets = tuple(targets)
        matrix = np.asarray(matrix, dtype=np.complex128)
        flat = state.array.reshape(1 << n, -1)
        special = _main_axis_action(matrix, targets, n)
        if special is not None:
            src, phases = special
            out = flat[src]
            if phases is not None:
                out = out * phases[:, None]
            return CompressedState(n, self.sector_sizes, out.reshape(state.array.shape))
        if targets == tuple(range(targets[0], targets[0] + k)):
            # Contiguous ascending block: one batched matmul, no transposes.
            pre = 1 << targets[0]
            dim = 1 << k
            work = state.array.reshape(pre, dim, -1)
            out = np.matmul(matrix, work)
            return CompressedState(n, self.sector_sizes, out.reshape(state.array.shape))
        tens = state.array.reshape((2,) * n + self.sector_sizes)
        mat = matrix.reshape((2,) * (2 * k))
        moved = np.tensordot(mat, tens, axes=(range(k, 2 * k), targets))
        moved = np.moveaxis(moved, range(k), targets)
        return CompressedState(
            n, self.sector_sizes, np.ascontiguousarray(moved).reshape(state.array.shape)
        )

    def apply_query(
        self, state: CompressedState, lam: int, targets: Sequence[int]
    ) -> CompressedState:
        """Symmetric reflection over the query block and level-lam copies."""
        sector = self.sectors[lam]
        pos = self.levels.index(lam)
        n = self.num_main_qubits
        block = lam + 1
        N, K = 1 << block, sector.size
        tens = state.array.reshape((2,) * n + self.sector_sizes)
        # Bring the query-block axes to the tail of the main part, then the
        # sector axis right after them.
        tens = np.moveaxis(tens, targets, range(n - block, n))
        tens = np.moveaxis(tens, n + pos, n)
        lead_shape = tens.shape  # (2,)*(n-block) + (2,)*block + (K,) + rest
        work = tens.reshape(1 << (n - block), N, K, -1)
        work = np.moveaxis(work, 3, 1)  # (pre, rest, N, K)
        pre, rest = work.shape[0], work.shape[1]
        # The mirror takes the query block into the basis whose mode 0 is
        # |1>|S->, the copies' mode, and back; in between, I - 2P with
        # P = B^T B / (ell+1), never formed.
        flat = _apply_mirror(sector.mirror, work.reshape(pre * rest, N, K))
        vec = flat.reshape(pre * rest, N * K)
        B = sector.creation
        vec = vec - (2.0 / (sector.ell + 1)) * ((vec @ B.T) @ B)
        flat = _apply_mirror(sector.mirror, vec.reshape(pre * rest, N, K))
        work = flat.reshape(pre, rest, N, K)
        work = np.moveaxis(work, 1, 3)
        tens = work.reshape(lead_shape)
        tens = np.moveaxis(tens, n, n + pos)
        tens = np.moveaxis(tens, range(n - block, n), targets)
        return CompressedState(n, self.sector_sizes, tens.reshape(state.array.shape))

    def run(
        self, gates: Iterable[ow.Gate], input_state: StateVector
    ) -> CompressedState:
        state = self.initial_state(input_state)
        for g in gates:
            if g.kind == "unitary":
                if g.condition is not None:
                    raise ValueError("compressed evaluation needs deferred circuits")
                state = self.apply_unitary(state, g.matrix, g.targets)
            elif g.kind == "oracle":
                state = self.apply_query(state, g.lam, g.targets)
            elif g.kind in ("measure", "discard"):
                raise ValueError(
                    "compressed evaluation stops before measurements; strip them"
                )
            else:
                raise ValueError(f"unsupported gate kind {g.kind!r}")
        return state


# ---------------------------------------------------------------------------
# Error analysis


def emulation_bound(query_counts: Mapping[int, int], ells: Mapping[int, int]) -> float:
    """2q/sqrt(ell+1), summed over levels when copy counts differ."""
    return sum(
        2.0 * q / math.sqrt(ells[lam] + 1.0) for lam, q in query_counts.items() if q
    )


def single_query_inner_product(ell: int, overlap_sq: float) -> float:
    """Closed-form overlap after one rewritten query on a product input:
    (ell-1)/(ell+1) + 2/(ell+1) * |<axis|query block>|^2."""
    return (ell - 1.0) / (ell + 1.0) + 2.0 / (ell + 1.0) * overlap_sq


@dataclass
class EmulationErrorResult:
    exact_td: float
    bound: float
    inner_product: complex
    ell_per_lambda: dict[int, int]
    query_counts: dict[int, int]


def emulation_error(
    circuit: ow.OracleAidedCircuit,
    env: ow.OracleEnv,
    ell_per_lambda: Mapping[int, int] | int,
    input_state: StateVector | None = None,
) -> EmulationErrorResult:
    """Exact trace distance between the oracle run (with untouched copies)
    and the rewritten run, against the 2q/sqrt(ell+1) bound.

    Both runs are evaluated exactly: the oracle path on the plain state
    vector, the rewritten path in the compressed basis; the distance comes
    from the pure-state overlap.  Asserts the bound.
    """
    prefix = ow.unitary_prefix(circuit)
    plan = build_emulation(circuit, ell_per_lambda)
    counts = dict(circuit.declared_query_count)
    bound = emulation_bound(counts, plan.ell_per_lambda)
    if input_state is None:
        input_state = qcore.zero_state(circuit.num_qubits)
    # Oracle path (queries not charged to the env: this is analysis).
    plain = ow.evolve(input_state, prefix, env, count=False)
    # Rewritten path.
    if counts:
        engine = EmulationEngine(env, circuit.num_qubits, plan.ell_per_lambda, counts)
        emulated = engine.run(prefix, input_state)
        ip = emulated.inner_with_plain(plain)
    else:
        ip = 1.0 + 0.0j
    td = math.sqrt(max(0.0, 1.0 - abs(ip) ** 2))
    if td > bound + POLICY.prob_atol:
        raise AssertionError(f"exact TD {td} exceeds the bound {bound}")
    return EmulationErrorResult(td, bound, ip, plan.ell_per_lambda, counts)


# ---------------------------------------------------------------------------
# Randomized corpus helpers


def random_oracle_circuit(
    lam: int, q: int, rng: Rng, extra_qubits: int = 1
) -> ow.OracleAidedCircuit:
    """A random q-query circuit: Haar unitaries on random wire pairs
    interleaved with oracle gates on the leading lam+1 qubits."""
    from scipy.stats import unitary_group

    width = lam + 1 + extra_qubits
    gates: list[ow.Gate] = []

    def random_layer() -> None:
        wires = sorted(
            int(w) for w in rng.generator.choice(width, size=2, replace=False)
        )
        mat = unitary_group.rvs(4, random_state=rng.generator)
        gates.append(ow.Gate.unitary(mat, wires))

    for _ in range(q):
        random_layer()
        gates.append(ow.Gate.oracle(lam, list(range(lam + 1))))
    random_layer()
    return ow.OracleAidedCircuit(width, tuple(gates))


def pre_query_state(
    circuit: ow.OracleAidedCircuit,
    env: ow.OracleEnv,
    input_state: StateVector | None = None,
) -> StateVector:
    """The state right before the circuit's first oracle gate."""
    if input_state is None:
        input_state = qcore.zero_state(circuit.num_qubits)
    prefix = ow.unitary_prefix(circuit)
    first = next((i for i, g in enumerate(prefix) if g.kind == "oracle"), None)
    if first is None:
        raise ValueError("circuit has no oracle gate")
    return ow.evolve(input_state, prefix[:first], env, count=False)


# ---------------------------------------------------------------------------
# Emulated accept procedures (for keyed measurement families)


def _light_cone(
    gates: Sequence[ow.Gate], num_qubits: int, input_qubits: Sequence[int]
) -> tuple[int, ...]:
    """The qubits that the oracle queries of a unitary/oracle prefix reach.

    A union-find over each gate's targets groups the qubits that interact.
    All oracle blocks fall in one group, since they share the copy
    registers, and so do the input qubits, since the challenge may be
    entangled across them.  Every gate then acts inside the returned cone
    or outside it, so a product input stays a product across the split.
    Empty when no gate queries the oracle.
    """
    parent = list(range(num_qubits))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def merge(qubits: Sequence[int]) -> None:
        for q in qubits[1:]:
            parent[find(q)] = find(qubits[0])

    merge(tuple(input_qubits))
    anchors: list[int] = []
    for g in gates:
        merge(g.targets)
        if g.kind == "oracle":
            anchors.append(g.targets[0])
    if not anchors:
        return ()
    merge(anchors)
    root = find(anchors[0])
    return tuple(q for q in range(num_qubits) if find(q) == root)


def _relabel(gates: Iterable[ow.Gate], qubits: Sequence[int]) -> tuple[ow.Gate, ...]:
    """The gates acting inside `qubits`, renumbered to positions in it."""
    pos = {q: i for i, q in enumerate(qubits)}
    return tuple(
        replace(g, targets=tuple(pos[t] for t in g.targets))
        for g in gates
        if all(t in pos for t in g.targets)
    )


@dataclass
class EmulatedAcceptProcedure:
    """Accept probability of a deferred verifier with its oracle queries
    rewritten into reflections over level copies; evaluated exactly.
    ``input_qubits`` is where the challenge goes; all other main qubits
    start at |0>.

    Only the oracle's light cone (``_light_cone``) goes through the
    compressed engine; the other qubits evolve as a plain state vector.
    The state is a product across that split, so the accept probability
    is the accept qubit's factor's probability times the squared norm of
    the other factor.  The split and the cone's engine are built once per
    procedure."""

    circuit: ow.OracleAidedCircuit
    input_qubits: tuple[int, ...]
    accept_qubit: int
    env: ow.OracleEnv
    ell_per_lambda: dict[int, int]

    def __post_init__(self) -> None:
        if not ow.is_deferred(self.circuit):
            raise ValueError("verifier must be in deferred-measurement form")
        n = self.circuit.num_qubits
        prefix = ow.unitary_prefix(self.circuit)
        cone = _light_cone(prefix, n, self.input_qubits)
        rest = tuple(q for q in range(n) if q not in cone)
        self._cone_gates = _relabel(prefix, cone)
        self._rest_gates = _relabel(prefix, rest)
        self._cone_width = len(cone)
        self._rest_width = len(rest)
        self._inputs_in_cone = bool(cone) and set(self.input_qubits) <= set(cone)
        side = cone if self._inputs_in_cone else rest
        self._input_positions = tuple(side.index(q) for q in self.input_qubits)
        self._accept_in_cone = self.accept_qubit in cone
        side = cone if self._accept_in_cone else rest
        self._accept_position = side.index(self.accept_qubit)
        self._engine = None
        if cone:
            counts = dict(self.circuit.declared_query_count)
            ells = {lam: self.ell_per_lambda[lam] for lam in counts}
            self._engine = EmulationEngine(self.env, len(cone), ells, counts)

    @property
    def arity(self) -> int:
        return len(self.input_qubits)

    def accept_probability(self, challenge: StateVector) -> float:
        if challenge.num_qubits != self.arity:
            raise ValueError("challenge does not match the verifier input arity")
        cone_in = qcore.zero_state(self._cone_width)
        plain = qcore.zero_state(self._rest_width)
        if self._inputs_in_cone:
            cone_in = qcore.embed_state(
                challenge, self._cone_width, self._input_positions
            )
        else:
            plain = qcore.embed_state(
                challenge, self._rest_width, self._input_positions
            )
        plain = ow.evolve(plain, self._rest_gates, self.env, count=False)
        if self._engine is None:
            return float(qcore.born_probabilities(plain, [self._accept_position])[1])
        out = self._engine.run(self._cone_gates, cone_in)
        if self._accept_in_cone:
            plain_norm = float(np.linalg.norm(plain.amplitudes))
            return out.accept_probability(self._accept_position) * plain_norm**2
        p = float(qcore.born_probabilities(plain, [self._accept_position])[1])
        return p * out.norm() ** 2


class LruCache:
    """A least-recently-used map bounded by the summed weight of its values.

    ``put`` evicts the least recently used entries until the weights sum
    to at most ``budget``, but never the entry it just stored, so one
    entry heavier than the budget is still kept until the next ``put``.
    Safe to share between threads.
    """

    def __init__(self, budget: int, weight: Callable[[object], int] = lambda value: 1):
        self.budget = budget
        self.weight = weight
        self.total = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> object:
        """The value stored under `key`, now the most recent, or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            if key in self._entries:
                self.total -= self.weight(self._entries.pop(key))
            self._entries[key] = value
            self.total += self.weight(value)
            while self.total > self.budget and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                self.total -= self.weight(evicted)


#: Nonzeros of stored creation maps (about 12 bytes each) that
#: ``_CREATION_MAPS`` may hold, about 200 MB.
_CREATION_MAP_NONZEROS = 1 << 24

#: Creation maps by (dim, ell, cutoff): they depend on the shape only, so
#: engines on different oracles share them.
_CREATION_MAPS = LruCache(_CREATION_MAP_NONZEROS, lambda creation: creation.nnz)


#: Phased-permutation realizations of gates (see ``_main_axis_action``).
_MAIN_ACTION_CACHE = LruCache(4096)
