"""Reference helpers the tests check the package against.

Direct, unoptimized definitions with no caller in the package: ensemble
mixing, trace distance, statistical distance and the gap-squaring
transform as a sampling distinguisher.
"""

import math
from typing import Callable, Iterable, Mapping

import numpy as np

from subsetlab.qcore import POLICY, DensityMatrix, Rng
from subsetlab.qefid import Distinguisher


def mix(ensemble: Iterable[tuple[float, DensityMatrix]]) -> DensityMatrix:
    """Weighted sum of density matrices; weights must sum to 1."""
    ensemble = list(ensemble)
    if not ensemble:
        raise ValueError("empty ensemble")
    weights = np.array([w for w, _ in ensemble], dtype=float)
    if abs(weights.sum() - 1.0) > POLICY.prob_atol:
        raise ValueError(f"ensemble weights sum to {weights.sum()}, not 1")
    n = ensemble[0][1].num_qubits
    acc = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for w, rho in ensemble:
        if rho.num_qubits != n:
            raise ValueError("mixed ensemble of unequal qubit counts")
        acc += w * rho.entries
    return DensityMatrix(n, acc)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) sum |eigenvalues(a - b)|, exact, in [0, 1]."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("dimension mismatch")
    diff = a.entries - b.entries
    eigs = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(np.clip(0.5 * np.abs(eigs).sum(), 0.0, 1.0))


def statistical_distance(
    p: Mapping[str, float] | np.ndarray, q: Mapping[str, float] | np.ndarray
) -> float:
    """Half the L1 distance between two probability tables over bitstrings."""

    def as_table(t: Mapping[str, float] | np.ndarray) -> dict[str, float]:
        if isinstance(t, Mapping):
            return {str(k): float(v) for k, v in t.items()}
        arr = np.asarray(t, dtype=float)
        width = max(1, int(math.ceil(math.log2(max(arr.shape[0], 2)))))
        return {format(i, f"0{width}b"): float(v) for i, v in enumerate(arr)}

    tp, tq = as_table(p), as_table(q)
    for name, table in (("p", tp), ("q", tq)):
        total = sum(table.values())
        if abs(total - 1.0) > POLICY.prob_atol:
            raise ValueError(f"table {name} sums to {total}, not 1")
    keys = set(tp) | set(tq)
    return 0.5 * sum(abs(tp.get(k, 0.0) - tq.get(k, 0.0)) for k in keys)


def yao_transform(
    a: Distinguisher,
    sampler0: Callable[[Rng], str],
    sampler1: Callable[[Rng], str],
) -> Distinguisher:
    """Square an absolute gap into a positive gap.

    The returned distinguisher samples a coin c, draws a fresh sample from
    the opposite-coin distribution, runs `a` on it and on the challenge, and
    outputs the XOR of the coin and the two answers.  Its positive gap is
    exactly (gap of a)^2 per oracle instance; two invocations of `a` plus
    one sampler call are consumed.
    """

    def decide(challenge: str, rng: Rng) -> int:
        c = rng.bit()
        # Drawing from the opposite distribution is what makes the XOR land
        # on +gap^2 rather than -gap^2.
        x_prime = sampler1(rng) if c == 0 else sampler0(rng)
        d = a.decide(x_prime, rng)
        e = a.decide(challenge, rng)
        return c ^ d ^ e

    return Distinguisher(
        name=f"yao({a.name})",
        decide=decide,
        accept_prob=None,
    )
