"""Output checks for the benchmark workloads, plus the reference numpy
computations some of them compare against.

Each check returns ``None`` when the output is right and a one-line
problem otherwise.  The reference computations use only numpy and the
circuit's own gate data (matrices, targets, subset members); they share no
code with ``subsetlab`` so a fault in the package cannot hide itself.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping, Sequence

import numpy as np

#: Criterion-9 and criterion-10 floors on the success rate, per arm.
OWSG_FLOORS = {"exact": 0.9, "sampled": 0.5}
MONEY_FLOORS = {"exact": 0.9, "sampled": 0.6}


def found_key_problem(
    found: str, star: str, estimates: Mapping[Hashable, float]
) -> str | None:
    """Exact gentle search must return the challenge key, which must be the
    unique maximiser of the (emulated) verifier estimates."""
    if found != star:
        return f"exact search found key {found}, challenge key is {star}"
    best = estimates[star]
    rivals = [k for k, v in estimates.items() if k != star and v >= best]
    if rivals:
        return f"challenge key {star} is not the unique maximiser (ties: {rivals})"
    return None


def chosen_key_problem(chosen: str | None, secret: str) -> str | None:
    if chosen != secret:
        return f"forger chose key {chosen}, secret key is {secret}"
    return None


def verify_queries_problem(queries: int) -> str | None:
    if queries != 0:
        return f"forger queried the verification oracle {queries} times"
    return None


def rate_problem(successes: int, trials: int, floor: float, label: str) -> str | None:
    if trials and successes / trials < floor:
        return f"{label}: success rate {successes}/{trials} below the floor {floor}"
    return None


def yield_problem(copies: int, attempts: int) -> str | None:
    """Each copy-generation attempt succeeds with probability exactly 1/2;
    the observed yield must lie within 4 sigma of it."""
    if attempts == 0:
        return None
    sigma = math.sqrt(0.25 / attempts)
    observed = copies / attempts
    if abs(observed - 0.5) > 4.0 * sigma:
        return f"copy yield {copies}/{attempts} = {observed:.4f} is more than 4 sigma from 1/2"
    return None


def emulation_bound(q: int, ell: int) -> float:
    return 2.0 * q / math.sqrt(ell + 1.0)


def td_problem(td: float, q: int, ell: int) -> str | None:
    bound = emulation_bound(q, ell)
    if not 0.0 <= td <= bound + 1e-9:
        return f"trace distance {td} outside [0, 2q/sqrt(ell+1) = {bound}]"
    return None


def closed_form_inner_product(ell: int, w: float) -> float:
    return (ell - 1.0) / (ell + 1.0) + 2.0 / (ell + 1.0) * w


def closed_form_problem(ip: float, ell: int, w: float) -> str | None:
    want = closed_form_inner_product(ell, w)
    if abs(ip - want) > 1e-8:
        return f"single-query inner product {ip} differs from the closed form {want}"
    return None


def agreement_problem(engine: complex, explicit: complex) -> str | None:
    if abs(engine - explicit) > 1e-9:
        return f"compressed engine {engine} disagrees with the explicit path {explicit}"
    return None


# ---------------------------------------------------------------------------
# Reference computations (qubit 0 is the most significant bit)


def axis_state(lam: int, members: Sequence[int]) -> np.ndarray:
    """|1>|S-> with |S-> = (|S> - |0^lam>)/sqrt(2), from the subset members."""
    axis = np.zeros(1 << (lam + 1), dtype=np.complex128)
    one = 1 << lam
    axis[one] = -1.0 / math.sqrt(2.0)
    axis[[one + m for m in members]] = 1.0 / math.sqrt(2.0 * len(members))
    return axis


def _apply(state: np.ndarray, n: int, matrix: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    k = len(targets)
    tens = state.reshape((2,) * n)
    out = np.tensordot(matrix.reshape((2,) * (2 * k)), tens, axes=(range(k, 2 * k), targets))
    return np.moveaxis(out, range(k), targets).reshape(-1)


def _reflect(state: np.ndarray, n: int, axis: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    k = len(targets)
    moved = np.moveaxis(state.reshape((2,) * n), targets, range(n - k, n))
    block = moved.reshape(-1, 1 << k)
    block = block - 2.0 * np.outer(block @ axis.conj(), axis)
    return np.moveaxis(block.reshape(moved.shape), range(n - k, n), targets).reshape(-1)


def evolve(n: int, gates, axes: Mapping[int, np.ndarray], stop_at_oracle: bool = False) -> np.ndarray:
    """Run unitary and oracle gates (oracle = I - 2|axis><axis| on its
    targets) from |0...0>; optionally stop before the first oracle gate."""
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    for g in gates:
        if g.kind == "unitary":
            state = _apply(state, n, np.asarray(g.matrix), g.targets)
        elif g.kind == "oracle":
            if stop_at_oracle:
                return state
            state = _reflect(state, n, axes[g.lam], g.targets)
        else:
            raise ValueError(f"reference evolution has no rule for {g.kind!r} gates")
    return state


def axis_weight(state: np.ndarray, n: int, axis: np.ndarray, targets: Sequence[int]) -> float:
    """|| (<axis| (x) I) |state> ||^2 over the target block."""
    k = len(targets)
    moved = np.moveaxis(state.reshape((2,) * n), targets, range(n - k, n))
    coeff = moved.reshape(-1, 1 << k) @ axis.conj()
    return float(np.sum(np.abs(coeff) ** 2))


def with_copies(state: np.ndarray, axis: np.ndarray, ell: int) -> np.ndarray:
    """state (x) axis^(x ell): the plain run next to untouched copies."""
    for _ in range(ell):
        state = np.kron(state, axis)
    return state
