"""Symmetric-subspace projection and reflection over equal-size register blocks.

Blocks are given explicitly as lists of qubit axes, one list per block, so
they need not be contiguous.  The projector P onto the
permutation-symmetric subspace of the blocks is realized by averaging
block-permuted copies of the amplitude array (one transpose per
permutation, ``permutation_average``), never by materializing the
projector matrix; ``reflect_blocks`` applies I - 2P, the gate a rewritten
oracle query becomes.  Cost is ``count! * 2^num_qubits`` for ``count``
blocks, so ``count`` is capped by ``POLICY.max_block_factorial`` (7! =
5040).
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Sequence

import numpy as np

from .qcore import POLICY, CapacityError

__all__ = [
    "permutation_average",
    "reflect_blocks",
]


def permutation_average(
    amplitudes: np.ndarray, num_qubits: int, block_axes: Sequence[Sequence[int]]
) -> np.ndarray:
    """Average the amplitude array over all permutations of the given blocks.

    ``block_axes`` lists, per block, the qubit axes it occupies; blocks must
    be disjoint and of equal size.  Permutations are enumerated in a fixed
    (itertools) order so summation is bit-reproducible.
    """
    count = len(block_axes)
    if math.factorial(count) > POLICY.max_block_factorial:
        raise CapacityError(f"{count}! permutations exceed the configured cap")
    sizes = {len(a) for a in block_axes}
    if len(sizes) != 1:
        raise ValueError("blocks must have equal size")
    flat = [ax for block in block_axes for ax in block]
    if len(set(flat)) != len(flat):
        raise ValueError("blocks must be disjoint")
    for ax in flat:
        if not 0 <= ax < num_qubits:
            raise ValueError(f"axis {ax} out of range")
    tens = amplitudes.reshape((2,) * num_qubits)
    acc = np.zeros_like(tens)
    for pi in permutations(range(count)):
        perm = list(range(num_qubits))
        # Content of block i moves to block pi[i]: output axes of block
        # pi[i] read from input axes of block i.
        for i in range(count):
            for j, ax in enumerate(block_axes[pi[i]]):
                perm[ax] = block_axes[i][j]
        acc += np.transpose(tens, perm)
    acc /= math.factorial(count)
    return acc.reshape(-1)


def reflect_blocks(
    amplitudes: np.ndarray, num_qubits: int, block_axes: Sequence[Sequence[int]]
) -> np.ndarray:
    """Apply I - 2P to the amplitude array, P the symmetric projector of
    the given blocks; used by the circuit executor for rewritten oracle
    gates."""
    projected = permutation_average(amplitudes, num_qubits, block_axes)
    return amplitudes - 2.0 * projected
