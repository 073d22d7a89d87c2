"""Symmetric-subspace projection and reflection checks."""

import math

import numpy as np
import pytest

from subsetlab.qcore import CapacityError, Rng, StateVector, overlap, state_from_amplitudes
from subsetlab.symsub import permutation_average, reflect_blocks


def random_state(n, seed):
    g = Rng(seed).generator
    v = g.normal(size=1 << n) + 1j * g.normal(size=1 << n)
    return StateVector(n, v / np.linalg.norm(v))


def blocks(block_qubits, count):
    """Axes of `count` contiguous blocks of `block_qubits` qubits each."""
    return [
        tuple(i * block_qubits + j for j in range(block_qubits)) for i in range(count)
    ]


def project(state, axes):
    """Symmetric projection of `state` and its squared norm (the Born
    weight of the symmetric outcome)."""
    projected = permutation_average(state.amplitudes, state.num_qubits, axes)
    return projected, float(np.vdot(projected, projected).real)


def reflect(state, axes):
    return reflect_blocks(state.amplitudes, state.num_qubits, axes)


def product_power(vec, copies):
    out = vec
    for _ in range(copies - 1):
        out = np.kron(out, vec)
    return out


def test_symmetric_state_is_fixed_point():
    psi = random_state(1, 0).amplitudes
    state = StateVector(3, product_power(psi, 3))
    projected, weight = project(state, blocks(1, 3))
    assert weight == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(projected, state.amplitudes)


def test_antisymmetric_state_projects_to_zero():
    anti = state_from_amplitudes(np.array([0, 1, -1, 0]) / math.sqrt(2))
    projected, weight = project(anti, blocks(1, 2))
    assert weight == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(projected, 0)


def test_project_01_two_blocks():
    state = state_from_amplitudes([0, 1, 0, 0])
    projected, weight = project(state, blocks(1, 2))
    assert np.allclose(projected, [0, 0.5, 0.5, 0])
    assert weight == pytest.approx(0.5)


def test_projection_weight_against_materialized_projector():
    # Independent route: P = (I + SWAP)/2 for two 1-qubit blocks.
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    p = (np.eye(4) + swap) / 2
    for seed in range(5):
        state = random_state(2, seed)
        projected, weight = project(state, blocks(1, 2))
        direct = p @ state.amplitudes
        assert np.max(np.abs(projected - direct)) < 1e-12
        assert weight == pytest.approx(
            float(np.vdot(direct, direct).real), abs=1e-12
        )


def test_reflect_eigenvalues():
    psi = random_state(2, 1).amplitudes
    sym = StateVector(4, product_power(psi, 2))
    out = reflect(sym, blocks(2, 2))
    assert np.allclose(out, -sym.amplitudes)
    anti = state_from_amplitudes(np.array([0, 1, -1, 0]) / math.sqrt(2))
    assert np.allclose(reflect(anti, blocks(1, 2)), anti.amplitudes)


def test_reflect_is_involution():
    for seed in range(4):
        state = random_state(4, seed)
        axes = blocks(2, 2)
        back = reflect_blocks(reflect(state, axes), 4, axes)
        assert np.max(np.abs(back - state.amplitudes)) < 1e-9


def test_project_is_idempotent():
    for seed in range(4):
        state = random_state(3, seed)
        axes = blocks(1, 3)
        once, _ = project(state, axes)
        twice = permutation_average(once, 3, axes)
        assert np.max(np.abs(twice - once)) < 1e-9


def test_reflect_preserves_norm():
    state = random_state(4, 7)
    out = reflect(state, blocks(1, 4))
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_reflect_commutes_with_uniform_local_unitary():
    g = Rng(8).generator
    m = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
    u, _ = np.linalg.qr(m)
    big = np.kron(np.kron(u, u), u)
    axes = blocks(1, 3)
    for seed in range(3):
        state = random_state(3, seed)
        a = reflect(
            StateVector(3, big @ state.amplitudes / np.linalg.norm(big @ state.amplitudes)),
            axes,
        )
        b = reflect(state, axes)
        b_rot = big @ b
        assert np.max(np.abs(a - b_rot)) < 1e-9


def test_claim_single_query_inner_product_bound():
    # <(R_psi phi) (x) psi^l | R_sym (phi (x) psi^l)> is real, at least
    # 1 - 2/(l+1), and exactly (l-1)/(l+1) + 2/(l+1)|<psi|phi>|^2.
    for ell in (2, 3, 4):
        for seed in range(3):
            g = Rng(40 + seed).generator
            psi = g.normal(size=2) + 1j * g.normal(size=2)
            psi /= np.linalg.norm(psi)
            phi = g.normal(size=2) + 1j * g.normal(size=2)
            phi /= np.linalg.norm(phi)
            joint = StateVector(ell + 1, np.kron(phi, product_power(psi, ell)))
            reflected = StateVector(ell + 1, reflect(joint, blocks(1, ell + 1)))
            r_phi = phi - 2 * np.vdot(psi, phi) * psi
            target = StateVector(ell + 1, np.kron(r_phi, product_power(psi, ell)))
            ip = overlap(target, reflected)
            assert abs(ip.imag) < 1e-9
            ov = abs(np.vdot(psi, phi)) ** 2
            closed = (ell - 1) / (ell + 1) + 2 / (ell + 1) * ov
            assert ip.real == pytest.approx(closed, abs=1e-9)
            assert ip.real >= 1 - 2 / (ell + 1) - 1e-9


def test_capacity_bound_on_block_count():
    with pytest.raises(CapacityError):
        permutation_average(np.zeros(1 << 8, dtype=complex), 8, blocks(1, 8))


def test_blocks_must_fit():
    with pytest.raises(ValueError):
        permutation_average(random_state(2, 0).amplitudes, 2, blocks(1, 3))
