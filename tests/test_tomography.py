"""Keyed measurement families: exact baselines, gentle search, shadow
tomography."""

import math

import numpy as np
import pytest

from subsetlab import qcore, schemes, tomography
from subsetlab.oracleworld import Gate, OracleAidedCircuit, OracleEnv, oracle_matrix, sample_subset
from subsetlab.qcore import Rng, zero_state, basis_state
from subsetlab.tomography import (
    CallableAcceptProcedure,
    CircuitAcceptProcedure,
    CopyBudgetError,
    EstimateTable,
    PovmFamily,
    exact_accept_prob,
    gentle_search,
    shadow_tomography,
)

from reference import mix


def fixed_prob_family(probs: dict[str, float]) -> PovmFamily:
    def build(key):
        return CallableAcceptProcedure(1, lambda state, p=probs[key]: p)

    return PovmFamily(tuple(probs), build, 1)


def test_always_accept_element():
    circuit = OracleAidedCircuit(2, (Gate.unitary("X", [1]),))
    proc = CircuitAcceptProcedure(circuit, (0,), 1)
    assert proc.accept_probability(zero_state(1)) == pytest.approx(1.0)


def test_accept_iff_zero_on_one():
    # accept bit = NOT input
    circuit = OracleAidedCircuit(
        2, (Gate.unitary("CX", [0, 1]), Gate.unitary("X", [1]))
    )
    proc = CircuitAcceptProcedure(circuit, (0,), 1)
    assert proc.accept_probability(basis_state(1, 1)) == pytest.approx(0.0)
    assert proc.accept_probability(basis_state(1, 0)) == pytest.approx(1.0)


def test_bb84_mismatched_basis_is_half():
    cand = schemes.wiesner_owsg(1)
    v = cand.verify("00")  # payload 0, computational basis
    proc = CircuitAcceptProcedure(v.circuit, v.input_qubits, v.accept_qubit)
    plus = qcore.apply_unitary(zero_state(1), np.array([[1, 1], [1, -1]]) / math.sqrt(2), [0])
    assert proc.accept_probability(plus) == pytest.approx(0.5)


def test_density_matrix_input_is_linear():
    cand = schemes.wiesner_owsg(1)
    v = cand.verify("00")
    proc = CircuitAcceptProcedure(v.circuit, v.input_qubits, v.accept_qubit)
    p0 = proc.accept_probability(basis_state(1, 0))
    p1 = proc.accept_probability(basis_state(1, 1))
    mixed = mix(
        [(0.3, qcore.promote(basis_state(1, 0))), (0.7, qcore.promote(basis_state(1, 1)))]
    )
    assert proc.accept_probability(mixed) == pytest.approx(0.3 * p0 + 0.7 * p1, abs=1e-10)


def _conjugate(rho, matrix, targets, n):
    """U rho U^dagger, U = `matrix` on the target qubits of n qubits."""
    k = len(targets)
    u = matrix.reshape((2,) * (2 * k))
    tens = rho.reshape((2,) * (2 * n))
    for legs, op in ((list(targets), u), ([n + t for t in targets], u.conj())):
        tens = np.tensordot(op, tens, axes=(range(k, 2 * k), legs))
        tens = np.moveaxis(tens, range(k), legs)
    return tens.reshape(1 << n, 1 << n)


def test_mixed_input_matches_density_matrix_conjugation():
    # Reference: pad the challenge's density matrix with |0><0| and
    # conjugate it gate by gate, the oracle as its materialized matrix.
    env = OracleEnv([sample_subset(2, Rng(3))])
    cand = schemes.oracle_echo_owsg(2, 2)
    g = Rng(21).generator
    a = g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    mixed = qcore.DensityMatrix(2, rho)
    for key in cand.keys:
        v = cand.verify(key)
        assert v.input_qubits == (0, 1)
        n = v.circuit.num_qubits
        pad = np.zeros((1 << (n - 2), 1 << (n - 2)))
        pad[0, 0] = 1.0
        full = np.kron(rho, pad)
        for gate in v.circuit.gates:
            if gate.kind == "oracle":
                full = _conjugate(full, oracle_matrix(env.spec(gate.lam)), gate.targets, n)
            else:
                full = _conjugate(full, gate.matrix, gate.targets, n)
        diag = np.real(np.diag(full)).reshape((2,) * n)
        reference = float(diag.take(1, axis=v.accept_qubit).sum())
        proc = CircuitAcceptProcedure(v.circuit, v.input_qubits, v.accept_qubit, env)
        assert abs(proc.accept_probability(mixed) - reference) < 1e-10


def test_family_rejects_duplicates_and_unknown_keys():
    with pytest.raises(ValueError):
        fixed_prob_family({"a": 0.5}).keys + ("a",)
        PovmFamily(("a", "a"), lambda k: CallableAcceptProcedure(1, lambda s: 0.5), 1)
    fam = fixed_prob_family({"a": 0.5})
    with pytest.raises(KeyError):
        fam.element("b")


# ---------------------------------------------------------------------------
# Gentle search


def test_gentle_search_one_hot_family():
    probs = {f"k{i}": 0.0 for i in range(8)}
    probs["k3"] = 1.0
    fam = fixed_prob_family(probs)
    state = zero_state(1)
    exact = gentle_search(fam, state, 1.0, 0.5, 0.5, Rng(0), exact=True)
    assert exact.key == "k3" and exact.copies_used == 0
    for i in range(50):
        res = gentle_search(fam, state, 1.0, 0.5, 0.5, Rng(1).child(i))
        assert res.key == "k3"


def test_gentle_search_two_key_example():
    fam = fixed_prob_family({"a": 0.9, "b": 0.1})
    state = zero_state(1)
    n = 200
    hits = sum(
        gentle_search(fam, state, 0.9, 0.3, 0.25, Rng(2).child(i)).key == "a"
        for i in range(n)
    )
    assert hits / n >= 0.75  # 1 - delta


def test_gentle_search_exact_is_lexicographic_argmax():
    fam = fixed_prob_family({"aa": 0.7, "ab": 0.7, "zz": 0.7})
    res = gentle_search(fam, zero_state(1), 0.7, 0.1, 0.1, Rng(3), exact=True)
    assert res.key == "aa"


def test_gentle_search_never_leaves_family():
    fam = fixed_prob_family({f"k{i}": 0.5 for i in range(5)})
    for i in range(20):
        res = gentle_search(fam, zero_state(1), 0.5, 0.5, 0.5, Rng(4).child(i))
        assert res.key in set(fam.keys)


def test_gentle_search_copy_budget():
    fam = fixed_prob_family({f"k{i}": 0.5 for i in range(4)})
    with pytest.raises(CopyBudgetError):
        gentle_search(fam, zero_state(1), 0.5, 0.5, 0.5, Rng(5), copies=3)


def test_gentle_search_wiesner_quality():
    cand = schemes.wiesner_owsg(2)

    def build(key):
        v = cand.verify(key)
        return CircuitAcceptProcedure(v.circuit, v.input_qubits, v.accept_qubit)

    fam = PovmFamily(cand.keys, build, 2)
    n = 200
    qualified = 0
    for i in range(n):
        rng = Rng(6).child(i)
        k_star = cand.keys[rng.integers(0, len(cand.keys))]
        challenge = cand.generate_state(k_star, None)
        res = gentle_search(fam, challenge, 1.0, 0.5, 0.5, rng)
        qualified += exact_accept_prob(fam, res.key, challenge) >= 0.5
    # guarantee is 1 - delta = 1/2; the implementation does far better
    assert qualified / n >= 0.5


# ---------------------------------------------------------------------------
# Shadow tomography


def test_shadow_trivial_two_element_family():
    probs = {"is0": None, "is1": None}
    circuit0 = OracleAidedCircuit(2, (Gate.unitary("CX", [0, 1]), Gate.unitary("X", [1])))
    circuit1 = OracleAidedCircuit(2, (Gate.unitary("CX", [0, 1]),))

    def build(key):
        c = circuit0 if key == "is0" else circuit1
        return CircuitAcceptProcedure(c, (0,), 1)

    fam = PovmFamily(tuple(probs), build, 1)
    table = shadow_tomography(fam, basis_state(1, 0), 0.1, 0.05, Rng(7))
    assert abs(table["is0"] - 1.0) <= 0.1
    assert abs(table["is1"] - 0.0) <= 0.1


def test_shadow_exact_mode_consumes_nothing():
    fam = fixed_prob_family({"a": 0.25, "b": 0.75})
    table = shadow_tomography(fam, zero_state(1), 0.1, 0.05, Rng(8), exact=True)
    assert table["a"] == 0.25 and table["b"] == 0.75 and table.copies_used == 0


def test_shadow_insufficient_copies():
    fam = fixed_prob_family({"a": 0.5, "b": 0.5})
    with pytest.raises(CopyBudgetError):
        shadow_tomography(fam, zero_state(1), 0.1, 0.05, Rng(9), copies=10)


def test_shadow_large_epsilon_trivially_satisfied():
    fam = fixed_prob_family({"a": 0.5, "b": 0.5})
    table = shadow_tomography(fam, zero_state(1), 0.5, 0.5, Rng(10))
    assert all(0.0 <= v <= 1.0 for v in table.values.values())
    assert table.worst_error({"a": 0.5, "b": 0.5}) <= 0.5


def test_estimate_table_validates_range():
    with pytest.raises(ValueError):
        EstimateTable({"a": 1.25}, 1, 1, False)


def test_shadow_worst_error_rate():
    cand = schemes.wiesner_owsg(2)

    def build(key):
        v = cand.verify(key)
        return CircuitAcceptProcedure(v.circuit, v.input_qubits, v.accept_qubit)

    fam = PovmFamily(cand.keys, build, 2)
    challenge = cand.generate_state("0110", None)
    exact_vals = {k: exact_accept_prob(fam, k, challenge) for k in fam.keys}
    n = 200
    fails = sum(
        shadow_tomography(fam, challenge, 0.1, 0.01, Rng(11).child(i)).worst_error(
            exact_vals
        )
        > 0.1
        for i in range(n)
    )
    assert fails / n <= 0.01 + 3 * math.sqrt(0.01 * 0.99 / n)


def test_doubling_batch_never_hurts():
    # Monotone sanity: a doubled per-key batch cannot raise the failure
    # rate beyond its 3-sigma band.
    p, eps, n = 0.37, 0.1, 3000
    base = tomography.shadow_batch_size(16, eps, 0.05)

    def failure_rate(batch, seed):
        rng = Rng(seed)
        fails = sum(
            abs(rng.binomial(batch, p) / batch - p) > eps for _ in range(n)
        )
        return fails / n

    f1 = failure_rate(base, 12)
    f2 = failure_rate(2 * base, 13)
    assert f2 <= f1 + 3 * math.sqrt(max(f1 * (1 - f1), 1e-4) / n)
