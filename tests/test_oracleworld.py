"""Oracle instances, circuit execution, and serialization."""

import math

import numpy as np
import pytest

from subsetlab import qcore
from subsetlab.oracleworld import (
    Gate,
    OracleAidedCircuit,
    OracleEnv,
    SubsetSpec,
    apply_oracle,
    format_circuit,
    oracle_matrix,
    parse_circuit,
    run_circuit,
    sample_subset,
    subset_states,
)
from subsetlab.qcore import Rng, overlap, tensor, basis_state, zero_state


@pytest.fixture
def env2():
    return OracleEnv([SubsetSpec(2, (0b01, 0b10))])


def test_subset_spec_invariants():
    with pytest.raises(ValueError):
        SubsetSpec(2, (0, 1))  # contains 0^lam
    with pytest.raises(ValueError):
        SubsetSpec(2, (1, 2, 3))  # wrong size
    with pytest.raises(ValueError):
        SubsetSpec(3, (1, 2))  # odd lambda


def test_sample_subset_uniform_over_three_subsets():
    counts = {}
    n = 3000
    for i in range(n):
        spec = sample_subset(2, Rng(0).child(i))
        counts[spec.members] = counts.get(spec.members, 0) + 1
    assert set(counts) == {(1, 2), (1, 3), (2, 3)}
    sigma = 3 * math.sqrt((1 / 3) * (2 / 3) / n)
    for c in counts.values():
        assert abs(c / n - 1 / 3) <= sigma


def test_sample_subset_size_and_determinism():
    for i in range(20):
        assert sample_subset(4, Rng(1).child(i)).size == 4
    assert sample_subset(6, Rng(7)).members == sample_subset(6, Rng(7)).members


def test_sample_subset_range_errors():
    with pytest.raises(ValueError):
        sample_subset(3, Rng(0))
    with pytest.raises(ValueError):
        sample_subset(14, Rng(0))


def test_subset_states_examples(env2):
    spec = env2.spec(2)
    s, s_minus, s_plus = subset_states(spec)
    assert np.allclose(s.amplitudes, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])
    assert s_minus.amplitudes[0] == pytest.approx(-1 / math.sqrt(2))
    assert overlap(s_minus, s_plus) == pytest.approx(0.0, abs=1e-12)
    for lam in (2, 4, 6):
        spec = sample_subset(lam, Rng(lam))
        for st in subset_states(spec):
            assert abs(np.linalg.norm(st.amplitudes) - 1) < 1e-12


def test_oracle_maps_one_zero_to_one_s(env2):
    spec = env2.spec(2)
    state = tensor(basis_state(1, 1), zero_state(2))
    out = apply_oracle(state, env2, 2, [0, 1, 2])
    expected = tensor(basis_state(1, 1), subset_states(spec)[0])
    assert abs(overlap(out, expected)) ** 2 >= 1 - 1e-9


def test_oracle_identity_on_control_zero(env2):
    for x in range(4):
        state = tensor(basis_state(1, 0), basis_state(2, x))
        out = apply_oracle(state, env2, 2, [0, 1, 2])
        assert np.allclose(out.amplitudes, state.amplitudes)


def test_oracle_identity_outside_span(env2):
    # lam=2 members {01,10}: 11 is outside S u {00}.
    state = tensor(basis_state(1, 1), basis_state(2, 0b11))
    out = apply_oracle(state, env2, 2, [0, 1, 2])
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_oracle_involution_and_norm(env2):
    g = Rng(3).generator
    v = g.normal(size=8) + 1j * g.normal(size=8)
    state = qcore.StateVector(3, v / np.linalg.norm(v))
    once = apply_oracle(state, env2, 2, [0, 1, 2])
    twice = apply_oracle(once, env2, 2, [0, 1, 2])
    assert abs(np.linalg.norm(once.amplitudes) - 1) < 1e-10
    assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-9


@pytest.mark.parametrize("lam", [2, 4])
def test_oracle_matches_materialized_matrix(lam):
    spec = sample_subset(lam, Rng(lam + 10))
    env = OracleEnv([spec])
    mat = oracle_matrix(spec)
    g = Rng(lam).generator
    dim = 1 << (lam + 2)
    v = g.normal(size=dim) + 1j * g.normal(size=dim)
    state = qcore.StateVector(lam + 2, v / np.linalg.norm(v))
    targets = list(range(1, lam + 2))
    a = apply_oracle(state, env, lam, targets, count=False)
    b = qcore.apply_unitary(state, mat, targets)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-9


def test_oracle_query_counting_and_errors(env2):
    state = tensor(basis_state(1, 1), zero_state(2))
    before = env2.query_count(2)
    apply_oracle(state, env2, 2, [0, 1, 2])
    assert env2.query_count(2) == before + 1
    with pytest.raises(KeyError):
        apply_oracle(state, env2, 4, [0, 1, 2])
    with pytest.raises(ValueError):
        apply_oracle(state, env2, 2, [0, 1])


def test_run_circuit_empty_is_identity(env2):
    state = qcore.StateVector(2, np.array([0.6, 0.8j, 0, 0]))
    out = run_circuit(OracleAidedCircuit(2, ()), env2, state, Rng(0))
    assert np.array_equal(out.output.amplitudes, state.amplitudes)


def test_run_circuit_d0_outputs_members(env2):
    circuit = OracleAidedCircuit(
        3,
        (
            Gate.unitary("X", [0]),
            Gate.oracle(2, [0, 1, 2]),
            Gate.measure([1, 2], "s"),
        ),
    )
    for i in range(100):
        res = run_circuit(circuit, env2, zero_state(3), Rng(4).child(i))
        assert res.record["s"] in {(0, 1), (1, 0)}


def test_run_circuit_double_oracle_is_identity(env2):
    circuit = OracleAidedCircuit(
        3, (Gate.oracle(2, [0, 1, 2]), Gate.oracle(2, [0, 1, 2]))
    )
    g = Rng(5).generator
    v = g.normal(size=8) + 1j * g.normal(size=8)
    state = qcore.StateVector(3, v / np.linalg.norm(v))
    out = run_circuit(circuit, env2, state, Rng(0))
    assert np.max(np.abs(out.output.amplitudes - state.amplitudes)) < 1e-9


def test_run_circuit_discard_gives_density_matrix(env2):
    circuit = OracleAidedCircuit(
        2, (Gate.unitary("H", [0]), Gate.unitary("CX", [0, 1]), Gate.discard([1]))
    )
    out = run_circuit(circuit, None, zero_state(2), Rng(0))
    assert isinstance(out.output, qcore.DensityMatrix)
    assert out.output.entries[0, 0] == pytest.approx(0.5)


def test_declared_query_count_validation():
    gates = (Gate.oracle(2, [0, 1, 2]),)
    with pytest.raises(ValueError):
        OracleAidedCircuit(3, gates, declared_query_count={2: 2})
    circuit = OracleAidedCircuit(3, gates)
    assert circuit.declared_query_count == {2: 1}


def test_condition_requires_prior_measurement():
    with pytest.raises(ValueError):
        OracleAidedCircuit(
            2, (Gate.unitary("X", [1], condition=("m", 1)),)
        )


def test_text_format_roundtrip():
    circuit = OracleAidedCircuit(
        4,
        (
            Gate.unitary("H", [0]),
            Gate.oracle(2, [0, 1, 2]),
            Gate.unitary("CX", [0, 3]),
            Gate.measure([3], "m"),
            Gate.unitary("Z", [0], condition=("m", 1)),
            Gate.discard([1]),
        ),
    )
    text = format_circuit(circuit)
    back = parse_circuit(text)
    assert format_circuit(back) == text
    assert [g.kind for g in back.gates] == [g.kind for g in circuit.gates]


def test_text_format_errors():
    with pytest.raises(ValueError):
        parse_circuit("gate H 0\n")  # missing qubits header
    with pytest.raises(ValueError):
        parse_circuit("qubits 2\nbogus H 0\n")
    with pytest.raises(ValueError):
        parse_circuit("qubits 2\ngate NOSUCH 0\n")
