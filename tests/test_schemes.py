"""Candidate schemes: correctness registration and accept-probability
tables."""

import json

import numpy as np
import pytest

from subsetlab import oracleworld as ow
from subsetlab import qcore, schemes
from subsetlab.oracleworld import OracleEnv, sample_subset
from subsetlab.qcore import Rng, overlap


@pytest.fixture
def env2():
    return OracleEnv([sample_subset(2, Rng(0))])


def test_wiesner_owsg_correctness_and_table():
    cand = schemes.wiesner_owsg(2)
    assert cand.check_correctness(None) == pytest.approx(1.0, abs=1e-9)
    phi = cand.generate_state("0110", None)
    # same basis, wrong payload bit -> 0; one flipped basis -> 1/2
    assert cand.exact_verify_prob("0110", phi, None) == pytest.approx(1.0)
    assert cand.exact_verify_prob("1110", phi, None) == pytest.approx(0.0)
    assert cand.exact_verify_prob("0100", phi, None) == pytest.approx(0.5)
    assert cand.exact_verify_prob("0101", phi, None) == pytest.approx(0.25, abs=1e-9)


def test_wiesner_key_space_size():
    assert len(schemes.wiesner_owsg(2).keys) == 16


def test_swap_test_owsg_basis_family():
    fam = schemes.StateFamily(
        "basis",
        ("00", "01", "10", "11"),
        2,
        lambda key, off: [
            ow.Gate.unitary("X", [off + i]) for i in range(2) if key[i] == "1"
        ],
    )
    cand = schemes.swap_test_owsg(fam, 2)
    assert cand.check_correctness(None) == pytest.approx(1.0, abs=1e-9)
    phi = cand.generate_state("01", None)
    # orthogonal regen: each swap test accepts with prob 1/2
    assert cand.exact_verify_prob("10", phi, None) == pytest.approx(0.25, abs=1e-9)


def test_swap_test_owsg_partial_overlap():
    # Single-qubit family with |<phi_0|phi_1>|^2 = 0.8.
    theta = np.arccos(np.sqrt(0.8))

    def rotation(angle):
        return np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )

    fam = schemes.StateFamily(
        "rotated",
        ("0", "1"),
        1,
        lambda key, off: [
            ow.Gate.unitary(rotation(theta if key == "1" else 0.0), [off])
        ],
    )
    for reps in (1, 4):
        cand = schemes.swap_test_owsg(fam, reps)
        phi0 = cand.generate_state("0", None)
        p = cand.exact_verify_prob("1", phi0, None)
        assert p == pytest.approx(0.9**reps, abs=1e-9)


def test_oracle_echo_owsg(env2):
    cand = schemes.oracle_echo_owsg(4, 2)
    assert cand.query_bound == 2
    assert cand.verify("0000").circuit.declared_query_count == {2: 2}
    assert cand.check_correctness(env2) == pytest.approx(1.0, abs=1e-9)
    phi = cand.generate_state("1010", env2)
    assert cand.exact_verify_prob("1010", phi, env2) == pytest.approx(1.0, abs=1e-9)
    assert cand.exact_verify_prob("1011", phi, env2) == pytest.approx(0.5, abs=1e-9)


def test_wiesner_money_correctness():
    scheme = schemes.wiesner_money(3)
    assert scheme.check_correctness(None) == pytest.approx(1.0, abs=1e-9)
    assert scheme.money_qubits == 3
    assert scheme.mint_query_bound == 0 and scheme.verify_query_bound == 0


def test_subset_pair_money(env2):
    scheme = schemes.subset_pair_money(2, 2)
    assert scheme.check_correctness(env2) == pytest.approx(1.0, abs=1e-9)
    bill = scheme.mint_state("10", env2, count=False)
    ideal = qcore.tensor(
        qcore.basis_state(2, 0b10), ow.subset_states(env2.spec(2))[1]
    )
    assert abs(overlap(bill, ideal)) ** 2 == pytest.approx(1.0, abs=1e-9)
    assert scheme.exact_verify_prob("10", bill, env2) == pytest.approx(1.0, abs=1e-9)
    assert scheme.exact_verify_prob("01", bill, env2) == pytest.approx(0.0, abs=1e-9)
    assert scheme.mint("10").circuit.declared_query_count == {2: 1}
    assert scheme.verify("10").circuit.declared_query_count == {2: 1}


def test_subset_pair_mint_counts_real_queries(env2):
    scheme = schemes.subset_pair_money(2, 2)
    before = env2.query_count(2)
    scheme.mint_state("01", env2)
    assert env2.query_count(2) == before + 1


def test_s_minus_prep_is_deterministic_and_exact(env2):
    spec = env2.spec(2)
    gates = schemes.s_minus_prep_gates(2, [0, 1], 2)
    circuit = ow.OracleAidedCircuit(3, tuple(gates))
    out = ow.run_circuit(circuit, env2, qcore.zero_state(3), Rng(1)).output
    extracted = qcore.extract_pure(out, [0, 1])
    ideal = ow.subset_states(spec)[1]
    assert abs(overlap(extracted, ideal)) ** 2 == pytest.approx(1.0, abs=1e-12)
    # control wire returns to |0> exactly
    ctrl = qcore.born_probabilities(out, [2])
    assert ctrl[0] == pytest.approx(1.0, abs=1e-12)


def test_keygen_uniform():
    scheme = schemes.wiesner_money(3)
    n = 4000
    counts = {}
    for i in range(n):
        k = scheme.keygen(Rng(2).child(i))
        counts[k] = counts.get(k, 0) + 1
    assert len(counts) == 64
    import math

    sigma = 3 * math.sqrt((1 / 64) * (63 / 64) / n)
    for c in counts.values():
        assert abs(c / n - 1 / 64) <= sigma


def test_owsg_candidate_disk_roundtrip(tmp_path, env2):
    cand = schemes.oracle_echo_owsg(2, 2)
    schemes.save_scheme(cand, str(tmp_path / "echo"))
    loaded = schemes.load_scheme(str(tmp_path / "echo"))
    assert loaded.keys == cand.keys and loaded.query_bound == 2
    assert loaded.check_correctness(env2) == pytest.approx(1.0, abs=1e-9)
    phi = loaded.generate_state("10", env2)
    assert loaded.exact_verify_prob("01", phi, env2) == pytest.approx(0.5, abs=1e-9)


def test_money_scheme_disk_roundtrip(tmp_path, env2):
    scheme = schemes.subset_pair_money(2, 2)
    schemes.save_scheme(scheme, str(tmp_path / "money"))
    loaded = schemes.load_scheme(str(tmp_path / "money"))
    assert loaded.mu == 1.0 and loaded.money_qubits == 4
    assert loaded.check_correctness(env2) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(OSError):
        schemes.load_scheme(str(tmp_path / "money") + "-missing")


def test_load_scheme_rejects_unknown_kind(tmp_path):
    schemes.save_scheme(schemes.wiesner_money(1), str(tmp_path))
    manifest = tmp_path / schemes.MANIFEST
    data = json.loads(manifest.read_text())
    data["kind"] = "bogus"
    manifest.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        schemes.load_scheme(str(tmp_path))


def test_candidate_circuits_serialize():
    # Candidates built from named gates round-trip through the text format.
    cand = schemes.wiesner_owsg(2)
    v = cand.verify("0110")
    text = ow.format_circuit(v.circuit)
    back = ow.parse_circuit(text)
    proc_args = (back, v.input_qubits, v.accept_qubit)
    from subsetlab.tomography import CircuitAcceptProcedure

    phi = cand.generate_state("0110", None)
    assert CircuitAcceptProcedure(*proc_args).accept_probability(phi) == pytest.approx(
        1.0
    )
    money = schemes.subset_pair_money(2, 2)
    text2 = ow.format_circuit(money.mint("01").circuit)
    assert "oracle 2" in text2
    assert ow.format_circuit(ow.parse_circuit(text2)) == text2
