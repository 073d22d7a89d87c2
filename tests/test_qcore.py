"""Substrate checks: gates, measurement, metrics, reductions."""

import ast
import io
import math
import re
import tokenize
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subsetlab import qcore
from subsetlab.qcore import (
    CapacityError,
    DensityMatrix,
    Rng,
    StateVector,
    apply_unitary,
    basis_state,
    born_probabilities,
    fidelity,
    measure_computational,
    overlap,
    partial_trace,
    promote,
    tensor,
    zero_state,
)

from reference import mix, statistical_distance, trace_distance

H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def random_state(n, rng):
    g = rng.generator
    v = g.normal(size=1 << n) + 1j * g.normal(size=1 << n)
    return StateVector(n, v / np.linalg.norm(v))


def test_identity_leaves_amplitudes():
    state = random_state(3, Rng(0))
    out = apply_unitary(state, np.eye(8), [0, 1, 2])
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_hadamard_on_zero():
    out = apply_unitary(zero_state(1), H, [0])
    assert np.allclose(out.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_hadamard_involution():
    out = apply_unitary(apply_unitary(zero_state(1), H, [0]), H, [0])
    assert np.max(np.abs(out.amplitudes - [1, 0])) < 1e-12


def test_apply_unitary_rejects_bad_targets():
    state = zero_state(2)
    with pytest.raises(ValueError):
        apply_unitary(state, H, [0, 1])  # dimension mismatch
    with pytest.raises(ValueError):
        apply_unitary(state, np.eye(4), [0, 0])
    with pytest.raises(ValueError):
        apply_unitary(state, H, [2])


def test_apply_unitary_rejects_non_unitary():
    plus = apply_unitary(zero_state(1), H, [0])
    with pytest.raises(ValueError):
        apply_unitary(plus, np.array([[1, 0], [0, 2]]), [0])


def test_qubit_zero_is_most_significant():
    state = apply_unitary(zero_state(2), np.array([[0, 1], [1, 0]]), [0])
    assert state.probability(0b10) == pytest.approx(1.0)


def test_measure_zero_state():
    bits, collapsed, p = measure_computational(zero_state(1), [0], Rng(1))
    assert bits == (0,) and p == pytest.approx(1.0)
    assert np.allclose(collapsed.amplitudes, [1, 0])


def test_measure_plus_state_frequencies():
    plus = apply_unitary(zero_state(1), H, [0])
    rng = Rng(2)
    n = 4000
    ones = sum(measure_computational(plus, [0], rng.child(i))[0][0] for i in range(n))
    assert abs(ones / n - 0.5) <= 3 * math.sqrt(0.25 / n)


def test_measure_second_register_of_subset_state():
    # |1> (x) (|01>+|10>)/sqrt(2): outcomes uniform over {01, 10}, never else.
    amps = np.zeros(8)
    amps[0b101] = amps[0b110] = 1 / math.sqrt(2)
    state = StateVector(3, amps)
    probs = born_probabilities(state, [1, 2])
    assert np.allclose(probs, [0, 0.5, 0.5, 0])
    rng = Rng(3)
    seen = {measure_computational(state, [1, 2], rng.child(i))[0] for i in range(200)}
    assert seen == {(0, 1), (1, 0)}


def test_measurement_probability_field_is_exact():
    state = random_state(3, Rng(4))
    probs = born_probabilities(state, [0, 2])
    bits, _, p = measure_computational(state, [0, 2], Rng(5))
    index = (bits[0] << 1) | bits[1]
    assert p == pytest.approx(probs[index], abs=1e-12)


def test_born_probabilities_sum_to_one():
    for seed in range(5):
        state = random_state(4, Rng(seed))
        assert born_probabilities(state, [1, 3]).sum() == pytest.approx(1.0, abs=1e-9)


def test_trace_distance_trivials():
    rho = promote(random_state(2, Rng(6)))
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    a, b = promote(basis_state(1, 0)), promote(basis_state(1, 1))
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)


def test_trace_distance_zero_vs_plus():
    # Eigenvalues of |0><0| - |+><+| are +-1/sqrt(2).
    plus = apply_unitary(zero_state(1), H, [0])
    td = trace_distance(promote(zero_state(1)), promote(plus))
    assert td == pytest.approx(0.7071067811865476, abs=1e-12)


def test_trace_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_distance(promote(zero_state(1)), promote(zero_state(2)))


def test_statistical_distance_trivials():
    p = {"00": 0.5, "11": 0.5}
    assert statistical_distance(p, p) == 0.0
    assert statistical_distance({"00": 1.0}, {"11": 1.0}) == 1.0


def test_statistical_distance_uniform_pair_vs_uniform():
    p = {"01": 0.5, "10": 0.5}
    q = {format(i, "02b"): 0.25 for i in range(4)}
    assert statistical_distance(p, q) == pytest.approx(0.5)


def test_statistical_distance_rejects_unnormalized():
    with pytest.raises(ValueError):
        statistical_distance({"0": 0.7}, {"0": 1.0})


def test_unitary_preserves_norm_property():
    rng = Rng(7)
    for seed in range(10):
        state = random_state(3, Rng(seed))
        g = rng.generator
        m = g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4))
        q, _ = np.linalg.qr(m)
        out = apply_unitary(state, q, [1, 2])
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


def test_fuchs_van_de_graaf_for_pure_states():
    for seed in range(10):
        a = random_state(2, Rng(100 + seed))
        b = random_state(2, Rng(200 + seed))
        td = trace_distance(promote(a), promote(b))
        expected = math.sqrt(1.0 - abs(overlap(a, b)) ** 2)
        assert td == pytest.approx(expected, abs=1e-8)


def test_partial_trace_of_product_factors():
    a = random_state(2, Rng(8))
    b = random_state(1, Rng(9))
    joint = promote(tensor(a, b))
    reduced = partial_trace(joint, [0, 1])
    assert trace_distance(reduced, promote(a)) <= 1e-9
    reduced_b = partial_trace(joint, [2])
    assert trace_distance(reduced_b, promote(b)) <= 1e-9


def test_partial_trace_reorders_kept_qubits():
    a = random_state(1, Rng(10))
    b = random_state(1, Rng(11))
    joint = promote(tensor(a, b))
    swapped = partial_trace(joint, [1, 0])
    assert trace_distance(swapped, promote(tensor(b, a))) <= 1e-9


def test_mix_weights_must_sum_to_one():
    rho = promote(zero_state(1))
    with pytest.raises(ValueError):
        mix([(0.5, rho)])
    mixed = mix([(0.5, rho), (0.5, promote(basis_state(1, 1)))])
    assert mixed.entries[0, 0] == pytest.approx(0.5)


def test_fidelity_identity_and_orthogonality():
    a = random_state(2, Rng(12))
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(basis_state(1, 0), basis_state(1, 1)) == pytest.approx(0.0)
    # pure-vs-mixed agrees with the pure formula
    b = random_state(2, Rng(13))
    assert fidelity(a, promote(b)) == pytest.approx(abs(overlap(a, b)) ** 2, abs=1e-10)


def test_embed_extract_roundtrip():
    sub = random_state(2, Rng(14))
    big = qcore.embed_state(sub, 4, [3, 1])
    back = qcore.extract_pure(big, [3, 1])
    assert abs(overlap(back, sub)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_extract_pure_rejects_entangled():
    bell = StateVector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
    with pytest.raises(ValueError):
        qcore.extract_pure(bell, [0])


def test_state_vector_invariants():
    with pytest.raises(ValueError):
        StateVector(1, [1.0, 1.0])  # unnormalized
    with pytest.raises(ValueError):
        StateVector(2, [1.0, 0.0])  # wrong length


def test_density_matrix_invariants():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix(1, np.diag([0.9, 0.5]))  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[1.5, 0], [0, -0.5]]))  # negative eigenvalue


def test_capacity_guards():
    with pytest.raises(CapacityError):
        StateVector(23, np.zeros(8))
    with pytest.raises(CapacityError):
        DensityMatrix(14, np.zeros((2, 2)))


def test_oversized_basis_state_raises_before_allocating():
    # 2^23 complex amplitudes would take 128 MiB.
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            zero_state(23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# The literals like 1e-9 that may stand outside NumericalPolicy's fields,
# by module and enclosing function; NumericalPolicy's docstring names each.
INLINE_CUTOFFS = {
    ("qefid", "_sampled_td_gram"): {"1e-12"},
    ("cli", "three_sigma"): {"1e-12"},
    ("cli", "_cmd_emulate_bound"): {"1e-8"},
    ("qcore", "StateVector.__post_init__"): {"1e-7"},
}


def negative_exponent_literals(source):
    """(innermost enclosing def or class, literal) per number like 1e-9."""
    scopes = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                scopes.append((child.lineno, child.end_lineno, name))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NUMBER and re.search(r"[eE]-", tok.string):
            line = tok.start[0]
            inside = [s for s in scopes if s[0] <= line <= s[1]]
            owner = max(inside)[2] if inside else "<module>"
            yield owner, tok.string


def test_inline_tolerances_are_policy_fields_or_named_cutoffs():
    stray, used = [], {}
    for path in sorted(Path(qcore.__file__).parent.glob("*.py")):
        module = path.stem
        for owner, literal in negative_exponent_literals(path.read_text()):
            if (module, owner) == ("qcore", "NumericalPolicy"):
                continue
            if literal in INLINE_CUTOFFS.get((module, owner), ()):
                used.setdefault((module, owner), set()).add(literal)
            else:
                stray.append(f"{module}.{owner}: {literal}")
    assert stray == []
    assert used == INLINE_CUTOFFS
    doc = qcore.NumericalPolicy.__doc__
    for module, owner in INLINE_CUTOFFS:
        assert f"``{module}.{owner}``" in doc


def test_rng_determinism_and_child_streams():
    a, b = Rng(99), Rng(99)
    assert [a.integers(0, 100) for _ in range(5)] == [
        b.integers(0, 100) for _ in range(5)
    ]
    c1 = Rng(99).child(3)
    c2 = Rng(99).child(3)
    assert c1.random() == c2.random()
    assert Rng(99).child(3).random() != Rng(99).child(4).random()
