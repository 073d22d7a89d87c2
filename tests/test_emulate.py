"""Rewriting, copy generation, projection, and the error analysis."""

import math
import sys
import threading
from itertools import combinations_with_replacement

import numpy as np
import pytest
import scipy.sparse as sp

from subsetlab import emulate
from subsetlab import oracleworld as ow
from subsetlab import qcore
from subsetlab.emulate import (
    EmulationEngine,
    build_emulation,
    emulation_error,
    generate_s_minus,
    project_via_reflection,
    run_emulated_explicit,
    single_query_inner_product,
)
from subsetlab.oracleworld import Gate, OracleAidedCircuit, OracleEnv, SubsetSpec
from subsetlab.qcore import CapacityError, Rng, StateVector, overlap

from reference import trace_distance


@pytest.fixture
def env2():
    return OracleEnv([SubsetSpec(2, (0b01, 0b10))])


def random_state(n, seed):
    g = Rng(seed).generator
    v = g.normal(size=1 << n) + 1j * g.normal(size=1 << n)
    return StateVector(n, v / np.linalg.norm(v))


def one_query_circuit(lam):
    return OracleAidedCircuit(
        lam + 1, (Gate.unitary("X", [0]), Gate.oracle(lam, list(range(lam + 1))))
    )


# ---------------------------------------------------------------------------
# Projection via one controlled reflection


def test_project_onto_itself_always_succeeds():
    target = random_state(2, 0)
    for i in range(50):
        ok, out = project_via_reflection(target, target, Rng(1).child(i))
        assert ok
        assert qcore.fidelity(out, target) == pytest.approx(1.0, abs=1e-12)


def test_project_orthogonal_never_succeeds():
    target = qcore.basis_state(1, 0)
    orth = qcore.basis_state(1, 1)
    for i in range(50):
        ok, _ = project_via_reflection(orth, target, Rng(2).child(i))
        assert not ok


def test_project_half_overlap_statistics():
    target = random_state(2, 3)
    g = Rng(4).generator
    w = g.normal(size=4) + 1j * g.normal(size=4)
    w = w - np.vdot(target.amplitudes, w) * target.amplitudes
    w /= np.linalg.norm(w)
    inp = StateVector(2, (target.amplitudes + w) / math.sqrt(2))
    n = 2000
    hits = 0
    for i in range(n):
        ok, out = project_via_reflection(inp, target, Rng(5).child(i))
        if ok:
            hits += 1
            assert qcore.fidelity(out, target) >= 1 - 1e-9
    assert abs(hits / n - 0.5) <= 3 * math.sqrt(0.25 / n)


# ---------------------------------------------------------------------------
# Copy generation


def test_generate_s_minus_state_and_rate(env2):
    ideal = ow.subset_states(env2.spec(2))[1]
    attempts = successes = 0
    for i in range(1000):
        res = generate_s_minus(env2, 2, 20, Rng(6).child(i))
        attempts += res.attempts
        successes += res.succeeded
        assert res.succeeded
        assert abs(overlap(res.state, ideal)) ** 2 >= 1 - 1e-9
    per_attempt = successes / attempts
    assert abs(per_attempt - 0.5) <= 3 * math.sqrt(0.25 / attempts)


def test_generate_s_minus_queries_once_per_attempt(env2):
    before = env2.query_count(2)
    res = generate_s_minus(env2, 2, 20, Rng(7))
    assert env2.query_count(2) - before == res.attempts


def test_generate_s_minus_can_fail():
    env = OracleEnv([SubsetSpec(2, (0b01, 0b10))])
    failures = sum(
        not generate_s_minus(env, 2, 1, Rng(8).child(i)).succeeded
        for i in range(400)
    )
    assert abs(failures / 400 - 0.5) <= 3 * math.sqrt(0.25 / 400)


# ---------------------------------------------------------------------------
# Plans and the rewritten circuit


def test_plan_layout_and_no_oracle_gates(env2):
    circ = one_query_circuit(2)
    plan = build_emulation(circ, 3)
    assert plan.total_qubits == 3 + 3 * 3
    assert all(g.kind != "oracle" for g in plan.rewritten_gates)
    assert plan.copy_offsets == {2: (3, 6, 9)}
    sym = [g for g in plan.rewritten_gates if g.kind == "symreflect"]
    assert len(sym) == 1 and len(sym[0].blocks) == 4
    assert plan.below_guaranteed_regime  # ell=3 < 4


def test_plan_rejects_bad_inputs():
    circ = one_query_circuit(2)
    with pytest.raises(ValueError):
        build_emulation(circ, 0)
    undeferred = OracleAidedCircuit(
        3,
        (
            Gate.measure([2], "m"),
            Gate.unitary("X", [0], condition=("m", 1)),
            Gate.oracle(2, [0, 1, 2]),
        ),
    )
    with pytest.raises(ValueError):
        build_emulation(undeferred, 3)


def test_zero_query_circuit_rewrites_to_itself(env2):
    circ = OracleAidedCircuit(2, (Gate.unitary("H", [0]), Gate.unitary("CX", [0, 1])))
    plan = build_emulation(circ, 5)
    assert plan.rewritten_gates == circ.gates
    res = emulation_error(circ, env2, 5)
    assert res.exact_td == 0.0 and res.bound == 0.0


def test_untouched_copies_survive_partial_trace(env2):
    # Copy blocks appended but never addressed: tracing the final state
    # down to them returns exactly the prepared copies.
    chi = ow.oracle_axis_state(env2.spec(2))
    source = OracleAidedCircuit(2, (Gate.unitary("H", [0]), Gate.unitary("CX", [0, 1])))
    joint = qcore.tensor(qcore.zero_state(2), chi)
    widened = OracleAidedCircuit(5, tuple(source.gates))
    out = ow.run_circuit(widened, env2, joint, Rng(0)).output
    reduced = qcore.partial_trace(qcore.promote(out), [2, 3, 4])
    assert trace_distance(reduced, qcore.promote(chi)) <= 1e-9


# ---------------------------------------------------------------------------
# Exact error analysis


def test_single_query_example_ell15(env2):
    res = emulation_error(one_query_circuit(2), env2, 15)
    assert res.exact_td <= 0.5
    assert res.inner_product.real >= 1 - 2 / 16
    assert res.inner_product.real == pytest.approx(
        single_query_inner_product(15, 0.5), abs=1e-8
    )


def test_emulation_error_ell3_vacuous_bound(env2):
    res = emulation_error(one_query_circuit(2), env2, 3)
    assert res.bound == pytest.approx(1.0)
    assert res.exact_td <= 1.0


def test_engine_matches_explicit_path(env2):
    # Dual route: the compressed evaluator against the literal rewritten
    # circuit on explicitly prepared copies.
    for q, seed in ((1, 0), (2, 1), (2, 2)):
        circ = emulate.random_oracle_circuit(2, q, Rng(seed))
        for ell in (2, 3):
            plan = build_emulation(circ, ell)
            explicit = run_emulated_explicit(
                plan, env2, qcore.zero_state(circ.num_qubits), Rng(0)
            ).output
            engine = EmulationEngine(env2, circ.num_qubits, {2: ell}, {2: q})
            comp = engine.run(
                ow.unitary_prefix(circ), qcore.zero_state(circ.num_qubits)
            )
            plain = emulate.pre_query_state(circ, env2)
            # run the remaining oracle gates on the plain path
            state = qcore.zero_state(circ.num_qubits)
            for g in ow.unitary_prefix(circ):
                if g.kind == "unitary":
                    state = qcore.apply_unitary(state, g.matrix, g.targets)
                else:
                    state = ow.apply_oracle(state, env2, g.lam, g.targets, count=False)
            joint = state
            for _ in range(ell):
                joint = qcore.tensor(joint, ow.oracle_axis_state(env2.spec(2)))
            ip_explicit = overlap(joint, explicit)
            ip_engine = comp.inner_with_plain(state)
            assert abs(ip_explicit - ip_engine) < 1e-9
            for qubit in range(circ.num_qubits):
                p_explicit = float(
                    qcore.born_probabilities(explicit, [qubit])[1]
                )
                assert comp.accept_probability(qubit) == pytest.approx(
                    p_explicit, abs=1e-9
                )


def test_q2_interleaved_ell24(env2):
    circ = emulate.random_oracle_circuit(2, 2, Rng(9))
    res = emulation_error(circ, env2, 24)
    assert res.exact_td <= 4.0 / 5.0
    assert res.bound == pytest.approx(4.0 / 5.0)


def test_td_monotone_in_copy_count(env2):
    for seed in range(4):
        circ = emulate.random_oracle_circuit(2, 2, Rng(20 + seed))
        tds = [emulation_error(circ, env2, ell).exact_td for ell in (3, 7, 15, 31)]
        for a, b in zip(tds, tds[1:]):
            assert b <= a + 1e-12


def fresh_block_circuit(lam, q, seed):
    """q queries on q disjoint |1>|0^lam> blocks (axis overlap 1/2 each),
    with interleaved unitaries on a spare wire."""
    from scipy.stats import unitary_group

    width = q * (lam + 1) + 1
    spare = width - 1
    rng = Rng(seed)
    gates = []
    for j in range(q):
        base = j * (lam + 1)
        gates.append(Gate.unitary("X", [base]))
        if j > 0:
            mat = unitary_group.rvs(4, random_state=rng.generator)
            gates.append(Gate.unitary(mat, [base - lam, spare]))
        gates.append(Gate.oracle(lam, list(range(base, base + lam + 1))))
    mat = unitary_group.rvs(2, random_state=rng.generator)
    gates.append(Gate.unitary(mat, [spare]))
    return OracleAidedCircuit(width, tuple(gates))


@pytest.mark.parametrize("epsilon", [0.5, 0.25])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_copy_budget_composition(q, epsilon, env2):
    # With t = 2q^2/eps^2 - 1 copies, the rewritten run stays eps-close on
    # circuits whose query blocks carry axis overlap 1/2.
    t = math.ceil(2 * q**2 / epsilon**2) - 1
    for seed in range(3):
        circ = fresh_block_circuit(2, q, 100 + seed)
        res = emulation_error(circ, env2, t)
        assert res.exact_td <= epsilon + 1e-9, (q, epsilon, res.exact_td)


def test_multi_level_emulation():
    # One circuit querying two oracle levels; copies per level, additive
    # bound, and agreement with the explicit path at tiny copy counts.
    env = OracleEnv([SubsetSpec(2, (0b01, 0b10)), ow.sample_subset(4, Rng(77))])
    circ = OracleAidedCircuit(
        5,
        (
            Gate.unitary("X", [0]),
            Gate.oracle(2, [0, 1, 2]),
            Gate.unitary("H", [3]),
            Gate.oracle(4, [0, 1, 2, 3, 4]),
        ),
    )
    res = emulation_error(circ, env, {2: 7, 4: 15})
    assert res.bound == pytest.approx(2 / math.sqrt(8) + 2 / math.sqrt(16))
    assert res.exact_td <= res.bound
    # explicit cross-check at ell=2 per level (5 + 2*3 + 2*5 = 21 qubits)
    plan = build_emulation(circ, {2: 2, 4: 2})
    explicit = run_emulated_explicit(plan, env, qcore.zero_state(5), Rng(0)).output
    engine = EmulationEngine(env, 5, {2: 2, 4: 2}, {2: 1, 4: 1})
    comp = engine.run(ow.unitary_prefix(circ), qcore.zero_state(5))
    plain = qcore.zero_state(5)
    for g in ow.unitary_prefix(circ):
        if g.kind == "unitary":
            plain = qcore.apply_unitary(plain, g.matrix, g.targets)
        else:
            plain = ow.apply_oracle(plain, env, g.lam, g.targets, count=False)
    joint = plain
    for lam in (2, 4):
        chi = ow.oracle_axis_state(env.spec(lam))
        for _ in range(2):
            joint = qcore.tensor(joint, chi)
    assert abs(overlap(joint, explicit) - comp.inner_with_plain(plain)) < 1e-9


def test_engine_capacity_guard(env2):
    with pytest.raises(CapacityError):
        EmulationEngine(env2, 22, {2: 5}, {2: 3})


def test_emulated_accept_procedure_close_to_real(env2):
    # A verifier that queries twice; its rewritten accept probability must
    # sit within the 2q/sqrt(ell+1) bound of the real one.
    from subsetlab.schemes import oracle_echo_owsg

    cand = oracle_echo_owsg(2, 2)
    challenge = cand.generate_state("10", env2)
    for key in ("10", "01"):
        v = cand.verify(key)
        real = cand.exact_verify_prob(key, challenge, env2)
        for ell in (8, 32):
            proc = emulate.EmulatedAcceptProcedure(
                v.circuit, v.input_qubits, v.accept_qubit, env2, {2: ell}
            )
            emulated = proc.accept_probability(challenge)
            assert abs(emulated - real) <= 4 / math.sqrt(ell + 1) + 1e-9


def test_engine_capacity_checked_before_sectors(monkeypatch):
    # lam=8, q=2: K = C(513, 2) = 131,328 per level, so 2^10 * K entries
    # exceed the cap; the check must come before any sector is built.
    def fail(*args, **kwargs):
        raise AssertionError("sector built before the capacity check")

    monkeypatch.setattr(emulate, "_build_sector", fail)
    env = OracleEnv([ow.sample_subset(8, Rng(0))])
    with pytest.raises(CapacityError):
        EmulationEngine(env, 10, {8: 31}, {8: 2})


def test_engine_capacity_counts_the_builders_temporaries(monkeypatch):
    # lam=12, q=1 on 13 qubits: 2^13 * K = 2^26 entries sit at the cap, but
    # building B takes int64 temporaries of N * K * 2 = 2^27 entries.
    def fail(*args, **kwargs):
        raise AssertionError("creation map built before the capacity check")

    monkeypatch.setattr(emulate, "_creation_map", fail)
    env = OracleEnv([ow.sample_subset(12, Rng(0))])
    with pytest.raises(CapacityError):
        EmulationEngine(env, 13, {12: 1}, {12: 1})


def test_engine_capacity_admits_the_largest_built_configs(monkeypatch):
    # lam=10, q=1 on 11 qubits and lam=6, q=2 on 8 qubits stay buildable;
    # only the checks run here, not the builds.
    monkeypatch.setattr(
        emulate, "_build_sector", lambda ell, cutoff, chi: emulate._Sector(ell, 1, chi, None)
    )
    for lam, width, q in ((10, 11, 1), (6, 8, 2)):
        env = OracleEnv([ow.sample_subset(lam, Rng(0))])
        EmulationEngine(env, width, {lam: 31}, {lam: q})


def test_engine_copy_count_checked_before_sectors(monkeypatch):
    # ell = 1 copy cannot hold q = 2 excitations; the check must come
    # before any sector is built.
    def fail(*args, **kwargs):
        raise AssertionError("sector built before the copy-count check")

    monkeypatch.setattr(emulate, "_build_sector", fail)
    env = OracleEnv([ow.sample_subset(2, Rng(0))])
    with pytest.raises(ValueError, match="below excitation cutoff"):
        EmulationEngine(env, 3, {2: 1}, {2: 2})


# ---------------------------------------------------------------------------
# The sector's creation map against the nested-loop projector


def loop_projector(dim, ell, cutoff):
    """The symmetric projector on (query mode, copy occupation), built by
    inserting one excitation, removing one and dropping entries past the
    cutoff."""
    occupations = []
    for k in range(cutoff + 1):
        occupations.extend(combinations_with_replacement(range(1, dim), k))
    index = {occ: i for i, occ in enumerate(occupations)}
    K = len(occupations)
    rows, cols, vals = [], [], []
    for m_idx, m in enumerate(occupations):
        n0 = ell - len(m)
        for i in range(dim):
            n_i = n0 if i == 0 else m.count(i)
            m_plus = m if i == 0 else tuple(sorted(m + (i,)))
            n0_plus = n0 + 1 if i == 0 else n0
            for j in {0, *m_plus}:
                if j == 0:
                    if n0_plus < 1:
                        continue
                    m_new, nj = m_plus, n0_plus
                else:
                    m_new = list(m_plus)
                    m_new.remove(j)
                    m_new, nj = tuple(m_new), m_plus.count(j)
                if m_new not in index:
                    continue
                rows.append(j * K + index[m_new])
                cols.append(i * K + m_idx)
                vals.append(math.sqrt((n_i + 1) * nj) / (ell + 1))
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim * K, dim * K))


@pytest.mark.parametrize(
    "lam,ell,cutoff",
    [(0, 5, 3), (2, 3, 1), (2, 3, 2), (2, 2, 2), (2, 4, 4), (4, 8, 2), (4, 3, 3)],
)
def test_creation_map_matches_loop_projector(lam, ell, cutoff):
    dim = 1 << (lam + 1)
    B = emulate._creation_map(dim, ell, cutoff)
    assert np.all(np.diff(B.indptr) == 1)  # one nonzero per column
    got = sp.csr_matrix(B.T @ B) / (ell + 1)
    want = loop_projector(dim, ell, cutoff)
    got.sort_indices()
    want.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.max(np.abs(got.data - want.data)) <= 1e-14


def test_mirror_maps_vacuum_mode_to_the_axis():
    for lam, seed in ((2, 0), (4, 1)):
        chi = ow.oracle_axis_state(ow.sample_subset(lam, Rng(seed))).amplitudes
        w = emulate._build_sector(3, 1, chi).mirror
        mirror = np.eye(chi.shape[0]) - 2.0 * np.outer(w, w.conj())
        assert np.allclose(mirror[:, 0], chi, atol=1e-14)
        assert np.allclose(mirror @ mirror.conj().T, np.eye(chi.shape[0]), atol=1e-14)


# ---------------------------------------------------------------------------
# The shared caches


def test_creation_map_cache_evicts_least_recently_used_within_budget(monkeypatch):
    envs = [OracleEnv([ow.sample_subset(2, Rng(seed))]) for seed in range(40)]
    envs = list({env.spec(2).members: env for env in envs}.values())[:2]
    assert len(envs) == 2

    def sector(env, ell):
        return EmulationEngine(env, 3, {2: ell}, {2: 1}).sectors[2]

    # Two subsets of one shape share B; only the mirror depends on the oracle.
    first, second = sector(envs[0], 3), sector(envs[1], 3)
    assert first.creation is second.creation
    assert not np.allclose(first.mirror, second.mirror)
    # Each lam=2, q=1 sector's creation map is 8 x 8 with 64 nonzeros.
    cache = emulate.LruCache(128, emulate._CREATION_MAPS.weight)
    monkeypatch.setattr(emulate, "_CREATION_MAPS", cache)
    a, b = sector(envs[0], 3).creation, sector(envs[0], 4).creation
    assert sector(envs[1], 3).creation is a  # a hit, and now the most recent
    sector(envs[0], 5)
    assert len(cache._entries) == 2 and cache.total == 128
    assert sector(envs[0], 3).creation is a
    assert sector(envs[0], 4).creation is not b  # evicted, so rebuilt


def test_main_action_cache_evicts_least_recently_used():
    def action(k):
        # Distinct diagonal gates, so every k is its own cache key.
        return emulate._main_axis_action(np.diag([1.0, np.exp(1j * k / 8192)]), (0,), 1)

    old, kept = action(0), action(1)
    for k in range(2, 3000):
        action(k)
    assert action(1) is kept  # a hit, and now the most recent
    for k in range(3000, 4200):
        action(k)
    assert action(1) is kept
    assert action(0) is not old  # least recently used, so evicted
    dense = ow.named_gate_matrix("H", 1)
    assert emulate._main_axis_action(dense, (0,), 1) is None
    assert emulate._MAIN_ACTION_CACHE.get((dense.tobytes(), (0,), 1)) == (None,)


def test_lru_cache_stays_consistent_under_threads():
    cache = emulate.LruCache(50, weight=lambda value: value)
    errors = []

    def work(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(3000):
                key = int(rng.integers(40))
                if cache.get(key) is None:
                    cache.put(key, int(rng.integers(1, 8)))
        except Exception as exc:  # reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert cache.total == sum(cache._entries.values()) <= 50


# ---------------------------------------------------------------------------
# Light-cone evaluation of emulated verifiers


def test_light_cone_of_echo_verifier_is_its_echo_block():
    from subsetlab.schemes import oracle_echo_owsg

    v = oracle_echo_owsg(4, 2).verify("0110")
    prefix = ow.unitary_prefix(v.circuit)
    cone = emulate._light_cone(prefix, v.circuit.num_qubits, v.input_qubits)
    assert cone == (4, 5, 6)


def split_circuit(q, seed):
    """A random lam=2 circuit on wires 0-3, a random gate on the off-cone
    pair (4, 5), and wire 6 that no gate touches."""
    from scipy.stats import unitary_group

    rng = Rng(seed)
    base = emulate.random_oracle_circuit(2, q, rng)
    mat = unitary_group.rvs(4, random_state=rng.generator)
    return OracleAidedCircuit(7, base.gates + (Gate.unitary(mat, [4, 5]),))


@pytest.mark.parametrize(
    "inputs", [(4,), (0,)], ids=["input-off-cone", "input-in-cone"]
)
def test_light_cone_matches_full_width_engine(env2, inputs):
    for q, seed in ((1, 30), (2, 31), (2, 32)):
        circ = split_circuit(q, seed)
        prefix = ow.unitary_prefix(circ)
        cone = emulate._light_cone(prefix, 7, inputs)
        assert {0, 1, 2} <= set(cone) and not {4, 5, 6} & set(cone)
        challenge = random_state(1, seed)
        main = qcore.embed_state(challenge, 7, inputs)
        for ell in (2, 15):
            full = EmulationEngine(env2, 7, {2: ell}, {2: q}).run(prefix, main)
            for acc in range(7):
                proc = emulate.EmulatedAcceptProcedure(
                    circ, inputs, acc, env2, {2: ell}
                )
                assert abs(
                    proc.accept_probability(challenge) - full.accept_probability(acc)
                ) < 1e-12


@pytest.mark.parametrize(
    "inputs", [(4,), (0,)], ids=["input-off-cone", "input-in-cone"]
)
def test_light_cone_matches_explicit_path(env2, inputs):
    for q, seed in ((1, 30), (2, 31)):
        circ = split_circuit(q, seed)
        challenge = random_state(1, seed)
        main = qcore.embed_state(challenge, 7, inputs)
        for ell in (2, 3):
            plan = build_emulation(circ, ell)
            explicit = run_emulated_explicit(plan, env2, main, Rng(0)).output
            for acc in range(7):
                proc = emulate.EmulatedAcceptProcedure(
                    circ, inputs, acc, env2, {2: ell}
                )
                p_explicit = float(qcore.born_probabilities(explicit, [acc])[1])
                assert abs(proc.accept_probability(challenge) - p_explicit) < 1e-9

