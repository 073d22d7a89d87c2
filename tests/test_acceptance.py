"""Acceptance suite: one test per criterion, each printing its verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import time

import numpy as np
import pytest

from subsetlab import attacks, cli, emulate, qcore, qefid, schemes, tomography
from subsetlab import oracleworld as ow
from subsetlab.qcore import Rng, StateVector, overlap


def report(number: int, name: str, started: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.1f}s < {budget:.0f}s) {detail}")


def three_sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def test_criterion_01_statistical_farness():
    started = time.perf_counter()
    values = {}
    for lam in (2, 4, 6):
        spec = ow.sample_subset(lam, Rng(lam))
        sd = qefid.exact_sd(spec)
        assert abs(sd - (1.0 - 2.0 ** (-lam / 2))) <= 1e-12
        values[lam] = sd
    report(1, "statistical-farness", started, 1.0, f"sd={values}")


def test_criterion_02_oracle_correctness():
    started = time.perf_counter()
    for lam in (2, 4):
        spec = ow.sample_subset(lam, Rng(10 + lam))
        env = ow.OracleEnv([spec])
        state = qcore.tensor(qcore.basis_state(1, 1), qcore.zero_state(lam))
        mapped = ow.apply_oracle(state, env, lam, range(lam + 1), count=False)
        target = qcore.tensor(qcore.basis_state(1, 1), ow.subset_states(spec)[0])
        assert abs(overlap(mapped, target)) ** 2 >= 1 - 1e-9
        back = ow.apply_oracle(mapped, env, lam, range(lam + 1), count=False)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-9
        g = Rng(lam).generator
        v = g.normal(size=1 << (lam + 1)) + 1j * g.normal(size=1 << (lam + 1))
        probe = StateVector(lam + 1, v / np.linalg.norm(v))
        direct = ow.apply_oracle(probe, env, lam, range(lam + 1), count=False)
        matrixed = qcore.apply_unitary(probe, ow.oracle_matrix(spec), range(lam + 1))
        assert np.max(np.abs(direct.amplitudes - matrixed.amplitudes)) <= 1e-9
    report(2, "oracle-correctness", started, 1.0, "lam in {2,4}")


def test_criterion_03_projection_via_reflection():
    started = time.perf_counter()
    target = qcore.basis_state(2, 0)
    orth = qcore.basis_state(2, 3)
    inp = StateVector(2, (target.amplitudes + orth.amplitudes) / math.sqrt(2))
    trials = 10_000
    hits = 0
    worst = 1.0
    for i in range(trials):
        ok, out = emulate.project_via_reflection(inp, target, Rng(30).child(i))
        if ok:
            hits += 1
            worst = min(worst, qcore.fidelity(out, target))
    freq = hits / trials
    assert abs(freq - 0.5) <= three_sigma(0.5, trials)
    assert worst >= 1 - 1e-9
    report(3, "projection-via-reflection", started, 10.0, f"freq={freq:.4f}")


def test_criterion_04_copy_generation():
    started = time.perf_counter()
    env = ow.OracleEnv([ow.sample_subset(2, Rng(40))])
    ideal = ow.subset_states(env.spec(2))[1]
    trials = 10_000
    attempts = failures = 0
    for i in range(trials):
        res = emulate.generate_s_minus(env, 2, 20, Rng(41).child(i))
        attempts += res.attempts
        if not res.succeeded:
            failures += 1
        elif i % 100 == 0:
            assert abs(overlap(res.state, ideal)) ** 2 >= 1 - 1e-9
    per_attempt = trials - failures
    rate = per_attempt / attempts
    assert abs(rate - 0.5) <= three_sigma(0.5, attempts)
    assert failures == 0
    report(4, "copy-generation", started, 10.0, f"per-attempt={rate:.4f}, failures=0")


def test_criterion_05_emulation_bound():
    started = time.perf_counter()
    circuits = 0
    worst_ip_gap = 0.0
    for lam in (2, 4):
        env = ow.OracleEnv([ow.sample_subset(lam, Rng(50 + lam))])
        axis = ow.oracle_axis_state(env.spec(lam))
        for q in (1, 2, 3):
            for seed in range(4):
                circ = emulate.random_oracle_circuit(lam, q, Rng(1000 * lam + 10 * q + seed))
                circuits += 1
                for ell in (7, 15, 31):
                    res = emulate.emulation_error(circ, env, ell)
                    assert res.exact_td <= 2 * q / math.sqrt(ell + 1) + 1e-9
                    if q == 1:
                        first = next(g for g in circ.gates if g.kind == "oracle")
                        ov = qcore.axis_weight(
                            emulate.pre_query_state(circ, env),
                            axis.amplitudes,
                            first.targets,
                        )
                        predicted = emulate.single_query_inner_product(ell, ov)
                        gap = abs(res.inner_product.real - predicted)
                        worst_ip_gap = max(worst_ip_gap, gap)
                        assert gap <= 1e-8
    assert circuits >= 20
    report(
        5,
        "emulation-bound",
        started,
        300.0,
        f"{circuits} circuits x ell in {{7,15,31}}, worst q=1 ip gap {worst_ip_gap:.2e}",
    )


def test_criterion_06_statistical_lemma():
    started = time.perf_counter()
    # Exact values, frozen as regression constants (independently
    # cross-checked against a dense construction in test_qefid).
    r21 = qefid.statistical_lemma_experiment(2, 1)
    r41 = qefid.statistical_lemma_experiment(4, 1)
    assert r21.td == pytest.approx(0.375, abs=1e-12)
    assert r41.td == pytest.approx(0.2571400581993076, abs=1e-10)
    for r in (r21, r41):
        assert r.td <= min(1.0, r.bound) + 1e-9
    # Copy-aided attacker catalog at lam=8: empirical advantage below the
    # bound plus slack over 10^4 trials.
    trials = 10_000
    worst = {}
    for t in (1, 2):
        bound = qefid.statistical_lemma_bound(8, t)
        for d in qefid.copy_distinguisher_catalog(t):
            adv = qefid.copy_advantage_experiment(d, 8, t, trials, Rng(60 + t))
            assert adv <= bound + 0.05, (d.name, t, adv)
            worst[(d.name, t)] = round(adv, 4)
    report(6, "statistical-lemma", started, 600.0, f"td=(0.375, 0.2571), adv={worst}")


def test_criterion_07_yao_transform():
    started = time.perf_counter()
    spec = ow.sample_subset(4, Rng(70))
    member = qefid.membership_distinguisher(spec)
    _, _, gap = qefid.exact_distinguisher_gap(member, spec)
    assert gap == pytest.approx(0.75, abs=1e-12)
    positive = qefid.exact_yao_positive_gap(member, spec)
    assert abs(positive - 0.5625) <= 1e-9
    report(7, "yao-transform", started, 1.0, f"positive gap {positive}")


def test_criterion_08_gentle_search_and_shadow():
    started = time.perf_counter()
    cand = schemes.wiesner_owsg(2)

    def build(key):
        v = cand.verify(key)
        return tomography.CircuitAcceptProcedure(v.circuit, v.input_qubits, v.accept_qubit)

    family = tomography.PovmFamily(cand.keys, build, 2)
    runs = 1000
    qualified = 0
    for i in range(runs):
        rng = Rng(80).child(i)
        k_star = cand.keys[rng.integers(0, len(cand.keys))]
        challenge = cand.generate_state(k_star, None)
        res = tomography.gentle_search(family, challenge, 1.0, 0.5, 0.5, rng)
        if tomography.exact_accept_prob(family, res.key, challenge) >= 0.5:
            qualified += 1
    g_rate = qualified / runs
    assert g_rate >= (1 - 0.5) - three_sigma(0.5, runs)
    within = 0
    for i in range(runs):
        rng = Rng(81).child(i)
        k_star = cand.keys[rng.integers(0, len(cand.keys))]
        challenge = cand.generate_state(k_star, None)
        exact_vals = {
            k: tomography.exact_accept_prob(family, k, challenge) for k in family.keys
        }
        table = tomography.shadow_tomography(family, challenge, 0.1, 0.01, rng)
        if table.worst_error(exact_vals) <= 0.1:
            within += 1
    s_rate = within / runs
    assert s_rate >= 0.99 - three_sigma(0.99, runs)
    report(
        8,
        "gentle-search/shadow",
        started,
        300.0,
        f"qualified={g_rate:.3f}, within-eps={s_rate:.3f}",
    )


def test_criterion_09_owsg_inversion():
    started = time.perf_counter()
    trials = 200
    rates = {}
    for cand, seed in (
        (schemes.wiesner_owsg(2), 90),
        (schemes.oracle_echo_owsg(4, 2), 91),
    ):
        exact = attacks.owsg_inversion_game(
            cand,
            attacks.OwsgAttackParams(exact_search=True, copies_per_query=128),
            trials,
            Rng(seed),
        )
        rate_exact = sum(r.success for r in exact) / trials
        assert rate_exact >= 0.9, (cand.name, rate_exact)
        if cand.name.startswith("oracle-echo"):
            # The swap test accepts every wrong key with probability 1/2,
            # so the 1/3 threshold alone cannot fail for this candidate.
            assert all(r.key_found == r.key_star for r in exact), cand.name
        sampled = attacks.owsg_inversion_game(
            cand,
            attacks.OwsgAttackParams(exact_search=False, copies_per_query=128),
            trials,
            Rng(seed + 100),
        )
        rate_sampled = sum(r.success for r in sampled) / trials
        assert rate_sampled >= 0.5, (cand.name, rate_sampled)
        rates[cand.name] = (rate_exact, rate_sampled)
    report(9, "owsg-inversion", started, 600.0, f"rates={rates}")


def test_criterion_10_money_forgery():
    started = time.perf_counter()
    trials = 200
    rates = {}
    for scheme, m, copies, seed in (
        (schemes.wiesner_money(3), 2, 128, 92),
        (schemes.subset_pair_money(2, 2), 1, 512, 93),
    ):
        for exact, floor in ((True, 0.9), (False, 0.6)):
            params = attacks.MoneyForgeParams(
                eta=0.05, exact_estimators=exact, copies_per_query=copies
            )

            def forger(handle, env, challenges, rng, _p=params):
                return attacks.money_forge(handle, env, challenges, _p, rng).outputs

            game = attacks.forgery_game(
                scheme, forger, m, trials, Rng(seed + (0 if exact else 10))
            )
            assert game.success_rate >= floor, (scheme.name, exact, game.success_rate)
            assert game.max_attacker_verify_queries == 0
            if exact:
                assert game.abort_rate == 0.0
            rates[(scheme.name, "exact" if exact else "sampled")] = game.success_rate
    report(10, "money-forgery", started, 900.0, f"rates={rates}")


def test_criterion_11_reproducibility():
    started = time.perf_counter()
    cfg = cli.ExperimentConfig.from_mapping(
        {"seed": "7", "lam": "2", "kappa": "20", "trials": "300"}, "copygen"
    )
    _, first = cli.run("copygen", cfg)
    _, second = cli.run("copygen", cfg)
    a, b = json.loads(first.to_json()), json.loads(second.to_json())
    a.pop("wall_clock_s"), b.pop("wall_clock_s")
    assert a == b
    cfg2 = cli.ExperimentConfig.from_mapping(
        {"seed": "3", "q": "1", "ell": "15", "lam": "2", "trials": "5"}, "emulate-bound"
    )
    _, r1 = cli.run("emulate-bound", cfg2)
    _, r2 = cli.run("emulate-bound", cfg2)
    c, d = json.loads(r1.to_json()), json.loads(r2.to_json())
    c.pop("wall_clock_s"), d.pop("wall_clock_s")
    assert c == d
    report(11, "reproducibility", started, 60.0, "identical reports minus wall-clock")
