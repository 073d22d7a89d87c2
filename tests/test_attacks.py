"""Key recovery, money forgery, and the forgery game."""

import math

import pytest

from subsetlab import attacks, emulate, qcore, schemes
from subsetlab import oracleworld as ow
from subsetlab.attacks import (
    ForgeAbort,
    MoneyForgeParams,
    OwsgAttackParams,
    ResourceFailure,
    forgery_game,
    money_forge,
    owsg_attack,
    owsg_inversion_game,
    prepare_resources,
)
from subsetlab.oracleworld import OracleEnv, sample_subset
from subsetlab.qcore import Rng


@pytest.fixture
def env2():
    return OracleEnv([sample_subset(2, Rng(0))])


def test_prepare_resources_counts_and_exactness(env2):
    res = prepare_resources(env2, [2], {2: 10}, kappa=30, rng=Rng(1))
    assert res.copies == {2: 10}
    assert res.attempts[2] >= 10
    assert res.oracle_queries[2] == res.attempts[2]


def test_prepare_resources_failure():
    env = OracleEnv([sample_subset(2, Rng(2))])
    with pytest.raises(ResourceFailure):
        prepare_resources(env, [2], {2: 40}, kappa=1, rng=Rng(3))


def test_owsg_attack_wiesner_exact_recovers_key():
    cand = schemes.wiesner_owsg(2)
    records = owsg_inversion_game(
        cand, OwsgAttackParams(exact_search=True), trials=20, rng=Rng(4)
    )
    assert all(r.success for r in records)
    assert all(r.accept_prob == pytest.approx(1.0) for r in records)


def test_owsg_attack_wiesner_sampled():
    cand = schemes.wiesner_owsg(2)
    records = owsg_inversion_game(
        cand, OwsgAttackParams(exact_search=False), trials=30, rng=Rng(5)
    )
    assert sum(r.success for r in records) / 30 >= 0.5


def test_owsg_attack_echo_uses_emulation(env2):
    cand = schemes.oracle_echo_owsg(4, 2)
    challenge = cand.generate_state("1010", env2)
    params = OwsgAttackParams(exact_search=True, copies_per_query=64)
    before = env2.query_count(2)
    result = owsg_attack(cand, env2, challenge, params, Rng(6))
    assert result.resources is not None
    assert result.resources.copies == {2: 64}
    # resource generation is the only oracle use of the attack
    assert env2.query_count(2) - before == result.resources.oracle_queries[2]
    assert result.emulation_slack_bound == pytest.approx(4 / math.sqrt(65))
    p = cand.exact_verify_prob(result.key, challenge, env2)
    assert p >= 1.0 / 3.0


def test_owsg_attack_composition_guarantee(env2):
    # Exact accept of the found key under the real verifier clears the
    # search guarantee minus the rewriting slack.
    cand = schemes.oracle_echo_owsg(4, 2)
    params = OwsgAttackParams(exact_search=True, copies_per_query=128)
    records = owsg_inversion_game(cand, params, trials=5, rng=Rng(7))
    slack = 4 / math.sqrt(129)
    for r in records:
        assert r.accept_prob >= 0.5 - slack


def test_money_forge_wiesner_exact_end_to_end():
    scheme = schemes.wiesner_money(3)
    params = MoneyForgeParams(exact_estimators=True)

    def forger(handle, env, challenges, rng):
        result = money_forge(handle, env, challenges, params, rng)
        assert not result.aborted
        assert result.m_prime == math.ceil(2 * len(challenges) / (1.0 * 0.5))
        return result.outputs

    game = forgery_game(scheme, forger, m=2, trials=10, rng=Rng(8))
    assert game.success_rate == 1.0
    assert game.abort_rate == 0.0
    assert game.max_attacker_verify_queries == 0


def test_money_forge_selects_true_key_wiesner():
    scheme = schemes.wiesner_money(3)
    env = OracleEnv({})
    k_star = "101010"
    challenges = [scheme.mint_state(k_star, env) for _ in range(2)]
    result = money_forge(
        scheme, env, challenges, MoneyForgeParams(exact_estimators=True), Rng(9)
    )
    assert result.chosen_key == k_star
    assert result.b_v[k_star] == pytest.approx(1.0)
    assert result.b_vm[(k_star, k_star)] == pytest.approx(1.0)


def test_money_forge_subset_pair_exact():
    scheme = schemes.subset_pair_money(2, 2)
    params = MoneyForgeParams(exact_estimators=True, copies_per_query=512)

    def forger(handle, env, challenges, rng):
        return money_forge(handle, env, challenges, params, rng).outputs

    game = forgery_game(scheme, forger, m=1, trials=5, rng=Rng(10))
    assert game.success_rate == 1.0
    assert game.abort_rate == 0.0
    assert game.max_attacker_verify_queries == 0


def test_money_forge_chosen_key_quality(env2):
    # The spec-level guarantee: notes minted under the chosen key verify
    # under the true key with probability >= mu(1 - 10 eta) - 2 eps_st.
    scheme = schemes.subset_pair_money(2, 2)
    params = MoneyForgeParams(exact_estimators=True, copies_per_query=512, eta=0.05)
    k_star = "11"
    challenges = [scheme.mint_state(k_star, env2, count=False)]
    result = money_forge(scheme, env2, challenges, params, Rng(11))
    fresh = scheme.mint_state(result.chosen_key, env2, count=False)
    p = scheme.exact_verify_prob(k_star, fresh, env2)
    assert p >= scheme.mu * (1 - 10 * params.eta) - 1e-9


def forge_on(scheme, env, seed):
    params = MoneyForgeParams(exact_estimators=False, copies_per_query=8)
    challenges = [scheme.mint_state("10", env, count=False)]
    money_forge(scheme, env, challenges, params, Rng(17).child(seed))


def test_forge_cache_keeps_the_last_four_oracle_instances():
    # lam=2 has three oracle instances; all of them stay, and two more
    # tokens push out the least recently used one.
    scheme = schemes.subset_pair_money(2, 2)
    envs = [OracleEnv([ow.SubsetSpec(2, m)]) for m in ((1, 2), (1, 3), (2, 3))]
    for i, env in enumerate(envs):
        forge_on(scheme, env, i)
    instances = scheme._forge_cache
    tokens = [attacks._env_token(scheme, env) for env in envs]
    for token in tokens:
        entries = instances.get(token)
        assert entries and {ck[2] for ck in entries} == {token}
    for extra in ("a", "b"):
        attacks._exact_value_cache(scheme, extra)
    assert len(instances._entries) == attacks._FORGE_CACHE_INSTANCES == 4
    assert instances.get(tokens[0]) is None
    assert instances.get(tokens[1]) and instances.get(tokens[2])


def test_forge_cache_reuses_a_revisited_oracle_instance(monkeypatch):
    scheme = schemes.subset_pair_money(2, 2)
    envs = [OracleEnv([ow.SubsetSpec(2, m)]) for m in ((1, 2), (1, 3))]
    forge_on(scheme, envs[0], 0)
    forge_on(scheme, envs[1], 1)
    calls = []
    evaluate = emulate.EmulatedAcceptProcedure.accept_probability
    monkeypatch.setattr(
        emulate.EmulatedAcceptProcedure,
        "accept_probability",
        lambda self, state: calls.append(1) or evaluate(self, state),
    )
    forge_on(scheme, envs[0], 2)
    assert not calls


def test_money_forge_measurement_mode():
    scheme = schemes.wiesner_money(3)
    params = MoneyForgeParams(exact_estimators=False)

    def forger(handle, env, challenges, rng):
        res = money_forge(handle, env, challenges, params, rng)
        return res.outputs

    game = forgery_game(scheme, forger, m=2, trials=10, rng=Rng(12))
    assert game.success_rate >= 0.6
    assert game.max_attacker_verify_queries == 0


def test_money_forge_eta_range():
    with pytest.raises(ValueError):
        MoneyForgeParams(eta=0.1)
    with pytest.raises(ValueError):
        MoneyForgeParams(eta=0.0)


def test_forgery_game_echo_attacker_fails():
    # Echoing the challenges padded with junk: the junk notes verify with
    # probability far below 1, so reaching m+1 accepts is ~impossible.
    scheme = schemes.wiesner_money(3)

    def echo_attacker(handle, env, challenges, rng):
        junk = [qcore.zero_state(scheme.money_qubits) for _ in range(2)]
        return list(challenges) + junk

    game = forgery_game(scheme, echo_attacker, m=2, trials=60, rng=Rng(13))
    assert game.success_rate <= 0.35


def test_forgery_game_without_extra_outputs_never_wins():
    scheme = schemes.wiesner_money(3)

    def copier(handle, env, challenges, rng):
        return list(challenges)

    game = forgery_game(scheme, copier, m=2, trials=20, rng=Rng(14))
    assert game.success_rate == 0.0


def test_verify_oracle_counter_sees_calls():
    scheme = schemes.wiesner_money(3)

    def cheating_attacker(handle, env, challenges, rng):
        handle.verify_oracle(challenges[0], rng)
        return list(challenges)

    game = forgery_game(scheme, cheating_attacker, m=2, trials=3, rng=Rng(15))
    assert game.max_attacker_verify_queries == 1


def test_forge_abort_is_raised_for_impossible_estimates():
    scheme = schemes.wiesner_money(3)
    env = OracleEnv({})
    challenges = [scheme.mint_state("000000", env)]
    # Sabotage: an eta so small that estimator noise cannot satisfy the
    # agreement threshold in step 4.
    params = MoneyForgeParams(
        exact_estimators=False, eta=1e-9, epsilon_st=0.4, delta_st=0.4,
        raise_on_abort=True,
    )
    with pytest.raises(ForgeAbort):
        for i in range(20):
            money_forge(scheme, env, challenges, params, Rng(16).child(i))
