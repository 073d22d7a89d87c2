"""The benchmark's three workloads.

A workload is built once per process (its set-up) and then runs trials.
Trial ``i`` is fully determined by the run's seed and ``i`` and checks each
output as it goes.  In the attack workloads a trial is one game trial,
even ``i`` in the exact arm and odd ``i`` in the sampled arm; a corpus
trial evaluates four circuits.  ``run_trial`` returns how many operations
(game trials or corpus circuits) it attempted and how many raised; the
checks append to ``problems``.

Each workload mirrors one experiment of the package:

* ``owsg-echo``: criterion 9 on ``oracle_echo_owsg(4, 2)``;
* ``money-wiesner``: criterion 10 on ``wiesner_money(3)``;
* ``emulate-corpus``: the ``emulate-bound`` corpus at the engine's
  sector-size frontier (lam=6, q=2, ell=31: K = 8256).
"""

from __future__ import annotations

import sys
import traceback

import checks
from subsetlab import attacks, emulate, qcore, schemes
from subsetlab import oracleworld as ow
from subsetlab.qcore import Rng

ARMS = ("exact", "sampled")


class Workload:
    name = ""
    #: Trials in one round; a run attempts whole rounds only, so the arms
    #: of a two-arm workload always run equally often.
    trials_per_round = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.problems: list[str] = []

    def rng(self, index: int) -> Rng:
        return Rng(self.seed).child(index)

    def note(self, problem: str | None) -> None:
        if problem is not None:
            self.problems.append(problem)

    def operation(self, fn, *args) -> bool:
        """Run one operation; an exception counts it as failed."""
        try:
            fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return False
        return True

    def run_trial(self, index: int) -> tuple[int, int]:
        raise NotImplementedError

    def finish(self) -> None:
        """Run-level checks over every trial made."""


class _ArmWorkload(Workload):
    floors: dict[str, float] = {}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.successes = dict.fromkeys(ARMS, 0)
        self.trials = dict.fromkeys(ARMS, 0)

    def run_trial(self, index: int) -> tuple[int, int]:
        arm = ARMS[index % len(ARMS)]
        return 1, int(not self.operation(self.arm_trial, arm, self.rng(index)))

    def score(self, arm: str, success: bool) -> None:
        self.trials[arm] += 1
        self.successes[arm] += bool(success)

    def finish(self) -> None:
        super().finish()
        for arm in ARMS:
            self.note(
                checks.rate_problem(
                    self.successes[arm], self.trials[arm], self.floors[arm], f"{self.name} {arm}"
                )
            )


class OwsgEcho(_ArmWorkload):
    """Key recovery against the oracle-echo candidate, both search arms."""

    name = "owsg-echo"
    trials_per_round = 8
    floors = checks.OWSG_FLOORS

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.copies = 0
        self.attempts = 0
        self.candidate = schemes.oracle_echo_owsg(4, 2)
        self.params = {
            arm: attacks.OwsgAttackParams(exact_search=(arm == "exact"), copies_per_query=128)
            for arm in ARMS
        }

    def arm_trial(self, arm: str, rng: Rng) -> tuple[str, str]:
        # One trial of attacks.owsg_inversion_game, written out so the
        # attack result (search estimates, resources) can be checked.
        cand = self.candidate
        env = ow.OracleEnv({lam: ow.sample_subset(lam, rng) for lam in cand.query_levels})
        k_star = cand.keys[rng.integers(0, len(cand.keys))]
        challenge = cand.generate_state(k_star, env)
        result = attacks.owsg_attack(cand, env, challenge, self.params[arm], rng)
        p = cand.exact_verify_prob(result.key, challenge, env)
        self.copies += sum(result.resources.copies.values())
        self.attempts += sum(result.resources.attempts.values())
        if arm == "exact":
            self.note(checks.found_key_problem(result.key, k_star, result.search.estimates))
        self.score(arm, p >= 1.0 / 3.0)
        return k_star, result.key

    def finish(self) -> None:
        super().finish()
        self.note(checks.yield_problem(self.copies, self.attempts))


class MoneyWiesner(_ArmWorkload):
    """The statistical forger against ``wiesner_money(3)`` in the forgery
    game, both estimator arms (criterion 10 with m=2)."""

    name = "money-wiesner"
    trials_per_round = 8
    floors = checks.MONEY_FLOORS
    m = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.scheme = schemes.wiesner_money(3)
        self.params = {
            arm: attacks.MoneyForgeParams(
                eta=0.05, exact_estimators=(arm == "exact"), copies_per_query=128
            )
            for arm in ARMS
        }

    def arm_trial(self, arm: str, rng: Rng) -> None:
        forged = []
        params = self.params[arm]

        def forger(handle, env, challenges, trng):
            result = attacks.money_forge(handle, env, challenges, params, trng)
            forged.append(result)
            return result.outputs

        game = attacks.forgery_game(self.scheme, forger, self.m, 1, rng)
        trial = game.trials[0]
        self.note(checks.verify_queries_problem(trial.attacker_verify_queries))
        if arm == "exact":
            # An exact-arm abort raises ForgeAbort inside money_forge, so
            # nothing reaches `forged`; a sampled-arm abort is a lost trial.
            chosen = forged[0].chosen_key if forged else None
            self.note(checks.chosen_key_problem(chosen, trial.key_star))
        self.score(arm, trial.success)


class EmulateCorpus(Workload):
    """Random oracle circuits through ``emulate.emulation_error``.

    Per trial: one lam=6, q=2, ell=31 circuit (sector size K = 8256, the
    engine's frontier), one lam=6, q=1 circuit for the closed-form check,
    and two lam=2 circuits also run on the explicit rewritten circuit.
    Every circuit has a fresh subset, so every trial builds its lam=6
    sectors (lam=2 has only three subsets, whose engines stay cached).
    """

    name = "emulate-corpus"
    trials_per_round = 1
    ELL = 31
    TINY = ((1, 2), (2, 3))  # (q, ell) on the explicit path

    def run_trial(self, index: int) -> tuple[int, int]:
        rng = self.rng(index)
        cases = [(self.frontier_case, rng), (self.closed_form_case, rng)]
        cases += [(self.explicit_case, rng, q, ell) for q, ell in self.TINY]
        failed = sum(not self.operation(*case) for case in cases)
        return len(cases), failed

    def _circuit(self, lam: int, q: int, rng: Rng):
        spec = ow.sample_subset(lam, rng)
        return spec, ow.OracleEnv([spec]), emulate.random_oracle_circuit(lam, q, rng)

    def frontier_case(self, rng: Rng) -> None:
        _, env, circ = self._circuit(6, 2, rng)
        res = emulate.emulation_error(circ, env, self.ELL)
        self.note(checks.td_problem(res.exact_td, 2, self.ELL))

    def closed_form_case(self, rng: Rng) -> None:
        spec, env, circ = self._circuit(6, 1, rng)
        res = emulate.emulation_error(circ, env, self.ELL)
        self.note(checks.td_problem(res.exact_td, 1, self.ELL))
        axis = checks.axis_state(spec.lam, spec.members)
        pre = checks.evolve(circ.num_qubits, circ.gates, {spec.lam: axis}, stop_at_oracle=True)
        query = next(g for g in circ.gates if g.kind == "oracle")
        w = checks.axis_weight(pre, circ.num_qubits, axis, query.targets)
        self.note(checks.closed_form_problem(res.inner_product.real, self.ELL, w))

    def explicit_case(self, rng: Rng, q: int, ell: int) -> None:
        spec, env, circ = self._circuit(2, q, rng)
        res = emulate.emulation_error(circ, env, ell)
        self.note(checks.td_problem(res.exact_td, q, ell))
        plan = emulate.build_emulation(circ, ell)
        explicit = emulate.run_emulated_explicit(
            plan, env, qcore.zero_state(circ.num_qubits), Rng(0)
        ).output
        axis = checks.axis_state(spec.lam, spec.members)
        plain = checks.evolve(circ.num_qubits, circ.gates, {spec.lam: axis})
        ip_explicit = complex(checks.with_copies(plain, axis, ell).conj() @ explicit.amplitudes)
        self.note(checks.agreement_problem(res.inner_product, ip_explicit))


WORKLOADS = {w.name: w for w in (OwsgEcho, MoneyWiesner, EmulateCorpus)}
