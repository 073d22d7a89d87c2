"""The two generic attacks and the games that score them.

``owsg_attack`` inverts a keyed state generator: it manufactures copies of
|1>|S-> per queried level, rewrites the candidate's verifier so oracle
queries become reflections over those copies, and runs gentle search over
the rewritten verifiers on the challenge state.

``money_forge`` breaks any money scheme without ever touching the
challenger's verification oracle: it shadow-tomographs (i) the rewritten
verifier family on the challenge note and (ii) the rewritten
mint-then-verify family on the copy resources alone, picks the first key
whose column of estimates matches the challenge's within 5*mu*eta, and
mints fresh notes under it with the real oracle.

The scaled-down slack: the asymptotic analysis writes its slacks as 1/kappa
for a large key length kappa; at desk scale these are replaced by an
explicit parameter eta in (0, 0.1), so the match threshold is 5*mu*eta and
the output count is ceil(2m / (mu (1 - 10 eta))).  The CLI's ``ETA_NOTE``
states this substitution in every ``money-forge`` report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import emulate
from . import oracleworld as ow
from . import qcore
from . import tomography
from .qcore import POLICY, Rng, StateVector
from .schemes import MoneyScheme, OwsgCandidate

__all__ = [
    "INVERSION_THRESHOLD",
    "ResourceState",
    "ResourceFailure",
    "prepare_resources",
    "OwsgAttackParams",
    "OwsgAttackResult",
    "owsg_attack",
    "owsg_inversion_game",
    "MoneyForgeParams",
    "MoneyForgeResult",
    "ForgeAbort",
    "money_forge",
    "SchemeHandle",
    "forgery_game",
    "ForgeryGameResult",
]


#: Copy-generation attempts per copy of |S->; a copy fails with
#: probability 2^-GEN_KAPPA.
GEN_KAPPA = 30

#: The inversion game counts a found key as a success when the real
#: verifier accepts it with at least this exact probability.
INVERSION_THRESHOLD = 1.0 / 3.0


class ResourceFailure(RuntimeError):
    """Copy generation did not succeed within its retry budget."""


@dataclass
class ResourceState:
    """Per-level blocks of |1>|S->.  Copies are verified exact once per
    level: every copy of one subset is the same state, simulated once."""

    copies: dict[int, int]
    attempts: dict[int, int]
    oracle_queries: dict[int, int]


def prepare_resources(
    env: ow.OracleEnv,
    levels: Sequence[int],
    multiplicity: dict[int, int],
    kappa: int,
    rng: Rng,
) -> ResourceState:
    """Generate `multiplicity[lam]` copies of |S_lam -> per level.

    Each level's copy is checked to have exact overlap 1 with the ideal
    state; a generation failure (probability 2^-kappa per copy) raises.
    """
    copies: dict[int, int] = {}
    attempts: dict[int, int] = {}
    queries: dict[int, int] = {}
    for lam in levels:
        before = env.query_count(lam)
        total_attempts = 0
        copy = None
        for i in range(multiplicity[lam]):
            result = emulate.generate_s_minus(env, lam, kappa, rng)
            total_attempts += result.attempts
            if not result.succeeded:
                raise ResourceFailure(
                    f"copy generation failed at lambda={lam} after {kappa} attempts"
                )
            copy = result.state
        if copy is not None:
            ideal = ow.subset_states(env.spec(lam))[1]
            if abs(qcore.overlap(ideal, copy)) ** 2 < 1.0 - POLICY.prob_atol:
                raise AssertionError("generated copy is not exact")
        copies[lam] = multiplicity[lam]
        attempts[lam] = total_attempts
        queries[lam] = env.query_count(lam) - before
    return ResourceState(copies, attempts, queries)


# ---------------------------------------------------------------------------
# Key recovery


@dataclass
class OwsgAttackParams:
    copies_per_query: int = 128  # reflection copies per queried level
    epsilon: float = 0.5
    delta: float = 0.5
    exact_search: bool = False


@dataclass
class OwsgAttackResult:
    key: str
    search: tomography.GentleSearchResult
    resources: ResourceState | None
    emulation_slack_bound: float


def _accept_procedure(
    circuit: ow.OracleAidedCircuit,
    input_qubits: tuple[int, ...],
    accept_qubit: int,
    env: ow.OracleEnv,
    ell: int,
) -> tomography.AcceptProcedure:
    """The attacker's view of a verifier: oracle queries rewritten into
    reflections over `ell` copies per level when the circuit makes any,
    otherwise the plain circuit."""
    if circuit.declared_query_count:
        ells = {lam: ell for lam in circuit.declared_query_count}
        return emulate.EmulatedAcceptProcedure(
            circuit, input_qubits, accept_qubit, env, ells
        )
    return tomography.CircuitAcceptProcedure(circuit, input_qubits, accept_qubit, env)


def _verifier_family(
    candidate: OwsgCandidate,
    env: ow.OracleEnv,
    ell: int,
) -> tomography.PovmFamily:
    def build(key: str) -> tomography.AcceptProcedure:
        v = candidate.verify(key)
        return _accept_procedure(v.circuit, v.input_qubits, v.accept_qubit, env, ell)

    arity = len(candidate.verify(candidate.keys[0]).input_qubits)
    return tomography.PovmFamily(candidate.keys, build, arity)


def owsg_attack(
    candidate: OwsgCandidate,
    env: ow.OracleEnv,
    challenge: StateVector,
    params: OwsgAttackParams,
    rng: Rng,
) -> OwsgAttackResult:
    """Recover an accepting key from copies of the challenge state.

    Copy generation, verifier rewriting, then gentle search over the
    rewritten verifiers with the configured epsilon and delta (1/2 each by
    default).  No oracle query made by the rewritten verifiers; the only
    oracle use is the copy generation itself.
    """
    resources = None
    slack = 0.0
    if candidate.query_bound > 0:
        ell = params.copies_per_query
        levels = candidate.query_levels
        resources = prepare_resources(
            env,
            levels,
            {lam: ell for lam in levels},
            GEN_KAPPA,
            rng,
        )
        slack = emulate.emulation_bound(
            {lam: candidate.query_bound for lam in levels},
            {lam: ell for lam in levels},
        )
    family = _verifier_family(candidate, env, params.copies_per_query)
    c = 1.0 - candidate.correctness_slack - slack
    search = tomography.gentle_search(
        family,
        challenge,
        c,
        params.epsilon,
        params.delta,
        rng,
        exact=params.exact_search,
    )
    return OwsgAttackResult(search.key, search, resources, slack)


@dataclass
class InversionTrial:
    key_star: str
    key_found: str
    accept_prob: float
    success: bool


def owsg_inversion_game(
    candidate: OwsgCandidate,
    params: OwsgAttackParams,
    trials: int,
    rng: Rng,
) -> list[InversionTrial]:
    """Score the attack over seeded trials: fresh world, fresh key, one
    challenge; success when the real verifier accepts the found key with
    exact probability >= ``INVERSION_THRESHOLD``."""
    records: list[InversionTrial] = []
    for i in range(trials):
        trial_rng = rng.child(i)
        env = ow.OracleEnv(
            {lam: ow.sample_subset(lam, trial_rng) for lam in candidate.query_levels}
        )
        k_star = candidate.keys[trial_rng.integers(0, len(candidate.keys))]
        challenge = candidate.generate_state(k_star, env)
        result = owsg_attack(candidate, env, challenge, params, trial_rng)
        p = candidate.exact_verify_prob(result.key, challenge, env)
        records.append(InversionTrial(k_star, result.key, p, p >= INVERSION_THRESHOLD))
    return records


# ---------------------------------------------------------------------------
# Money forgery


class ForgeAbort(RuntimeError):
    """No key matched the challenge's estimate column (step-4 abort)."""


@dataclass
class MoneyForgeParams:
    eta: float = 0.05
    epsilon_st: float = 0.1
    delta_st: float = 0.05
    copies_per_query: int = 1024  # reflection copies per level inside tau
    exact_estimators: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.eta < 0.1:
            raise ValueError("eta must lie in (0, 0.1) so 1 - 10*eta stays positive")


@dataclass
class MoneyForgeResult:
    outputs: list[StateVector]
    chosen_key: str
    b_v: tomography.EstimateTable
    b_vm: tomography.EstimateTable
    m_prime: int
    resources: ResourceState | None


#: Oracle instances whose exact values the forger keeps; lam=2 has three.
_FORGE_CACHE_INSTANCES = 4


def _exact_value_cache(scheme, token) -> dict:
    """Memo for exact accept probabilities, living on the scheme object.

    It holds the entries of the last ``_FORGE_CACHE_INSTANCES`` oracle
    instances, ``token`` (see ``_env_token``) naming one, so it stays
    bounded across trials and reuses an instance's values when a later
    trial draws it again.  Keys also carry the token and the copy count,
    so entries are only reused when they are genuinely the same exact
    quantity.  An oracle-free scheme has one token, so its entries persist
    across trials.
    """
    owner = scheme.scheme if isinstance(scheme, SchemeHandle) else scheme
    # setdefault, so that threads forging with one scheme share one cache.
    instances = owner.__dict__.setdefault(
        "_forge_cache", emulate.LruCache(_FORGE_CACHE_INSTANCES)
    )
    entries = instances.get(token)
    if entries is None:
        entries = {}
        instances.put(token, entries)
    return entries


def _env_token(scheme, env: ow.OracleEnv):
    return tuple((lam, env.spec(lam).members) for lam in scheme.query_levels)


def _compose_mint_verify(
    scheme: MoneyScheme, verify_key: str, mint_key: str
) -> tuple[ow.OracleAidedCircuit, int]:
    """One circuit that mints under `mint_key` and verifies under
    `verify_key` in place; returns it with the remapped accept qubit."""
    mint = scheme.mint(mint_key)
    ver = scheme.verify(verify_key)
    base = mint.circuit.num_qubits
    mapping: dict[int, int] = {}
    for i, q in enumerate(ver.input_qubits):
        mapping[q] = mint.output_qubits[i]
    extra = [q for q in range(ver.circuit.num_qubits) if q not in set(ver.input_qubits)]
    for j, q in enumerate(extra):
        mapping[q] = base + j
    gates = list(mint.circuit.gates)
    for g in ver.circuit.gates:
        remapped = tuple(mapping[t] for t in g.targets)
        if g.kind == "unitary":
            gates.append(ow.Gate("unitary", remapped, matrix=g.matrix, name=g.name))
        elif g.kind == "oracle":
            gates.append(ow.Gate.oracle(g.lam, remapped))
        else:
            raise ValueError("mint/verify must be deferred unitary circuits")
    circuit = ow.OracleAidedCircuit(base + len(extra), tuple(gates))
    return circuit, mapping[ver.accept_qubit]


def money_forge(
    scheme: SchemeHandle | MoneyScheme,
    env: ow.OracleEnv,
    challenges: Sequence[StateVector],
    params: MoneyForgeParams,
    rng: Rng,
) -> MoneyForgeResult:
    """Forge more verifying notes than were issued, querying only the
    subset oracle (never the challenger's verification oracle).

    Estimate the rewritten verifier family on the challenge note and the
    rewritten mint-then-verify family on the copy resources, pick the
    lexicographically first key whose columns agree within 5*mu*eta, and
    mint ceil(2m/(mu(1-10 eta))) fresh notes under it.  Raises
    ``ForgeAbort`` when no key agrees.
    """
    m = len(challenges)
    if m < 1:
        raise ValueError("need at least one challenge note")
    for c in challenges[1:]:
        if abs(qcore.overlap(challenges[0], c)) ** 2 < 1.0 - POLICY.prob_atol:
            raise ValueError("challenge copies must be identical states")
    mu, eta = scheme.mu, params.eta
    ell = params.copies_per_query
    levels = tuple(scheme.query_levels)
    resources = None
    if levels:
        resources = prepare_resources(
            env,
            levels,
            {lam: 3 * m * ell for lam in levels},
            GEN_KAPPA,
            rng,
        )

    token = _env_token(scheme, env)
    cache = _exact_value_cache(scheme, token)

    def verifier_element(key: str) -> tomography.AcceptProcedure:
        def accept(state: StateVector) -> float:
            ck = ("v", key, token, ell, state.amplitudes.tobytes())
            if ck not in cache:
                v = scheme.verify(key)
                proc = _accept_procedure(v.circuit, v.input_qubits, v.accept_qubit, env, ell)
                cache[ck] = proc.accept_probability(state)
            return cache[ck]

        return tomography.CallableAcceptProcedure(scheme.money_qubits, accept)

    def vm_element(pair: tuple[str, str]) -> tomography.AcceptProcedure:
        def accept(state: StateVector) -> float:
            ck = ("vm", pair, token, ell)
            if ck not in cache:
                circuit, acc = _compose_mint_verify(scheme, pair[0], pair[1])
                proc = _accept_procedure(circuit, (), acc, env, ell)
                cache[ck] = proc.accept_probability(state)
            return cache[ck]

        return tomography.CallableAcceptProcedure(0, accept)

    v_family = tomography.PovmFamily(scheme.keys, verifier_element, scheme.money_qubits)
    pair_keys = tuple((k, kp) for k in scheme.keys for kp in scheme.keys)
    vm_family = tomography.PovmFamily(pair_keys, vm_element, 0)

    b_v = tomography.shadow_tomography(
        v_family,
        challenges[0],
        params.epsilon_st,
        params.delta_st,
        rng,
        exact=params.exact_estimators,
    )
    b_vm = tomography.shadow_tomography(
        vm_family,
        qcore.zero_state(0),
        params.epsilon_st,
        params.delta_st,
        rng,
        exact=params.exact_estimators,
    )
    threshold = 5.0 * mu * eta
    for chosen in scheme.keys:
        if all(abs(b_v[k] - b_vm[(k, chosen)]) <= threshold for k in scheme.keys):
            break
    else:
        raise ForgeAbort("no key matched the challenge's estimate column")
    m_prime = math.ceil(2.0 * m / (mu * (1.0 - 10.0 * eta)))
    outputs = [scheme.mint_state(chosen, env) for _ in range(m_prime)]
    return MoneyForgeResult(outputs, chosen, b_v, b_vm, m_prime, resources)


# ---------------------------------------------------------------------------
# The forgery game


class SchemeHandle:
    """What the forger is handed: the scheme's public circuits and real
    minting, plus the challenger's verification oracle behind a counter.

    The statistical forger never calls ``verify_oracle``; the counter
    proves it per run.
    """

    def __init__(self, scheme: MoneyScheme, env: ow.OracleEnv, secret_key: str):
        self.scheme = scheme
        self._env = env
        self._secret_key = secret_key
        self.verify_oracle_queries = 0

    def __getattr__(self, name: str):
        return getattr(self.scheme, name)

    def verify_oracle(self, state: StateVector, rng: Rng) -> int:
        """The challenger's verification oracle (counts every call)."""
        self.verify_oracle_queries += 1
        p = self.scheme.exact_verify_prob(self._secret_key, state, self._env)
        return rng.bernoulli(p)


Attacker = Callable[[SchemeHandle, ow.OracleEnv, Sequence[StateVector], Rng], Sequence[StateVector]]


@dataclass
class ForgeryTrial:
    key_star: str
    outputs: int
    accepts: int
    success: bool
    aborted: bool
    attacker_verify_queries: int


@dataclass
class ForgeryGameResult:
    trials: list[ForgeryTrial]

    @property
    def success_rate(self) -> float:
        return sum(t.success for t in self.trials) / len(self.trials)

    @property
    def abort_rate(self) -> float:
        return sum(t.aborted for t in self.trials) / len(self.trials)

    @property
    def max_attacker_verify_queries(self) -> int:
        return max(t.attacker_verify_queries for t in self.trials)


def forgery_game(
    scheme: MoneyScheme,
    attacker: Attacker,
    m: int,
    trials: int,
    rng: Rng,
) -> ForgeryGameResult:
    """Run the unforgeability game: mint m notes, hand them (and the
    counted verification oracle) to the attacker, then verify every output
    register sequentially (register-ascending) and score success when more
    than m of them accept."""
    records: list[ForgeryTrial] = []
    for i in range(trials):
        trial_rng = rng.child(i)
        env = ow.OracleEnv(
            {lam: ow.sample_subset(lam, trial_rng) for lam in scheme.query_levels}
        )
        k_star = scheme.keygen(trial_rng)
        challenges = [scheme.mint_state(k_star, env) for _ in range(m)]
        handle = SchemeHandle(scheme, env, k_star)
        aborted = False
        try:
            outputs = list(attacker(handle, env, challenges, trial_rng))
        except ForgeAbort:
            outputs = []
            aborted = True
        attack_queries = handle.verify_oracle_queries
        accepts = 0
        for out in outputs:
            p = scheme.exact_verify_prob(k_star, out, env)
            accepts += trial_rng.bernoulli(p)
        records.append(
            ForgeryTrial(
                key_star=k_star,
                outputs=len(outputs),
                accepts=accepts,
                success=accepts >= m + 1,
                aborted=aborted,
                attacker_verify_queries=attack_queries,
            )
        )
    return ForgeryGameResult(records)
