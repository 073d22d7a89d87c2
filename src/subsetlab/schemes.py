"""Built-in scheme candidates the attacks run against.

Key-recovery targets (keyed state generators with an efficient verifier):

* ``wiesner_owsg``      -- conjugate-coding states, basis-measure verify,
                           no oracle use;
* ``swap_test_owsg``    -- generic construction from any keyed pure-state
                           family: generate several copies, verify by
                           regenerating and swap-testing each copy;
* ``oracle_echo_owsg``  -- generates |k> and verifies by swap test, but
                           fires two cancelling oracle queries first; it
                           exists to exercise the query-rewriting path
                           with q = 2 while keeping correctness exactly 1.

Forgery targets (private-key money schemes):

* ``wiesner_money``     -- conjugate-coding banknotes, mu = 1, no oracle;
* ``subset_pair_money`` -- banknote |k> (x) |S->, verified by a
                           computational check of the key half and a swap
                           test of the state half against a freshly
                           prepared |S->; mint and verify each query the
                           oracle once, and mu = 1 because the |S->
                           preparation here is deterministic (one query,
                           one controlled reflection about 0^lam, no
                           postselection).

Both kinds share one way to run their circuits: a preparation runs from
|0...0> through ``oracleworld.evolve``, and a verifier's exact accept
probability comes from ``tomography.CircuitAcceptProcedure``.  Schemes
whose circuits use only named gates are saved to and loaded from a
directory of circuit text files plus one JSON manifest whose ``kind``
says which of the two it holds; see :func:`save_scheme` /
:func:`load_scheme`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from typing import Callable, Sequence

from . import oracleworld as ow
from . import qcore, tomography
from .qcore import POLICY, Rng, StateVector
from .oracleworld import Gate, OracleAidedCircuit, OracleEnv

__all__ = [
    "PreparedCircuit",
    "VerifierCircuit",
    "OwsgCandidate",
    "MoneyScheme",
    "StateFamily",
    "wiesner_owsg",
    "swap_test_owsg",
    "oracle_echo_owsg",
    "wiesner_money",
    "subset_pair_money",
    "all_bitstrings",
    "swap_test_gates",
    "s_minus_prep_gates",
    "save_scheme",
    "load_scheme",
]


def all_bitstrings(width: int) -> tuple[str, ...]:
    return tuple(format(i, f"0{width}b") for i in range(1 << width))


@dataclass(frozen=True)
class PreparedCircuit:
    """A preparation circuit together with the qubits that carry its output."""

    circuit: OracleAidedCircuit
    output_qubits: tuple[int, ...]

    def state(self, env: OracleEnv | None, *, count: bool) -> StateVector:
        """Run the circuit from |0...0> and return the output qubits' state."""
        start = qcore.zero_state(self.circuit.num_qubits)
        full = ow.evolve(start, ow.unitary_prefix(self.circuit), env, count=count)
        return qcore.extract_pure(full, self.output_qubits)


@dataclass(frozen=True)
class VerifierCircuit:
    """A deferred accept/reject circuit: challenge in, accept qubit out."""

    circuit: OracleAidedCircuit
    input_qubits: tuple[int, ...]
    accept_qubit: int

    def accept_probability(self, state: StateVector, env: OracleEnv | None) -> float:
        """Exact accept probability on `state` (oracle queries uncharged)."""
        proc = tomography.CircuitAcceptProcedure(
            self.circuit, self.input_qubits, self.accept_qubit, env
        )
        return proc.accept_probability(state)


def swap_test_gates(
    ancilla: int, pairs: Sequence[tuple[int, int]]
) -> list[Gate]:
    """Swap test over register pairs sharing one ancilla; the ancilla ends
    at 1 on accept."""
    gates = [Gate.unitary("H", [ancilla])]
    gates += [Gate.unitary("CSWAP", [ancilla, a, b]) for a, b in pairs]
    gates += [Gate.unitary("H", [ancilla]), Gate.unitary("X", [ancilla])]
    return gates


def s_minus_prep_gates(control: int, block: Sequence[int], lam: int) -> list[Gate]:
    """Deterministically place |S_lam -> on `block` with one oracle query.

    |-> on the control, one controlled reflection (the oracle), a Hadamard,
    a controlled reflection about 0^lam, and a final Hadamard merge the two
    branches into a product; the control returns to |0> exactly.
    """
    targets = [control, *block]
    return [
        Gate.unitary("X", [control]),
        Gate.unitary("H", [control]),
        Gate.oracle(lam, targets),
        Gate.unitary("H", [control]),
        Gate.unitary("CREFL0", targets),
        Gate.unitary("H", [control]),
        Gate.unitary("X", [control]),
    ]


# ---------------------------------------------------------------------------
# Key-recovery candidates


@dataclass
class OwsgCandidate:
    """A keyed state generator plus verifier, expressed as circuits.

    ``gen(k)`` prepares the keyed state from |0...0>; ``verify(k)`` is a
    deferred circuit accepting (with its accept qubit) the keyed state.
    ``query_bound`` bounds the oracle queries made by one verify run.
    """

    name: str
    kappa: int
    keys: tuple[str, ...]
    gen: Callable[[str], PreparedCircuit]
    verify: Callable[[str], VerifierCircuit]
    query_bound: int
    query_levels: tuple[int, ...]
    correctness_slack: float = 0.0

    def generate_state(self, key: str, env: OracleEnv | None, count: bool = True) -> StateVector:
        return self.gen(key).state(env, count=count)

    def exact_verify_prob(self, key: str, state: StateVector, env: OracleEnv | None) -> float:
        return self.verify(key).accept_probability(state, env)

    def check_correctness(self, env: OracleEnv | None) -> float:
        """Exact min over keys of Pr[verify(k, gen(k)) accepts]; must clear
        1 - correctness_slack.  Run once at registration."""
        worst = 1.0
        for k in self.keys:
            p = self.exact_verify_prob(k, self.generate_state(k, env, count=False), env)
            worst = min(worst, p)
        if worst < 1.0 - self.correctness_slack - POLICY.prob_atol:
            raise AssertionError(
                f"{self.name}: correctness {worst} below declared 1 - {self.correctness_slack}"
            )
        return worst


def wiesner_owsg(n: int) -> OwsgCandidate:
    """Conjugate-coding states over n qubits; key = payload || basis."""
    kappa = 2 * n

    def gen(key: str) -> PreparedCircuit:
        x, theta = key[:n], key[n:]
        gates = [Gate.unitary("X", [i]) for i in range(n) if x[i] == "1"]
        gates += [Gate.unitary("H", [i]) for i in range(n) if theta[i] == "1"]
        return PreparedCircuit(OracleAidedCircuit(n, tuple(gates)), tuple(range(n)))

    def verify(key: str) -> VerifierCircuit:
        x, theta = key[:n], key[n:]
        accept = n
        gates = [Gate.unitary("H", [i]) for i in range(n) if theta[i] == "1"]
        gates += [Gate.unitary("X", [i]) for i in range(n) if x[i] == "0"]
        gates.append(Gate.unitary("MCX", list(range(n)) + [accept]))
        circuit = OracleAidedCircuit(n + 1, tuple(gates))
        return VerifierCircuit(circuit, tuple(range(n)), accept)

    return OwsgCandidate(
        name=f"wiesner-owsg-{n}",
        kappa=kappa,
        keys=all_bitstrings(kappa),
        gen=gen,
        verify=verify,
        query_bound=0,
        query_levels=(),
    )


@dataclass(frozen=True)
class StateFamily:
    """A keyed family of pure states given by preparation gate lists."""

    name: str
    keys: tuple[str, ...]
    num_qubits: int
    prep_gates: Callable[[str, int], list[Gate]]  # (key, qubit offset)
    query_bound: int = 0
    query_levels: tuple[int, ...] = ()


def swap_test_owsg(family: StateFamily, reps: int) -> OwsgCandidate:
    """Generic candidate from a state family: generate `reps` copies,
    verify by regenerating and swap-testing copy by copy.

    Exact correctness is 1: each test accepts equal pure states with
    probability (1 + 1)/2 = 1, and the tests are independent.
    """
    nq = family.num_qubits

    def gen(key: str) -> PreparedCircuit:
        gates: list[Gate] = []
        for r in range(reps):
            gates.extend(family.prep_gates(key, r * nq))
        circuit = OracleAidedCircuit(reps * nq, tuple(gates))
        return PreparedCircuit(circuit, tuple(range(reps * nq)))

    def verify(key: str) -> VerifierCircuit:
        width = 2 * reps * nq + reps + 1
        regen_base = reps * nq
        anc_base = 2 * reps * nq
        accept = width - 1
        gates: list[Gate] = []
        for r in range(reps):
            gates.extend(family.prep_gates(key, regen_base + r * nq))
        for r in range(reps):
            pairs = [(r * nq + j, regen_base + r * nq + j) for j in range(nq)]
            gates.extend(swap_test_gates(anc_base + r, pairs))
        gates.append(Gate.unitary("MCX", list(range(anc_base, anc_base + reps)) + [accept]))
        circuit = OracleAidedCircuit(width, tuple(gates))
        return VerifierCircuit(circuit, tuple(range(reps * nq)), accept)

    return OwsgCandidate(
        name=f"swap-test-owsg({family.name})x{reps}",
        kappa=len(family.keys[0]),
        keys=family.keys,
        gen=gen,
        verify=verify,
        query_bound=reps * family.query_bound,
        query_levels=family.query_levels,
    )


def oracle_echo_owsg(kappa: int, lam: int) -> OwsgCandidate:
    """G(k) = |k>; verify swap-tests against |k> after two cancelling
    oracle queries on a |1>|0^lam> ancilla block.  q = 2, correctness 1."""

    def gen(key: str) -> PreparedCircuit:
        gates = [Gate.unitary("X", [i]) for i in range(kappa) if key[i] == "1"]
        return PreparedCircuit(
            OracleAidedCircuit(kappa, tuple(gates)), tuple(range(kappa))
        )

    def verify(key: str) -> VerifierCircuit:
        echo = list(range(kappa, kappa + lam + 1))
        key_base = kappa + lam + 1
        anc = key_base + kappa
        width = anc + 1
        gates = [Gate.unitary("X", [echo[0]])]
        gates += [Gate.oracle(lam, echo), Gate.oracle(lam, echo)]
        gates += [
            Gate.unitary("X", [key_base + i]) for i in range(kappa) if key[i] == "1"
        ]
        gates += swap_test_gates(anc, [(i, key_base + i) for i in range(kappa)])
        circuit = OracleAidedCircuit(width, tuple(gates))
        return VerifierCircuit(circuit, tuple(range(kappa)), anc)

    return OwsgCandidate(
        name=f"oracle-echo-owsg-{kappa}",
        kappa=kappa,
        keys=all_bitstrings(kappa),
        gen=gen,
        verify=verify,
        query_bound=2,
        query_levels=(lam,),
    )


# ---------------------------------------------------------------------------
# Money schemes


@dataclass
class MoneyScheme:
    """A private-key money scheme as circuits: keygen, mint, verify."""

    name: str
    kappa: int
    keys: tuple[str, ...]
    mint: Callable[[str], PreparedCircuit]
    verify: Callable[[str], VerifierCircuit]
    mu: float
    money_qubits: int
    mint_query_bound: int
    verify_query_bound: int
    query_levels: tuple[int, ...]

    def keygen(self, rng: Rng) -> str:
        return self.keys[rng.integers(0, len(self.keys))]

    def mint_state(self, key: str, env: OracleEnv | None, count: bool = True) -> StateVector:
        return self.mint(key).state(env, count=count)

    def exact_verify_prob(self, key: str, state: StateVector, env: OracleEnv | None) -> float:
        return self.verify(key).accept_probability(state, env)

    def check_correctness(self, env: OracleEnv | None) -> float:
        """Exact average over keys of Pr[verify(k, mint(k))]; must clear mu."""
        total = 0.0
        for k in self.keys:
            total += self.exact_verify_prob(k, self.mint_state(k, env, count=False), env)
        avg = total / len(self.keys)
        if avg < self.mu - POLICY.prob_atol:
            raise AssertionError(f"{self.name}: correctness {avg} below mu={self.mu}")
        return avg


def wiesner_money(n: int) -> MoneyScheme:
    """Conjugate-coding banknotes on n qubits; mu = 1, no oracle use."""
    base = wiesner_owsg(n)

    def mint(key: str) -> PreparedCircuit:
        return base.gen(key)

    return MoneyScheme(
        name=f"wiesner-money-{n}",
        kappa=2 * n,
        keys=base.keys,
        mint=mint,
        verify=base.verify,
        mu=1.0,
        money_qubits=n,
        mint_query_bound=0,
        verify_query_bound=0,
        query_levels=(),
    )


def subset_pair_money(key_bits: int, lam: int) -> MoneyScheme:
    """Banknote |k> (x) |S_lam ->; verification checks the key half in the
    computational basis and swap-tests the state half against a freshly
    prepared |S_lam ->.  One oracle query in mint, one in verify; mu = 1.
    """
    money_qubits = key_bits + lam

    def mint(key: str) -> PreparedCircuit:
        ctrl = money_qubits
        gates = [Gate.unitary("X", [i]) for i in range(key_bits) if key[i] == "1"]
        gates += s_minus_prep_gates(ctrl, range(key_bits, money_qubits), lam)
        circuit = OracleAidedCircuit(money_qubits + 1, tuple(gates))
        return PreparedCircuit(circuit, tuple(range(money_qubits)))

    def verify(key: str) -> VerifierCircuit:
        fresh = list(range(money_qubits, money_qubits + lam))
        ctrl = money_qubits + lam
        swap_anc = ctrl + 1
        match_anc = ctrl + 2
        accept = ctrl + 3
        width = accept + 1
        gates = list(s_minus_prep_gates(ctrl, fresh, lam))
        gates += swap_test_gates(
            swap_anc, [(key_bits + j, fresh[j]) for j in range(lam)]
        )
        gates += [Gate.unitary("X", [i]) for i in range(key_bits) if key[i] == "0"]
        gates.append(Gate.unitary("MCX", list(range(key_bits)) + [match_anc]))
        gates.append(Gate.unitary("CCX", [match_anc, swap_anc, accept]))
        circuit = OracleAidedCircuit(width, tuple(gates))
        return VerifierCircuit(circuit, tuple(range(money_qubits)), accept)

    return MoneyScheme(
        name=f"subset-pair-money-{key_bits}-{lam}",
        kappa=key_bits,
        keys=all_bitstrings(key_bits),
        mint=mint,
        verify=verify,
        mu=1.0,
        money_qubits=money_qubits,
        mint_query_bound=1,
        verify_query_bound=1,
        query_levels=(lam,),
    )


# ---------------------------------------------------------------------------
# Disk format: one circuit text file per (role, key) plus a JSON manifest

#: Manifest ``kind`` -> (scheme class, name of its preparation role).
_SCHEME_KINDS = {"owsg": (OwsgCandidate, "gen"), "money": (MoneyScheme, "mint")}
MANIFEST = "scheme.json"


def save_scheme(scheme: OwsgCandidate | MoneyScheme, path: str) -> None:
    """Write the scheme as ``<role>-<key>.circ`` files plus ``scheme.json``.

    The manifest holds the scheme's ``kind``, its plain fields, and the
    qubit layout its circuits share across keys.  Only schemes built from
    named gates serialize.
    """
    kind = next(k for k, (cls, _) in _SCHEME_KINDS.items() if isinstance(scheme, cls))
    prep_role = _SCHEME_KINDS[kind][1]
    roles = {prep_role: getattr(scheme, prep_role), "verify": scheme.verify}
    os.makedirs(path, exist_ok=True)
    for role, build in roles.items():
        for key in scheme.keys:
            with open(os.path.join(path, f"{role}-{key}.circ"), "w") as fh:
                fh.write(ow.format_circuit(build(key).circuit))
    prep = roles[prep_role](scheme.keys[0])
    ver = scheme.verify(scheme.keys[0])
    manifest = {
        "kind": kind,
        "fields": {
            f.name: getattr(scheme, f.name)
            for f in fields(scheme)
            if f.name not in roles
        },
        "prep_output": list(prep.output_qubits),
        "verify_input": list(ver.input_qubits),
        "verify_accept": ver.accept_qubit,
    }
    with open(os.path.join(path, MANIFEST), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_scheme(path: str) -> OwsgCandidate | MoneyScheme:
    """Load a scheme written by :func:`save_scheme`.

    Raises ``ValueError`` when the manifest's ``kind`` is unknown.
    """
    with open(os.path.join(path, MANIFEST)) as fh:
        manifest = json.load(fh)
    kind = manifest.get("kind")
    if kind not in _SCHEME_KINDS:
        raise ValueError(f"unknown scheme kind {kind!r} in {MANIFEST}")
    cls, prep_role = _SCHEME_KINDS[kind]

    def circuit(role: str, key: str) -> OracleAidedCircuit:
        with open(os.path.join(path, f"{role}-{key}.circ")) as fh:
            return ow.parse_circuit(fh.read())

    prep_out = tuple(manifest["prep_output"])
    ver_in = tuple(manifest["verify_input"])
    accept = manifest["verify_accept"]
    plain = {
        k: tuple(v) if isinstance(v, list) else v for k, v in manifest["fields"].items()
    }
    return cls(
        **plain,
        **{prep_role: lambda k: PreparedCircuit(circuit(prep_role, k), prep_out)},
        verify=lambda k: VerifierCircuit(circuit("verify", k), ver_in, accept),
    )
