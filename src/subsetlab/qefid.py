"""The subset-sampler distribution pair and the statistics around it.

``sample_d0`` queries the oracle once with |1>|0^lam> and measures the
second register, yielding a uniform member of the hidden subset;
``sample_d1`` outputs a uniform lam-bit string.  The two are statistically
far (exactly 1 - 2^(-lam/2)) yet hard to tell apart without the oracle.

Also here: the exact positive gap of the gap-squaring transform, which
turns any distinguisher with absolute gap delta into one with *positive*
gap delta^2, and the exact / Monte-Carlo trace-distance experiment for
mixtures of subset states alongside the copy-aided distinguisher catalog
checked against its bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from . import oracleworld as ow
from . import qcore
from .qcore import POLICY, CapacityError, Rng
from .oracleworld import OracleEnv, SubsetSpec

__all__ = [
    "Distinguisher",
    "sample_d0",
    "sample_d1",
    "d0_circuit",
    "exact_sd",
    "closed_form_sd",
    "exact_distinguisher_gap",
    "exact_yao_positive_gap",
    "membership_distinguisher",
    "statistical_lemma_bound",
    "statistical_lemma_experiment",
    "copy_distinguisher_catalog",
    "copy_advantage_experiment",
]


# ---------------------------------------------------------------------------
# The sampler pair


def d0_circuit(lam: int) -> ow.OracleAidedCircuit:
    """|1>|0^lam>, one oracle query, measure the second register."""
    gates = (
        ow.Gate.unitary("X", [0]),
        ow.Gate.oracle(lam, list(range(lam + 1))),
        ow.Gate.measure(list(range(1, lam + 1)), "s"),
    )
    return ow.OracleAidedCircuit(lam + 1, gates)


def sample_d0(env: OracleEnv, lam: int, rng: Rng) -> str:
    """One subset sample; uses exactly one oracle query."""
    circuit = d0_circuit(lam)
    result = ow.run_circuit(circuit, env, qcore.zero_state(lam + 1), rng)
    return "".join(str(b) for b in result.record["s"])


def sample_d1(lam: int, rng: Rng) -> str:
    """One uniform lam-bit string; zero oracle queries."""
    return format(rng.integers(0, 1 << lam), f"0{lam}b")


def closed_form_sd(lam: int) -> float:
    return 1.0 - 2.0 ** (-lam / 2)


def exact_sd(spec: SubsetSpec) -> float:
    """SD(uniform over S, uniform over {0,1}^lam) by exact enumeration."""
    dim = 1 << spec.lam
    p0 = np.zeros(dim)
    p0[list(spec.members)] = 1.0 / spec.size
    p1 = np.full(dim, 1.0 / dim)
    value = float(0.5 * np.abs(p0 - p1).sum())
    closed = closed_form_sd(spec.lam)
    if abs(value - closed) > POLICY.closed_form_atol:
        raise AssertionError(
            f"enumerated SD {value} deviates from closed form {closed}"
        )
    return value


# ---------------------------------------------------------------------------
# Distinguishers and the gap-squaring transform


@dataclass
class Distinguisher:
    """A (possibly randomized) challenge -> bit procedure.

    ``decide(challenge, rng)`` returns a bit.  When the per-challenge accept
    probability is exactly computable, ``accept_prob(challenge)`` exposes it
    so gaps can be evaluated without sampling.
    """

    name: str
    decide: Callable[[str, Rng], int]
    accept_prob: Callable[[str], float] | None = None

    def exact(self) -> bool:
        return self.accept_prob is not None


def membership_distinguisher(spec: SubsetSpec) -> Distinguisher:
    """Accepts exactly the members of S (unbounded-harness distinguisher)."""
    members = {format(m, f"0{spec.lam}b") for m in spec.members}

    def decide(challenge: str, rng: Rng) -> int:
        return int(challenge in members)

    return Distinguisher(
        name="membership",
        decide=decide,
        accept_prob=lambda challenge: float(challenge in members),
    )


def exact_distinguisher_gap(
    d: Distinguisher, spec: SubsetSpec
) -> tuple[float, float, float]:
    """(accept on D0, accept on D1, absolute gap), all exact.

    Enumerates the challenge space, so it needs ``d.accept_prob``.
    """
    if not d.exact():
        raise ValueError("distinguisher does not expose exact accept probabilities")
    lam = spec.lam
    strings = [format(x, f"0{lam}b") for x in range(1 << lam)]
    probs = np.array([d.accept_prob(s) for s in strings])
    members = np.zeros(1 << lam, dtype=bool)
    members[list(spec.members)] = True
    a0 = float(probs[members].mean())
    a1 = float(probs.mean())
    return a0, a1, abs(a0 - a1)


def exact_yao_positive_gap(a: Distinguisher, spec: SubsetSpec) -> float:
    """Exact positive gap of the transformed distinguisher for one oracle
    instance, computed branch by branch over (coin, fresh sample, challenge).
    """
    if not a.exact():
        raise ValueError("exact gap needs a distinguisher with exact accept probabilities")
    a0, a1, _ = exact_distinguisher_gap(a, spec)
    lam = spec.lam
    strings = [format(x, f"0{lam}b") for x in range(1 << lam)]
    probs = np.array([a.accept_prob(s) for s in strings])
    members = np.zeros(1 << lam, dtype=bool)
    members[list(spec.members)] = True

    def b_accept(p_e: np.ndarray) -> np.ndarray:
        # c=0: x' ~ D1, output d^e; c=1: x' ~ D0, output 1^d^e.
        pr_c0 = a1 * (1 - p_e) + (1 - a1) * p_e
        pr_c1 = 1.0 - (a0 * (1 - p_e) + (1 - a0) * p_e)
        return 0.5 * (pr_c0 + pr_c1)

    b_on_all = b_accept(probs)
    b0 = float(b_on_all[members].mean())
    b1 = float(b_on_all.mean())
    return b0 - b1


# ---------------------------------------------------------------------------
# Trace-distance experiment for subset-state mixtures


def statistical_lemma_bound(lam: int, t: int) -> float:
    return 2.0 ** (-lam / 2 + 1) + math.sqrt(t * 2.0 ** (-lam / 2))


def _s_minus_vector(lam: int, members: Sequence[int]) -> np.ndarray:
    dim = 1 << lam
    v = np.zeros(dim)
    v[list(members)] = 1.0 / math.sqrt(len(members))
    v[0] -= 1.0
    return v / math.sqrt(2.0)


def _kron_power(v: np.ndarray, t: int) -> np.ndarray:
    """v (x) v (x) ... (x) v, t factors."""
    out = v
    for _ in range(t - 1):
        out = np.kron(out, v)
    return out


@dataclass
class LemmaExperimentResult:
    lam: int
    t: int
    mode: str
    td: float
    bound: float


def statistical_lemma_experiment(
    lam: int,
    t: int,
    mode: str = "exact",
    rng: Rng | None = None,
    count: int = 2000,
) -> LemmaExperimentResult:
    """Trace distance between {|S->^t (x) |s>} and {|W->^t (x) |u>}.

    The sample `s` within each subset is averaged analytically; both
    mixtures are block-diagonal over the classical register, so the
    distance is a sum of per-block eigenvalue sums.  Exact mode runs the
    dense sampled path with every subset once on each side.  Sampled mode
    draws `count` instances per side and computes the trace distance of the
    two empirical mixtures, through the Gram matrix of the sampled pure
    states (closed-form inner products, no state vectors) when the copy
    register is large.
    """
    bound = statistical_lemma_bound(lam, t)
    if mode == "exact":
        if lam > 4 or t > 2:
            raise CapacityError("exact mode is limited to lam <= 4, t <= 2")
        td = _exact_lemma_td(lam, t)
        return LemmaExperimentResult(lam, t, "exact", td, bound)
    if mode == "sampled":
        if lam > 8 or t > 2:
            raise CapacityError("sampled mode is limited to lam <= 8, t <= 2")
        if rng is None:
            raise ValueError("sampled mode needs an rng")
        td = _sampled_lemma_td(lam, t, count, rng)
        return LemmaExperimentResult(lam, t, "sampled", td, bound)
    raise ValueError(f"unknown mode {mode!r}")


def _exact_lemma_td(lam: int, t: int) -> float:
    # Every subset once on each side makes the sampled mixtures the exact ones.
    subsets = np.array(list(combinations(range(1, 1 << lam), 1 << (lam // 2))))
    masks = np.zeros((len(subsets), 1 << lam), dtype=bool)
    np.put_along_axis(masks, subsets, True, axis=1)
    return _sampled_td_dense(lam, t, masks, masks)


def _sampled_lemma_td(lam: int, t: int, count: int, rng: Rng) -> float:
    """Trace distance between the two Monte-Carlo mixtures.

    Only the subsets are sampled; within each sampled term the challenge
    register is folded analytically (uniform over the subset's members on
    one side, maximally mixed on the other), mirroring the exact mode.
    Both mixtures stay block-diagonal over the challenge register, and the
    copy-register blocks are handled spectrally: densely while the
    dim x copy_dim x copy_dim blocks fit ``POLICY.max_engine_entries``,
    otherwise through count x count Gram matrices of the sampled subset
    states, whose pairwise inner products have the closed form
    <S-|W-> = (|S^W|/|S| + 1)/2.  An oversized Gram path raises
    ``CapacityError`` before any subset is drawn.
    """
    size = 1 << (lam // 2)
    dim = 1 << lam
    dense = dim * dim ** (2 * t) <= POLICY.max_engine_entries
    if not dense and count * count > POLICY.max_engine_entries:
        raise CapacityError(
            f"count={count} needs {count}^2-entry Gram matrices, over the "
            f"{POLICY.max_engine_entries}-entry cap"
        )
    masks0 = np.zeros((count, dim), dtype=bool)
    masks1 = np.zeros((count, dim), dtype=bool)
    for i in range(count):
        masks0[i, rng.choice_no_replace(dim - 1, size) + 1] = True
    for i in range(count):
        masks1[i, rng.choice_no_replace(dim - 1, size) + 1] = True
    if dense:
        return _sampled_td_dense(lam, t, masks0, masks1)
    return _sampled_td_gram(lam, t, masks0, masks1)


def _sampled_td_dense(lam: int, t: int, masks0: np.ndarray, masks1: np.ndarray) -> float:
    dim = 1 << lam
    size = 1 << (lam // 2)
    count = masks0.shape[0]
    copy_dim = dim**t
    blocks0 = np.zeros((dim, copy_dim, copy_dim))
    avg1 = np.zeros((copy_dim, copy_dim))
    for i in range(count):
        members = np.flatnonzero(masks0[i])
        vt = _kron_power(_s_minus_vector(lam, members), t)
        outer = np.outer(vt, vt)
        for s in members:
            blocks0[s] += outer / size
        wt = _kron_power(_s_minus_vector(lam, np.flatnonzero(masks1[i])), t)
        avg1 += np.outer(wt, wt)
    blocks0 /= count
    avg1 /= count
    total = 0.0
    for s in range(dim):
        eigs = np.linalg.eigvalsh(blocks0[s] - avg1 / dim)
        total += float(np.abs(eigs).sum())
    return 0.5 * total


def _sampled_td_gram(lam: int, t: int, masks0: np.ndarray, masks1: np.ndarray) -> float:
    dim = 1 << lam
    size = 1 << (lam // 2)
    count = masks0.shape[0]

    def pair_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        inter = a.astype(np.float64) @ b.astype(np.float64).T
        return (((inter / size) + 1.0) / 2.0) ** t

    g_vv = pair_gram(masks0, masks0)
    g_vw = pair_gram(masks0, masks1)
    g_ww = pair_gram(masks1, masks1)
    # Orthonormal basis of the sampled uniform-side span (shared by every
    # challenge block): eigen-decompose its Gram once.
    gamma, p = np.linalg.eigh(g_ww)
    keep = gamma > 1e-12 * gamma.max()
    gamma, p = gamma[keep], p[:, keep]
    scale = p / np.sqrt(gamma)
    mu = gamma / (count * dim)  # uniform-side block eigenvalues
    coords_vw = scale.T @ g_vw.T  # rank x count: <u_r | v_i>
    weight_v = 1.0 / (count * size)
    total = 0.0
    tol = 1e-12
    for s in range(dim):
        idx = np.flatnonzero(masks0[:, s])
        if idx.size == 0:
            total += float(mu.sum())
            continue
        cu = coords_vw[:, idx]  # coords of contributing v's on the u basis
        res = g_vv[np.ix_(idx, idx)] - cu.T @ cu
        res = (res + res.T) / 2
        rg, rp = np.linalg.eigh(res)
        rkeep = rg > tol * max(rg.max(), 1.0)
        rscale = rp[:, rkeep] / np.sqrt(rg[rkeep])
        # Residual coordinates: each kept direction is a combination of
        # the contributing v's orthogonal to the u basis.
        cq = rscale.T @ res  # n_res x n_v ... need coords of v on q dirs
        # coords of v_i on q_r: q_r = sum_i rscale[i,r] (v_i - proj_u v_i)
        # => <q_r|v_i> = rscale[:,r]^T res[:, i]
        full = np.vstack([cu, cq])
        delta = (full * weight_v) @ full.T
        delta[: mu.size, : mu.size] -= np.diag(mu)
        eigs = np.linalg.eigvalsh((delta + delta.T) / 2)
        total += float(np.abs(eigs).sum())
    return 0.5 * total


# ---------------------------------------------------------------------------
# Copy-aided distinguisher catalog


@dataclass
class CopyWorldView:
    """What a copy-aided distinguisher may touch in one trial.

    ``measure_copy()`` consumes one fresh copy of |S-> measured in the
    computational basis (outcome 0^lam with weight 1/2, otherwise uniform
    over the subset); ``swap_test_copy(x)`` consumes one fresh copy in a
    swap test against the basis state |x>.  Closed-form Born weights; the
    subset itself stays hidden.
    """

    lam: int
    members: tuple[int, ...]
    rng: Rng
    copies_left: int

    def _consume(self) -> None:
        if self.copies_left <= 0:
            raise ValueError("copy budget exhausted")
        self.copies_left -= 1

    def measure_copy(self) -> int:
        self._consume()
        if self.rng.bit():
            return 0
        return int(self.members[self.rng.integers(0, len(self.members))])

    def swap_test_copy(self, x: int) -> int:
        self._consume()
        size = len(self.members)
        if x == 0:
            ov = 0.5
        elif x in set(self.members):
            ov = 1.0 / (2 * size)
        else:
            ov = 0.0
        return self.rng.bernoulli(0.5 * (1.0 + ov))


@dataclass
class CopyDistinguisher:
    name: str
    decide: Callable[[str, CopyWorldView], int]


def copy_distinguisher_catalog(t: int) -> list[CopyDistinguisher]:
    """Concrete attackers that get only t copies of |S-> and the challenge."""

    def collision(challenge: str, view: CopyWorldView) -> int:
        x = int(challenge, 2)
        for _ in range(t):
            if view.measure_copy() == x and x != 0:
                return 1
        return 0

    def no_collision(challenge: str, view: CopyWorldView) -> int:
        return 1 - collision(challenge, view)

    def swap_tester(challenge: str, view: CopyWorldView) -> int:
        return view.swap_test_copy(int(challenge, 2))

    catalog = [
        CopyDistinguisher("collision", collision),
        CopyDistinguisher("no-collision", no_collision),
    ]
    if t >= 1:
        catalog.append(CopyDistinguisher("swap-test", swap_tester))
    return catalog


def copy_advantage_experiment(
    d: CopyDistinguisher, lam: int, t: int, trials: int, rng: Rng
) -> float:
    """Empirical |Pr[1 | subset world] - Pr[1 | uniform world]| with a fresh
    subset per trial (the mixture the trace-distance bound talks about)."""
    dim = 1 << lam
    size = 1 << (lam // 2)
    hits = [0, 0]
    for i in range(trials):
        trial_rng = rng.child(i)
        members = tuple(int(v) for v in trial_rng.choice_no_replace(dim - 1, size) + 1)
        for world in (0, 1):
            if world == 0:
                challenge = members[trial_rng.integers(0, size)]
            else:
                challenge = trial_rng.integers(0, dim)
            view = CopyWorldView(lam, members, trial_rng, t)
            hits[world] += d.decide(format(challenge, f"0{lam}b"), view)
    return abs(hits[0] - hits[1]) / trials
