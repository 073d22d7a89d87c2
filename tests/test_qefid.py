"""Sampler pair, exact distances, the gap-squaring transform, and the
copy-mixture trace-distance experiment."""

import math

import pytest

from subsetlab import qefid
from subsetlab import oracleworld as ow
from subsetlab.qcore import CapacityError, Rng
from subsetlab.oracleworld import OracleEnv, SubsetSpec, sample_subset

from reference import mix, statistical_distance, trace_distance, yao_transform

# Exact mixture trace distances, frozen after computing them with this
# module's block method and cross-checking against a dense density-matrix
# construction (see test_exact_lemma_matches_dense_construction).
TD_LAM2_T1 = 0.375
TD_LAM4_T1 = 0.2571400581993076
TD_LAM2_T2 = 0.43078372937481546
TD_LAM4_T2 = 0.37853720187151996
# Monte-Carlo regression values at fixed seeds (subset sampling only; the
# challenge register is folded analytically).
TD_SAMPLED_8_1 = 0.39584080051966625
TD_SAMPLED_8_2_COUNT500 = 0.7795427973000011


@pytest.fixture
def env2():
    return OracleEnv([SubsetSpec(2, (0b01, 0b10))])


def test_sample_d0_support_and_counter(env2):
    members = set(env2.spec(2).member_strings())
    before = env2.query_count(2)
    for i in range(200):
        assert qefid.sample_d0(env2, 2, Rng(0).child(i)) in members
    assert env2.query_count(2) == before + 200


def test_sample_d0_uniform_over_members(env2):
    n = 4000
    hits = sum(
        qefid.sample_d0(env2, 2, Rng(1).child(i)) == "01" for i in range(n)
    )
    assert abs(hits / n - 0.5) <= 3 * math.sqrt(0.25 / n)


def test_sample_d1_uniform_and_query_free(env2):
    n = 8000
    counts = {}
    for i in range(n):
        s = qefid.sample_d1(2, Rng(2).child(i))
        counts[s] = counts.get(s, 0) + 1
    assert set(counts) == {"00", "01", "10", "11"}
    sigma = 3 * math.sqrt(0.25 * 0.75 / n)
    for c in counts.values():
        assert abs(c / n - 0.25) <= sigma
    assert env2.query_count(2) == 0
    ones = sum(int(qefid.sample_d1(1, Rng(3).child(i))) for i in range(n))
    assert abs(ones / n - 0.5) <= 3 * math.sqrt(0.25 / n)


@pytest.mark.parametrize(
    "lam,expected", [(2, 0.5), (4, 0.75), (6, 0.875)]
)
def test_exact_sd_closed_form(lam, expected):
    spec = sample_subset(lam, Rng(lam))
    assert qefid.exact_sd(spec) == pytest.approx(expected, abs=1e-12)


def test_exact_sd_against_independent_enumeration():
    # Independent route through the generic L1 helper.
    spec = sample_subset(4, Rng(11))
    p0 = {s: 1 / spec.size for s in spec.member_strings()}
    p1 = {format(x, "04b"): 1 / 16 for x in range(16)}
    assert qefid.exact_sd(spec) == pytest.approx(
        statistical_distance(p0, p1), abs=1e-12
    )


def test_membership_distinguisher_gap_is_sd():
    for lam in (2, 4):
        spec = sample_subset(lam, Rng(lam + 20))
        d = qefid.membership_distinguisher(spec)
        a0, a1, gap = qefid.exact_distinguisher_gap(d, spec)
        assert a0 == pytest.approx(1.0)
        assert gap == pytest.approx(qefid.exact_sd(spec), abs=1e-12)


def test_yao_identity_for_membership_lam4():
    spec = sample_subset(4, Rng(30))
    d = qefid.membership_distinguisher(spec)
    _, _, gap = qefid.exact_distinguisher_gap(d, spec)
    assert gap == pytest.approx(0.75, abs=1e-12)
    positive = qefid.exact_yao_positive_gap(d, spec)
    assert positive == pytest.approx(0.5625, abs=1e-9)


def test_yao_identity_pointwise_for_random_accept_tables():
    # The squared-gap identity is exact for any accept-probability table,
    # not just deterministic distinguishers.
    spec = sample_subset(2, Rng(31))
    for seed in range(5):
        probs = Rng(seed).generator.random(4)
        d = qefid.Distinguisher(
            name="table",
            decide=lambda s, rng: rng.bernoulli(probs[int(s, 2)]),
            accept_prob=lambda s: float(probs[int(s, 2)]),
        )
        _, _, gap = qefid.exact_distinguisher_gap(d, spec)
        assert qefid.exact_yao_positive_gap(d, spec) == pytest.approx(
            gap**2, abs=1e-9
        )


def test_yao_transform_empirical_matches_exact(env2):
    spec = env2.spec(2)
    member = qefid.membership_distinguisher(spec)
    transformed = yao_transform(
        member,
        sampler0=lambda rng: qefid.sample_d0(env2, 2, rng),
        sampler1=lambda rng: qefid.sample_d1(2, rng),
    )
    exact_gap = qefid.exact_yao_positive_gap(member, spec)
    n = 4000
    hits = [0, 0]
    for i in range(n):
        rng = Rng(40).child(i)
        x0 = qefid.sample_d0(env2, 2, rng)
        hits[0] += transformed.decide(x0, rng)
        x1 = qefid.sample_d1(2, rng)
        hits[1] += transformed.decide(x1, rng)
    empirical = (hits[0] - hits[1]) / n
    assert abs(empirical - exact_gap) <= 3 * math.sqrt(0.5 / n)


def test_yao_constant_distinguisher_has_zero_gap():
    spec = sample_subset(2, Rng(41))
    const = qefid.Distinguisher("zero", lambda s, rng: 0, lambda s: 0.0)
    assert qefid.exact_yao_positive_gap(const, spec) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Mixture trace-distance experiment


def test_exact_lemma_regression_constants():
    assert qefid.statistical_lemma_experiment(2, 1).td == pytest.approx(
        TD_LAM2_T1, abs=1e-12
    )
    assert qefid.statistical_lemma_experiment(4, 1).td == pytest.approx(
        TD_LAM4_T1, abs=1e-10
    )
    assert qefid.statistical_lemma_experiment(2, 2).td == pytest.approx(
        TD_LAM2_T2, abs=1e-10
    )
    assert qefid.statistical_lemma_experiment(4, 2).td == pytest.approx(
        TD_LAM4_T2, abs=1e-10
    )


def test_exact_lemma_below_bound():
    for lam, t in ((2, 1), (4, 1), (2, 2)):
        res = qefid.statistical_lemma_experiment(lam, t)
        assert res.td <= min(1.0, res.bound) + 1e-9


def test_exact_lemma_matches_dense_construction():
    # Independent oracle: assemble both mixtures as explicit density
    # matrices over (copies, challenge) and take the exact trace distance.
    from itertools import combinations

    from subsetlab import qcore

    lam, t = 2, 1
    dim = 1 << lam
    size = 1 << (lam // 2)
    subsets = list(combinations(range(1, dim), size))
    w = 1.0 / len(subsets)
    parts0, parts1 = [], []
    for members in subsets:
        spec = SubsetSpec(lam, members)
        s_minus = ow.subset_states(spec)[1]
        for s in members:
            joint = qcore.tensor(s_minus, qcore.basis_state(lam, s))
            parts0.append((w / size, qcore.promote(joint)))
        for u in range(dim):
            joint = qcore.tensor(s_minus, qcore.basis_state(lam, u))
            parts1.append((w / dim, qcore.promote(joint)))
    td = trace_distance(mix(parts0), mix(parts1))
    assert td == pytest.approx(TD_LAM2_T1, abs=1e-12)


def test_exact_lemma_capacity_guard():
    with pytest.raises(CapacityError):
        qefid.statistical_lemma_experiment(6, 1, "exact")
    with pytest.raises(CapacityError):
        qefid.statistical_lemma_experiment(2, 3, "exact")


def test_sampled_lemma_tracks_exact_at_small_lambda():
    res = qefid.statistical_lemma_experiment(2, 1, "sampled", Rng(9), 4000)
    assert abs(res.td - TD_LAM2_T1) <= 0.01
    res4 = qefid.statistical_lemma_experiment(4, 1, "sampled", Rng(9), 4000)
    assert abs(res4.td - TD_LAM4_T1) <= 0.02


def test_sampled_lemma_lam8_t1_within_slack():
    res = qefid.statistical_lemma_experiment(8, 1, "sampled", Rng(123), 2000)
    assert res.td == pytest.approx(TD_SAMPLED_8_1, abs=1e-9)
    assert res.td <= res.bound + 0.05


def test_sampled_lemma_lam8_t2_regression():
    # At t=2 the empirical mixture's finite-sample rank noise dominates:
    # the estimate stays a valid upper-ish indicator but does NOT come
    # within 0.05 of the bound at desk-scale sample counts (measured
    # 0.64-0.88 across readings at count=2000).  Frozen as a regression
    # value; the bound itself is exercised through the distinguisher
    # catalog instead.
    res = qefid.statistical_lemma_experiment(8, 2, "sampled", Rng(123), 500)
    assert res.td == pytest.approx(TD_SAMPLED_8_2_COUNT500, abs=1e-9)
    assert res.td <= 1.0
    assert res.bound == pytest.approx(0.47855339059327373, abs=1e-12)


def test_lemma_bound_value_at_lam8_t2():
    # 2^-3 + sqrt(2 * 2^-4) = 0.125 + 0.35355... = 0.47855...
    assert qefid.statistical_lemma_bound(8, 2) == pytest.approx(
        0.125 + math.sqrt(2 * 2**-4), abs=1e-15
    )


# ---------------------------------------------------------------------------
# Copy-aided distinguisher catalog


def test_copy_catalog_advantages_below_bound():
    trials = 2000
    for t in (1, 2):
        bound = qefid.statistical_lemma_bound(8, t)
        for d in qefid.copy_distinguisher_catalog(t):
            adv = qefid.copy_advantage_experiment(d, 8, t, trials, Rng(50 + t))
            assert adv <= bound + 0.05, (d.name, t, adv)


def test_collision_distinguisher_has_positive_advantage():
    # Sanity: the collision tester is not vacuous; its advantage is near
    # 2^(-lam/2 - 1) per copy at lam=8.
    d = next(
        x for x in qefid.copy_distinguisher_catalog(1) if x.name == "collision"
    )
    adv = qefid.copy_advantage_experiment(d, 8, 1, 20000, Rng(60))
    assert 0.005 <= adv <= 0.1


def test_copy_view_budget_enforced():
    view = qefid.CopyWorldView(2, (1, 2), Rng(0), copies_left=1)
    view.measure_copy()
    with pytest.raises(ValueError):
        view.measure_copy()
