"""Self-tests of the benchmark: its checks catch wrong outputs, and tracing
leaves subsetlab exactly as it found it.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import run
import worker

worker.import_subsetlab()
BENCHMARK = json.loads((worker.ROOT / "BENCHMARK.json").read_text())

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from subsetlab import attacks, emulate  # noqa: E402
from subsetlab import oracleworld as ow  # noqa: E402
from subsetlab.qcore import Rng  # noqa: E402

# ---------------------------------------------------------------------------
# Each check accepts the right value and rejects a wrong one


def test_found_key_check():
    estimates = {"00": 0.5, "01": 0.99, "10": 0.5}
    assert checks.found_key_problem("01", "01", estimates) is None
    assert checks.found_key_problem("00", "01", estimates) is not None
    assert checks.found_key_problem("01", "01", dict(estimates, **{"10": 0.99})) is not None


def test_forgery_checks():
    assert checks.chosen_key_problem("101", "101") is None
    assert checks.chosen_key_problem("100", "101") is not None
    assert checks.chosen_key_problem(None, "101") is not None
    assert checks.verify_queries_problem(0) is None
    assert checks.verify_queries_problem(1) is not None
    assert checks.rate_problem(9, 10, 0.9, "arm") is None
    assert checks.rate_problem(8, 10, 0.9, "arm") is not None


def test_yield_check():
    assert checks.yield_problem(500, 1000) is None
    assert checks.yield_problem(0, 0) is None
    assert checks.yield_problem(440, 1000) is None  # 3.8 sigma low
    assert checks.yield_problem(430, 1000) is not None  # 4.4 sigma low


def test_trace_distance_check():
    bound = checks.emulation_bound(2, 31)
    assert bound == pytest.approx(4 / np.sqrt(32))
    assert checks.td_problem(bound, 2, 31) is None
    assert checks.td_problem(bound + 1e-6, 2, 31) is not None
    assert checks.td_problem(-0.1, 2, 31) is not None


def test_inner_product_checks():
    ip = checks.closed_form_inner_product(31, 0.25)
    assert checks.closed_form_problem(ip, 31, 0.25) is None
    assert checks.closed_form_problem(ip + 1e-6, 31, 0.25) is not None
    assert checks.agreement_problem(0.5 + 0.1j, 0.5 + 0.1j) is None
    assert checks.agreement_problem(0.5 + 0.1j, 0.5 + 0.1j + 1e-7) is not None


def test_traced_totals_check():
    tr = tracer.Tracer()
    totals = {"tomography.PovmFamily.element": {"calls": 3}}
    tr.attempts, tr.resource_queries, tr.builds = 10, 10, 3
    assert worker.traced_problems(tr, totals) == []
    tr.resource_queries = 9
    tr.builds = 4
    assert len(worker.traced_problems(tr, totals)) == 2


def test_reference_computations_match_the_package():
    # The closed form with the benchmark's own w reproduces the package's
    # single-query inner product, and the explicit comparison passes.
    rng = Rng(5)
    spec = ow.sample_subset(2, rng)
    env = ow.OracleEnv([spec])
    circ = emulate.random_oracle_circuit(2, 1, rng)
    res = emulate.emulation_error(circ, env, 7)
    axis = checks.axis_state(2, spec.members)
    assert np.allclose(axis, ow.oracle_axis_state(spec).amplitudes)
    pre = checks.evolve(circ.num_qubits, circ.gates, {2: axis}, stop_at_oracle=True)
    query = next(g for g in circ.gates if g.kind == "oracle")
    w = checks.axis_weight(pre, circ.num_qubits, axis, query.targets)
    assert checks.closed_form_problem(res.inner_product.real, 7, w) is None
    corpus = workloads.EmulateCorpus(3)
    for q, ell in corpus.TINY:
        corpus.explicit_case(Rng(q), q, ell)
    assert corpus.problems == []


@pytest.mark.parametrize("arm", workloads.ARMS)
def test_owsg_trial_mirrors_the_inversion_game(arm):
    wl = workloads.OwsgEcho(1)
    params = attacks.OwsgAttackParams(exact_search=(arm == "exact"), copies_per_query=16)
    wl.params[arm] = params
    record = attacks.owsg_inversion_game(wl.candidate, params, 1, Rng(4))[0]
    keys = wl.arm_trial(arm, Rng(4).child(0))
    assert keys == (record.key_star, record.key_found)
    assert wl.problems == [] and wl.successes[arm] == int(record.success)


# ---------------------------------------------------------------------------
# Tracing off replaces nothing; tracing on restores everything


def test_untraced_trials_replace_nothing(monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    for cls in workloads.WORKLOADS.values():
        before = tracer.attribute_snapshot()
        wl = cls(7)
        for index in range(min(2, cls.trials_per_round)):  # both arms
            attempted, failed = wl.run_trial(index)
            assert failed == 0 and attempted >= 1
        assert tracer.changed_attributes(before, tracer.attribute_snapshot()) == []
        assert wl.problems == [], (cls.name, wl.problems)


def test_traced_run_restores_every_attribute(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(worker, "RESULTS", tmp_path)
    install = tracer.Tracer.install
    replaced: list[str] = []

    def spying_install(self):
        before = tracer.attribute_snapshot()
        install(self)
        replaced.extend(tracer.changed_attributes(before, tracer.attribute_snapshot()))

    monkeypatch.setattr(tracer.Tracer, "install", spying_install)
    before = tracer.attribute_snapshot()
    args = ["--workload", "owsg-echo", "--seed", "2", "--seconds", "0", "--trace", "1"]
    assert worker.main(args) == 0
    assert tracer.changed_attributes(before, tracer.attribute_snapshot()) == []
    # Every boundary plus the two counter hooks was swapped in.
    assert len(replaced) == len(tracer.BOUNDARIES) + 2
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    assert list(out["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert out["metrics"]["tomography.PovmFamily.builds"]["value"] > 0


def test_command_prints_every_end_to_end_metric(capsys):
    args = ["--workload", "owsg-echo", "--seed", "3", "--seconds", "0", "--trace", "0"]
    assert run.main(args) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 8
    assert list(out["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in out["metrics"].values())
