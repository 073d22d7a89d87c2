"""Fixed-seed reports pinned against JSON checked in beside this file.

Every command runs at least once, and ``owsg-attack`` and ``money-forge``
run both their exact and sampled arms.  Each report, less its
``wall_clock_s``, must match ``pinned_reports.json``: floats to 1e-12
relative, everything else exactly.  A change that is meant to alter a
report rewrites the file with ``python tests/test_pinned_reports.py`` and
says so.
"""

import json
import math
import pathlib

import pytest

from subsetlab.cli import ExperimentConfig, run

PINNED = pathlib.Path(__file__).with_name("pinned_reports.json")

CONFIGS = [
    ("qefid-sd", dict(seed=1, lam=4)),
    ("qefid-yao", dict(seed=2, lam=4)),
    ("statistical-lemma", dict(seed=3, lam=4, t=1, mode="exact")),
    ("statistical-lemma", dict(seed=4, lam=4, t=2, mode="sampled", count=300)),
    ("emulate-bound", dict(seed=5, lam=2, q=1, ell=7, trials=3)),
    ("emulate-bound", dict(seed=5, lam=4, q=2, ell=7, trials=2)),
    ("project-reflect", dict(seed=6, trials=40)),
    ("copygen", dict(seed=7, lam=2, kappa=10, trials=20)),
    ("gentle-search-bench", dict(seed=8, trials=10)),
    ("shadow-bench", dict(seed=9, trials=6, epsilon=0.1, delta=0.01)),
    ("owsg-attack", dict(seed=12, candidate="oracle-echo", exact="true", trials=2)),
    ("owsg-attack", dict(seed=13, candidate="oracle-echo", exact="false", trials=2)),
    ("money-forge", dict(seed=14, scheme="wiesner", exact="true", trials=3)),
    ("money-forge", dict(seed=16, scheme="subset-pair", exact="false", trials=1)),
    ("copygen", dict(seed=17, lam=4, kappa=2, trials=40)),
]


def _report(command, kv):
    cfg = ExperimentConfig.from_mapping({k: str(v) for k, v in kv.items()}, command)
    _, report = run(command, cfg)
    data = json.loads(report.to_json())
    data.pop("wall_clock_s")
    return data


def _assert_same(got, want, path):
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), path
    elif isinstance(want, dict) and isinstance(got, dict):
        assert sorted(got) == sorted(want), path
        for k in want:
            _assert_same(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list) and isinstance(got, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_report_matches_pinned(pinned, index):
    command, kv = CONFIGS[index]
    entry = pinned[index]
    assert (entry["command"], entry["kv"]) == (command, kv)
    _assert_same(_report(command, kv), entry["report"], command)


if __name__ == "__main__":
    entries = [
        {"command": c, "kv": kv, "report": _report(c, kv)} for c, kv in CONFIGS
    ]
    PINNED.write_text(json.dumps(entries, sort_keys=True, indent=1) + "\n")
