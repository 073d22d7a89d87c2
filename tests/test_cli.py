"""Config parsing, report structure, exit codes, reproducibility."""

import json

import pytest

from subsetlab import cli
from subsetlab.cli import ExperimentConfig, run


def make_cfg(command, **kv):
    raw = {k: str(v) for k, v in kv.items()}
    return ExperimentConfig.from_mapping(raw, command)


def test_config_requires_seed():
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping({}, "qefid-sd")


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ValueError):
        make_cfg("qefid-sd", seed=1, bogus=2)
    with pytest.raises(ValueError):
        make_cfg("qefid-sd", seed=1, lam=3)
    with pytest.raises(ValueError):
        make_cfg("qefid-sd", seed=1, mode="fuzzy")
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping(
            ExperimentConfig.parse_kv("seed=1\nseed=2\n"), "qefid-sd"
        )


def test_qefid_sd_report():
    code, report = run("qefid-sd", make_cfg("qefid-sd", seed=3, lam=4))
    assert code == 0
    assert report.aggregate["sd"] == pytest.approx(0.75)
    assert report.passed()
    assert any("1 - 2^(-lam/2)" in b["formula"] for b in report.bounds)


def test_emulate_bound_report():
    cfg = make_cfg("emulate-bound", seed=3, q=1, ell=15, lam=2, trials=4)
    code, report = run("emulate-bound", cfg)
    assert code == 0
    assert report.aggregate["worst_td"] <= 0.5
    assert all(t["td"] <= t["bound"] + 1e-9 for t in report.trials)


def test_missing_seed_exits_2(tmp_path, capsys):
    assert cli.main(["qefid-sd"]) == 2


def test_cli_end_to_end_and_exit_zero(tmp_path):
    code = cli.main(
        ["qefid-yao", "--seed", "5", "--out", str(tmp_path), "--format", "both"]
    )
    assert code == 0
    data = json.loads((tmp_path / "qefid-yao-report.json").read_text())
    assert data["verdicts"][0]["pass"] is True
    assert "wall_clock_s" in data


def test_csv_output_columns(tmp_path):
    code = cli.main(
        [
            "project-reflect",
            "--seed",
            "5",
            "--out",
            str(tmp_path),
            "--format",
            "csv",
        ]
    )
    assert code == 0
    header = (tmp_path / "project-reflect-report.csv").read_text().splitlines()[0]
    assert header == "fidelity,success,trial"


def test_verdict_failure_exits_1(tmp_path):
    config = tmp_path / "cfg.txt"
    # A negative slack makes the sampled-mode verdict unsatisfiable.
    config.write_text(
        "seed=3\nlam=4\nt=1\nmode=sampled\ncount=500\nslack=-1\n"
    )
    code = cli.main(
        ["statistical-lemma", "--config", str(config), "--out", str(tmp_path)]
    )
    assert code == 1


def test_capacity_error_exits_3(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("seed=3\nlam=6\nt=1\nmode=exact\n")
    code = cli.main(
        ["statistical-lemma", "--config", str(config), "--out", str(tmp_path)]
    )
    assert code == 3


def test_oversized_engine_exits_3(tmp_path):
    # lam=8, q=2 needs 2^10 * 131,328 engine entries, twice the cap; the
    # capacity check comes before any sector is built.
    config = tmp_path / "cfg.txt"
    config.write_text("seed=3\nlam=8\nq=2\nell=31\n")
    code = cli.main(
        ["emulate-bound", "--config", str(config), "--out", str(tmp_path)]
    )
    assert code == 3


def test_too_few_copies_exits_2(tmp_path):
    # ell = 1 copy cannot hold q = 2 excitations.
    config = tmp_path / "cfg.txt"
    config.write_text("seed=3\nlam=2\nq=2\nell=1\n")
    code = cli.main(
        ["emulate-bound", "--config", str(config), "--out", str(tmp_path)]
    )
    assert code == 2


def test_money_forge_echoes_the_config_it_ran(tmp_path):
    # Under the default config (epsilon = delta = 0.5) shadow tomography
    # runs at 0.1 and 0.05; the report must show the values used.
    config = tmp_path / "cfg.txt"
    config.write_text("seed=1\nscheme=wiesner\ntrials=1\n")
    code = cli.main(["money-forge", "--config", str(config), "--out", str(tmp_path)])
    assert code == 0
    echo = json.loads((tmp_path / "money-forge-report.json").read_text())["config"]
    assert echo["epsilon"] == 0.1
    assert echo["delta"] == 0.05
    assert echo["m"] == 2


def test_money_forge_rejects_m_zero(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("seed=1\nscheme=subset-pair\nm=0\ntrials=1\n")
    code = cli.main(["money-forge", "--config", str(config), "--out", str(tmp_path)])
    assert code == 2
    assert not (tmp_path / "money-forge-report.json").exists()


@pytest.mark.parametrize(
    "command,config,key",
    [
        ("gentle-search-bench", "epsilon=0", "epsilon"),
        ("shadow-bench", "delta=0", "delta"),
        ("money-forge", "epsilon=0", "epsilon"),
        ("owsg-attack", "delta=0", "delta"),
        ("statistical-lemma", "t=0", "t"),
        ("statistical-lemma", "mode=sampled\ncount=0", "count"),
    ],
)
def test_nonpositive_parameters_exit_2(tmp_path, capsys, command, config, key):
    path = tmp_path / "cfg.txt"
    path.write_text(f"seed=1\ntrials=1\n{config}\n")
    code = cli.main([command, "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert f"{key} must be positive" in capsys.readouterr().err
    assert not (tmp_path / f"{command}-report.json").exists()


def test_config_file_with_seed_override(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("seed=1\nlam=4\n")
    code = cli.main(
        ["qefid-sd", "--config", str(config), "--seed", "9", "--out", str(tmp_path)]
    )
    assert code == 0
    data = json.loads((tmp_path / "qefid-sd-report.json").read_text())
    assert data["config"]["seed"] == 9


def test_reports_are_reproducible(tmp_path):
    cfg = make_cfg("copygen", seed=11, lam=2, kappa=10, trials=50)
    _, first = run("copygen", cfg)
    _, second = run("copygen", cfg)
    a = json.loads(first.to_json())
    b = json.loads(second.to_json())
    a.pop("wall_clock_s"), b.pop("wall_clock_s")
    assert a == b


def test_threads_do_not_change_results():
    base = make_cfg("project-reflect", seed=21, trials=120)
    threaded = make_cfg("project-reflect", seed=21, trials=120, threads=4)
    _, a = run("project-reflect", base)
    _, b = run("project-reflect", threaded)
    assert a.trials == b.trials
    assert a.aggregate == b.aggregate
    # The other commands that run their trials on threads (emulate-bound's
    # share the engine's caches, the benches' a keyed family's elements),
    # and owsg-attack, which runs its trials in order.
    for command, kv in (
        ("emulate-bound", dict(seed=22, lam=4, q=2, ell=7, trials=6)),
        ("owsg-attack", dict(seed=23, candidate="oracle-echo", exact="true", trials=4)),
        ("copygen", dict(seed=24, lam=4, kappa=10, trials=8)),
        ("gentle-search-bench", dict(seed=25, trials=8)),
        ("shadow-bench", dict(seed=26, trials=6, epsilon=0.1, delta=0.01)),
    ):
        _, a = run(command, make_cfg(command, **kv, threads=1))
        _, b = run(command, make_cfg(command, **kv, threads=2))
        assert a.trials == b.trials, command
        assert a.aggregate == b.aggregate, command


def test_every_command_runs_small():
    small = {
        "qefid-sd": dict(seed=1, lam=2),
        "qefid-yao": dict(seed=1, lam=2),
        "statistical-lemma": dict(seed=1, lam=2, t=1, mode="exact"),
        "emulate-bound": dict(seed=1, lam=2, q=1, ell=7, trials=2),
        "project-reflect": dict(seed=1, trials=50),
        "copygen": dict(seed=1, lam=2, kappa=10, trials=50),
        "gentle-search-bench": dict(seed=1, trials=20),
        "shadow-bench": dict(seed=1, trials=20, epsilon=0.1, delta=0.01),
        "owsg-attack": dict(seed=1, trials=3, candidate="wiesner", exact="true"),
        "money-forge": dict(
            seed=1, trials=2, scheme="wiesner", m=2, exact="true"
        ),
    }
    for command, kv in small.items():
        code, report = run(command, make_cfg(command, **kv))
        assert code == 0, (command, report.verdicts)
        assert report.passed()
