"""Batch experiment runner: seeded, validated, reported.

Configs are flat ``key=value`` text files; reports are JSON (optionally
CSV) with the bound formulas echoed verbatim, per-trial records, and
pass/fail verdicts derivable from the recorded numbers alone.  The same
config and seed reproduce the same report byte for byte except for the
wall-clock field.

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 config/parse error,
3 capacity error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import attacks, emulate, qefid, schemes, tomography
from . import oracleworld as ow
from . import qcore
from .qcore import POLICY, CapacityError, Rng

__all__ = ["ExperimentConfig", "run", "main", "COMMANDS"]

SAMPLE_NOTE = (
    "copy counts follow this artifact's own batch formulas, not the "
    "asymptotically optimal sample complexity from the shadow-tomography "
    "literature; output guarantees are unchanged"
)
ETA_NOTE = (
    "slacks are reparameterized: the asymptotic 1/kappa terms are replaced "
    "by the explicit eta parameter (threshold 5*mu*eta, output count "
    "ceil(2m/(mu(1-10 eta))))"
)


def three_sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n)


@dataclass
class ExperimentConfig:
    """Typed view of a flat key=value config."""

    experiment: str
    seed: int
    lam: int = 4
    kappa: int = 20
    t: int = 1
    ell: int = 15
    q: int = 1
    m: int = 2
    eta: float = 0.05
    epsilon: float = 0.5
    delta: float = 0.5
    trials: int = 100
    count: int = 2000
    mode: str = "exact"
    candidate: str = "wiesner"
    scheme: str = "wiesner"
    exact: bool = True
    copies_per_query: int = 128
    slack: float = 0.05
    threads: int = 0

    @staticmethod
    def parse_kv(text: str) -> dict[str, str]:
        raw: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value")
            k, v = (part.strip() for part in line.split("=", 1))
            if k in raw:
                raise ValueError(f"line {lineno}: duplicate key {k!r}")
            raw[k] = v
        return raw

    @classmethod
    def from_mapping(cls, raw: dict[str, str], command: str) -> "ExperimentConfig":
        fields = {f.name: f.type for f in cls.__dataclass_fields__.values()}
        kwargs: dict[str, object] = {"experiment": command}
        if "seed" not in raw:
            raise ValueError("seed is mandatory")
        for k, v in raw.items():
            if k == "experiment":
                continue
            if k not in fields:
                raise ValueError(f"unknown config key {k!r}")
            kind = cls.__dataclass_fields__[k].type
            if kind in ("int", int):
                kwargs[k] = int(v)
            elif kind in ("float", float):
                kwargs[k] = float(v)
            elif kind in ("bool", bool):
                if str(v).lower() not in ("0", "1", "true", "false"):
                    raise ValueError(f"bad boolean for {k!r}: {v!r}")
                kwargs[k] = str(v).lower() in ("1", "true")
            else:
                kwargs[k] = str(v)
        cfg = cls(**kwargs)  # type: ignore[arg-type]
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.experiment not in COMMANDS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.lam % 2 or not 2 <= self.lam <= 12:
            raise ValueError("lam must be even and in [2, 12]")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.m < 1:
            raise ValueError("m must be positive")
        if self.t < 1:
            raise ValueError("t must be positive")
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.mode not in ("exact", "sampled"):
            raise ValueError("mode must be exact or sampled")
        if not 0.0 < self.eta < 0.1:
            raise ValueError("eta must lie in (0, 0.1)")

    def echo(self) -> dict:
        return {
            k: getattr(self, k) for k in sorted(self.__dataclass_fields__)
        }


@dataclass
class Report:
    command: str
    config: dict
    notes: list[str] = field(default_factory=list)
    bounds: list[dict] = field(default_factory=list)
    trials: list[dict] = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)
    verdicts: list[dict] = field(default_factory=list)
    wall_clock_s: float = 0.0

    def passed(self) -> bool:
        return all(v["pass"] for v in self.verdicts)

    def verdict(self, name: str, ok: bool, detail: str) -> None:
        self.verdicts.append({"name": name, "pass": bool(ok), "detail": detail})

    def bound(self, formula: str, value: float) -> None:
        self.bounds.append({"formula": formula, "value": value})

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "config": self.config,
            "notes": self.notes,
            "bounds": self.bounds,
            "trials": self.trials,
            "aggregate": self.aggregate,
            "verdicts": self.verdicts,
            "wall_clock_s": self.wall_clock_s,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_trials(
    fn: Callable[[int, Rng], dict], trials: int, rng: Rng, threads: int
) -> list[dict]:
    """Trial-parallel map with per-trial child streams and stable order."""
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda i: fn(i, rng.child(i)), range(trials)))
    return [fn(i, rng.child(i)) for i in range(trials)]


# ---------------------------------------------------------------------------
# Command implementations


def _cmd_qefid_sd(cfg: ExperimentConfig, rng: Rng, report: Report) -> None:
    spec = ow.sample_subset(cfg.lam, rng)
    sd = qefid.exact_sd(spec)
    closed = qefid.closed_form_sd(cfg.lam)
    report.bound(f"1 - 2^(-lam/2) = 1 - 2^(-{cfg.lam}/2) = {closed}", closed)
    report.aggregate = {"sd": sd, "closed_form": closed}
    report.verdict(
        "sd-matches-closed-form",
        abs(sd - closed) <= POLICY.closed_form_atol,
        f"|{sd} - {closed}|",
    )


def _cmd_qefid_yao(cfg: ExperimentConfig, rng: Rng, report: Report) -> None:
    spec = ow.sample_subset(cfg.lam, rng)
    member = qefid.membership_distinguisher(spec)
    a0, a1, gap = qefid.exact_distinguisher_gap(member, spec)
    positive = qefid.exact_yao_positive_gap(member, spec)
    report.bound(f"gap^2 = {gap}^2 = {gap**2}", gap**2)
    report.aggregate = {
        "accept_on_d0": a0,
        "accept_on_d1": a1,
        "absolute_gap": gap,
        "transformed_positive_gap": positive,
    }
    report.verdict(
        "positive-gap-equals-gap-squared",
        abs(positive - gap**2) <= POLICY.prob_atol,
        f"|{positive} - {gap**2}|",
    )


def _cmd_statistical_lemma(cfg: ExperimentConfig, rng: Rng, report: Report) -> None:
    res = qefid.statistical_lemma_experiment(cfg.lam, cfg.t, cfg.mode, rng, cfg.count)
    bound = res.bound
    report.bound(
        f"2^(-lam/2+1) + sqrt(t 2^(-lam/2)) = 2^(-{cfg.lam}/2+1) + "
        f"sqrt({cfg.t}*2^(-{cfg.lam}/2)) = {bound}",
        bound,
    )
    report.aggregate = {"td": res.td, "bound": bound, "mode": res.mode}
    if cfg.mode == "exact":
        ok = res.td <= min(1.0, bound) + POLICY.prob_atol
        report.verdict("td-below-bound", ok, f"{res.td} <= min(1, {bound})")
    else:
        ok = res.td <= bound + cfg.slack
        report.verdict(
            "td-below-bound-plus-slack", ok, f"{res.td} <= {bound} + {cfg.slack}"
        )


def _cmd_emulate_bound(cfg: ExperimentConfig, rng: Rng, report: Report) -> None:
    bound = 2.0 * cfg.q / math.sqrt(cfg.ell + 1.0)
    report.bound(
        f"2q/sqrt(ell+1) = 2*{cfg.q}/sqrt({cfg.ell}+1) = {bound}", bound
    )

    def one(i: int, trng: Rng) -> dict:
        spec = ow.sample_subset(cfg.lam, trng)
        env = ow.OracleEnv([spec])
        circ = emulate.random_oracle_circuit(cfg.lam, cfg.q, trng)
        res = emulate.emulation_error(circ, env, cfg.ell)
        rec = {"trial": i, "td": res.exact_td, "bound": res.bound}
        if cfg.q == 1:
            first = next(g for g in circ.gates if g.kind == "oracle")
            ov = qcore.axis_weight(
                emulate.pre_query_state(circ, env),
                ow.oracle_axis_state(spec).amplitudes,
                first.targets,
            )
            predicted = emulate.single_query_inner_product(cfg.ell, ov)
            rec["ip"] = res.inner_product.real
            rec["ip_closed_form"] = predicted
        return rec

    report.trials = run_trials(one, cfg.trials, rng, cfg.threads)
    worst = max(t["td"] for t in report.trials)
    report.aggregate = {"worst_td": worst, "trials": cfg.trials}
    report.verdict(
        "td-below-bound", worst <= bound + POLICY.prob_atol, f"worst {worst} <= {bound}"
    )
    if cfg.q == 1:
        worst_ip = max(
            abs(t["ip"] - t["ip_closed_form"]) for t in report.trials
        )
        report.aggregate["worst_ip_mismatch"] = worst_ip
        report.verdict(
            "single-query-closed-form", worst_ip <= 1e-8, f"worst |ip - closed| {worst_ip}"
        )


def _cmd_project_reflect(cfg: ExperimentConfig, rng: Rng, report: Report) -> None:
    def one(i: int, trng: Rng) -> dict:
        g = trng.generator
        v = g.normal(size=4) + 1j * g.normal(size=4)
        v /= np.linalg.norm(v)
        target = qcore.StateVector(2, v)
        w = g.normal(size=4) + 1j * g.normal(size=4)
        w = w - np.vdot(v, w) * v
        w /= np.linalg.norm(w)
        inp = qcore.StateVector(2, (v + w) / math.sqrt(2.0))
        ok, out = emulate.project_via_reflection(inp, target, trng)
        fid = qcore.fidelity(out, target) if ok else None
        return {"trial": i, "success": ok, "fidelity": fid}

    report.trials = run_trials(one, cfg.trials, rng, cfg.threads)
    freq = sum(t["success"] for t in report.trials) / cfg.trials
    sigma = three_sigma(0.5, cfg.trials)
    worst_fid = min(
        (t["fidelity"] for t in report.trials if t["success"]), default=1.0
    )
    report.aggregate = {"success_rate": freq, "three_sigma": sigma, "worst_fidelity": worst_fid}
    report.bound(f"|freq - 1/2| <= 3 sigma = {sigma}", sigma)
    report.verdict("success-rate-half", abs(freq - 0.5) <= sigma, f"{freq} vs 0.5")
    report.verdict(
        "post-success-fidelity",
        worst_fid >= 1.0 - POLICY.prob_atol,
        f"worst {worst_fid}",
    )


def _cmd_copygen(cfg: ExperimentConfig, rng: Rng, report: Report) -> None:
    def one(i: int, trng: Rng) -> dict:
        spec = ow.sample_subset(cfg.lam, trng)
        env = ow.OracleEnv([spec])
        res = emulate.generate_s_minus(env, cfg.lam, cfg.kappa, trng)
        fid = None
        if res.succeeded:
            fid = qcore.fidelity(res.state, ow.subset_states(spec)[1])
        return {
            "trial": i,
            "attempts": res.attempts,
            "succeeded": res.succeeded,
            "fidelity": fid,
        }

    report.trials = run_trials(one, cfg.trials, rng, cfg.threads)
    attempts = sum(t["attempts"] for t in report.trials)
    successes = sum(t["succeeded"] for t in report.trials)
    per_attempt = successes / attempts
    sigma = three_sigma(0.5, attempts)
    failures = cfg.trials - successes
    report.aggregate = {
        "per_attempt_success": per_attempt,
        "three_sigma": sigma,
        "failures": failures,
        "trials": cfg.trials,
    }
    report.bound(f"failure probability 2^-kappa = 2^-{cfg.kappa}", 2.0**-cfg.kappa)
    report.verdict(
        "per-attempt-half", abs(per_attempt - 0.5) <= sigma, f"{per_attempt} vs 0.5"
    )
    expected_failures = cfg.trials * 2.0**-cfg.kappa
    report.verdict(
        "failures-within-budget",
        failures <= max(1.0, 10.0 * expected_failures),
        f"{failures} failures, expected ~{expected_failures}",
    )


def _wiesner_family(env_free_n: int = 2) -> tuple[tomography.PovmFamily, schemes.OwsgCandidate]:
    cand = schemes.wiesner_owsg(env_free_n)

    def build(key: str) -> tomography.AcceptProcedure:
        v = cand.verify(key)
        return tomography.CircuitAcceptProcedure(v.circuit, v.input_qubits, v.accept_qubit)

    return tomography.PovmFamily(cand.keys, build, env_free_n), cand


def _cmd_gentle_search_bench(cfg: ExperimentConfig, rng: Rng, report: Report) -> None:
    family, cand = _wiesner_family()
    c = 1.0

    def one(i: int, trng: Rng) -> dict:
        k_star = cand.keys[trng.integers(0, len(cand.keys))]
        challenge = cand.generate_state(k_star, None)
        res = tomography.gentle_search(
            family, challenge, c, cfg.epsilon, cfg.delta, trng, exact=False
        )
        p = tomography.exact_accept_prob(family, res.key, challenge)
        return {
            "trial": i,
            "key_star": k_star,
            "found": res.key,
            "exact_accept": p,
            "qualified": p >= c - cfg.epsilon,
            "copies_used": res.copies_used,
        }

    report.notes.append(SAMPLE_NOTE)
    report.trials = run_trials(one, cfg.trials, rng, cfg.threads)
    freq = sum(t["qualified"] for t in report.trials) / cfg.trials
    sigma = three_sigma(1.0 - cfg.delta, cfg.trials)
    target = 1.0 - cfg.delta - sigma
    report.aggregate = {"qualified_rate": freq, "target": target}
    report.bound(f"(1-delta) - 3 sigma = {1-cfg.delta} - {sigma}", target)
    report.verdict("qualified-rate", freq >= target, f"{freq} >= {target}")


def _cmd_shadow_bench(cfg: ExperimentConfig, rng: Rng, report: Report) -> None:
    family, cand = _wiesner_family()

    def one(i: int, trng: Rng) -> dict:
        k_star = cand.keys[trng.integers(0, len(cand.keys))]
        challenge = cand.generate_state(k_star, None)
        exact_vals = {
            k: tomography.exact_accept_prob(family, k, challenge) for k in family.keys
        }
        table = tomography.shadow_tomography(
            family, challenge, cfg.epsilon, cfg.delta, trng, exact=False
        )
        err = table.worst_error(exact_vals)
        return {"trial": i, "worst_error": err, "within": err <= cfg.epsilon}

    report.notes.append(SAMPLE_NOTE)
    report.trials = run_trials(one, cfg.trials, rng, cfg.threads)
    freq = sum(t["within"] for t in report.trials) / cfg.trials
    sigma = three_sigma(1.0 - cfg.delta, cfg.trials)
    target = 1.0 - cfg.delta - sigma
    report.aggregate = {"within_rate": freq, "target": target}
    report.bound(f"(1-delta) - 3 sigma = {1-cfg.delta} - {sigma}", target)
    report.verdict("worst-key-error-rate", freq >= target, f"{freq} >= {target}")


def _pick_candidate(name: str) -> schemes.OwsgCandidate:
    if name == "wiesner":
        return schemes.wiesner_owsg(2)
    if name == "oracle-echo":
        return schemes.oracle_echo_owsg(4, 2)
    raise ValueError(f"unknown candidate {name!r} (wiesner | oracle-echo)")


def _cmd_owsg_attack(cfg: ExperimentConfig, rng: Rng, report: Report) -> None:
    cand = _pick_candidate(cfg.candidate)
    params = attacks.OwsgAttackParams(
        copies_per_query=cfg.copies_per_query,
        epsilon=cfg.epsilon,
        delta=cfg.delta,
        exact_search=cfg.exact,
    )
    records = attacks.owsg_inversion_game(cand, params, cfg.trials, rng)
    report.notes.append(SAMPLE_NOTE)
    report.trials = [
        {
            "trial": i,
            "key_star": r.key_star,
            "found": r.key_found,
            "exact_accept": r.accept_prob,
            "success": r.success,
        }
        for i, r in enumerate(records)
    ]
    rate = sum(r.success for r in records) / cfg.trials
    target = 0.9 if cfg.exact else 0.5
    report.aggregate = {"success_rate": rate, "threshold": 1.0 / 3.0, "target": target}
    report.bound("success means exact accept >= 1/3", 1.0 / 3.0)
    report.verdict("inversion-rate", rate >= target, f"{rate} >= {target}")


def _pick_scheme(name: str) -> schemes.MoneyScheme:
    if name == "wiesner":
        return schemes.wiesner_money(3)
    if name == "subset-pair":
        return schemes.subset_pair_money(2, 2)
    raise ValueError(f"unknown scheme {name!r} (wiesner | subset-pair)")


def _cmd_money_forge(cfg: ExperimentConfig, rng: Rng, report: Report) -> None:
    scheme = _pick_scheme(cfg.scheme)
    params = attacks.MoneyForgeParams(
        eta=cfg.eta,
        epsilon_st=cfg.epsilon if cfg.epsilon < 0.5 else 0.1,
        delta_st=cfg.delta if cfg.delta < 0.5 else 0.05,
        copies_per_query=cfg.copies_per_query,
        exact_estimators=cfg.exact,
    )
    # Echo what runs, not what was configured.
    report.config.update(epsilon=params.epsilon_st, delta=params.delta_st)

    def forger(handle, env, challenges, trng):
        return attacks.money_forge(handle, env, challenges, params, trng).outputs

    result = attacks.forgery_game(scheme, forger, cfg.m, cfg.trials, rng)
    report.notes.extend([SAMPLE_NOTE, ETA_NOTE])
    report.trials = [
        {
            "trial": i,
            "key_star": t.key_star,
            "outputs": t.outputs,
            "accepts": t.accepts,
            "success": t.success,
            "aborted": t.aborted,
            "attacker_verify_queries": t.attacker_verify_queries,
        }
        for i, t in enumerate(result.trials)
    ]
    target = 0.9 if cfg.exact else 0.6
    report.aggregate = {
        "success_rate": result.success_rate,
        "abort_rate": result.abort_rate,
        "max_attacker_verify_queries": result.max_attacker_verify_queries,
        "target": target,
    }
    report.bound(f"5*mu*eta = 5*{scheme.mu}*{cfg.eta}", 5 * scheme.mu * cfg.eta)
    report.verdict(
        "forgery-rate", result.success_rate >= target, f"{result.success_rate} >= {target}"
    )
    report.verdict(
        "verify-oracle-untouched",
        result.max_attacker_verify_queries == 0,
        f"max queries {result.max_attacker_verify_queries}",
    )
    if cfg.exact:
        report.verdict(
            "no-aborts-with-exact-estimators",
            result.abort_rate == 0.0,
            f"abort rate {result.abort_rate}",
        )


COMMANDS: dict[str, Callable[[ExperimentConfig, Rng, Report], None]] = {
    "qefid-sd": _cmd_qefid_sd,
    "qefid-yao": _cmd_qefid_yao,
    "statistical-lemma": _cmd_statistical_lemma,
    "emulate-bound": _cmd_emulate_bound,
    "project-reflect": _cmd_project_reflect,
    "copygen": _cmd_copygen,
    "gentle-search-bench": _cmd_gentle_search_bench,
    "shadow-bench": _cmd_shadow_bench,
    "owsg-attack": _cmd_owsg_attack,
    "money-forge": _cmd_money_forge,
}


def run(command: str, cfg: ExperimentConfig) -> tuple[int, Report]:
    report = Report(command=command, config=cfg.echo())
    rng = Rng(cfg.seed)
    start = time.perf_counter()
    COMMANDS[command](cfg, rng, report)
    report.wall_clock_s = time.perf_counter() - start
    return (0 if report.passed() else 1), report


def _write_outputs(report: Report, out_dir: str, fmt: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"{report.command}-report")
    json_path = base + ".json"
    if fmt in ("json", "both"):
        with open(json_path, "w") as fh:
            fh.write(report.to_json())
    if fmt in ("csv", "both") and report.trials:
        columns = sorted(report.trials[0])
        with open(base + ".csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            writer.writerows(report.trials)
    return json_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="subsetlab", description="seeded oracle-world experiments"
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, help="overrides the config seed")
    parser.add_argument("--threads", type=int, default=0)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=("json", "csv", "both"), default="json")
    args = parser.parse_args(argv)
    try:
        raw: dict[str, str] = {}
        if args.config:
            with open(args.config) as fh:
                raw = ExperimentConfig.parse_kv(fh.read())
        if args.seed is not None:
            raw["seed"] = str(args.seed)
        if "seed" not in raw:
            raise ValueError("seed is mandatory (config file or --seed)")
        cfg = ExperimentConfig.from_mapping(raw, args.command)
        if args.threads:
            cfg.threads = args.threads
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        code, report = run(args.command, cfg)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    path = _write_outputs(report, args.out, args.format)
    status = "pass" if code == 0 else "FAIL"
    print(f"{report.command}: {status} -> {path}")
    for v in report.verdicts:
        print(f"  [{'ok' if v['pass'] else 'FAIL'}] {v['name']}: {v['detail']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
