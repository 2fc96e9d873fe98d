"""Experiment runner.

Subcommands:

- run: execute seeded sessions over a sweep (block sizes x flip
  probabilities x repetitions), write one JSON report per session and an
  aggregate CSV. Point i runs with seed base_seed + i, so points are
  independent and the whole sweep is reproducible byte for byte.
- verify: run the real-block vs singlet-simulation equivalence corpus and
  print one max-deviation line per case.
- report: pretty-print a session JSON report.

Configuration is a flat key = value file with [bracketed] sections; any
flag overrides its config key. Wall-clock timings go to stderr only, so
the files an experiment writes are identical across reruns.
"""

from __future__ import annotations

import argparse
import configparser
import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .attacks import BlockAttackSpec, load_unitary, reduction_corpus, verify_reduction
from .postprocess import DEFAULT_SAFETY_MARGIN, pipeline
from .protocol import MODES, ProtocolConfig, empirical_rates, run_session
from .randomness import PARTIES, STAGES

CSV_COLUMNS = (
    "mode",
    "n",
    "num_blocks",
    "seed",
    "attack",
    "flip_prob",
    "sifted_bits",
    "qber_true",
    "qber_estimated",
    "i_ab",
    "i_ea",
    "i_eb",
    "ck_rate",
    "final_key_len",
) + tuple(f"bits_{stage}" for stage in STAGES)


class ConfigError(Exception):
    """Anything wrong with the requested configuration (exit code 2)."""


@dataclass
class ExperimentConfig:
    block_sizes: list[int]
    num_blocks: int
    mode: str
    flip_probs: list[float]
    sample_fraction: float
    seed: int
    repetitions: int
    attack_variant: str
    attack_fraction: float
    attack_granularity: str
    attack_delayed: bool
    unitary_file: str | None
    num_ancillas: int
    csv_path: Path
    json_dir: Path
    safety_margin: int


def _parse_list(text: str, convert):
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"empty list value: {text!r}")
    try:
        return [convert(part) for part in items]
    except ValueError as exc:
        raise ConfigError(f"bad list value {text!r}: {exc}") from exc


def load_experiment(path: Path | None, args: argparse.Namespace) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc

    def get(section: str, key: str, default):
        if parser.has_option(section, key):
            text = parser.get(section, key)
            try:
                if isinstance(default, bool):
                    return parser.getboolean(section, key)
                return type(default)(text)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {text!r}") from exc
        return default

    block_sizes = [get("protocol", "block_size", 4)]
    if parser.has_option("sweep", "block_sizes"):
        block_sizes = _parse_list(parser.get("sweep", "block_sizes"), int)
    flip_probs = [get("protocol", "channel_flip_prob", 0.0)]
    if parser.has_option("sweep", "flip_probs"):
        flip_probs = _parse_list(parser.get("sweep", "flip_probs"), float)

    cfg = ExperimentConfig(
        block_sizes=block_sizes,
        num_blocks=get("protocol", "num_blocks", 100),
        mode=get("protocol", "mode", "per_block"),
        flip_probs=flip_probs,
        sample_fraction=get("protocol", "sample_fraction", 0.2),
        seed=get("protocol", "seed", 0),
        repetitions=get("sweep", "repetitions", 1),
        attack_variant=get("attack", "variant", "none"),
        attack_fraction=get("attack", "fraction", 0.0),
        attack_granularity=get("attack", "granularity", "per_qubit"),
        attack_delayed=get("attack", "delayed", True),
        unitary_file=get("attack", "unitary_file", "") or None,
        num_ancillas=get("attack", "num_ancillas", 0),
        csv_path=Path(get("output", "csv", "results.csv")),
        json_dir=Path(get("output", "json_dir", "")) if get("output", "json_dir", "") else None,
        safety_margin=get("output", "safety_margin", DEFAULT_SAFETY_MARGIN),
    )

    overrides = {
        "block_size": ("block_sizes", lambda v: [v]),
        "num_blocks": ("num_blocks", None),
        "mode": ("mode", None),
        "flip_prob": ("flip_probs", lambda v: [v]),
        "sample_fraction": ("sample_fraction", None),
        "seed": ("seed", None),
        "repetitions": ("repetitions", None),
        "attack": ("attack_variant", None),
        "fraction": ("attack_fraction", None),
        "granularity": ("attack_granularity", None),
        "unitary_file": ("unitary_file", None),
        "num_ancillas": ("num_ancillas", None),
        "output": ("csv_path", Path),
        "json_dir": ("json_dir", Path),
        "safety_margin": ("safety_margin", None),
    }
    for flag, (attr, convert) in overrides.items():
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, attr, convert(value) if convert else value)

    if cfg.json_dir is None:
        cfg.json_dir = cfg.csv_path.parent / (cfg.csv_path.stem + "_sessions")
    if cfg.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}")
    if cfg.repetitions < 1:
        raise ConfigError("repetitions must be >= 1")
    if not cfg.block_sizes or not cfg.flip_probs:
        raise ConfigError("sweep lists must be nonempty")
    return cfg


def _build_attack(cfg: ExperimentConfig, block_size: int) -> BlockAttackSpec:
    if cfg.attack_variant == "none":
        return BlockAttackSpec.none()
    if cfg.attack_variant == "intercept_resend":
        try:
            return BlockAttackSpec.intercept(cfg.attack_fraction, cfg.attack_granularity)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if cfg.attack_variant == "unitary_block":
        if not cfg.unitary_file:
            raise ConfigError("unitary_block attack needs unitary_file")
        try:
            u = load_unitary(cfg.unitary_file)
        except OSError as exc:
            raise ConfigError(f"cannot read unitary file: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad unitary file: {exc}") from exc
        n = u.num_qubits - cfg.num_ancillas
        if n != block_size:
            raise ConfigError(
                f"unitary covers {n} block qubits but the sweep uses n={block_size}"
            )
        try:
            return BlockAttackSpec.unitary(u, n, cfg.num_ancillas, cfg.attack_delayed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown attack variant {cfg.attack_variant!r}")


def _session_json(config, attack, report, rates, result, margin) -> dict:
    """One session's JSON report; result is None when nothing was sifted."""
    ledger_entries = {
        f"{party}.{stage}": report.ledger.get(party, stage)
        for party in PARTIES
        for stage in STAGES
        if report.ledger.get(party, stage)
    }
    if result is None:
        results = {
            "raw_qubits": report.raw_qubits,
            "sifted_bits": 0,
            "reason": "no_sifted_bits",
        }
    else:
        results = {
            "raw_qubits": report.raw_qubits,
            "kept_blocks": report.kept_blocks,
            "sifted_bits": report.sifted_bits,
            "qber_true": report.qber_true,
            "qber_estimated": report.qber_estimated,
            "disclosed_for_estimation": len(report.disclosed_indices),
            "i_ab": rates.i_ab,
            "i_ea": rates.i_ea,
            "i_eb": rates.i_eb,
            "ck_rate": rates.ck_rate,
            "distillable": rates.distillable,
            "eve_info_bits": result.eve_info_bits,
            "reconciliation": None
            if result.reconciliation is None
            else {
                "disclosed_parities": result.reconciliation.disclosed_parities,
                "passes": result.reconciliation.passes,
                "residual_mismatches": result.reconciliation.residual_mismatches,
            },
            "amplification": None
            if result.amplification is None
            else {
                "input_length": result.amplification.input_length,
                "output_length": result.amplification.output_length,
                "seed_bits_consumed": result.amplification.seed_bits_consumed,
            },
            "final_key_len": len(result.final_key),
            "final_key_hex": np.packbits(result.final_key).tobytes().hex(),
            "reason": result.reason,
        }
    return {
        "config": {
            "block_size": config.block_size,
            "num_blocks": config.num_blocks,
            "mode": config.mode,
            "channel_flip_prob": config.channel_flip_prob,
            "sample_fraction": config.sample_fraction,
            "seed": config.seed,
            "attack": attack.label,
            "safety_margin": margin,
        },
        "results": results,
        "ledger": {
            "stages": report.ledger.as_dict(),
            "entries": ledger_entries,
            "total": report.ledger.total(),
        },
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_experiment(args.config, args)
    points = [
        (n, flip, rep)
        for n in cfg.block_sizes
        for flip in cfg.flip_probs
        for rep in range(cfg.repetitions)
    ]
    attacks = {n: _build_attack(cfg, n) for n in cfg.block_sizes}
    rows = []
    json_payloads = []
    for index, (n, flip, rep) in enumerate(points):
        attack = attacks[n]
        try:
            config = ProtocolConfig(
                block_size=n,
                num_blocks=cfg.num_blocks,
                mode=cfg.mode,
                channel_flip_prob=flip,
                sample_fraction=cfg.sample_fraction,
                seed=cfg.seed + index,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        started = time.perf_counter()
        report = run_session(config, attack)
        rates = empirical_rates(report)
        if report.sifted_bits:
            result = pipeline(report, rates, cfg.safety_margin)
        else:
            result = None
        elapsed = time.perf_counter() - started
        print(
            f"point {index}: n={n} flip={flip:g} rep={rep} "
            f"sifted={report.sifted_bits} ({elapsed:.2f}s)",
            file=sys.stderr,
        )
        stage_totals = report.ledger.as_dict()
        rows.append(
            {
                "mode": config.mode,
                "n": n,
                "num_blocks": config.num_blocks,
                "seed": config.seed,
                "attack": attack.label,
                "flip_prob": flip,
                "sifted_bits": report.sifted_bits,
                "qber_true": report.qber_true,
                "qber_estimated": report.qber_estimated,
                "i_ab": rates.i_ab,
                "i_ea": rates.i_ea,
                "i_eb": rates.i_eb,
                "ck_rate": rates.ck_rate,
                "final_key_len": 0 if result is None else len(result.final_key),
                **{f"bits_{stage}": stage_totals[stage] for stage in STAGES},
            }
        )
        json_payloads.append(
            (index, _session_json(config, attack, report, rates, result, cfg.safety_margin))
        )

    cfg.csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(cfg.csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row[col]) for col in CSV_COLUMNS) + "\n")
    cfg.json_dir.mkdir(parents=True, exist_ok=True)
    for index, payload in json_payloads:
        out = cfg.json_dir / f"session_{index:04d}.json"
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    print(f"wrote {cfg.csv_path} and {len(json_payloads)} session reports", file=sys.stderr)
    return 0


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if "," in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def cmd_verify(args: argparse.Namespace) -> int:
    block_sizes = _parse_list(args.block_sizes, int)
    ancillas = _parse_list(args.ancillas, int)
    for n in block_sizes:
        if n not in (2, 3):
            raise ConfigError(f"block size {n} outside the verifiable range {{2, 3}}")
    for m in ancillas:
        if m < 0 or m + max(block_sizes) > 8:
            raise ConfigError(f"ancilla count {m} puts the register past 8 qubits")
    cases = reduction_corpus(
        random_count=args.random_count,
        seed=args.seed,
        block_sizes=tuple(block_sizes),
        ancillas=tuple(ancillas),
    )
    if args.unitary_file:
        try:
            u = load_unitary(args.unitary_file)
        except (OSError, ValueError) as exc:
            print(f"rejected unitary file: {exc}", file=sys.stderr)
            return 1
        n = u.num_qubits - args.file_ancillas
        if n not in (2, 3):
            raise ConfigError(
                f"unitary file implies block size {n}, outside the verifiable range"
            )
        from .attacks import CorpusCase

        cases.append(CorpusCase(f"file({args.unitary_file})", u, n, args.file_ancillas))
    failures = 0
    for case in cases:
        outcome = verify_reduction(case.u, case.n, case.m)
        status = "ok" if outcome.passed else "FAIL"
        print(
            f"{case.name}: max deviation {outcome.max_deviation:.3e}, "
            f"weight deviation {outcome.max_weight_deviation:.3e} [{status}]"
        )
        if not outcome.passed:
            failures += 1
    if failures:
        print(f"{failures} of {len(cases)} cases failed", file=sys.stderr)
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.file)
    if not path.is_file():
        raise ConfigError(f"report file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not a JSON report: {exc}") from exc
    config = payload.get("config", {})
    results = payload.get("results", {})
    ledger = payload.get("ledger", {})
    print(f"session seed={config.get('seed')} attack={config.get('attack')}")
    print(
        f"  protocol: mode={config.get('mode')} n={config.get('block_size')} "
        f"blocks={config.get('num_blocks')} flip={config.get('channel_flip_prob')}"
    )
    for key in (
        "raw_qubits",
        "sifted_bits",
        "qber_true",
        "qber_estimated",
        "i_ab",
        "i_ea",
        "i_eb",
        "ck_rate",
        "final_key_len",
        "reason",
    ):
        if key in results:
            print(f"  {key} = {results[key]}")
    stages = ledger.get("stages", {})
    if stages:
        print("  random bits by stage:")
        for stage, bits in stages.items():
            print(f"    {stage:>16} {bits}")
    print(f"  total random bits = {ledger.get('total')}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blockqkd",
        description="Seed-deterministic BB84 simulator with block-wise basis choices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a configured sweep")
    run_p.add_argument("config", nargs="?", type=Path, help="key = value config file")
    run_p.add_argument("--block-size", dest="block_size", type=int)
    run_p.add_argument("--num-blocks", dest="num_blocks", type=int)
    run_p.add_argument("--mode", choices=MODES)
    run_p.add_argument("--flip-prob", dest="flip_prob", type=float)
    run_p.add_argument("--sample-fraction", dest="sample_fraction", type=float)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--repetitions", type=int)
    run_p.add_argument("--attack", choices=("none", "intercept_resend", "unitary_block"))
    run_p.add_argument("--fraction", type=float)
    run_p.add_argument("--granularity", choices=("per_qubit", "per_block"))
    run_p.add_argument("--unitary-file", dest="unitary_file")
    run_p.add_argument("--num-ancillas", dest="num_ancillas", type=int)
    run_p.add_argument("--output", help="aggregate CSV path")
    run_p.add_argument("--json-dir", dest="json_dir", help="per-session JSON directory")
    run_p.add_argument("--safety-margin", dest="safety_margin", type=int)
    run_p.set_defaults(func=cmd_run)

    verify_p = sub.add_parser("verify", help="singlet-simulation equivalence corpus")
    verify_p.add_argument("--block-sizes", dest="block_sizes", default="2,3")
    verify_p.add_argument("--ancillas", default="0,1,2")
    verify_p.add_argument("--random-count", dest="random_count", type=int, default=20)
    verify_p.add_argument("--seed", type=int, default=1234)
    verify_p.add_argument("--unitary-file", dest="unitary_file")
    verify_p.add_argument("--file-ancillas", dest="file_ancillas", type=int, default=0)
    verify_p.set_defaults(func=cmd_verify)

    report_p = sub.add_parser("report", help="pretty-print a session JSON report")
    report_p.add_argument("file")
    report_p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, distinct from bad configuration
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
