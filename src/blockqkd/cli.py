"""Experiment runner.

Subcommands:

- run: execute seeded sessions over a sweep (block sizes x flip
  probabilities x repetitions), write one JSON report per session and an
  aggregate CSV. Point i runs with seed base_seed + i, so points are
  independent and the whole sweep is reproducible byte for byte.
- verify: run the real-block vs singlet-simulation equivalence corpus and
  print one max-deviation line per case.
- report: pretty-print a session JSON report.

Configuration is a flat key = value file with [bracketed] sections. Each
`run` setting is declared once, in SETTINGS, with its flag; a flag
overrides its config key, and an unknown key or a bad value is a
configuration error (exit code 2). Wall-clock timings go to stderr only,
so the files an experiment writes are identical across reruns.
"""

from __future__ import annotations

import argparse
import configparser
import json
import platform
import re
import sys
import time
from dataclasses import fields
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .attacks import (
    ATTACK_VARIANTS,
    GRANULARITIES,
    BlockAttackSpec,
    CorpusCase,
    check_reduction_size,
    load_unitary,
    reduction_corpus,
    verify_reduction,
)
from .postprocess import DEFAULT_SAFETY_MARGIN, pipeline
from .protocol import MODES, ProtocolConfig, empirical_rates, run_session
from .randomness import PARTIES, STAGES

# Each CSV column: (name, section of the session's JSON report, key, value
# when the key is absent). Only an empty session's report lacks keys: it has
# no QBERs, rates or key, so its row reads 0.0 for each and 0 for
# final_key_len. "stages" is the ledger's per-stage totals.
CSV_CELLS = (
    ("mode", "config", "mode", None),
    ("n", "config", "block_size", None),
    ("num_blocks", "config", "num_blocks", None),
    ("seed", "config", "seed", None),
    ("attack", "config", "attack", None),
    ("flip_prob", "config", "channel_flip_prob", None),
    ("sifted_bits", "results", "sifted_bits", None),
    ("qber_true", "results", "qber_true", 0.0),
    ("qber_estimated", "results", "qber_estimated", 0.0),
    ("i_ab", "results", "i_ab", 0.0),
    ("i_ea", "results", "i_ea", 0.0),
    ("i_eb", "results", "i_eb", 0.0),
    ("ck_rate", "results", "ck_rate", 0.0),
    ("final_key_len", "results", "final_key_len", 0),
) + tuple((f"bits_{stage}", "stages", stage, None) for stage in STAGES)
CSV_COLUMNS = tuple(column for column, *_ in CSV_CELLS)


class ConfigError(Exception):
    """Anything wrong with the requested configuration (exit code 2)."""


def _parse_list(text: str, convert):
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"empty list value: {text!r}")
    try:
        return [convert(part) for part in items]
    except ValueError as exc:
        raise ConfigError(f"bad list value {text!r}: {exc}") from exc


# Every `run` setting: (section, key, type or tuple of choices, default,
# flag); [type] is a comma-separated list, and a bool's flag is a pair of
# flags that set it true and false. A flag beats the file and the file
# beats the default. A [sweep] list replaces its [protocol] scalar unless
# the scalar's flag is given. The [protocol] keys are ProtocolConfig's fields.
SETTINGS = (
    ("protocol", "block_size", int, 4, "--block-size"),
    ("protocol", "num_blocks", int, 100, "--num-blocks"),
    ("protocol", "mode", MODES, "per_block", "--mode"),
    ("protocol", "channel_flip_prob", float, 0.0, "--flip-prob"),
    ("protocol", "sample_fraction", float, 0.2, "--sample-fraction"),
    ("protocol", "seed", int, 0, "--seed"),
    ("sweep", "block_sizes", [int], None, None),
    ("sweep", "flip_probs", [float], None, None),
    ("sweep", "repetitions", int, 1, "--repetitions"),
    ("attack", "variant", ATTACK_VARIANTS, "none", "--attack"),
    ("attack", "fraction", float, 0.0, "--fraction"),
    ("attack", "granularity", GRANULARITIES, "per_qubit", "--granularity"),
    ("attack", "delayed", bool, True, ("--delayed", "--immediate")),
    ("attack", "unitary_file", str, "", "--unitary-file"),
    ("attack", "num_ancillas", int, 0, "--num-ancillas"),
    ("output", "csv", str, "results.csv", "--output"),
    ("output", "json_dir", str, "", "--json-dir"),
    ("output", "safety_margin", int, DEFAULT_SAFETY_MARGIN, "--safety-margin"),
)


def _read_setting(parser: configparser.ConfigParser, section: str, key: str, kind):
    try:
        text = parser.get(section, key)
    except configparser.InterpolationError as exc:  # a stray '%'
        raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    if isinstance(kind, list):
        return _parse_list(text, kind[0])
    if isinstance(kind, tuple):
        if text not in kind:
            raise ConfigError(f"[{section}] {key} must be one of {kind}, not {text!r}")
        return text
    try:
        return parser.getboolean(section, key) if kind is bool else kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {text!r}") from exc


def load_experiment(path: Path | None, args: argparse.Namespace) -> dict:
    """The `run` settings by key, from the file at `path` and the flags."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    known = {(section, key) for section, key, *_ in SETTINGS}
    for section in (parser.default_section, *parser.sections()):
        for key in parser[section]:
            if (section, key) not in known:
                raise ConfigError(f"unknown key [{section}] {key}")

    cfg = {}
    for section, key, kind, default, flag in SETTINGS:
        if flag and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
        elif parser.has_option(section, key):
            cfg[key] = _read_setting(parser, section, key, kind)
        else:
            cfg[key] = default
    for scalar, listed in (("block_size", "block_sizes"), ("channel_flip_prob", "flip_probs")):
        if cfg[listed] is None or getattr(args, scalar) is not None:
            cfg[listed] = [cfg[scalar]]
    # checked before any session runs, so a bad output path loses no work
    if not cfg["csv"] or Path(cfg["csv"]).is_dir():
        raise ConfigError(f"[output] csv must name a file, not {cfg['csv']!r}")
    cfg["csv"] = Path(cfg["csv"])
    cfg["json_dir"] = Path(cfg["json_dir"] or cfg["csv"].parent / f"{cfg['csv'].stem}_sessions")
    for key, folder in (("csv", cfg["csv"].parent), ("json_dir", cfg["json_dir"])):
        files = [p for p in (folder, *folder.parents) if p.exists() and not p.is_dir()]
        if files:
            raise ConfigError(f"[output] {key} needs a directory where a file is: {files[0]}")
    if cfg["repetitions"] < 1:
        raise ConfigError("repetitions must be >= 1")
    if cfg["safety_margin"] < 0:
        raise ConfigError("safety_margin must be >= 0")
    # checked whatever the variant, like the choices above
    if not 0.0 <= cfg["fraction"] <= 1.0:
        raise ConfigError("fraction must lie in [0, 1]")
    if cfg["num_ancillas"] < 0:
        raise ConfigError("num_ancillas must be >= 0")
    return cfg


def _build_attack(cfg: dict, block_size: int) -> BlockAttackSpec:
    if cfg["variant"] == "none":
        return BlockAttackSpec.none()
    if cfg["variant"] == "intercept_resend":
        return BlockAttackSpec.intercept(cfg["fraction"], cfg["granularity"])
    if not cfg["unitary_file"]:
        raise ConfigError("unitary_block attack needs unitary_file")
    try:
        u = load_unitary(cfg["unitary_file"])
    except OSError as exc:
        raise ConfigError(f"cannot read unitary file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad unitary file: {exc}") from exc
    return BlockAttackSpec.unitary(u, block_size, cfg["num_ancillas"], cfg["delayed"])


def _plan(cfg: dict) -> list[tuple[ProtocolConfig, BlockAttackSpec, int]]:
    """Each sweep point's (config, attack, repetition) in order, all checked
    before any session runs. The points of one block size share an attack;
    each session builds its own outcome tables from it."""
    protocol = {key: cfg[key] for section, key, *_ in SETTINGS if section == "protocol"}
    points = []
    try:
        attacks = {n: _build_attack(cfg, n) for n in cfg["block_sizes"]}
        sweep = product(cfg["block_sizes"], cfg["flip_probs"], range(cfg["repetitions"]))
        for n, flip, rep in sweep:
            point = {"block_size": n, "channel_flip_prob": flip, "seed": cfg["seed"] + len(points)}
            config = ProtocolConfig(**{**protocol, **point})
            attacks[n].check_fits(config)
            points.append((config, attacks[n], rep))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return points


def _fields(obj) -> dict | None:
    """A dataclass's fields in declaration order, arrays left out; None
    for None."""
    if obj is None:
        return None
    values = ((f.name, getattr(obj, f.name)) for f in fields(obj))
    return {name: value for name, value in values if not isinstance(value, np.ndarray)}


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
            **_fields(rates),
            "eve_info_bits": result.eve_info_bits,
            "reconciliation": _fields(result.reconciliation),
            "amplification": _fields(result.amplification),
            "final_key_len": len(result.final_key),
            "final_key_hex": np.packbits(result.final_key).tobytes().hex(),
            "reason": result.reason,
        }
    return {
        "config": {**_fields(config), "attack": attack.label, "safety_margin": margin},
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
    points = _plan(cfg)
    # a larger earlier run's reports would sit beside this run's, unlisted in its CSV
    stale = [p for p in cfg["json_dir"].glob("session_*.json") if _report_index(p) >= len(points)]
    if stale:
        first = min(stale, key=_report_index)
        raise ConfigError(
            f"[output] json_dir holds {first}, beyond this run's {len(points)} reports;"
            " move or delete it"
        )
    margin = cfg["safety_margin"]
    payloads = []
    for index, (config, attack, rep) in enumerate(points):
        started = time.perf_counter()
        report = run_session(config, attack)
        rates = empirical_rates(report)
        result = pipeline(report, rates, margin) if report.sifted_bits else None
        elapsed = time.perf_counter() - started
        print(
            f"point {index}: n={config.block_size} flip={config.channel_flip_prob:g} "
            f"rep={rep} sifted={report.sifted_bits} ({elapsed:.2f}s)",
            file=sys.stderr,
        )
        payloads.append(_session_json(config, attack, report, rates, result, margin))

    csv_path, json_dir = cfg["csv"], cfg["json_dir"]
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for payload in payloads:
            fh.write(_csv_row(payload) + "\n")
    json_dir.mkdir(parents=True, exist_ok=True)
    for index, payload in enumerate(payloads):
        out = json_dir / f"session_{index:04d}.json"
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    print(f"wrote {csv_path} and {len(payloads)} session reports", file=sys.stderr)
    return 0


def _report_index(path: Path) -> int:
    """NNNN of a session_NNNN.json report name, or -1 for another name."""
    match = re.fullmatch(r"session_([0-9]{4,})\.json", path.name)
    return int(match[1]) if match else -1


def _csv_row(payload: dict) -> str:
    """One session's CSV line, read from its JSON report by CSV_CELLS."""
    sections = {**payload, "stages": payload["ledger"]["stages"]}
    cells = (sections[section].get(key, empty) for _, section, key, empty in CSV_CELLS)
    return ",".join(_csv_cell(cell) for cell in cells)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if "," in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        cases = reduction_corpus(
            random_count=args.random_count,
            seed=args.seed,
            block_sizes=tuple(_parse_list(args.block_sizes, int)),
            ancillas=tuple(_parse_list(args.ancillas, int)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.unitary_file:
        try:
            u = load_unitary(args.unitary_file)
        except (OSError, ValueError) as exc:
            print(f"rejected unitary file: {exc}", file=sys.stderr)
            return 1
        m = args.file_ancillas
        n = u.num_qubits - m
        try:
            check_reduction_size(n, m)
        except ValueError as exc:
            raise ConfigError(
                f"unitary file of {u.num_qubits} qubits, {m} ancillas: {exc}"
            ) from exc
        cases.append(CorpusCase(f"file({args.unitary_file})", u, n, m))
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


def _section(payload: dict, key: str) -> dict:
    """payload[key] as an object ({} when absent), or a ConfigError."""
    value = payload.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"not a JSON report: {key!r} is a {type(value).__name__}")
    return value


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.file)
    if not path.is_file():
        raise ConfigError(f"report file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not a JSON report: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"not a JSON report: the top level is a {type(payload).__name__}")
    config, results, ledger = (_section(payload, key) for key in ("config", "results", "ledger"))
    stages = _section(ledger, "stages")
    print(f"session seed={config.get('seed')} attack={config.get('attack')}")
    print(
        f"  protocol: mode={config.get('mode')} n={config.get('block_size')} "
        f"blocks={config.get('num_blocks')} flip={config.get('channel_flip_prob')}"
    )
    shown = (key for _, section, key, _ in CSV_CELLS if section == "results")
    for key in ("raw_qubits", *shown, "reason"):
        if key in results:
            print(f"  {key} = {results[key]}")
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
    for section, key, kind, _, flag in SETTINGS:
        if kind is bool:
            on, off = flag
            run_p.add_argument(on, dest=key, action=argparse.BooleanOptionalAction,
                               help=f"[{section}] {key}")
            run_p.add_argument(off, dest=key, action="store_false", default=None,
                               help=f"[{section}] {key} = false")
        elif flag:
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            run_p.add_argument(flag, dest=key, help=f"[{section}] {key}", **typed)
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
