"""The benchmark's workloads: fixed session lists built from the workload seed.

A round runs a workload's whole session list once, as timed segments (one
per session or sweep point, plus CLI overhead) with the host clock's
reference kernel between them. Every round repeats the same sessions (same
configs, same seeds), so its outputs must repeat bit for bit, and the
yield and cost metrics depend on the workload seed alone.

Why these three (layer -> metric predictions are in README.md):

- block4_intercept: the per-block Python loop of run_session (prepare,
  intercept_resend, transmit, measure_rows, ledger draws) dominates; each
  per_block session has a per_qubit twin on the same seed, which uses the
  same layers with n times the basis draws and yields the paper's exact
  consumption ratios.
- block1000_clean: one hundred 1000-qubit blocks, so the loop is short and
  the classical pipeline (cascade's ledgered permutations, Toeplitz hashing
  of a ~40k-bit key) dominates.
- unitary_cli: `blockqkd run` and `blockqkd verify` in process, on the
  dense statevector path of a delayed CNOT-entangler attack, which the
  product-state fast path of the other two bypasses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (
    SessionSummary,
    check_session,
    check_toeplitz,
    check_twin_ratios,
    intercept_qber_model,
    summarize_cli_json,
    summarize_report,
)


@dataclass
class Segment:
    """One timed part of a round: measured wall and CPU seconds, and the
    factor (HostClock.scale) that turns them into reference-speed seconds."""

    wall_s: float
    cpu_s: float
    scale: float
    session: bool = True  # a session or sweep point, not CLI overhead

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s * self.scale


@dataclass
class Round:
    """One pass over a workload's session list."""

    segments: list[Segment]
    sessions: list[SessionSummary]
    bytes_written: int = 0
    output_sha256: str = ""
    attempted_extra: int = 0  # commands that are not sessions (verify)
    failed_extra: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(seg.wall_s for seg in self.segments)

    @property
    def scaled_wall_s(self) -> float:
        return sum(seg.scaled_wall_s for seg in self.segments)

    @property
    def attempted(self) -> int:
        return len(self.sessions) + self.attempted_extra

    @property
    def failed(self) -> int:
        return sum(1 for s in self.sessions if s.errors) + len(self.failed_extra)


def _session_seeds(name: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{name}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


class _ApiWorkload:
    """Sessions through the public API: run_session, empirical_rates, pipeline."""

    name = ""

    def __init__(self, bq, seed: int, workdir: Path):
        self.bq = bq
        self.margin = bq.postprocess.DEFAULT_SAFETY_MARGIN
        self.plan = self.make_plan(bq, seed)  # [(config, attack, qber_model)]

    def make_plan(self, bq, seed: int) -> list:
        raise NotImplementedError

    def _run(self, config, attack):
        bq = self.bq
        report = bq.run_session(config, attack)
        ledger_before = dict(report.ledger.counts)
        rates = bq.empirical_rates(report)
        result = bq.pipeline(report, rates)
        return report, ledger_before, result

    def warm_up(self) -> str:
        config, attack, model = self.plan[0]
        report, before, result = self._run(config, attack)
        return summarize_report(report, result, before, self.margin, model).fingerprint

    def run_round(self, clock, traced: bool = False) -> tuple[Round, list]:
        """Run the session list once, the reference kernel between sessions."""
        outputs, segments = [], []
        kernel_before = clock.probe()
        for config, attack, _ in self.plan:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                outputs.append(self._run(config, attack))
            except Exception as exc:  # a raising session is a failed session
                outputs.append(exc)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            kernel_after = clock.probe()
            segments.append(Segment(wall, cpu, clock.scale(kernel_before, kernel_after)))
            kernel_before = kernel_after
        sessions = []
        for (config, _, model), out in zip(self.plan, outputs):
            if isinstance(out, Exception):
                sessions.append(_raised(config, model, out))
                continue
            report, before, result = out
            summary = summarize_report(report, result, before, self.margin, model)
            summary.errors.extend(check_session(summary))
            sessions.append(summary)
        self.check_round(outputs, sessions)
        return Round(segments, sessions), outputs

    def check_round(self, outputs: list, sessions: list[SessionSummary]) -> None:
        """Workload-specific checks across sessions; adds to session errors."""

    def reference_check(self, outputs: list, seed: int) -> tuple[int, list[str]]:
        """Toeplitz reference check on the first session that produced a key."""
        for index, out in enumerate(outputs):
            if isinstance(out, Exception) or not out[2].ok:
                continue
            result = out[2]
            rec = result.reconciliation
            return index, check_toeplitz(
                self.bq, rec.corrected_key, rec.disclosed_parities, result.eve_info_bits,
                self.margin, seed,
            )
        return 0, ["no session produced a key for the Toeplitz reference check"]

    def close(self) -> None:
        pass


def _raised(config, model, exc: Exception) -> SessionSummary:
    summary = SessionSummary(
        mode=config.mode, block_size=config.block_size, num_blocks=config.num_blocks,
        raw_qubits=config.raw_qubits, kept_blocks=0, sifted_bits=0, estimation_disclosed=0,
        qber_true=0.0, qber_model=model, stages={}, total_random_bits=0, pa_seed_delta=0,
        reason="raised", final_key_len=0, margin=0, eve_info_bits=0.0, reconciliation=None,
        amplification=None, fingerprint="",
    )
    summary.errors.append(f"raised {type(exc).__name__}: {exc}")
    return summary


class Block4Intercept(_ApiWorkload):
    name = "block4_intercept"
    PAIRS = 4
    NUM_BLOCKS = 3000
    FLIP = 0.02
    FRACTION = 0.3

    def make_plan(self, bq, seed):
        attack = bq.BlockAttackSpec.intercept(self.FRACTION, "per_qubit")
        model = intercept_qber_model(self.FRACTION, self.FLIP)
        plan = []
        for s in _session_seeds(self.name, seed, self.PAIRS):
            for mode in ("per_block", "per_qubit"):
                config = bq.ProtocolConfig(4, self.NUM_BLOCKS, mode, self.FLIP, seed=s)
                plan.append((config, attack, model))
        return plan

    def check_round(self, outputs, sessions):
        for i in range(0, len(outputs), 2):
            pb, pq = outputs[i], outputs[i + 1]
            if isinstance(pb, Exception) or isinstance(pq, Exception):
                continue
            sessions[i].errors.extend(check_twin_ratios(self.bq, pb[0], pq[0]))


class Block1000Clean(_ApiWorkload):
    name = "block1000_clean"
    SESSIONS = 20
    FLIP = 0.02

    def make_plan(self, bq, seed):
        return [
            (bq.ProtocolConfig(1000, 100, "per_block", self.FLIP, seed=s), None, self.FLIP)
            for s in _session_seeds(self.name, seed, self.SESSIONS)
        ]


def cnot_qber_model(flip_prob: float) -> float:
    """Expected QBER under the delayed CNOT entangler on 2-qubit blocks.

    In an X-basis block, qubit 0 is entangled with Eve's ancilla and reads
    as a coin flip at Bob whatever the channel does: a quarter of the
    X-basis bits, an eighth of all sifted bits. The rest see only flips.
    """
    a = 1.0 / 8.0
    return a * (1.0 - flip_prob) + (1.0 - a) * flip_prob


class _PointClock:
    """Wall and CPU time of each sweep point inside `blockqkd run`: from the
    start of run_session to the end of that point's last call of
    run_session, empirical_rates or pipeline, as imported by the cli module.
    The reference kernel runs before each point but the first, untimed."""

    NAMES = ("run_session", "empirical_rates", "pipeline")

    def __init__(self, cli, clock):
        self.cli = cli
        self.clock = clock
        self.points: list[list[float]] = []  # [wall0, cpu0, wall1, cpu1]
        self.probes: list[float] = []
        self.probe_cpu_s = 0.0
        self._originals = {name: getattr(cli, name) for name in self.NAMES}

    def _wrap(self, name, fn):
        def timed(*args, **kwargs):
            if name == "run_session":
                if self.points:
                    cpu0 = time.process_time()
                    self.probes.append(self.clock.probe())
                    self.probe_cpu_s += time.process_time() - cpu0
                self.points.append([time.perf_counter(), time.process_time(), 0.0, 0.0])
            result = fn(*args, **kwargs)
            self.points[-1][2:] = time.perf_counter(), time.process_time()
            return result
        return timed

    def __enter__(self):
        for name, fn in self._originals.items():
            setattr(self.cli, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for name, fn in self._originals.items():
            setattr(self.cli, name, fn)

    def segments(self, before: float, after: float, run_wall: float, run_cpu: float) -> list[Segment]:
        """One segment per point, bracketed by the kernel runs around it, and
        one for the rest of the command (parsing, loading, report writing),
        scaled by the median kernel run of the command."""
        probes = [before, *self.probes, after]
        out = [
            Segment(w1 - w0, c1 - c0, self.clock.scale(probes[k], probes[k + 1]))
            for k, (w0, c0, w1, c1) in enumerate(self.points)
        ]
        median = statistics.median(probes)
        out.append(Segment(
            run_wall - sum(seg.wall_s for seg in out) - sum(self.probes),
            run_cpu - sum(seg.cpu_s for seg in out) - self.probe_cpu_s,
            self.clock.scale(median, median),
            session=False,
        ))
        return out


class UnitaryCli:
    name = "unitary_cli"
    NUM_BLOCKS = 1500
    FLIPS = (0.0, 0.02)
    REPETITIONS = 20
    ANCILLAS = 1

    def __init__(self, bq, seed: int, workdir: Path):
        self.bq = bq
        self.dir = workdir / self.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.unitary_file = self.dir / "cnot.txt"
        bq.save_unitary(self.unitary_file, bq.attacks.cnot_entangler())
        self.base_seed = _session_seeds(self.name, seed, 1)[0]
        self.out_dir = self.dir / "out"
        self.config = self._write_config("sweep.ini", self.out_dir, self.FLIPS, self.REPETITIONS)
        # Point 0 of the sweep alone: same seed, flip and size.
        self.warm_dir = self.dir / "warm"
        self.warm_config = self._write_config("warm.ini", self.warm_dir, self.FLIPS[:1], 1)
        self.margin = bq.postprocess.DEFAULT_SAFETY_MARGIN

    def _write_config(self, filename, out_dir: Path, flips, repetitions) -> Path:
        path = self.dir / filename
        path.write_text(
            "[protocol]\n"
            "block_size = 2\n"
            f"num_blocks = {self.NUM_BLOCKS}\n"
            "mode = per_block\n"
            f"seed = {self.base_seed}\n"
            "[sweep]\n"
            f"flip_probs = {', '.join(repr(f) for f in flips)}\n"
            f"repetitions = {repetitions}\n"
            "[attack]\n"
            "variant = unitary_block\n"
            "delayed = true\n"
            f"unitary_file = {self.unitary_file}\n"
            f"num_ancillas = {self.ANCILLAS}\n"
            "[output]\n"
            f"csv = {out_dir / 'sweep.csv'}\n",
            encoding="utf-8",
        )
        return path

    def _flip_of_point(self, index: int) -> float:
        return self.FLIPS[index // self.REPETITIONS]

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = self.bq.cli.main(argv)
        return rc, out.getvalue()

    def _summaries(self, out_dir: Path) -> list[SessionSummary]:
        sessions = []
        for index, path in enumerate(sorted((out_dir / "sweep_sessions").glob("session_*.json"))):
            payload = json.loads(path.read_text(encoding="utf-8"))
            summary = summarize_cli_json(payload, cnot_qber_model(self._flip_of_point(index)))
            summary.errors.extend(check_session(summary))
            sessions.append(summary)
        return sessions

    def warm_up(self) -> str:
        shutil.rmtree(self.warm_dir, ignore_errors=True)
        rc, _ = self._cli(["run", str(self.warm_config)])
        if rc != 0:
            return f"warm-up run exited {rc}"
        return self._summaries(self.warm_dir)[0].fingerprint

    def run_round(self, clock, traced: bool = False) -> tuple[Round, None]:
        """`blockqkd run` then `blockqkd verify`, the reference kernel before,
        between and after them, and between sweep points unless traced (the
        tracer wraps the same cli functions)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        verify_argv = ["verify", "--unitary-file", str(self.unitary_file),
                       "--file-ancillas", str(self.ANCILLAS)]
        point_clock = None if traced else _PointClock(self.bq.cli, clock)
        before = clock.probe()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with point_clock or contextlib.nullcontext():
            run_rc, _ = self._cli(["run", str(self.config)])
        run_wall, run_cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        middle = clock.probe()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        verify_rc, verify_out = self._cli(verify_argv)
        verify = Segment(time.perf_counter() - wall0, time.process_time() - cpu0,
                         clock.scale(middle, clock.probe()), session=False)
        if point_clock is None:
            segments = [Segment(run_wall, run_cpu, clock.scale(before, middle), session=False)]
        else:
            segments = point_clock.segments(before, middle, run_wall, run_cpu)

        points = len(self.FLIPS) * self.REPETITIONS
        sessions = self._summaries(self.out_dir)
        round_ = Round(segments + [verify], sessions, attempted_extra=1)
        if run_rc != 0 or len(sessions) != points:
            round_.failed_extra.append(f"run exited {run_rc} with {len(sessions)} of {points} reports")
        lines = verify_out.splitlines()
        if verify_rc != 0 or not lines or not all(line.endswith("[ok]") for line in lines):
            round_.failed_extra.append(f"verify exited {verify_rc}")
        files = sorted(p for p in self.out_dir.rglob("*") if p.is_file())
        digest = hashlib.sha256()
        for path in files:
            digest.update(str(path.relative_to(self.out_dir)).encode())
            digest.update(path.read_bytes())
        round_.bytes_written = sum(p.stat().st_size for p in files)
        round_.output_sha256 = digest.hexdigest()
        return round_, None

    def reference_check(self, outputs, seed: int) -> tuple[int, list[str]]:
        """Re-run sweep points through the API until one yields a key: its
        final key must equal the CLI's, and its hash passes the Toeplitz
        reference check."""
        bq = self.bq
        unitary = bq.load_unitary(self.unitary_file)
        attack = bq.BlockAttackSpec.unitary(unitary, 2, self.ANCILLAS, True)
        reports = sorted((self.out_dir / "sweep_sessions").glob("session_*.json"))
        for index, path in enumerate(reports):
            config = bq.ProtocolConfig(
                2, self.NUM_BLOCKS, "per_block", self._flip_of_point(index), seed=self.base_seed + index
            )
            report = bq.run_session(config, attack)
            result = bq.pipeline(report, bq.empirical_rates(report), self.margin)
            cli_hex = json.loads(path.read_text(encoding="utf-8"))["results"]["final_key_hex"]
            if np.packbits(result.final_key).tobytes().hex() != cli_hex:
                return index, ["API re-run of a sweep point differs from the CLI's final key"]
            if result.ok:
                rec = result.reconciliation
                return index, check_toeplitz(
                    bq, rec.corrected_key, rec.disclosed_parities, result.eve_info_bits,
                    self.margin, seed,
                )
        return 0, ["no sweep point produced a key for the Toeplitz reference check"]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Block4Intercept, Block1000Clean, UnitaryCli)}
