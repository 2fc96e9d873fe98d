import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockqkd
from blockqkd.attacks import cnot_entangler, save_unitary
from blockqkd.cli import CSV_COLUMNS, main
from blockqkd.quantum import UnitarySpec
from blockqkd.randomness import STAGES


def write_config(path, body):
    path.write_text(body, encoding="utf-8")
    return str(path)


def read_csv(path):
    import csv as csv_mod

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv_mod.reader(fh)
        header = next(reader)
        rows = [dict(zip(header, line)) for line in reader]
    return header, rows


# --- run -----------------------------------------------------------------------


def test_run_minimal_config(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    config = write_config(
        tmp_path / "exp.ini",
        f"""
[protocol]
block_size = 4
num_blocks = 150
seed = 11

[output]
csv = {csv_path}
""",
    )
    assert main(["run", config]) == 0
    header, rows = read_csv(csv_path)
    assert header == list(CSV_COLUMNS)
    assert len(rows) == 1
    row = rows[0]
    assert row["mode"] == "per_block"
    assert row["n"] == "4"
    assert row["seed"] == "11"
    assert row["attack"] == "none"
    assert float(row["qber_true"]) == 0.0
    assert int(row["final_key_len"]) > 0
    # default JSON directory sits next to the CSV
    session = tmp_path / "out_sessions" / "session_0000.json"
    assert session.is_file()
    payload = json.loads(session.read_text())
    assert list(payload) == ["config", "results", "ledger", "versions"]
    assert payload["config"]["seed"] == 11
    assert payload["results"]["reason"] == "ok"
    assert payload["ledger"]["total"] == sum(payload["ledger"]["stages"].values())
    # progress goes to stderr, never stdout
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "point 0" in captured.err


def test_run_sweep_row_count_and_seeds(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    config = write_config(
        tmp_path / "exp.ini",
        f"""
[protocol]
num_blocks = 30
seed = 100

[sweep]
block_sizes = 1, 2, 3, 4, 6, 8
repetitions = 5

[output]
csv = {csv_path}
""",
    )
    assert main(["run", config]) == 0
    _, rows = read_csv(csv_path)
    assert len(rows) == 30
    # point i runs with seed base + i, in sweep order
    assert [int(r["seed"]) for r in rows] == list(range(100, 130))
    assert [int(r["n"]) for r in rows] == [n for n in (1, 2, 3, 4, 6, 8) for _ in range(5)]
    sessions = sorted((tmp_path / "sweep_sessions").glob("session_*.json"))
    assert len(sessions) == 30


def test_run_missing_config_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.ini")]) == 2


def test_run_bad_values_exit_2(tmp_path):
    csv_path = tmp_path / "x.csv"
    assert main(["run", "--block-size", "0", "--output", str(csv_path)]) == 2
    assert main(["run", "--repetitions", "0", "--output", str(csv_path)]) == 2
    config = write_config(
        tmp_path / "bad.ini",
        "[protocol]\nmode = per_photon\n",
    )
    assert main(["run", config]) == 2
    # booleans are strict: a misspelt value must not silently mean false
    config = write_config(tmp_path / "typo.ini", "[attack]\ndelayed = ture\n")
    assert main(["run", config, "--output", str(csv_path)]) == 2
    # '%' starts an interpolation; a stray one is a bad value
    config = write_config(tmp_path / "pct.ini", f"[output]\ncsv = {tmp_path}/a%b.csv\n")
    assert main(["run", config]) == 2
    assert not csv_path.exists()


def test_run_unknown_key_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "x.csv"
    config = write_config(tmp_path / "typo.ini", "[protocol]\nblocksize = 4\n")
    assert main(["run", config, "--output", str(csv_path)]) == 2
    assert "unknown key [protocol] blocksize" in capsys.readouterr().err
    # a known key in the wrong section is unknown there
    config = write_config(tmp_path / "moved.ini", "[attack]\nseed = 4\n")
    assert main(["run", config, "--output", str(csv_path)]) == 2
    assert not csv_path.exists()


def test_run_bad_choice_in_file_exits_2(tmp_path, capsys):
    # checked like the flag's choices, even where the attack ignores it
    csv_path = tmp_path / "x.csv"
    config = write_config(
        tmp_path / "bad.ini", "[attack]\nvariant = none\ngranularity = per_photon\n"
    )
    assert main(["run", config, "--output", str(csv_path)]) == 2
    assert "[attack] granularity" in capsys.readouterr().err
    assert not csv_path.exists()


def test_run_negative_safety_margin_exits_2(tmp_path):
    csv_path = tmp_path / "x.csv"
    base = ["run", "--block-size", "4", "--num-blocks", "300", "--seed", "3"]
    assert main([*base, "--safety-margin", "-1", "--output", str(csv_path)]) == 2
    config = write_config(tmp_path / "neg.ini", "[output]\nsafety_margin = -200\n")
    assert main([*base, config, "--output", str(csv_path)]) == 2
    assert not csv_path.exists()


@pytest.mark.parametrize(
    "case",
    ["empty_flag", "empty_in_file", "csv_is_dir", "json_dir_is_file", "csv_under_file",
     "json_dir_under_file"],
)
def test_run_bad_output_paths_exit_2_before_any_session(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "results").mkdir()
    (tmp_path / "afile").write_text("kept\n", encoding="utf-8")
    config = write_config(tmp_path / "out.ini", "[output]\ncsv =\n")
    output = {
        "empty_flag": ["--output", ""],
        "empty_in_file": [config],
        "csv_is_dir": ["--output", "results/"],
        "json_dir_is_file": ["--output", "x.csv", "--json-dir", "afile"],
        "csv_under_file": ["--output", "afile/x.csv"],
        "json_dir_under_file": ["--output", "x.csv", "--json-dir", "afile/sessions"],
    }[case]
    before = sorted(tmp_path.rglob("*"))
    assert main(["run", "--num-blocks", "20", *output]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error: [output]" in err and "point 0" not in err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("sweep", ["flip_probs = 0.01, 1.5", "block_sizes = 4, 0"])
def test_run_bad_sweep_value_exits_2_before_any_session(tmp_path, capsys, sweep):
    # the bad value is the second point's: the first must not run either
    config = write_config(tmp_path / "sweep.ini", f"[protocol]\nnum_blocks = 20\n[sweep]\n{sweep}\n")
    before = sorted(tmp_path.rglob("*"))
    assert main(["run", config, "--output", str(tmp_path / "x.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error" in err and "point 0" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_run_into_a_larger_runs_reports_exits_2_before_any_session(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    base = ["run", "--num-blocks", "40", "--output", "o/x.csv"]
    assert main([*base, "--repetitions", "3"]) == 0
    capsys.readouterr()
    before = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert main([*base, "--repetitions", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert str(Path("o/x_sessions/session_0001.json")) in err and "point 0" not in err
    assert {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()} == before
    # as many points as reports, or more, rewrite them all
    assert main([*base, "--repetitions", "3"]) == 0
    assert {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()} == before


def test_run_calls_each_session_stage_once_per_point_in_order(tmp_path, monkeypatch):
    # benchmark/workloads.py times each sweep point by wrapping these names
    # in the cli module
    stages = ("run_session", "empirical_rates", "pipeline")
    calls = []

    def counting(name, fn):
        def wrapped(first, *args, **kwargs):
            calls.append((name, (first if name == "run_session" else first.config).seed))
            return fn(first, *args, **kwargs)
        return wrapped

    for name in stages:
        monkeypatch.setattr(blockqkd.cli, name, counting(name, getattr(blockqkd.cli, name)))
    argv = ["run", "--num-blocks", "200", "--seed", "40", "--repetitions", "3",
            "--output", str(tmp_path / "x.csv")]
    assert main(argv) == 0
    assert calls == [(name, 40 + point) for point in range(3) for name in stages]


def test_run_attack_ranges_checked_for_every_variant(tmp_path, capsys):
    # the default variant is none, which reads neither value
    csv_path = tmp_path / "x.csv"
    assert main(["run", "--fraction", "2", "--output", str(csv_path)]) == 2
    assert "fraction" in capsys.readouterr().err
    assert main(["run", "--num-ancillas", "-4", "--output", str(csv_path)]) == 2
    assert "num_ancillas" in capsys.readouterr().err
    config = write_config(tmp_path / "neg.ini", "[attack]\nfraction = -0.5\n")
    assert main(["run", config, "--output", str(csv_path)]) == 2
    config = write_config(tmp_path / "nan.ini", "[attack]\nfraction = nan\n")
    assert main(["run", config, "--output", str(csv_path)]) == 2
    assert not csv_path.exists()


def nan_unitary_file(tmp_path):
    """The 2-qubit identity with one NaN entry."""
    rows = [
        " ".join("nan,0" if i == j == 0 else f"{int(i == j)},0" for j in range(4))
        for i in range(4)
    ]
    path = tmp_path / "nan.txt"
    path.write_text("dim 4\n" + "\n".join(rows) + "\n")
    return str(path)


def test_run_nan_unitary_file_exits_2(tmp_path, capsys):
    argv = ["run", "--block-size", "2", "--attack", "unitary_block",
            "--unitary-file", nan_unitary_file(tmp_path), "--output", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    assert "bad unitary file" in capsys.readouterr().err


def test_run_unitary_per_qubit_exits_2_before_any_session(tmp_path, capsys):
    u_path = tmp_path / "cnot.txt"
    save_unitary(u_path, cnot_entangler())
    csv_path = tmp_path / "x.csv"
    argv = ["run", "--block-size", "2", "--attack", "unitary_block", "--unitary-file",
            str(u_path), "--num-ancillas", "1", "--mode", "per_qubit", "--output", str(csv_path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "per_block mode" in err and "point 0" not in err
    assert not csv_path.exists()


def test_run_negative_seed_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "x.csv"
    assert main(["run", "--seed", "-5", "--num-blocks", "50", "--output", str(csv_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "seed must be >= 0" in err and "point 0" not in err
    assert not csv_path.exists()


def test_run_flag_overrides_config(tmp_path):
    csv_path = tmp_path / "o.csv"
    config = write_config(
        tmp_path / "exp.ini",
        f"""
[protocol]
block_size = 4
num_blocks = 120
seed = 5

[output]
csv = {csv_path}
""",
    )
    assert main(["run", config, "--block-size", "2", "--seed", "9"]) == 0
    _, rows = read_csv(csv_path)
    assert rows[0]["n"] == "2"
    assert rows[0]["seed"] == "9"


def test_run_reruns_byte_identical(tmp_path):
    outputs = []
    for name in ("a", "b"):
        csv_path = tmp_path / name / "r.csv"
        assert (
            main(
                [
                    "run",
                    "--block-size",
                    "4",
                    "--num-blocks",
                    "200",
                    "--flip-prob",
                    "0.02",
                    "--seed",
                    "42",
                    "--output",
                    str(csv_path),
                ]
            )
            == 0
        )
        session = csv_path.parent / "r_sessions" / "session_0000.json"
        outputs.append((csv_path.read_bytes(), session.read_bytes()))
    assert outputs[0] == outputs[1]


def test_run_intercept_attack_columns(tmp_path):
    csv_path = tmp_path / "atk.csv"
    assert (
        main(
            [
                "run",
                "--block-size",
                "4",
                "--num-blocks",
                "500",
                "--seed",
                "7",
                "--attack",
                "intercept_resend",
                "--fraction",
                "1.0",
                "--output",
                str(csv_path),
            ]
        )
        == 0
    )
    _, rows = read_csv(csv_path)
    row = rows[0]
    # the attack label contains a comma, so the cell is quoted
    assert "intercept_resend" in row["attack"]
    assert abs(float(row["qber_true"]) - 0.25) < 0.05
    assert float(row["i_ea"]) > 0.3
    assert float(row["ck_rate"]) < 0.0
    assert int(row["final_key_len"]) == 0
    assert int(row["bits_attack"]) > 0
    for stage in STAGES:
        assert f"bits_{stage}" in row


def test_run_unitary_attack_from_file(tmp_path):
    u_path = tmp_path / "cnot.txt"
    save_unitary(u_path, cnot_entangler())
    csv_path = tmp_path / "u.csv"
    base = [
        "run",
        "--num-blocks",
        "100",
        "--seed",
        "3",
        "--attack",
        "unitary_block",
        "--unitary-file",
        str(u_path),
        "--num-ancillas",
        "1",
        "--output",
        str(csv_path),
    ]
    assert main(base + ["--block-size", "2"]) == 0
    _, rows = read_csv(csv_path)
    assert "unitary_block" in rows[0]["attack"]
    # the file fixes n = qubits - ancillas = 2; any other sweep size is
    # a configuration error
    assert main(base + ["--block-size", "3"]) == 2


@pytest.mark.parametrize(
    "in_file,flag,expected",
    [
        ("no", "--delayed", "delayed"),
        ("yes", "--immediate", "immediate"),
        ("yes", "--no-delayed", "immediate"),
        ("no", None, "immediate"),
        ("yes", None, "delayed"),
    ],
)
def test_run_delayed_flags_beat_file(tmp_path, in_file, flag, expected):
    u_path = tmp_path / "cnot.txt"
    save_unitary(u_path, cnot_entangler())
    csv_path = tmp_path / "d.csv"
    config = write_config(
        tmp_path / "exp.ini",
        f"""
[protocol]
block_size = 2
num_blocks = 40

[attack]
variant = unitary_block
delayed = {in_file}
unitary_file = {u_path}
num_ancillas = 1

[output]
csv = {csv_path}
""",
    )
    assert main(["run", config] + ([flag] if flag else [])) == 0
    _, rows = read_csv(csv_path)
    assert rows[0]["attack"] == f"unitary_block(n=2,m=1,{expected})"


def test_run_empty_session_json(tmp_path):
    # a single per_block block is discarded for some seed; its JSON
    # reports no sifted bits instead of fabricating results
    for seed in range(50):
        csv_path = tmp_path / f"s{seed}" / "e.csv"
        assert (
            main(
                [
                    "run",
                    "--block-size",
                    "4",
                    "--num-blocks",
                    "1",
                    "--seed",
                    str(seed),
                    "--output",
                    str(csv_path),
                ]
            )
            == 0
        )
        _, rows = read_csv(csv_path)
        if int(rows[0]["sifted_bits"]) == 0:
            payload = json.loads(
                (csv_path.parent / "e_sessions" / "session_0000.json").read_text()
            )
            assert payload["results"]["reason"] == "no_sifted_bits"
            assert int(rows[0]["final_key_len"]) == 0
            ledger = payload["ledger"]
            assert ledger["total"] > 0
            assert sum(ledger["entries"].values()) == ledger["total"]
            return
    pytest.fail("no discarded single-block session in 50 seeds")


# --- verify ---------------------------------------------------------------------


def test_verify_small_corpus_ok(capsys):
    assert main(["verify", "--random-count", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    # 6 identities + the entangler + 2 randoms
    assert len(out) == 9
    assert all("[ok]" in line for line in out)
    assert all("max deviation" in line for line in out)


def test_verify_runs_every_size_the_register_holds(capsys):
    args = ["verify", "--block-sizes", "1,4,5", "--ancillas", "0,1", "--random-count", "6"]
    assert main(args) == 0
    out = capsys.readouterr().out.splitlines()
    # 6 identities + 6 randoms; no CNOT entangler without (2, 1)
    assert len(out) == 12
    assert all(line.endswith("[ok]") for line in out)


def test_verify_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("dim 2\n1.0,0.0 0.0,0.0\n0.0,0.0 0.5,0.0\n")
    code = main(["verify", "--random-count", "0", "--unitary-file", str(bad)])
    assert code == 1
    assert "rejected unitary file" in capsys.readouterr().err


def test_verify_rejects_nan_file(tmp_path, capsys):
    code = main(["verify", "--random-count", "0", "--unitary-file", nan_unitary_file(tmp_path)])
    assert code == 1
    assert "rejected unitary file" in capsys.readouterr().err


def test_verify_accepts_good_file(tmp_path, capsys):
    path = tmp_path / "cnot.txt"
    save_unitary(path, cnot_entangler())
    code = main(
        [
            "verify",
            "--random-count",
            "0",
            "--unitary-file",
            str(path),
            "--file-ancillas",
            "1",
        ]
    )
    assert code == 0
    assert "file(" in capsys.readouterr().out


def test_verify_rejects_unsupported_sizes(tmp_path, capsys):
    assert main(["verify", "--block-sizes", "7"]) == 2
    assert main(["verify", "--ancillas", "8"]) == 2
    # --file-ancillas is held to the same range, before any case runs
    cnot = tmp_path / "cnot.txt"
    save_unitary(cnot, cnot_entangler())
    wide = tmp_path / "wide.txt"
    save_unitary(wide, UnitarySpec(2**9, np.eye(2**9)))
    capsys.readouterr()
    for path, m in ((cnot, "-1"), (wide, "1")):
        assert main(["verify", "--unitary-file", str(path), "--file-ancillas", m]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err


def test_verify_negative_random_count_exits_2(capsys):
    args = ["verify", "--block-sizes", "2", "--ancillas", "0", "--random-count", "-3"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "random_count" in captured.err
    assert captured.out == ""


def test_verify_negative_seed_exits_2(capsys):
    for count in ("0", "2"):
        args = ["verify", "--block-sizes", "2", "--ancillas", "0", "--random-count", count]
        assert main(args + ["--seed", "-5"]) == 2
        captured = capsys.readouterr()
        assert "seed" in captured.err
        assert captured.out == ""


# --- report ---------------------------------------------------------------------


def test_report_roundtrip(tmp_path, capsys):
    csv_path = tmp_path / "r.csv"
    assert (
        main(
            [
                "run",
                "--block-size",
                "4",
                "--num-blocks",
                "150",
                "--seed",
                "13",
                "--output",
                str(csv_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    session = tmp_path / "r_sessions" / "session_0000.json"
    assert main(["report", str(session)]) == 0
    out = capsys.readouterr().out
    assert "seed=13" in out
    assert "final_key_len" in out
    assert "total random bits" in out


def test_report_bad_inputs(tmp_path, capsys):
    assert main(["report", str(tmp_path / "missing.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["report", str(garbled)]) == 2
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert main(["report", str(listed)]) == 2
    for text in ('{"config": [1]}', '{"config": null}', '{"ledger": {"stages": [1]}}'):
        field = tmp_path / "field.json"
        field.write_text(text)
        assert main(["report", str(field)]) == 2, text
    assert capsys.readouterr().out == ""


# --- module entry point -----------------------------------------------------------


def test_python_dash_m_entry(tmp_path):
    csv_path = tmp_path / "m.csv"
    # the child imports the same blockqkd as this process, installed or not
    src = str(Path(blockqkd.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "blockqkd",
            "run",
            "--block-size",
            "2",
            "--num-blocks",
            "60",
            "--seed",
            "1",
            "--output",
            str(csv_path),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert csv_path.is_file()
    assert proc.stdout == ""


def test_csv_floats_roundtrip(tmp_path):
    csv_path = tmp_path / "f.csv"
    assert (
        main(
            [
                "run",
                "--block-size",
                "4",
                "--num-blocks",
                "300",
                "--flip-prob",
                "0.05",
                "--seed",
                "21",
                "--output",
                str(csv_path),
            ]
        )
        == 0
    )
    _, rows = read_csv(csv_path)
    row = rows[0]
    payload = json.loads(
        (tmp_path / "f_sessions" / "session_0000.json").read_text()
    )
    # repr-format floats survive the trip exactly
    assert float(row["qber_true"]) == payload["results"]["qber_true"]
    assert float(row["ck_rate"]) == payload["results"]["ck_rate"]


# --- golden outputs -----------------------------------------------------------------

EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "example.ini"


def _golden_argv(name, tmp_path):
    """argv of one golden run; every run writes tmp_path/out.csv."""
    output = ["--output", str(tmp_path / "out.csv")]
    u_path = tmp_path / "cnot.txt"
    save_unitary(u_path, cnot_entangler())
    unitary = ["--num-blocks", "200", "--flip-prob", "0.02", "--seed", "5"]
    if name == "example":
        return ["run", str(EXAMPLE_CONFIG), "--num-blocks", "300", *output]
    if name == "intercept_per_block":
        return ["run", "--attack", "intercept_resend", "--fraction", "0.5",
                "--granularity", "per_block", *output]
    if name == "unitary_delayed":
        return ["run", "--attack", "unitary_block", "--unitary-file", str(u_path),
                "--num-ancillas", "1", "--block-size", "2", *unitary, *output]
    if name == "unitary_immediate":
        config = write_config(
            tmp_path / "immediate.ini",
            f"""
[protocol]
block_size = 2

[attack]
variant = unitary_block
delayed = no
unitary_file = {u_path}
num_ancillas = 1

[output]
csv = {tmp_path / "out.csv"}
""",
        )
        return ["run", config, *unitary]
    if name == "per_qubit":
        return ["run", "--mode", "per_qubit", "--sample-fraction", "0.3",
                "--safety-margin", "10", "--repetitions", "3", *output]
    assert name == "empty_session"
    return ["run", "--block-size", "4", "--num-blocks", "1", "--seed", "1", *output]


def _output_digest(csv_path):
    """sha256 over the CSV bytes and each session JSON's bytes up to its
    "versions" block, which holds the Python and numpy versions."""
    h = hashlib.sha256(csv_path.read_bytes())
    for path in sorted((csv_path.parent / f"{csv_path.stem}_sessions").glob("*.json")):
        text = path.read_text(encoding="utf-8")
        assert list(json.loads(text))[-1] == "versions"
        head, sep, _ = text.partition(',\n  "versions": ')
        assert sep
        h.update(path.name.encode())
        h.update(head.encode())
    return h.hexdigest()


GOLDEN_CLI_DIGESTS = {
    "empty_session": "de6260e23b91a6fc8229a9545fa67c8797d35153c1d8c21c5a29377f16134b29",
    "example": "696cf8479990d369370bea916a6586262fc1e67b3b6b95411666ae7cf05d97b7",
    "intercept_per_block": "640d2f43f75b73830347ae420c8fead206cef42103c6d5018c275bf516bec18b",
    "per_qubit": "d665c84339ca9085afff930db6136102d4f9fcb1d446b7e2a867b08c7bda89a0",
    "unitary_delayed": "bb35251eaa25e7a1027aa6dc107e520ac2bccacc7ff48fb62930242ed3a9f345",
    "unitary_immediate": "d4165bfe9face4584604726f521f74f734c6712d4ba8cd2c67e3a7c536eff5e9",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CLI_DIGESTS))
def test_run_outputs_match_golden_digests(name, tmp_path):
    """Fixed `blockqkd run` invocations reproduce the digests recorded for
    package 0.3.0. A refactor of the command must leave them as they are."""
    assert main(_golden_argv(name, tmp_path)) == 0
    assert _output_digest(tmp_path / "out.csv") == GOLDEN_CLI_DIGESTS[name]
