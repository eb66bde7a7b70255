import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zecap
from zecap import build_graph, pairwise_block_code, write_code_file, ChannelParams
from zecap.codesearch import _max_independent
from zecap.confusability import GRAPH_CAP, confusable_rows, half_rows
from zecap.cli import main

from oracles import adjacency_lines

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_capacity_exact_json(capsys):
    status, out, _ = run_cli(capsys, "capacity", "--k1", "2", "--k2", "1")
    assert status == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["kind"] == "exact"
    assert payload["value"] == 0.5


def test_capacity_zero_case(capsys):
    status, out, _ = run_cli(capsys, "capacity", "--k1", "1", "--k2", "2")
    assert status == 0
    assert json.loads(out)["value"] == 0.0


def test_capacity_bounds_json(capsys):
    status, out, _ = run_cli(capsys, "capacity", "--k1", "4", "--k2", "9")
    assert status == 0
    payload = json.loads(out)
    assert payload["kind"] == "bounds"
    assert payload["lower"] == pytest.approx(0.694242, abs=1e-6)
    assert payload["upper"] == pytest.approx(0.879146, abs=1e-6)


def test_roots_json(capsys):
    status, out, _ = run_cli(capsys, "roots", "--k1", "4", "--k2", "4")
    assert status == 0
    payload = json.loads(out)
    assert payload["lambda"]["root"] == pytest.approx(1.839286755214161, abs=1e-9)
    assert payload["omega"]["root"] == pytest.approx(1.618033988749895, abs=1e-9)


@pytest.mark.parametrize(
    "command, line",
    [
        (
            "capacity --k1 2 --k2 1",
            '{"schema_version": 1, "kind": "exact", "provenance": "input memory only, span 2: '
            'paired-symbol blocks", "value": 0.5}',
        ),
        (
            "capacity --k1 4 --k2 9",
            '{"schema_version": 1, "kind": "bounds", "provenance": "joint memory, 3 <= k1 < k2: '
            'open; run-limited lower, input-window upper", "lower": 0.694241913631, '
            '"upper": 0.879146421607}',
        ),
        (
            "roots --k1 4 --k2 5",
            '{"schema_version": 1, "lambda": {"k1": 4, "root": 1.83928675521, '
            '"log2": 0.879146421607}, "omega": {"k2": 5, "root": 1.83928675521, '
            '"log2": 0.879146421607}}',
        ),
    ],
)
def test_json_stdout_bytes_pinned(capsys, command, line):
    # json.loads would pass any key order; the printed bytes pin it
    assert run_cli(capsys, *command.split()) == (0, line + "\n", "")


def test_roots_requires_a_parameter(capsys):
    status, _, err = run_cli(capsys, "roots")
    assert status == 2
    assert "error" in err


def test_graph_adjacency_output(capsys):
    status, out, _ = run_cli(capsys, "graph", "--k1", "2", "--k2", "1", "--n", "2")
    assert status == 0
    assert out == "0: 1\n1: 0\n2: 3\n3: 2\n"


def test_graph_out_file_matches_stdout(capsys, tmp_path):
    argv = ("graph", "--k1", "3", "--k2", "5", "--n", "6")
    status, out, _ = run_cli(capsys, *argv)
    assert status == 0
    path = tmp_path / "graph.txt"
    status, _, err = run_cli(capsys, *argv, "--out", str(path))
    assert status == 0
    assert err == f"wrote {path}\n"
    assert path.read_text(encoding="ascii") == out == "".join(
        adjacency_lines(build_graph(ChannelParams(3, 5), 6).rows)
    )


@pytest.mark.parametrize("k1, k2", [(k1, k2) for k1 in range(1, 5) for k2 in range(1, 5)])
def test_graph_lines_match_the_full_mirrored_rows(capsys, k1, k2):
    # n < 3 is where `mirror` pads the row to one byte
    for n in range(1, 8):
        status, out, _ = run_cli(capsys, "graph", "--k1", str(k1), "--k2", str(k2), "--n", str(n))
        assert status == 0
        assert out == "".join(adjacency_lines(build_graph(ChannelParams(k1, k2), n).rows))


def test_graph_bytes_pinned(capsys, monkeypatch):
    def no_mirror(*args):
        raise AssertionError("the graph command mirrored a row")

    # both halves are read from the 0-half rows alone
    monkeypatch.setattr("zecap.confusability.mirror", no_mirror)
    status, out, _ = run_cli(capsys, "graph", "--k1", "3", "--k2", "5", "--n", "10")
    assert status == 0
    text = out.encode("ascii")
    assert len(text) == 433_082
    assert hashlib.sha256(text).hexdigest() == (
        "a6d0385b7dedd4e5760373cdeff91b6ebc53cd1909d30117e7484132a5648bfc"
    )
    lines = out.splitlines()
    # four words part from every other word, and the mirrored half is written too
    assert sum(line.endswith(":") for line in lines) == 4
    assert len(lines) == 1 << 10


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", "--k1", "2", "--k2", "6", "--n", "17"),
        ("search", "--k1", "2", "--k2", "6", "--n", "17"),
        ("rates", "--k1", "2", "--k2", "6", "--n-min", "17", "--n-max", "17"),
    ],
)
def test_graph_cap_ignores_the_environment(capsys, monkeypatch, argv):
    def no_walk(*args, **kwargs):
        raise AssertionError("the walk started past the cap")

    monkeypatch.setenv("ZECAP_MAX_N", "20")
    monkeypatch.setattr("zecap.confusability.confusable_rows", no_walk)
    status, _, err = run_cli(capsys, *argv)
    assert status == 4
    assert err == f"refused: graph over 2^17 vertices exceeds cap {GRAPH_CAP}\n"


def test_graph_refusal_leaves_no_out_file(capsys, tmp_path):
    path = tmp_path / "graph.txt"
    argv = ("graph", "--k1", "2", "--k2", "6", "--n", "17", "--out", str(path))
    status, out, err = run_cli(capsys, *argv)
    assert (status, out) == (4, "")
    assert err == f"refused: graph over 2^17 vertices exceeds cap {GRAPH_CAP}\n"
    assert not path.exists()


def test_search_json_and_witness(capsys, tmp_path):
    witness = tmp_path / "witness.txt"
    status, out, _ = run_cli(
        capsys,
        "search", "--k1", "2", "--k2", "1", "--n", "6", "--witness-file", str(witness),
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["size"] == 8
    assert payload["rate"] == 0.5
    assert payload["optimal"] is True
    header = witness.read_text().splitlines()[0]
    assert header == "# zecap code n=6 k1=2 k2=1"


def test_search_edgeless(capsys):
    status, out, _ = run_cli(capsys, "search", "--k1", "1", "--k2", "1", "--n", "4")
    assert status == 0
    payload = json.loads(out)
    assert payload["size"] == 16
    assert payload["rate"] == 1.0


def test_search_two_clique_channel(capsys):
    status, out, _ = run_cli(capsys, "search", "--k1", "1", "--k2", "2", "--n", "6")
    assert status == 0
    assert json.loads(out)["size"] == 2


def test_search_timeout_returns_refusal(capsys):
    status, out, err = run_cli(
        capsys,
        "search", "--k1", "1", "--k2", "4", "--n", "8", "--time-limit", "0",
    )
    assert status == 4
    payload = json.loads(out)
    assert payload["optimal"] is False
    assert payload["size"] >= 1
    assert "timed out" in err


@pytest.mark.parametrize("limit", ["nan", "-1"])
def test_search_rejects_a_bad_time_limit(capsys, monkeypatch, limit):
    def no_walk(*args, **kwargs):
        raise AssertionError("the rows were walked before the limit was checked")

    monkeypatch.setattr("zecap.confusability.confusable_rows", no_walk)
    status, out, err = run_cli(
        capsys, "search", "--k1", "1", "--k2", "4", "--n", "4", "--time-limit", limit
    )
    assert status == 2
    assert out == ""
    assert "time limit" in err


def test_construct_pairwise(capsys, tmp_path):
    out_file = tmp_path / "pairwise.txt"
    status, out, _ = run_cli(
        capsys, "construct", "pairwise", "--n", "4", "--out", str(out_file)
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["size"] == 4
    lines = out_file.read_text().splitlines()
    assert lines[0] == "# zecap code n=4 k1=2 k2=1"
    assert lines[1:] == ["0000", "0011", "1100", "1111"]


def test_construct_pairwise_refuses_past_cap(capsys, tmp_path):
    out_file = tmp_path / "pairwise.txt"
    status, out, err = run_cli(
        capsys, "construct", "pairwise", "--n", "49", "--out", str(out_file)
    )
    assert status == 4
    assert out == ""
    assert err.startswith("refused: ")
    assert not out_file.exists()


def test_construct_forbidden_run(capsys, tmp_path):
    out_file = tmp_path / "runs.txt"
    status, out, _ = run_cli(
        capsys, "construct", "forbidden-run", "--n", "4", "--L", "3", "--out", str(out_file)
    )
    assert status == 0
    assert json.loads(out)["size"] == 10
    assert out_file.read_text().splitlines()[0] == "# zecap code n=4 k1=4 k2=4"


@pytest.mark.parametrize(
    "argv",
    [
        ("pairwise", "--n", "4", "--k1", "0"),
        ("pairwise", "--n", "4", "--k2", "0"),
        ("forbidden-run", "--n", "4", "--L", "3", "--k1", "0"),
    ],
)
def test_construct_rejects_zero_span(capsys, tmp_path, argv):
    out_file = tmp_path / "code.txt"
    status, out, err = run_cli(capsys, "construct", *argv, "--out", str(out_file))
    assert status == 2
    assert out == ""
    assert "k1, k2 must be >= 1" in err
    assert not out_file.exists()


def test_count_forbidden_run_csv(capsys):
    status, out, _ = run_cli(capsys, "count", "forbidden-run", "--L", "3", "--n-max", "10")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,count,rate_bits"
    assert len(lines) == 11
    last = lines[-1].split(",")
    assert last[0] == "10" and last[1] == "178"
    assert float(last[2]) == pytest.approx(0.74757, abs=1e-4)


def test_count_no_run_break_csv(capsys):
    status, out, _ = run_cli(capsys, "count", "no-run-break", "--k2", "4", "--n-max", "5")
    assert status == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [2, 4, 8, 14, 24]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("construct", "forbidden-run", "--n", "4"), "forbidden-run needs --L"),
        (("count", "forbidden-run", "--n-max", "5"), "forbidden-run needs --L"),
        (("count", "no-run-break", "--n-max", "5"), "no-run-break needs --k2"),
    ],
)
def test_family_without_its_parameter_is_usage_error(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)  # construct would write its default file name here
    status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_verify_valid_code(capsys, tmp_path):
    path = tmp_path / "code.txt"
    write_code_file(path, ChannelParams(2, 1), pairwise_block_code(4))
    status, out, _ = run_cli(capsys, "verify", "--k1", "2", "--k2", "1", "--code", str(path))
    assert status == 0
    assert json.loads(out)["valid"] is True


def test_verify_invalid_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# zecap code n=2 k1=2 k2=1\n00\n01\n")
    status, out, _ = run_cli(capsys, "verify", "--code", str(path))
    assert status == 3
    assert json.loads(out)["valid"] is False


def test_verify_counts_a_listed_repeat(capsys, tmp_path):
    path = tmp_path / "repeat.txt"
    path.write_text("# zecap code n=4 k1=2 k2=1\n0000\n0000\n1111\n")
    status, out, _ = run_cli(capsys, "verify", "--code", str(path))
    assert status == 3
    assert json.loads(out) == {"schema_version": 1, "valid": False, "size": 3, "n": 4}


def test_verify_refuses_a_non_binary_symbol(capsys, tmp_path):
    path = tmp_path / "nonbinary.txt"
    path.write_text("# zecap code n=4 k1=2 k2=1\n0000\n0120\n")
    status, out, err = run_cli(capsys, "verify", "--code", str(path))
    assert status == 2
    assert out == ""
    assert err == "error: symbols must be 0 or 1, got '0120'\n"


def test_verify_search_witness(capsys, tmp_path):
    witness = tmp_path / "w.txt"
    status, out, _ = run_cli(
        capsys,
        "search", "--k1", "1", "--k2", "5", "--n", "12", "--witness-file", str(witness),
    )
    assert status == 0
    assert json.loads(out)["size"] == 2208
    status, out, _ = run_cli(capsys, "verify", "--code", str(witness))
    assert status == 0
    assert json.loads(out) == {"schema_version": 1, "valid": True, "size": 2208, "n": 12}


def test_simulate_verified_code(capsys, tmp_path):
    path = tmp_path / "code.txt"
    write_code_file(path, ChannelParams(2, 1), pairwise_block_code(6))
    status, out, _ = run_cli(
        capsys, "simulate", "--code", str(path), "--trials", "200", "--seed", "9"
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["failures"] == 0
    assert payload["trials"] == 200


def test_simulate_negative_seed_is_usage_error(capsys, tmp_path):
    path = tmp_path / "code.txt"
    write_code_file(path, ChannelParams(2, 1), pairwise_block_code(6))
    status, out, err = run_cli(
        capsys, "simulate", "--code", str(path), "--trials", "1", "--seed", "-2"
    )
    assert status == 2
    assert out == ""
    assert err == "error: seed must be nonnegative, got -2\n"


def test_simulate_refuses_unverified_without_force(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# zecap code n=2 k1=1 k2=2\n00\n01\n")
    status, _, err = run_cli(capsys, "simulate", "--code", str(path), "--trials", "50")
    assert status == 3
    assert "precondition" in err
    status, out, _ = run_cli(
        capsys, "simulate", "--code", str(path), "--trials", "50", "--force"
    )
    assert status == 0
    assert json.loads(out)["failures"] > 0


def test_simulate_stdout_bytes_pinned(capsys, tmp_path):
    path = str(tmp_path / "fr.code")
    run_cli(capsys, "construct", "forbidden-run", "--n", "8", "--L", "3", "--out", path)
    argv = ["simulate", "--code", path, "--seed", "1"]
    assert run_cli(capsys, *argv, "--trials", "200") == (
        0,
        '{"schema_version": 1, "trials": 200, "failures": 0, "seed": 1, '
        '"generator": "python-random-mt19937/getrandbits", "examples": []}\n',
        "",
    )
    status, out, _ = run_cli(capsys, *argv, "--k1", "2", "--k2", "1", "--trials", "20", "--force")
    assert status == 0
    assert out.startswith(
        '{"schema_version": 1, "trials": 20, "failures": 20, "seed": 1, '
        '"generator": "python-random-mt19937/getrandbits", '
        '"examples": [{"sent": "01001101", "received": "01101110"}'
    )


def test_bounds_table_csv(capsys):
    status, out, _ = run_cli(capsys, "bounds-table", "--from", "3", "--to", "12")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k1,lower_bits,upper_bits"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first == ["3", "0", first[2]]
    assert float(first[2]) == pytest.approx(0.694242, abs=1e-6)


def test_bounds_table_bad_range_prints_nothing(capsys):
    status, out, err = run_cli(capsys, "bounds-table", "--from", "3", "--to", "2")
    assert status == 2
    assert out == ""
    assert err.startswith("error: ")


def test_missing_code_file_is_usage_error(capsys):
    status, _, err = run_cli(capsys, "verify", "--code", "/nonexistent/code.txt")
    assert status == 2
    assert "error" in err


def run_child(*argv):
    # the child must import the same zecap as this test, installed or not
    package_root = str(Path(zecap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point_runs():
    result = run_child("-m", "zecap", "capacity", "--k1", "5", "--k2", "4")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["value"] == pytest.approx(0.694242, abs=1e-6)
    result = run_child("-m", "zecap", "capacity", "--k1", "2", "--k2", "1")
    assert result.returncode == 0
    assert json.loads(result.stdout)["value"] == 0.5
    # argparse's usage error: verify needs --code
    result = run_child("-m", "zecap", "verify")
    assert result.returncode == 2
    assert "--code" in result.stderr


def test_rates_refuses_past_cap(capsys):
    n = str(GRAPH_CAP + 1)
    status, out, err = run_cli(
        capsys, "rates", "--k1", "1", "--k2", "5", "--n-min", n, "--n-max", n
    )
    assert status == 4
    assert out == ""
    assert err == f"refused: graph over 2^{n} vertices exceeds cap {GRAPH_CAP}\n"


def test_rates_refuses_past_cap_before_any_row(capsys, monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("a row was searched before the cap was checked")

    monkeypatch.setattr("zecap.confusability.confusable_rows", no_walk)
    status, out, err = run_cli(
        capsys, "rates", "--k1", "1", "--k2", "4",
        "--n-min", str(GRAPH_CAP), "--n-max", str(GRAPH_CAP + 1),
    )
    assert status == 4
    assert out == ""
    assert err == f"refused: graph over 2^{GRAPH_CAP + 1} vertices exceeds cap {GRAPH_CAP}\n"


@pytest.mark.parametrize("n_min, n_max", [("0", "4"), ("5", "4")])
def test_rates_bad_range_prints_nothing(capsys, n_min, n_max):
    status, out, err = run_cli(
        capsys, "rates", "--k1", "1", "--k2", "4", "--n-min", n_min, "--n-max", n_max
    )
    assert status == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("limit", ["nan", "-1"])
def test_rates_rejects_a_bad_time_limit(capsys, monkeypatch, limit):
    def no_walk(*args, **kwargs):
        raise AssertionError("the rows were walked before the limit was checked")

    monkeypatch.setattr("zecap.confusability.confusable_rows", no_walk)
    status, out, err = run_cli(
        capsys, "rates", "--k1", "1", "--k2", "4", "--n-max", "4", "--time-limit", limit
    )
    assert status == 2
    assert out == ""
    assert "time limit" in err


BUILD_SECONDS = 0.2


@pytest.mark.parametrize(
    "argv, searches",
    [
        (["search", "--k1", "2", "--k2", "1", "--n", "4"], 1),
        (["rates", "--k1", "2", "--k2", "1", "--n-min", "3", "--n-max", "4"], 2),
    ],
)
@pytest.mark.parametrize("limit", [10.0, BUILD_SECONDS / 2])
def test_time_limit_covers_the_graph_build(capsys, monkeypatch, argv, searches, limit):
    limits = []

    def slow_rows(*args):
        time.sleep(BUILD_SECONDS)
        return half_rows(*args)

    def recording_search(rows, deadline):
        limits.append(deadline - time.monotonic())
        return _max_independent(rows, deadline)

    # the row build starts with a sleep, so the limit counts from before its first row
    monkeypatch.setattr("zecap.codesearch.half_rows", slow_rows)
    monkeypatch.setattr("zecap.codesearch._max_independent", recording_search)
    status, _, _ = run_cli(capsys, *argv, "--time-limit", str(limit))
    if limit > BUILD_SECONDS:
        assert status == 0
        assert len(limits) == searches
        assert all(limit - 1.0 < left <= limit - BUILD_SECONDS for left in limits)
    else:
        # a row build that outlasts the limit stops, and no search starts
        assert status == 4
        assert limits == []


def test_time_limit_stops_the_graph_build(capsys, monkeypatch):
    read = []

    def counted_rows(*args):
        for row in confusable_rows(*args):
            read.append(row)
            yield row

    monkeypatch.setattr("zecap.confusability.confusable_rows", counted_rows)
    status, out, err = run_cli(
        capsys, "search", "--k1", "2", "--k2", "6", "--n", "14", "--time-limit", "0"
    )
    assert status == 4
    assert json.loads(out)["size"] == 1
    assert json.loads(out)["optimal"] is False
    assert "timed out" in err
    # the walk stops at its first check, not after the 2^13 rows of the half graph
    assert 1 <= len(read) <= 2


def test_rates_csv_with_family_counts(capsys):
    status, out, err = run_cli(capsys, "rates", "--k1", "1", "--k2", "4", "--n-max", "4")
    assert status == 0
    assert out == (
        "n,size,rate_bits,optimal,family_lower,family_upper\n"
        "1,2,1,1,2,2\n"
        "2,4,1,1,4,4\n"
        "3,8,1,1,6,8\n"
        "4,14,0.951838730514,1,10,14\n"
    )
    assert err == ""
    # the family columns are indexed by n, not by the row's place from --n-min
    status, out, err = run_cli(
        capsys, "rates", "--k1", "1", "--k2", "5", "--n-min", "9", "--n-max", "12"
    )
    assert status == 0
    assert out == (
        "n,size,rate_bits,optimal,family_lower,family_upper\n"
        "9,354,0.94084506112,1,298,354\n"
        "10,652,0.934872815423,1,548,652\n"
        "11,1200,0.929892608227,1,1008,1200\n"
        "12,2208,0.925710371398,1,1854,2208\n"
    )
    assert err == ""


def test_rates_timeout_marks_rows_and_refuses(capsys):
    status, out, err = run_cli(
        capsys, "rates", "--k1", "1", "--k2", "4", "--n-min", "8", "--n-max", "9",
        "--time-limit", "0",
    )
    assert status == 4
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(row[0], row[3]) for row in rows] == [("8", "0"), ("9", "0")]
    assert err.splitlines() == [
        "n=8: search timed out, size is a lower bound",
        "n=9: search timed out, size is a lower bound",
    ]


def readme_commands():
    """Argument lists of every `zecap ...` line in the README's sh blocks."""
    commands, in_sh = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("zecap "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_exit_zero(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert "rates" in [argv[0] for argv in commands]
    for argv in commands:
        assert main(argv) == 0, argv


def test_readme_library_surface_imports():
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1]
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})
    missing = [name for name in zecap.__all__ if not hasattr(zecap, name)]
    assert missing == []
