import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zecap
from zecap import pairwise_block_code, write_code_file, ChannelParams
from zecap.cli import main


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


def test_roots_requires_a_parameter(capsys):
    status, _, err = run_cli(capsys, "roots")
    assert status == 2
    assert "error" in err


def test_graph_adjacency_output(capsys):
    status, out, _ = run_cli(capsys, "graph", "--k1", "2", "--k2", "1", "--n", "2")
    assert status == 0
    assert out == "0: 1\n1: 0\n2: 3\n3: 2\n"


def test_graph_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ZECAP_MAX_N", "3")
    status, _, err = run_cli(capsys, "graph", "--k1", "2", "--k2", "1", "--n", "4")
    assert status == 4
    assert "refused" in err
    monkeypatch.setenv("ZECAP_MAX_N", "4")
    status, _, _ = run_cli(capsys, "graph", "--k1", "2", "--k2", "1", "--n", "4")
    assert status == 0


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


def test_construct_forbidden_run(capsys, tmp_path):
    out_file = tmp_path / "runs.txt"
    status, out, _ = run_cli(
        capsys, "construct", "forbidden-run", "--n", "4", "--L", "3", "--out", str(out_file)
    )
    assert status == 0
    assert json.loads(out)["size"] == 10
    assert out_file.read_text().splitlines()[0] == "# zecap code n=4 k1=4 k2=4"


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


def test_bounds_table_csv(capsys):
    status, out, _ = run_cli(capsys, "bounds-table", "--from", "3", "--to", "12")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k1,lower_bits,upper_bits"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first == ["3", "0", first[2]]
    assert float(first[2]) == pytest.approx(0.694242, abs=1e-6)


def test_missing_code_file_is_usage_error(capsys):
    status, _, err = run_cli(capsys, "verify", "--code", "/nonexistent/code.txt")
    assert status == 2
    assert "error" in err


def test_module_entry_point_runs():
    # the child must import the same zecap as this test, installed or not
    package_root = str(Path(zecap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "zecap", "capacity", "--k1", "5", "--k2", "4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["value"] == pytest.approx(0.694242, abs=1e-6)
