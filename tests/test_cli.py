"""Command line behavior: output shape, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dpforms.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"


def _capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_json(capsys):
    code, out, err = _capture(capsys, ["lattice", "--m", "2", "--n", "6", "--json"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["format"] == 1
    assert doc["rank"] == 8
    assert doc["anticanonical"] == [2, 4, -1, -1, -1, -1, -1, -1]
    assert doc["anticanonical_square"] == 2
    assert doc["k_squared_singular"] == "2"
    assert doc["unimodular"] is True
    assert doc["signature"] == [1, 7]


def test_lattice_plane_text(capsys):
    code, out, err = _capture(capsys, ["lattice", "--m", "2", "--n", "6", "--kind", "plane"])
    assert code == 0
    assert "plane(m=2,n=6)" in out
    assert "gram:" in out


def test_curves_families_json(capsys):
    code, out, _ = _capture(capsys, ["curves", "--m", "3", "--n", "4", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    assert doc["total"] == 9
    labels = [fam["label"] for fam in doc["families"]]
    assert labels == ["exceptional", "fiber_residual", "q_section"]


def test_curves_window_json(capsys):
    code, out, _ = _capture(capsys, ["curves", "--m", "2", "--n", "7", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is False
    assert doc["total"] == 134
    assert doc["families"][0]["label"] == "search_window"


def test_curves_meeting_q_with_bound(capsys):
    code, out, _ = _capture(
        capsys, ["curves", "--m", "2", "--n", "6", "--kind", "plane", "--meeting-q", "--json"]
    )
    assert code == 0
    assert json.loads(out)["count"] == 12
    code, out, _ = _capture(
        capsys,
        ["curves", "--m", "2", "--n", "7", "--meeting-q", "--bound", "1", "--json"],
    )
    assert code == 0
    assert json.loads(out)["count"] > 50


def test_curves_negative_bound_refused(capsys):
    for extra in ([], ["--meeting-q"]):
        code, out, err = _capture(capsys, ["curves", "--m", "2", "--n", "1", "--bound", "-2"] + extra)
        assert code == 1 and out == ""
        assert "--bound must be >= 0, got -2" in err


def test_curves_caps(capsys):
    refused = {
        ("--m", "5", "--n", "10", "--bound", "6"): "--bound must be <= 5, got 6",
        ("--m", "13", "--n", "17"): "needs m <= 12, got m = 13",
        ("--m", "13", "--n", "17", "--kind", "plane"): "needs m <= 12, got m = 13",
    }
    for argv, message in refused.items():
        code, out, err = _capture(capsys, ["curves", *argv])
        assert code == 1 and out == ""
        assert message in err
    code, out, _ = _capture(capsys, ["curves", "--m", "13", "--n", "16", "--json"])
    assert code == 0 and json.loads(out)["certified"] is True


def test_rr_table(capsys):
    code, out, _ = _capture(capsys, ["rr", "--m", "4", "--n", "8", "--max-j", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].split() == ["6", "0", "0", "22"]


def test_rr_embedding_json(capsys):
    code, out, _ = _capture(capsys, ["rr", "--m", "3", "--embedding", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["embedding"] == {
        "weights": [1, 1, 2, 2, 3],
        "degrees": [4, 4],
        "type": "complete_intersection",
    }
    code, _, err = _capture(capsys, ["rr", "--m", "3"])
    assert code == 1
    code, _, err = _capture(capsys, ["rr", "--m", "3", "--max-j", "2"])
    assert code == 1


def test_classify_json(capsys):
    code, out, _ = _capture(
        capsys, ["classify", "--m", "3", "--n", "7", "--ell", "4", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rational"] == "yes"
    assert doc["cylindrical"] == "yes"
    assert doc["citations"] == ["thm:m+4(3)"]


def test_classify_exit_codes(capsys):
    code, _, err = _capture(capsys, ["classify", "--m", "2", "--n", "6"])
    assert code == 1 and "ell is required" in err
    code, _, err = _capture(capsys, ["classify", "--m", "2", "--n", "6", "--ell", "5"])
    assert code == 1 and "not feasible" in err
    code, _, err = _capture(capsys, ["classify", "--m", "2", "--n", "6", "--ell", "nope"])
    assert code == 1
    code, _, err = _capture(capsys, ["nonsense"])
    assert code == 1


def test_ell_instance_flow(tmp_path, capsys):
    instance = tmp_path / "swap.json"
    instance.write_text(
        json.dumps(
            {
                "model": {"m": 2, "n": 6, "kind": "plane"},
                "curves": "auto",
                "galois": [[7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 5, 6]],
                "q_point": "no",
            }
        )
    )
    code, out, _ = _capture(capsys, ["ell", "--instance", str(instance), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ell"] == 0
    assert doc["witness"] == []
    assert doc["orbits"] == [[1, 7], [2, 8], [3, 9], [4, 10], [5, 11], [6, 12]]
    assert doc["verdict"]["rational"] == "no"
    assert doc["verdict"]["cylindrical"] == "no"


def test_ell_explicit_curves(tmp_path, capsys):
    instance = tmp_path / "explicit.json"
    instance.write_text(
        json.dumps(
            {
                "model": {"m": 2, "n": 6, "kind": "hirzebruch"},
                "curves": [[0, 1, -1, 0, 0, 0, 0, 0], [0, 1, 0, -1, 0, 0, 0, 0]],
                "galois": [[2, 1]],
            }
        )
    )
    code, out, _ = _capture(capsys, ["ell", "--instance", str(instance), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["curve_count"] == 2
    assert doc["ell"] == 2
    assert doc["witness_orbits"] == [[1, 2]]


def test_ell_instance_rejections(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": {"m": 2, "n": 6, "kind": "plane"}, "galois": [], "extra": 1}')
    code, _, err = _capture(capsys, ["ell", "--instance", str(bad)])
    assert code == 1 and "rejected" in err

    invalid = tmp_path / "invalid.json"
    invalid.write_text(
        json.dumps(
            {
                "model": {"m": 2, "n": 6, "kind": "plane"},
                "galois": [[2, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]],
            }
        )
    )
    code, _, err = _capture(capsys, ["ell", "--instance", str(invalid)])
    assert code == 1 and "intersection form" in err

    code, _, err = _capture(capsys, ["ell", "--instance", str(tmp_path / "missing.json")])
    assert code == 1

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = _capture(capsys, ["ell", "--instance", str(garbled)])
    assert code == 1


def test_sections_ci(capsys):
    code, out, _ = _capture(capsys, ["sections", "ci", "--h", "1,0,0,0,0,0,1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["polynomial"] == "a^8 - 4*a^6 + a^2 - 4"
    assert [r["root"] for r in doc["rational_roots"]] == ["-2", "2"]
    assert doc["factorization_complete"] is True
    code, _, err = _capture(capsys, ["sections", "ci", "--h", "0,0,0"])
    assert code == 1
    code, _, err = _capture(capsys, ["sections", "ci", "--h", "1,oops"])
    assert code == 1


def test_sections_lines(capsys):
    code, out, _ = _capture(
        capsys, ["sections", "lines", "--a", "1,0,0,0,1", "--b", "1,0,1", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 12
    assert doc["infinity_section"] is False
    assert all(entry["root"] is None for entry in doc["splits"])
    code, _, err = _capture(capsys, ["sections", "lines", "--a", "1,0,0,0,1", "--b", "1,2,1"])
    assert code == 1 and "squarefree" in err


def test_output_deterministic(capsys):
    argvs = [
        ["lattice", "--m", "3", "--n", "7", "--json"],
        ["curves", "--m", "2", "--n", "5"],
        ["classify", "--m", "2", "--n", "7", "--ell", "4", "--json"],
        ["sections", "ci", "--h", "1 0 -4 0 0 0 0"],
    ]
    for argv in argvs:
        first = _capture(capsys, argv)
        second = _capture(capsys, argv)
        assert first == second
        assert first[0] == 0


@pytest.mark.parametrize("module", ["dpforms", "dpforms.cli"])
def test_python_m_runs_cli(capsys, module):
    argv = ["classify", "--m", "3", "--n", "4"]
    _, expected, _ = _capture(capsys, argv)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", module] + argv, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == expected
    assert proc.stderr == ""


def test_import_leaves_the_cli_unloaded():
    code = ("import sys, dpforms; loaded = {'dpforms.cli', 'jsonschema'} & set(sys.modules); "
            "assert not loaded, loaded; assert dpforms.run is sys.modules['dpforms.cli'].run")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
