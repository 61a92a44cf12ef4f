"""Command line behavior: output shape, exit codes, determinism."""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dpforms import (
    PLANE,
    InternalInvariantError,
    build_model,
    curves_meeting_q,
    standard_curve_system,
)
from dpforms.cli import run
from dpforms.verification import CheckResult

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
    code, out, _ = _capture(capsys, ["curves", "--m", "4", "--n", "9", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is False
    assert doc["total"] == 820
    assert doc["families"][0]["label"] == "search_window"


def test_curves_complete_search_json(capsys):
    # (3, 7) has no closed form in this basis; the complete search certifies it
    code, out, _ = _capture(capsys, ["curves", "--m", "3", "--n", "7", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    assert doc["total"] == 78
    assert [fam["label"] for fam in doc["families"]] == ["search"]


def test_curves_meeting_q_with_bound(capsys):
    code, out, _ = _capture(
        capsys, ["curves", "--m", "2", "--n", "6", "--kind", "plane", "--meeting-q", "--json"]
    )
    assert code == 0
    assert json.loads(out)["count"] == 12
    code, out, _ = _capture(
        capsys,
        ["curves", "--m", "4", "--n", "9", "--meeting-q", "--bound", "2", "--json"],
    )
    assert code == 0
    assert json.loads(out)["count"] == 424  # 172 in the default box


def test_curves_meeting_q_lists_the_ell_curves(capsys):
    # --meeting-q prints, in order, the list that ell's "auto" curves index
    models = [build_model(m, m + 4, PLANE) for m in range(2, 6)]
    models += [build_model(m, n) for m in range(2, 6) for n in range(1, m + 5)]
    for model in models:
        want = [list(c.coeffs) for c in standard_curve_system(model).curves]
        argv = ["curves", "--m", str(model.m), "--n", str(model.n), "--kind", model.kind,
                "--meeting-q"]
        code, out, _ = _capture(capsys, argv + ["--json"])
        assert code == 0 and json.loads(out)["classes"] == want, model.basis_tag
        code, out, _ = _capture(capsys, argv)
        assert code == 0
        assert out.splitlines()[3:] == [f"  {tuple(c)}" for c in want], model.basis_tag
    code, out, _ = _capture(
        capsys, ["curves", "--m", "4", "--n", "9", "--meeting-q", "--bound", "1", "--json"]
    )
    window = curves_meeting_q(build_model(4, 9), 1)
    assert code == 0 and json.loads(out)["classes"] == [list(c.coeffs) for c in window]
    # the header of the text table, certified and not
    for argv, header in (
        (["--m", "2", "--n", "5"], ["model              hirzebruch(m=2,n=5)",
                                    "certified          yes",
                                    "Q-meeting classes  6"]),
        (["--m", "4", "--n", "9", "--bound", "1"], ["model              hirzebruch(m=4,n=9)",
                                                    "certified          no (window census)",
                                                    f"Q-meeting classes  {len(window)}"]),
    ):
        code, out, _ = _capture(capsys, ["curves", *argv, "--meeting-q"])
        assert code == 0 and out.splitlines()[:3] == header


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
    code, out, err = _capture(capsys, ["curves", "--m", "101", "--n", "1"])
    assert code == 1 and out == "" and "m must be <= 100, got 101" in err
    code, out, _ = _capture(capsys, ["curves", "--m", "100", "--n", "1", "--json"])
    assert code == 0 and json.loads(out)["total"] == 2


def test_lattice_m_cap(capsys):
    code, out, err = _capture(capsys, ["lattice", "--m", "101", "--n", "1"])
    assert code == 1 and out == "" and "m must be <= 100, got 101" in err
    code, out, _ = _capture(capsys, ["lattice", "--m", "100", "--n", "1", "--json"])
    assert code == 0 and json.loads(out)["rank"] == 3


def test_rr_caps(capsys):
    code, out, err = _capture(capsys, ["rr", "--m", "3", "--n", "7", "--max-j", "1001"])
    assert code == 1 and out == "" and "--max-j must be <= 1000, got 1001" in err
    code, out, _ = _capture(capsys, ["rr", "--m", "3", "--n", "7", "--max-j", "1000", "--json"])
    assert code == 0 and len(json.loads(out)["rows"]) == 1000


def test_rr_refuses_k_squared_not_positive(capsys):
    # bad input, refused before any row: K_X^2 = -1/5 at (5, 10), 0 at (4, 9)
    for m, n, k2 in ((5, 10, "-1/5"), (4, 9, "0"), (12, 17, "-2/3")):
        code, out, err = _capture(capsys, ["rr", "--m", str(m), "--n", str(n), "--max-j", "12"])
        assert code == 1 and out == ""
        assert f"need K_X^2 > 0; (m, n) = ({m}, {n}) has K_X^2 = {k2}" in err
    for m, n in ((4, 8), (3, 8)):
        code, out, _ = _capture(capsys, ["rr", "--m", str(m), "--n", str(n), "--max-j", "12"])
        assert code == 0 and out.splitlines()[-1].split()[0] == "12"


def _ell(tmp_path, capsys, doc):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return _capture(capsys, ["ell", "--instance", str(path), "--json"])


def test_ell_caps(tmp_path, capsys, monkeypatch):
    hirz = {"kind": "hirzebruch"}
    refused = [
        ({"m": 101, "n": 1, **hirz}, [[0, 1, -1]], "m must be <= 100, got 101"),
        ({"m": 13, "n": 17, **hirz}, "auto", "needs m <= 12, got m = 13"),
        ({"m": 2, "n": 1, **hirz}, [[0, 1, -1]] * 601, "at most 600 curves, got 601"),
    ]
    for model, curves, message in refused:
        code, out, err = _ell(tmp_path, capsys, {"model": model, "curves": curves, "galois": []})
        assert code == 1 and out == "" and message in err
    accepted = [
        ({"m": 100, "n": 1, **hirz}, [[0, 1, -1]], 1),
        ({"m": 13, "n": 17, **hirz}, [[0, 1, -1] + [0] * 16], 1),
        ({"m": 12, "n": 16, "kind": "plane"}, "auto", 32),
    ]
    for model, curves, count in accepted:
        code, out, _ = _ell(tmp_path, capsys, {"model": model, "curves": curves, "galois": []})
        assert code == 0 and json.loads(out)["curve_count"] == count
    # the curve cap admits exactly MAX_CURVES curves, "auto" systems included
    monkeypatch.setattr("dpforms.cli.MAX_CURVES", 12)
    plane = {"m": 2, "n": 6, "kind": "plane"}
    code, out, _ = _ell(tmp_path, capsys, {"model": plane, "curves": "auto", "galois": []})
    assert code == 0 and json.loads(out)["curve_count"] == 12
    monkeypatch.setattr("dpforms.cli.MAX_CURVES", 11)
    code, out, err = _ell(tmp_path, capsys, {"model": plane, "curves": "auto", "galois": []})
    assert code == 1 and "at most 11 curves, got 12" in err


def test_ell_refuses_oversized_auto_windows_up_front(tmp_path, capsys, monkeypatch):
    from dpforms.cli import MAX_AUTO_WINDOW_M, MAX_CURVES

    # the premise: the (m, m+5) window fits the cap up to MAX_AUTO_WINDOW_M only
    counts = [len(curves_meeting_q(build_model(m, m + 5)))
              for m in (MAX_AUTO_WINDOW_M, MAX_AUTO_WINDOW_M + 1)]
    assert counts == [529, 871]
    assert counts[0] <= MAX_CURVES < counts[1]

    def no_census(model, pad=0):
        raise AssertionError(f"census built for {model.basis_tag}")

    monkeypatch.setattr("dpforms.curves.curves_meeting_q", no_census)
    for m in range(MAX_AUTO_WINDOW_M + 1, 13):
        model = {"m": m, "n": m + 5, "kind": "hirzebruch"}
        code, out, err = _ell(tmp_path, capsys, {"model": model, "curves": "auto", "galois": []})
        assert code == 1 and out == ""
        assert f'at most 600 curves; "auto" curves at n = m+5 exceed that from m = 7 on, got m = {m}' in err


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


def test_rr_refuses_an_out_of_range_n(capsys):
    # --n is checked even where only --embedding reads the call
    for n in ("99", "0"):
        code, out, err = _capture(capsys, ["rr", "--m", "5", "--n", n, "--embedding"])
        assert code == 1 and out == ""
        assert err == f"error: n must satisfy 1 <= n <= m+5 = 10, got {n}\n"
    code, out, _ = _capture(capsys, ["rr", "--m", "5", "--n", "9", "--embedding"])
    assert code == 0 and out == "embedding: complete intersection of degrees 6, 6 in P(1,1,3,3,5)\n"


def test_classify_json(capsys):
    code, out, _ = _capture(
        capsys, ["classify", "--m", "3", "--n", "7", "--ell", "4", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rational"] == "yes"
    assert doc["cylindrical"] == "yes"
    assert doc["citations"] == ["thm:m+4(3)"]


def test_classify_exit_codes(capsys, monkeypatch):
    code, _, err = _capture(capsys, ["classify", "--m", "2", "--n", "6"])
    assert code == 1 and "ell is required" in err
    code, _, err = _capture(capsys, ["classify", "--m", "2", "--n", "6", "--ell", "5"])
    assert code == 1 and "not feasible" in err
    code, _, err = _capture(capsys, ["classify", "--m", "2", "--n", "6", "--ell", "nope"])
    assert code == 1
    code, _, err = _capture(capsys, ["nonsense"])
    assert code == 1

    def broken(*args, **kwargs):
        raise InternalInvariantError("a broken table")

    monkeypatch.setattr("dpforms.verdicts.classify", broken)
    code, out, err = _capture(capsys, ["classify", "--m", "3", "--n", "4"])
    assert code == 2 and out == "" and err == "internal invariant violated: a broken table\n"


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
    assert code == 1 and "intersection form (4 violations)" in err
    # the report shows the first three violations and counts the rest
    lines = err.splitlines()
    assert len(lines) == 5 and lines[-1] == "  (+1 more)"
    assert all(line.startswith("  generator 1: ") for line in lines[1:4])

    code, _, err = _capture(capsys, ["ell", "--instance", str(tmp_path / "missing.json")])
    assert code == 1

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = _capture(capsys, ["ell", "--instance", str(garbled)])
    assert code == 1
    # the decoder's own refusals: bad UTF-8, an integer past Python's digit
    # limit, and nesting past the recursion limit
    for raw in (b'{"model": {"m": 2, "n": 6, "kind": "pl\xe9ne"}, "galois": []}',
                b'{"model": {"m": ' + b"9" * 5000 + b', "n": 6, "kind": "plane"}, "galois": []}',
                b"[" * 100000 + b"]" * 100000):
        garbled.write_bytes(raw)
        code, out, err = _capture(capsys, ["ell", "--instance", str(garbled)])
        assert code == 1 and out == "" and "is not valid JSON" in err


SWAP = [7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 5, 6]
PLANE_2_6 = {"m": 2, "n": 6, "kind": "plane"}


def test_ell_instance_shape_rules(tmp_path, capsys):
    # one malformed instance per shape rule: each is refused as "rejected"
    # before any model is built, integral floats and booleans included
    base = {"model": PLANE_2_6, "curves": "auto", "galois": [SWAP]}
    broken = [
        ["not", "an", "object"],
        {**base, "extra": 1},
        {"curves": "auto", "galois": []},
        {"model": PLANE_2_6},
        {**base, "format": True},
        {**base, "format": 1.0},
        {**base, "format": 2},
        {**base, "model": [2, 6, "plane"]},
        {**base, "model": {**PLANE_2_6, "basis": "plane"}},
        {**base, "model": {"m": 2, "n": 6}},
        {**base, "model": {**PLANE_2_6, "m": 2.0}},
        {**base, "model": {**PLANE_2_6, "n": "6"}},
        {**base, "model": {**PLANE_2_6, "m": True}},
        {**base, "curves": "all"},
        {**base, "curves": [1, 0, 0, 0, 0, 0, 0, 0]},
        {**base, "curves": [[0, 1.0, 0, 0, 0, 0, 0, 0]]},
        {**base, "galois": [[1.0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]]},
        {**base, "galois": [[True, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]]},
        {**base, "galois": SWAP},
        {**base, "galois": {}},
        {**base, "q_point": "maybe"},
        {**base, "q_point": True},
    ]
    for doc in broken:
        for json_flag in ([], ["--json"]):
            path = tmp_path / "broken.json"
            path.write_text(json.dumps(doc))
            code, out, err = _capture(capsys, ["ell", "--instance", str(path), *json_flag])
            assert code == 1 and out == "", doc
            assert "rejected" in err and "Traceback" not in err, doc
    # ranges are left to the model, curve system and action checks
    refused = [
        ({**base, "model": {**PLANE_2_6, "m": 1}}, "m must be >= 2, got 1"),
        ({**base, "model": {**PLANE_2_6, "kind": "spherical"}}, "unknown basis kind 'spherical'"),
        ({**base, "curves": []}, "at least one curve"),
        ({**base, "galois": [[0] + SWAP[1:]]}, "is not a permutation of 1..12"),
    ]
    for doc, message in refused:
        code, out, err = _ell(tmp_path, capsys, doc)
        assert code == 1 and out == "" and message in err, doc
    code, out, _ = _ell(tmp_path, capsys, {**base, "format": 1, "q_point": "unknown"})
    assert code == 0 and json.loads(out)["ell"] == 0


def test_cli_imports_only_the_standard_library():
    code = ("import sys; before = set(sys.modules); import dpforms.cli; "
            "new = {name.partition('.')[0] for name in set(sys.modules) - before}; "
            "extra = sorted(new - set(sys.stdlib_module_names) - {'dpforms'}); "
            "assert not extra, extra")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_modules_use_every_name_they_import():
    # __init__ imports its names to re-export them, so it alone is exempt
    for path in sorted((SRC / "dpforms").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_sections_ci(capsys):
    code, out, _ = _capture(capsys, ["sections", "ci", "--h", "1,0,0,0,0,0,1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["polynomial"] == "a^8 - 4*a^6 + a^2 - 4"
    assert [r["root"] for r in doc["rational_roots"]] == ["-2", "2"]
    assert doc["factorization_complete"] is True
    # a repeated root carries its multiplicity, in the roots and the factors
    code, out, _ = _capture(capsys, ["sections", "ci", "--h", "1,-4,6,-4,1"])
    assert code == 0 and out == (
        "p(a)            a^6 - 4*a^5 + 2*a^4 + 12*a^3 - 23*a^2 + 16*a - 4\n"
        "degree          6\n"
        "rational roots  -2, 1 (x4), 2\n"
        "factors         (a - 2) * (a - 1)^4 * (a + 2)\n"
        "complete        yes\n"
    )
    code, _, err = _capture(capsys, ["sections", "ci", "--h", "0,0,0"])
    assert code == 1
    code, _, err = _capture(capsys, ["sections", "ci", "--h", "1,oops"])
    assert code == 1
    code, _, err = _capture(capsys, ["sections", "ci", "--h", ","])
    assert code == 1 and err == "error: empty coefficient list\n"


def test_sections_lines(capsys):
    code, out, _ = _capture(
        capsys, ["sections", "lines", "--a", "1,0,0,0,1", "--b", "1,0,1", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 12
    assert doc["infinity_section"] is False
    assert all(entry["root"] is None for entry in doc["splits"])
    # A = x^4 + x y^3 vanishes at (0, 1): the section at infinity is a line pair
    code, out, _ = _capture(capsys, ["sections", "lines", "--a", "1,0,0,1,0", "--b", "1,0,1"])
    assert code == 0 and out == (
        "total lines       12\n"
        "infinity section  yes\n"
        "split values:\n"
        "  source    root  count  c  rational pair  factor\n"
        "  A         -1    1      2  no             t + 1\n"
        "  A         -     2      -  -              t^2 - t + 1\n"
        "  B         -     2      -  -              t^2 + 1\n"
        "  infinity  -     1      1  yes            infinity\n"
    )
    code, _, err = _capture(capsys, ["sections", "lines", "--a", "1,0,0,0,1", "--b", "1,2,1"])
    assert code == 1 and "squarefree" in err
    # a zero A passes the coefficient checks and is refused by line_census
    code, _, err = _capture(capsys, ["sections", "lines", "--a", "0,0,0,0,0", "--b", "1,0,1"])
    assert code == 1 and err == "error: A and B must be nonzero\n"


def test_sections_negative_leading_coefficient(capsys):
    # a list starting with "-" reads as an option unless joined by "="
    code, _, err = _capture(capsys, ["sections", "ci", "--h", "-1,0,0,0,1"])
    assert code == 1 and "expected one argument" in err
    code, out, _ = _capture(capsys, ["sections", "ci", "--h=-1,0,0,0,1", "--json"])
    assert code == 0
    assert [r["root"] for r in json.loads(out)["rational_roots"]] == ["-2", "-1", "1", "2"]
    code, out, _ = _capture(capsys, ["sections", "lines", "--a=-1,0,0,0,2", "--b=1,0,1", "--json"])
    assert code == 0 and json.loads(out)["total"] == 12


def test_sections_caps(capsys):
    # the cap reads the primitive integer polynomial: p(a) of x^4 + c y^4 has
    # the coefficient 4c, and content or denominators are scaled away first
    code, out, err = _capture(capsys, ["sections", "ci", "--h", "1,0,0,0,250001"])
    assert code == 1 and out == ""
    assert "coefficients of at most 1000000 in absolute value, got 1000004" in err
    code, out, _ = _capture(capsys, ["sections", "ci", "--h", "1,0,0,0,250000", "--json"])
    assert code == 0 and json.loads(out)["coefficients"] == [-4, 0, 1, 0, -1000000, 0, 250000]
    for a, b in (("1,0,0,0,1000001", "1,0,1"), ("1/1000001,0,0,0,1", "1,0,1"),
                 ("1,0,0,0,1", "-1000001,0,-1")):
        code, out, err = _capture(capsys, ["sections", "lines", f"--a={a}", f"--b={b}"])
        assert code == 1 and out == "" and "at most 1000000" in err and "got 1000001" in err
    code, out, _ = _capture(capsys, ["sections", "lines", "--a", "2,0,0,0,2000000", "--b", "1,0,1"])
    assert code == 0 and "1000000*t^4 + 1" in out
    # the degree of --h is capped before any work, whatever its parity
    for degree in (17, 18, 1000):
        h = ",".join(["1"] + ["0"] * (degree - 1) + ["1"])
        code, out, err = _capture(capsys, ["sections", "ci", "--h", h])
        assert code == 1 and out == ""
        assert f"--h of degree at most 16, got {degree}" in err
    code, out, _ = _capture(capsys, ["sections", "ci", "--h", ",".join(["1"] + ["0"] * 15 + ["1"]), "--json"])
    assert code == 0 and json.loads(out)["degree"] == 18
    # a coefficient list is sized before Fraction() reads it: its digits, and
    # |K| more for each exponent eK; 10^990 (x^4 + y^4) is 1991, 10^1000 2013
    for argv, size in (
        (["ci", "--h", "1e1000,0,0,0,1e1000"], 2013),
        (["ci", "--h", "1e5000,0,0,0,1"], 5009),
        (["ci", "--h", "1e10000000,0,0,0,1"], 10000013),
        (["ci", "--h=1E-1_000_000,0,0,0,1"], 1000012),
        (["lines", "--a", "1e5000,0,0,0,1", "--b", "1,0,1"], 5009),
        (["lines", "--a", ",".join(f"1/{10**6 + k}" for k in range(700)), "--b", "1,0,1"], 5600),
    ):
        start = time.perf_counter()
        code, out, err = _capture(capsys, ["sections", *argv])
        assert time.perf_counter() - start < 1
        assert code == 1 and out == "" and "Traceback" not in err
        assert err == ("error: sections takes coefficient lists of at most 2000 digits, "
                       f"counting |K| more for an exponent eK, got {size}\n")
    for h in ("1e990,0,0,0,1e990", "1,0,0,0,1", "1/2,0,3/4,0,1"):
        code, out, _ = _capture(capsys, ["sections", "ci", "--h", h, "--json"])
        assert code == 0 and json.loads(out)["factorization_complete"] is True
    code, out, _ = _capture(capsys, ["sections", "ci", "--h", "1e990,0,0,0,1e990"])
    assert out == _capture(capsys, ["sections", "ci", "--h", "1,0,0,0,1"])[1]


def test_verify_failure_exits_2(capsys, monkeypatch):
    passing = CheckResult(1, "ex:ok", "a check that passes", True, "1 comparison")
    failing = CheckResult(2, "thm:broken", "a check that fails", False, "1 problem: x")
    monkeypatch.setattr("dpforms.verification.ALL_CHECKS", (lambda: passing, lambda: failing))
    code, out, err = _capture(capsys, ["verify"])
    assert code == 2 and err == "" and out == (
        "PASS  1  [ex:ok]       a check that passes: 1 comparison\n"
        "FAIL  2  [thm:broken]  a check that fails: 1 problem: x\n"
        "1 of 2 checks failed; first failing clause: thm:broken\n"
    )
    code, out, err = _capture(capsys, ["verify", "--json"])
    doc = json.loads(out)
    assert code == 2 and err == ""
    assert doc["passed"] is False and doc["first_failure"] == "thm:broken"
    assert [r["passed"] for r in doc["results"]] == [True, False]


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


def test_json_bytes_are_the_indented_document(tmp_path, capsys):
    # each --json output is exactly json.dumps(document, indent=2) and a newline
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(
        {"model": {"m": 2, "n": 6, "kind": "plane"}, "curves": "auto", "galois": []}
    ))
    argvs = [
        ["lattice", "--m", "2", "--n", "6"],
        ["curves", "--m", "3", "--n", "4"],
        ["rr", "--m", "3", "--n", "7", "--max-j", "4", "--embedding"],
        ["ell", "--instance", str(instance)],
        ["classify", "--m", "2", "--n", "7", "--ell", "4"],
        ["sections", "ci", "--h", "1,0,0,0,0,0,1"],
        ["sections", "lines", "--a", "1,0,0,0,1", "--b", "1,0,1"],
        ["verify"],
    ]
    for argv in argvs:
        code, out, _ = _capture(capsys, argv + ["--json"])
        assert code == 0, argv
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


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


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_closed_pipe_exits_quietly(json_flag):
    # the (5,10) census prints 91 KB as text and 349 KB as JSON, more than a
    # pipe buffer holds, so the writes after the reader closes fail
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "dpforms", "curves", "--m", "5", "--n", "10", *json_flag]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def test_exports_are_the_library_objects():
    # __all__ is the export table's names and run, sorted, then __version__
    import dpforms

    names = [name for names in dpforms._EXPORTS.values() for name in names.split()]
    assert len(names) == len(set(names)) == 74
    assert dpforms.__all__ == sorted(names + ["run"]) + ["__version__"]
    for module, listed in dpforms._EXPORTS.items():
        for name in listed.split():
            assert getattr(dpforms, name) is getattr(sys.modules[f"dpforms.{module}"], name)


def test_import_leaves_the_cli_unloaded():
    code = ("import sys, dpforms; assert 'dpforms.cli' not in sys.modules; "
            "assert dpforms.run is sys.modules['dpforms.cli'].run")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
