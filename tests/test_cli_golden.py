"""The CLI contract as a golden grid.

A seeded grid of in-process calls covers every subcommand in text and
--json: values at and past each cap, the refusals, and `ell` instances under
trivial, swap, point and invalid actions.  Each call's (stdout, stderr, exit
code) is hashed with SHA-256 and compared with ``cli_golden.txt``, one
``<digest> <argv>`` line per call, so a diff of that file names every call
whose output changed.  Instance paths are written as ``<tmp>`` before
hashing.  Argparse's own wording (choice lists, help) varies across Python
versions and stays out of the grid.

Regenerate the golden file, only when output is meant to change, with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from dpforms.cli import run

GOLDEN = Path(__file__).with_name("cli_golden.txt")
SEED = 20251019

SWAP = [7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 5, 6]
PLANE_2_6 = {"m": 2, "n": 6, "kind": "plane"}
HIRZ_2_6 = {"m": 2, "n": 6, "kind": "hirzebruch"}

# instance name -> document (a str is written verbatim)
INSTANCES = {
    "trivial": {"model": PLANE_2_6, "curves": "auto", "galois": []},
    "swap": {"model": PLANE_2_6, "curves": "auto", "galois": [SWAP], "q_point": "no"},
    "swap_unknown": {"model": PLANE_2_6, "galois": [SWAP], "q_point": "unknown"},
    "point_yes": {"model": PLANE_2_6, "galois": [], "q_point": "yes"},
    "point_no": {"model": PLANE_2_6, "galois": [], "q_point": "no"},
    # one E_6 <-> E_6' swap: ell 5 is not feasible at (2, 6), so no verdict
    "single_swap": {"model": PLANE_2_6, "galois": [[1, 2, 3, 4, 5, 12, 7, 8, 9, 10, 11, 6]],
                    "q_point": "yes"},
    "invalid": {"model": PLANE_2_6, "galois": [[2, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]]},
    "invalid_many": {"model": PLANE_2_6, "galois": [[12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1]]},
    "explicit": {"model": HIRZ_2_6,
                 "curves": [[0, 1, -1, 0, 0, 0, 0, 0], [0, 1, 0, -1, 0, 0, 0, 0]],
                 "galois": [[2, 1]]},
    "explicit_point": {"model": {"m": 3, "n": 7, "kind": "hirzebruch"},
                       "curves": [[0, 1, -1, 0, 0, 0, 0, 0, 0], [0, 1, 0, -1, 0, 0, 0, 0, 0]],
                       "galois": [], "q_point": "yes"},
    "hirz_auto": {"model": {"m": 3, "n": 7, "kind": "hirzebruch"}, "galois": [], "q_point": "no"},
    "hirz_low": {"model": {"m": 3, "n": 4, "kind": "hirzebruch"}, "galois": [], "q_point": "yes"},
    "window": {"model": {"m": 4, "n": 9, "kind": "hirzebruch"}, "galois": []},
    "m_cap": {"model": {"m": 100, "n": 1, "kind": "hirzebruch"}, "curves": [[0, 1, -1]],
              "galois": []},
    "m_past_cap": {"model": {"m": 101, "n": 1, "kind": "hirzebruch"}, "curves": [[0, 1, -1]],
                   "galois": []},
    "census_past_cap": {"model": {"m": 13, "n": 17, "kind": "hirzebruch"}, "galois": []},
    "window_past_cap": {"model": {"m": 7, "n": 12, "kind": "hirzebruch"}, "galois": []},
    "curves_past_cap": {"model": {"m": 2, "n": 1, "kind": "hirzebruch"},
                        "curves": [[0, 1, -1]] * 601, "galois": []},
    "not_minus_one": {"model": HIRZ_2_6, "curves": [[0, 1, 0, 0, 0, 0, 0, 0]], "galois": []},
    "duplicate": {"model": HIRZ_2_6, "curves": [[0, 1, -1, 0, 0, 0, 0, 0]] * 2, "galois": []},
    "wrong_rank": {"model": HIRZ_2_6, "curves": [[0, 1, -1]], "galois": []},
    "not_permutation": {"model": PLANE_2_6, "galois": [[0] + SWAP[1:]]},
    "wrong_degree": {"model": PLANE_2_6, "galois": [[2, 1]]},
    "bad_kind": {"model": {"m": 2, "n": 6, "kind": "spherical"}, "galois": []},
    "bad_n": {"model": {"m": 2, "n": 8, "kind": "hirzebruch"}, "galois": []},
    "infeasible_ell": {"model": PLANE_2_6, "galois": [], "q_point": "unknown"},
    "extra_key": {"model": PLANE_2_6, "galois": [], "extra": 1},
    "bool_m": {"model": {**PLANE_2_6, "m": True}, "galois": []},
    "float_image": {"model": PLANE_2_6, "galois": [[1.0] + list(range(2, 13))]},
    "bad_q_point": {"model": PLANE_2_6, "galois": [], "q_point": "maybe"},
    "format_2": {"model": PLANE_2_6, "galois": [], "format": 2},
    "garbled": "{not json",
}


def _grid() -> list[list[str]]:
    """Every argv of the grid, in a fixed order; instance paths as <name>."""
    grid: list[list[str]] = []
    for m, n, kind in ((2, 1, "hirzebruch"), (2, 6, "plane"), (3, 7, "hirzebruch"),
                       (3, 8, "hirzebruch"), (5, 10, "hirzebruch"), (4, 8, "plane"),
                       (100, 1, "hirzebruch"), (101, 1, "hirzebruch"), (1, 1, "hirzebruch"),
                       (2, 8, "hirzebruch"), (2, 5, "plane"), (12, 16, "plane")):
        grid.append(["lattice", "--m", str(m), "--n", str(n), "--kind", kind])
    for argv in (["--m", "2", "--n", "1"], ["--m", "3", "--n", "4"], ["--m", "3", "--n", "6"],
                 ["--m", "2", "--n", "5"], ["--m", "3", "--n", "7"], ["--m", "2", "--n", "7"],
                 ["--m", "3", "--n", "8"], ["--m", "2", "--n", "6", "--kind", "plane"],
                 ["--m", "2", "--n", "6", "--kind", "plane", "--meeting-q"],
                 ["--m", "3", "--n", "7", "--meeting-q"], ["--m", "4", "--n", "9"],
                 ["--m", "4", "--n", "9", "--meeting-q"],
                 ["--m", "13", "--n", "17"], ["--m", "13", "--n", "17", "--kind", "plane"],
                 ["--m", "13", "--n", "16"], ["--m", "12", "--n", "16", "--kind", "plane",
                                              "--meeting-q"],
                 ["--m", "100", "--n", "1"], ["--m", "101", "--n", "1"], ["--m", "2", "--n", "0"],
                 ["--m", "3", "--n", "4", "--kind", "plane"]):
        grid.append(["curves", *argv])
    for argv in (["--m", "3", "--n", "7", "--max-j", "6"], ["--m", "4", "--n", "8", "--max-j", "6"],
                 ["--m", "2", "--n", "3", "--max-j", "4", "--embedding"],
                 ["--m", "3", "--embedding"], ["--m", "4", "--embedding"], ["--m", "5", "--embedding"],
                 ["--m", "3", "--n", "7", "--max-j", "1000"], ["--m", "3", "--n", "7", "--max-j", "1001"],
                 ["--m", "3", "--n", "7", "--max-j", "0"], ["--m", "3", "--n", "7", "--max-j", "-3"],
                 ["--m", "5", "--n", "10", "--max-j", "12"], ["--m", "4", "--n", "9", "--max-j", "12"],
                 ["--m", "3"], ["--m", "3", "--max-j", "2"], ["--m", "1", "--embedding"],
                 ["--m", "5", "--n", "99", "--embedding"], ["--m", "5", "--n", "0", "--embedding"],
                 ["--m", "5", "--n", "9", "--embedding"]):
        grid.append(["rr", *argv])
    for name in INSTANCES:
        grid.append(["ell", "--instance", f"<{name}>"])
    grid.append(["ell", "--instance", "<missing>"])
    for argv in (["--m", "3", "--n", "4"], ["--m", "2", "--n", "6"], ["--m", "2", "--n", "6", "--ell", "5"],
                 ["--m", "3", "--n", "7", "--ell", "4"], ["--m", "2", "--n", "7", "--ell", "4"],
                 ["--m", "4", "--n", "9", "--ell", "0", "--q-point", "yes"],
                 ["--m", "5", "--n", "10", "--q-point", "no"], ["--m", "2", "--n", "6", "--ell", "nope"],
                 ["--m", "2", "--n", "12"], ["--m", "2"], ["--m", "100", "--n", "104", "--ell", "0"],
                 ["--m", "101", "--n", "105", "--ell", "0"]):
        grid.append(["classify", *argv])
    for h in ("1,0,0,0,0,0,1", "1,-4,6,-4,1", "1,0,0,0,0,0,0,0,0,0,7", "1 0 -4 0 0 0 0",
              "1,0,0,0,250001", "1,0,0,0,250000", "0,0,0", "1,oops", "1/2,0,3/4,0,1",
              ",".join(["1"] + ["0"] * 15 + ["1"]), ",".join(["1"] + ["0"] * 16 + ["1"]),
              "1e1000,0,0,0,1e1000", "1e990,0,0,0,1e990", "-1,0,0,0,1"):
        grid.append(["sections", "ci", "--h", h])
    grid.append(["sections", "ci", "--h=-1,0,0,0,1"])
    for a, b in (("1,0,0,0,1", "1,0,1"), ("1,0,0,1,0", "1,0,1"), ("1,0,0,0,1", "1,2,1"),
                 ("1,0,0,0,1000001", "1,0,1"), ("2,0,0,0,2000000", "1,0,1"), ("1,0,1", "1,0,1"),
                 ("1,0,0,0,1", "1,0,0,1"), ("1,0,-1,0,0", "1,0,1"), ("1,0,0,0,-1", "1,0,-1"),
                 ("0,1,0,0,1", "0,0,1"), ("1,0,0,0,1e5000", "1,0,1")):
        grid.append(["sections", "lines", f"--a={a}", f"--b={b}"])
    grid += [["verify"], ["lattice", "--m", "x", "--n", "1"], ["classify", "--n", "1"]]

    rng = random.Random(SEED)
    for _ in range(24):
        m = rng.randint(2, 14)
        n = rng.choice((rng.randint(0, m + 6), m + 4, m + 5))
        grid.append(["classify", "--m", str(m), "--n", str(n), "--ell", str(rng.randint(-1, m + 5)),
                     "--q-point", rng.choice(("yes", "no", "unknown"))])
        grid.append(["rr", "--m", str(m), "--n", str(n), "--max-j", str(rng.randint(0, 30))])
    for _ in range(12):
        degree = rng.choice((4, 6, 8))
        h = ",".join(str(rng.randint(-9, 9)) for _ in range(degree + 1))
        grid.append(["sections", "ci", f"--h={h}"])
        a = ",".join(str(rng.randint(-5, 5)) for _ in range(5))
        b = ",".join(str(rng.randint(-5, 5)) for _ in range(3))
        grid.append(["sections", "lines", f"--a={a}", f"--b={b}"])
    calls = []
    for argv in grid:
        calls += [argv, argv + ["--json"]]
    return calls


def run_grid(tmp: Path) -> dict[str, tuple[int, str, str]]:
    """(exit code, stdout, stderr) per call, keyed by the call's argv."""
    for name, doc in INSTANCES.items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (tmp / f"{name}.json").write_text(text)
    results = {}
    for argv in _grid():
        real = [str(tmp / f"{arg[1:-1]}.json") if arg.startswith("<") else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(real)
        results[" ".join(argv)] = (code, out.getvalue().replace(str(tmp), "<tmp>"),
                                   err.getvalue().replace(str(tmp), "<tmp>"))
    return results


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([out, err, code]).encode()).hexdigest()


def _read_golden() -> dict[str, str]:
    lines = GOLDEN.read_text().splitlines()
    return {call: hexdigest for hexdigest, call in (line.split(" ", 1) for line in lines)}


def test_cli_output_matches_the_golden_grid(tmp_path):
    results = run_grid(tmp_path)
    for call, (code, out, err) in results.items():
        assert code in (0, 1, 2), call
        assert "Traceback" not in out + err, call
        assert code != 1 or out == "", call
    actual = {call: digest(*result) for call, result in results.items()}
    golden = _read_golden()
    assert actual.keys() == golden.keys()
    changed = [call for call in actual if actual[call] != golden[call]]
    assert not changed, changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        grid = run_grid(Path(tmp))
    GOLDEN.write_text("".join(f"{digest(*result)} {call}\n" for call, result in grid.items()))
    print(f"wrote {len(grid)} digests to {GOLDEN}", file=sys.stderr)
