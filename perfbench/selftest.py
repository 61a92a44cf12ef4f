"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Each correctness gate passes real outputs and raises fail_ratio when one
output is corrupted: a witness with two meeting curves, a factor list that
does not multiply back, a CLI output that does not match, a verify count
that moved.  Also checks the span recorder and that BENCHMARK.json lists
exactly the metrics run.py prints.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.load_dpforms()
run.OUT.mkdir(exist_ok=True)

import spans  # noqa: E402
import workloads  # noqa: E402
from dpforms import galois, lattice, verification  # noqa: E402


def fail_ratio(wl, jobs, outputs):
    tally = run.Tally()
    for job, output in zip(jobs, outputs, strict=True):
        tally.add(wl, job, output)
    return tally.failed / tally.attempted, tally.problems


def test_verify_gate():
    wl = workloads.Verify()
    jobs = wl.build(0, None)
    good = tuple(verification.CheckResult(k, f"tag{k}", "title", True, f"{n} comparisons")
                 for k, n in enumerate(workloads.SEED_COUNTS, start=1))
    assert fail_ratio(wl, jobs, [good])[0] == 0
    moved = good[:1] + (dataclasses.replace(good[1], detail="1326 comparisons"),) + good[2:]
    ratio, problems = fail_ratio(wl, jobs, [moved])
    assert ratio == 1 and "check 2" in problems[0]
    failed = good[:6] + (dataclasses.replace(good[6], passed=False),) + good[7:]
    assert fail_ratio(wl, jobs, [failed])[0] == 1


def test_ell_gate():
    wl = workloads.EllWindow(m=2)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        jobs = wl.build(7, workdir)
    outputs = [wl.run(job) for job in jobs]
    assert fail_ratio(wl, jobs, outputs)[0] == 0

    job, res = jobs[0], outputs[0]  # the trivial action
    assert not job["generators"] and res.ell == workloads.SEED_TRIVIAL_ELL[2]
    cs, m = job["curves"], job["m"]
    q = (1,) + (0,) * (len(cs[0]) - 1)
    keep = res.witness[1:]
    intruder = next(k for k in range(len(cs)) if k not in res.witness
                    and workloads.hz_dot(m, cs[k], q) >= 1
                    and any(workloads.hz_dot(m, cs[k], cs[i]) != 0 for i in keep))
    witness = tuple(sorted(keep + (intruder,)))
    bad = galois.EllResult(ell=res.ell, witness=witness,
                           witness_orbits=tuple((i,) for i in witness))
    ratio, problems = fail_ratio(wl, jobs, [bad] + outputs[1:])
    assert ratio == 1 / len(jobs) and "meet" in problems[0]

    smaller = galois.EllResult(ell=res.ell - 1, witness=res.witness[1:],
                               witness_orbits=res.witness_orbits[1:])
    assert fail_ratio(wl, jobs, [smaller] + outputs[1:])[0] > 0


def test_sections_gate():
    wl = workloads.SectionsFactor()
    jobs = [
        {"kind": "lines", "a": [1, 0, 0, 0, 7], "b": [1, 0, 1]},
        {"kind": "lines", "a": [4, 0, -5, 0, 1], "b": [1, 0, 3]},
        {"kind": "ci", "h": [1, 0, 0, 0, 5]},
        {"kind": "ci", "h": [1, 0, 0, 0, 0, 0, 3]},
        {"kind": "ci", "h": [6, -5, -5, 5, -1]},
    ]
    outputs = [wl.run(job) for job in jobs]
    assert fail_ratio(wl, jobs, outputs)[0] == 0
    assert not outputs[3][2].complete  # the sextic stays unresolved

    p, roots, fac = outputs[4]
    dropped = dataclasses.replace(fac, factors=fac.factors[1:])
    ratio, problems = fail_ratio(wl, jobs, outputs[:4] + [(p, roots, dropped)])
    assert ratio == 1 / len(jobs) and "multiply back" in problems[0]

    census = outputs[1]
    short = dataclasses.replace(census, total_lines=10)
    assert fail_ratio(wl, jobs, [outputs[0], short] + outputs[2:])[0] > 0
    entry = census.split_values[0]
    moved = dataclasses.replace(entry, root=entry.root + 1)
    wrong_root = dataclasses.replace(census, split_values=(moved,) + census.split_values[1:])
    assert fail_ratio(wl, jobs, [outputs[0], wrong_root] + outputs[2:])[0] > 0


def test_cli_gate():
    wl = workloads.CliCold(run.SRC)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        jobs = wl.build(3, workdir)
        wl.prepare(jobs)
        outputs = [wl.run(job) for job in jobs]
    assert fail_ratio(wl, jobs, outputs)[0] == 0
    assert wl.peak_rss_mb > 0

    code, out, err = outputs[0]
    tampered = out.replace(b"1", b"2", 1)
    assert tampered != out
    ratio, problems = fail_ratio(wl, jobs, [(code, tampered, err)] + outputs[1:])
    assert ratio == 1 / len(jobs) and "differs" in problems[0]
    assert fail_ratio(wl, jobs, [(1, out, b"error")] + outputs[1:])[0] > 0


def test_tracer_nesting_and_uninstall():
    original = galois.validate_action
    tracer = spans.Tracer()
    run.install(tracer)
    try:
        system = galois.standard_curve_system(lattice.build_model(2, 6, "plane"))
        with tracer.job("j"):
            galois.compute_ell(system, galois.GaloisAction.trivial(len(system)))
    finally:
        tracer.uninstall()
    assert galois.validate_action is original
    by_name = {s[spans.NAME]: s for s in tracer.spans if s[spans.JOB] == "j"}
    ell, validate = by_name["galois.ell"], by_name["galois.validate"]
    assert validate[spans.PARENT] == ell[spans.ID] and ell[spans.SIZE] == 12
    selfs = tracer.self_times()
    assert 0 <= selfs[ell[spans.ID]] <= ell[spans.END] - ell[spans.START]


def test_benchmark_json_matches_run():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["verify", "ell_window",
                                                      "sections_factor", "cli_cold"]


def main() -> int:
    failed = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except Exception:
                failed += 1
                print(f"FAIL {name}")
                traceback.print_exc()
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
