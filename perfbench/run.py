"""dpforms benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify, ell_window, sections_factor, cli_cold (see README.md).
The job list is built from --seed, then run again and again, one job at a
time (a closed loop with one client), for about --seconds seconds; every
output is checked.  With --trace 0 the last stdout line reports the
end-to-end metrics; with --trace 1 it reports the per-layer metrics, from
spans recorded around calls into dpforms, and the spans are written to
.perfbench/ in the checkout.

The benchmark runs the dpforms of this checkout's src/ and refuses to run
if the import resolves anywhere else.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_ROUNDS = 7
SETUP_PROBES = 20  # speed-probe samples between set-up rounds
JOB_PROBES = 20  # speed-probe samples after each job
PROBE_ROUNDS = 5

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}
CHECK_NAMES = tuple(f"verification.check_{k}_s" for k in range(1, 10))
LAYERS = ("curves", "galois", "sections", "lattice", "riemann_roch", "verdicts", "verification")
PER_LAYER = {
    "curves.census_s": "s",
    "curves.census_calls": "count",
    "curves.classes_out": "count",
    "curves.closed_form_s": "s",
    "galois.build_system_s": "s",
    "galois.pair_gram_s": "s",
    "galois.validate_s": "s",
    "galois.orbit_partition_s": "s",
    "galois.ell_self_s": "s",
    "galois.ell_calls": "count",
    "galois.curves_in": "count",
    "galois.orbits_in": "count",
    "sections.line_census_s": "s",
    "sections.factor_s": "s",
    "sections.roots_s": "s",
    "sections.factor_calls": "count",
    "sections.complete_ratio": "ratio",
    "lattice.invariants_s": "s",
    "riemann_roch.h0_s": "s",
    "riemann_roch.h0_calls": "count",
    "verdicts.classify_s": "s",
    "verdicts.classify_calls": "count",
    **{name: "s" for name in CHECK_NAMES},
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.run_s": "s",
    "trace.overhead_ratio": "ratio",
    "machine.probe_s": "s",
    **{f"layer_share.{layer}": "ratio" for layer in LAYERS + ("cli_startup",)},
}


def load_dpforms():
    """Import dpforms from this checkout's src/, or exit."""
    sys.path.insert(0, str(SRC))
    try:
        import dpforms
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dpforms from {SRC}: {exc}")
    where = Path(dpforms.__file__).resolve().parent
    if where != (SRC / "dpforms").resolve():
        raise SystemExit(f"perfbench: dpforms resolves to {where}, not to {SRC / 'dpforms'}")
    return dpforms


def provenance(dpforms, workload, seed):
    from importlib import metadata

    sha = None  # a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        jsonschema_version = metadata.version("jsonschema")
    except metadata.PackageNotFoundError:
        jsonschema_version = None
    from dpforms import verification

    source = Path(verification.__file__).read_text(encoding="utf-8")
    fixed = re.search(r"random\.Random\((\d+)\)", source)
    return {
        "workload": workload,
        "seed": seed,
        "program_seed": int(fixed.group(1)) if fixed and workload == "verify" else None,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "jsonschema": jsonschema_version,
        "dpforms_file": dpforms.__file__,
    }


# --- tracing targets ------------------------------------------------------------


def install(tracer) -> None:
    from dpforms import cli, curves, galois, lattice, riemann_roch, sections, verdicts, verification

    def count(args, result):
        return len(result)

    fn = tracer.patch_function
    fn(curves.brute_force_minus_one_classes, "curves.census", size=count)
    fn(curves.curves_meeting_q, "curves.meeting_q")
    fn(curves.closed_form_minus_one_classes, "curves.closed_form")
    fn(galois.build_curve_system, "galois.build_system")
    fn(galois.standard_curve_system, "galois.standard_system")
    fn(galois.validate_action, "galois.validate")
    fn(galois.orbit_partition, "galois.orbit_partition", size=count)
    fn(galois.compute_ell, "galois.ell", size=lambda args, result: len(args[0]))
    fn(galois.brute_force_ell, "galois.brute_force_ell")
    tracer.patch_cached_property(galois.CurveSystem, "pair_gram", "galois.pair_gram")
    fn(sections.line_census, "sections.line_census")
    fn(sections.ci_split_polynomial, "sections.ci_split")
    fn(sections.factor_over_rationals, "sections.factor",
       size=lambda args, result: int(result.complete))
    fn(sections.rational_roots, "sections.roots")
    fn(lattice.lattice_signature, "lattice.signature")
    fn(lattice.signature_of, "lattice.signature_of")
    fn(lattice.gram_determinant, "lattice.determinant")
    fn(lattice.is_unimodular, "lattice.unimodular")
    fn(lattice.k_squared_singular, "lattice.k_squared")
    fn(riemann_roch.h0_anti_plurigenus, "riemann_roch.h0")
    fn(verdicts.classify, "verdicts.classify")
    fn(cli.run, "cli.run")
    tracer.patch_sequence(verification, "ALL_CHECKS",
                          [f"verification.check_{k}" for k in range(1, 10)])


def layer_metrics(tracer, traced_times, startup):
    """Per-layer values for one round: the in-process set-up plus one job list.

    Span self times are summed by name; spans of the timed job lists count
    1/len(traced_times) each, set-up spans count once.
    """
    from spans import END, JOB, NAME, PARENT, SIZE, START

    spans = tracer.spans
    selfs = tracer.self_times()
    n = len(traced_times)
    weights = [1.0 if s[JOB] == "setup" else 1.0 / n for s in spans]

    def pick(pred):
        return [i for i, s in enumerate(spans) if pred(s)]

    def named(*names):
        return pick(lambda s: s[NAME] in names)

    def self_s(idx):
        return sum(selfs[i] * weights[i] for i in idx)

    def calls(idx):
        return sum(weights[i] for i in idx)

    def sizes(idx):
        return sum(spans[i][SIZE] * weights[i] for i in idx)

    def inclusive(idx):
        return sum((spans[i][END] - spans[i][START]) * weights[i] for i in idx)

    census = named("curves.census")
    ell = named("galois.ell")
    ell_ids = {spans[i][0] for i in ell}
    factor = named("sections.factor")
    h0 = named("riemann_roch.h0")
    classify = named("verdicts.classify")
    m = {
        "curves.census_s": self_s(named("curves.census", "curves.meeting_q")),
        "curves.census_calls": calls(census),
        "curves.classes_out": sizes(census),
        "curves.closed_form_s": self_s(named("curves.closed_form")),
        "galois.build_system_s": self_s(named("galois.build_system", "galois.standard_system")),
        "galois.pair_gram_s": self_s(named("galois.pair_gram")),
        "galois.validate_s": self_s(named("galois.validate")),
        "galois.orbit_partition_s": self_s(named("galois.orbit_partition")),
        "galois.ell_self_s": self_s(ell),
        "galois.ell_calls": calls(ell),
        "galois.curves_in": sizes(ell),
        "galois.orbits_in": sizes(pick(lambda s: s[NAME] == "galois.orbit_partition"
                                       and s[PARENT] in ell_ids)),
        "sections.line_census_s": self_s(named("sections.line_census")),
        "sections.factor_s": self_s(factor),
        "sections.roots_s": self_s(named("sections.roots")),
        "sections.factor_calls": calls(factor),
        "sections.complete_ratio": sizes(factor) / calls(factor) if factor else 0.0,
        "lattice.invariants_s": self_s(pick(lambda s: s[NAME].startswith("lattice."))),
        "riemann_roch.h0_s": self_s(h0),
        "riemann_roch.h0_calls": calls(h0),
        "verdicts.classify_s": self_s(classify),
        "verdicts.classify_calls": calls(classify),
        "cli.run_s": inclusive(named("cli.run")),
    }
    for k, name in enumerate(CHECK_NAMES, start=1):
        m[name] = inclusive(named(f"verification.check_{k}"))
    m["cli.interp_s"], m["cli.import_s"] = startup
    per_list = statistics.fmean(traced_times)
    for layer in LAYERS:
        idx = pick(lambda s: s[JOB] != "setup" and s[NAME].split(".")[0] == layer)
        m[f"layer_share.{layer}"] = self_s(idx) / per_list
    m["layer_share.cli_startup"] = (startup[0] + startup[1]) / per_list
    return m


# --- running --------------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, wl, job, output) -> None:
        self.attempted += 1
        if isinstance(output, Exception):
            problem = f"raised {output!r}"
        else:
            try:
                problem = wl.check(job, output)
            except Exception as exc:  # a malformed output the gate could not read
                problem = f"gate could not read the output: {exc!r}"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{wl.name}: {problem}")


def iterate(wl, jobs, seconds, tally, tracer=None, periodic=True):
    """Run the job list until the next one would end after `seconds`.

    Returns the job lists' times without the probe's own time, raw and
    scaled to the nominal speed (see speed.py).  The probe samples during
    the timed part when `periodic`, and JOB_PROBES times after each job;
    outputs are checked, and garbage collected, outside the timed part.
    """
    raw: list[float] = []
    scaled: list[float] = []
    start = perf_counter()
    while True:
        k = len(raw)
        outputs = []
        # Every job list starts without the previous one's garbage, as in a
        # fresh `dpforms` process: run_all leaves cycles holding ~150 MiB that
        # would otherwise stack onto the next job list's peak RSS.
        gc.collect()
        probe = speed.SpeedProbe()
        with probe.periodic() if periodic else nullcontext():
            t0 = perf_counter()
            for j, job in enumerate(jobs):
                with tracer.job(f"t{k}.{j}") if tracer else nullcontext():
                    try:
                        outputs.append(wl.run(job))
                    except Exception as exc:  # counted as a failed job, the run goes on
                        outputs.append(exc)
                for _ in range(JOB_PROBES):
                    probe.sample()
            busy = perf_counter() - t0 - probe.spent
        raw.append(busy)
        scaled.append(busy * speed.NOMINAL_S * probe.count / probe.spent)
        for job, output in zip(jobs, outputs):
            tally.add(wl, job, output)
        if perf_counter() - start + statistics.median(raw) > seconds:
            return raw, scaled


def probe_mean(n):
    probe = speed.SpeedProbe()
    for _ in range(n):
        probe.sample()
    return probe.spent / probe.count


def setup_round(workload, seed, env):
    """One set-up in a fresh interpreter: import dpforms, then build the inputs."""
    import workloads

    code, out, err, _ = workloads.run_child(
        [sys.executable, str(Path(__file__).resolve()), "--setup-round",
         "--workload", workload, "--seed", str(seed)], env)
    if code != 0:
        raise SystemExit(f"perfbench: set-up round failed ({code}): {err.decode(errors='replace')}")
    timing = json.loads(out.decode().splitlines()[-1])
    return timing["import_s"] + timing["build_s"]


def setup_round_child(workload, seed):
    """The child side of setup_round: print its import and build times."""
    t0 = perf_counter()
    load_dpforms()
    t1 = perf_counter()
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        t2 = perf_counter()
        workloads.make(workload, SRC).build(seed, workdir)
        t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2}))


def startup_probes(n_calls, env):
    """Per job list of n_calls CLI calls: bare interpreter start, and the import
    of dpforms.cli timed inside a fresh interpreter; medians of PROBE_ROUNDS."""
    import workloads

    interp, imports = [], []
    timed_import = ("import time; t = time.perf_counter(); import dpforms.cli; "
                    "print(time.perf_counter() - t)")
    for _ in range(PROBE_ROUNDS):
        t0 = perf_counter()
        workloads.run_child([sys.executable, "-c", "pass"], env)
        interp.append(perf_counter() - t0)
        code, out, err, _ = workloads.run_child([sys.executable, "-c", timed_import], env)
        if code != 0:
            raise SystemExit(f"perfbench: import probe failed: {err.decode(errors='replace')}")
        imports.append(float(out))
    return n_calls * statistics.median(interp), n_calls * statistics.median(imports)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(dpforms, args, workdir):
    import spans
    import workloads

    info = provenance(dpforms, args.workload, args.seed)
    # One CPU for the run and its children, so that the speed probe samples
    # the core the jobs run on: the cores of a shared machine slow down
    # independently of each other.
    info["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {info["cpu"]})
    print("provenance " + json.dumps(info, sort_keys=True))
    env = workloads.child_env(SRC)
    wl = workloads.make(args.workload, SRC)
    # Each round is scaled by the probe samples taken just before and after
    # it: a round is short, so its speed state is nearly all fast or all slow.
    gaps = [probe_mean(SETUP_PROBES)]
    rounds = []
    for _ in range(SETUP_ROUNDS):
        rounds.append(setup_round(args.workload, args.seed, env))
        gaps.append(probe_mean(SETUP_PROBES))
    setup_scaled = [t * 2 * speed.NOMINAL_S / (before + after)
                    for t, before, after in zip(rounds, gaps, gaps[1:])]

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        install(tracer)
    with tracer.job("setup") if tracer else nullcontext():
        jobs = wl.build(args.seed, workdir)
        wl.prepare(jobs)
    if tracer:
        tracer.uninstall()

    tally = Tally()
    if not args.trace:
        raw, scaled = iterate(wl, jobs, args.seconds, tally)
        if isinstance(wl, workloads.CliCold):
            rss = wl.peak_rss_mb
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        q1, q3 = quartiles(scaled)
        print(f"wall_s: {len(raw)} job lists of {len(jobs)} jobs; scaled median "
              f"{statistics.median(scaled):.4f} s, quartiles {q1:.4f} / {q3:.4f} s; "
              f"raw median {statistics.median(raw):.4f} s")
        print(f"setup_s: {len(rounds)} rounds; raw median {statistics.median(rounds):.4f} s")
        metrics = {
            "wall_s": statistics.median(scaled),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": rss,
            "ok_ratio": 1 - tally.failed / tally.attempted,
        }
        units = END_TO_END
    else:
        plain_raw, plain = iterate(wl, jobs, args.seconds / 2, tally)
        install(tracer)
        traced_raw, traced = iterate(wl, jobs, args.seconds / 2, tally, tracer, periodic=False)
        tracer.uninstall()
        if isinstance(wl, workloads.CliCold):
            startup = startup_probes(len(jobs), env)
        else:
            startup = (0.0, 0.0)
        metrics = layer_metrics(tracer, traced_raw, startup)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        metrics["machine.probe_s"] = statistics.fmean(gaps)
        units = PER_LAYER
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, info)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")

    for problem in tally.problems[:5]:
        print(f"FAIL {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:32} {metrics[name]:.6g} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "ell_window",
                                                              "sections_factor", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-round", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_round:
        setup_round_child(args.workload, args.seed)
        return 0
    dpforms = load_dpforms()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        result = measure(dpforms, args, workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
