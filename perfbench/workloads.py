"""The four benchmark workloads: inputs, the timed calls, and correctness gates.

Each workload has
  build(seed, workdir) -> jobs     inputs, made from the seed (set-up);
  prepare(jobs)                    untimed oracle work done once per run;
  run(job) -> output               the timed call(s) into dpforms;
  check(job, output) -> str|None   a problem description, or None when correct.

Timed code reaches dpforms through module attributes looked up at call time
(`galois.compute_ell`, not a name bound at import), so the traced run sees
every call.  The gates check outputs with the benchmark's own arithmetic
on raw coefficients, independently of dpforms.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import dpforms
import speed
from dpforms import curves, galois, lattice, sections, verification

# --- verify ---------------------------------------------------------------

# Comparison counts of checks 1..9, as dpforms 0.1.0 reports them.
SEED_COUNTS = (26, 1327, 1290, 1617, 11, 640, 134, 6, 61)


class Verify:
    """The nine-check battery in-process, as `dpforms verify` runs it."""

    name = "verify"

    def build(self, seed, workdir):
        return ["run_all"]

    def prepare(self, jobs):
        pass

    def run(self, job):
        return verification.run_all()

    def check(self, job, results):
        if len(results) != len(SEED_COUNTS):
            return f"{len(results)} checks, expected {len(SEED_COUNTS)}"
        for r, count in zip(results, SEED_COUNTS):
            if not r.passed:
                return f"check {r.number} failed: {r.detail}"
            if r.detail != f"{count} comparisons":
                return f"check {r.number}: {r.detail!r}, expected {count} comparisons"
        return None


# --- ell_window -------------------------------------------------------------

# ell under the trivial action, as dpforms 0.1.0 computes it, for the
# window system of the Hirzebruch model (m, m+5).
SEED_TRIVIAL_ELL = {2: 8, 5: 11}

# Per job, the cycle types of its generators as permutations of the
# exceptional points E_i.  Every cycle of a job uses its own points, so each
# seed relabels the points but keeps the group, and with it the search cost.
ELL_JOBS = ((), ((2,),), ((3,), (2,)))


def hz_dot(m, a, b):
    """Hirzebruch-basis intersection: Q^2 = -m, Q.F = 1, F^2 = 0, E_i^2 = -1."""
    return -m * a[0] * b[0] + a[0] * b[1] + a[1] * b[0] - sum(x * y for x, y in zip(a[2:], b[2:]))


def _orbits(degree, generators):
    parent = list(range(degree))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for gen in generators:
        for i, img in enumerate(gen):
            a, b = find(i), find(img - 1)
            if a != b:
                parent[b] = a
    return [find(i) for i in range(degree)]


class EllWindow:
    """build_curve_system + pair_gram + compute_ell on the (m, m+5) window system."""

    name = "ell_window"

    def __init__(self, m=5):
        self.m = m

    def build(self, seed, workdir):
        m, n = self.m, self.m + 5
        model = lattice.build_model(m, n)
        census = [c.coeffs for c in curves.curves_meeting_q(model)]
        index = {c: i for i, c in enumerate(census)}
        rng = random.Random(seed)
        jobs = []
        for gens in ELL_JOBS:
            points = list(range(n))
            rng.shuffle(points)
            images = []
            for cycles in gens:
                perm = list(range(n))
                for length in cycles:
                    cyc, points = points[:length], points[length:]
                    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                        perm[a] = b
                images.append(tuple(index[self._moved(c, perm)] + 1 for c in census))
            jobs.append({"m": m, "curves": census, "generators": tuple(images)})
        return jobs

    @staticmethod
    def _moved(coeffs, perm):
        out = list(coeffs)
        for i, p in enumerate(perm):
            out[2 + p] = coeffs[2 + i]
        return tuple(out)

    def prepare(self, jobs):
        pass

    def run(self, job):
        model = lattice.build_model(job["m"], job["m"] + 5)
        system = galois.build_curve_system(model, [model.divisor(c) for c in job["curves"]])
        system.pair_gram  # a fresh system computes the Gram table, as every `dpforms ell` run does
        if job["generators"]:
            action = galois.GaloisAction.from_one_based(len(system), [list(g) for g in job["generators"]])
        else:
            action = galois.GaloisAction.trivial(len(system))
        return galois.compute_ell(system, action)

    def check(self, job, result):
        m, cs, gens = job["m"], job["curves"], job["generators"]
        w = set(result.witness)
        if len(w) != result.ell or len(result.witness) != result.ell:
            return f"witness has {len(w)} distinct members, ell is {result.ell}"
        if sorted(i for orb in result.witness_orbits for i in orb) != sorted(w):
            return "witness orbits do not partition the witness"
        root = _orbits(len(cs), gens)
        chosen = {root[i] for i in w}
        if any(root[i] in chosen and i not in w for i in range(len(cs))):
            return "witness is not a union of orbits"
        for k, gen in enumerate(gens):
            if any(gen[i] - 1 not in w for i in w):
                return f"witness is not invariant under generator {k + 1}"
        q = (1,) + (0,) * (len(cs[0]) - 1)
        if any(hz_dot(m, cs[i], q) < 1 for i in w):
            return "a witness curve does not meet Q"
        members = sorted(w)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if hz_dot(m, cs[members[a]], cs[members[b]]) != 0:
                    return f"witness curves {members[a] + 1} and {members[b] + 1} meet"
        if not gens and result.ell != SEED_TRIVIAL_ELL[m]:
            return f"trivial ell {result.ell}, seed value {SEED_TRIVIAL_ELL[m]}"
        return None


# --- sections_factor ----------------------------------------------------------


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def quad_search_work(lead, const, top):
    """Trial divisions the quadratic-factor search makes on a primitive
    polynomial with no quadratic factor: 2 * (2 * mid_cap + 1) per pair of
    divisors (l of lead, c of const), mid_cap = int(2 * l * bound) + 1,
    bound = 1 + top / lead, where top is the largest other coefficient."""
    ncon = len(_divisors(const))
    return sum(ncon * 2 * (2 * (int(2 * l * (1 + Fraction(top, lead))) + 1) + 1)
               for l in _divisors(lead))


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _is_4k4(n):
    k = round((n / 4) ** 0.25)
    return any(4 * j ** 4 == n for j in (k - 1, k, k + 1))


# Cost-matched slots: each seed draws c from the integers near `ref` that pass
# `kind` and whose predicted search work is within 2% of that of `ref`, so
# inputs change with the seed while the job list's cost stays put.
QUARTIC_SLOTS = (
    ("lines", "prime", 2003),      # A = x^4 + c y^4: irreducible, full quadratic search
    ("lines", "smooth", 840),      # same, with a lead of at least 16 divisors
    ("ci", "prime", 2003),         # h = x^4 + c y^4: quartic left after the roots +-2
    ("ci6", "prime", 1009),        # h = x^6 + c y^6: sextic left unresolved
)
ROOT_SLOTS = ("lines", "lines", "lines", "ci")  # forms with four rational roots


def _cost_matched(rng, kind, ref):
    target = quad_search_work(ref, 1, 1)
    pool = [
        c for c in range(ref // 2, 2 * ref)
        if (_is_prime(c) if kind == "prime" else len(_divisors(c)) >= 16 and not _is_4k4(c))
        and abs(quad_search_work(c, 1, 1) - target) <= 0.02 * target
    ]
    return rng.choice(pool)


def _rational_quartic(rng):
    """Coefficients (x^4 first) of prod(a_i x - b_i y) over four distinct ratios."""
    pairs = set()
    while len(pairs) < 4:
        a, b = rng.randint(2, 12), rng.randint(2, 12) * rng.choice((1, -1))
        if gcd(a, b) == 1:
            pairs.add((a, b))
    coeffs = [1]
    for a, b in sorted(pairs):
        coeffs = _times_linear(coeffs, a, b)
    return coeffs


def _times_linear(coeffs, a, b):
    """coeffs (x^k first) times (a x - b y)."""
    out = [0] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] += a * c
        out[i + 1] -= b * c
    return out


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def trim(p):
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def ci_polynomial(h):
    """Primitive integer form, positive leading term, of (1 - a^2/4) h(1, a); low degree first."""
    p = trim(poly_mul([Fraction(c) for c in h], [1, 0, Fraction(-1, 4)]))
    den = 1
    for c in p:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    content = 0
    for v in ints:
        content = gcd(content, v)
    if ints[-1] < 0:
        content = -content
    return [Fraction(v // content) for v in ints]


class SectionsFactor:
    """line_census and ci_split_polynomial + rational_roots + factor_over_rationals jobs."""

    name = "sections_factor"

    def build(self, seed, workdir):
        rng = random.Random(seed)
        jobs = []
        for kind, pool, ref in QUARTIC_SLOTS:
            c = _cost_matched(rng, pool, ref)
            if kind == "lines":
                jobs.append({"kind": "lines", "a": [1, 0, 0, 0, c], "b": [1, 0, rng.randint(1, 40)]})
            else:
                jobs.append({"kind": "ci", "h": [1] + [0] * (3 if kind == "ci" else 5) + [c]})
        for kind in ROOT_SLOTS:
            a = _rational_quartic(rng)
            if kind == "lines":
                jobs.append({"kind": "lines", "a": a, "b": [1, 0, rng.randint(1, 40)]})
            else:
                jobs.append({"kind": "ci", "h": a})
        return jobs

    def prepare(self, jobs):
        pass

    def run(self, job):
        if job["kind"] == "lines":
            return sections.line_census(sections.binary_form(job["a"]), sections.binary_form(job["b"]))
        p = sections.ci_split_polynomial(sections.binary_form(job["h"]))
        return p, sections.rational_roots(p), sections.factor_over_rationals(p)

    def check(self, job, out):
        if job["kind"] == "lines":
            return self._check_lines(job, out)
        return self._check_ci(job, out)

    @staticmethod
    def _check_lines(job, census):
        if census.total_lines != 12:
            return f"total_lines {census.total_lines}"
        a, b = [Fraction(c) for c in job["a"]], [Fraction(c) for c in job["b"]]
        own = {"A": (a, b), "B": (b, a)}
        counts = {"A": 0, "B": 0}
        for e in census.split_values:
            if e.source not in own:
                return f"unexpected split source {e.source!r}"
            counts[e.source] += e.count
            if e.root is None:
                continue
            mine, other = own[e.source]
            if poly_eval(mine, e.root) != 0:
                return f"reported root {e.root} of {e.source} does not evaluate to 0"
            if e.residual != poly_eval(other, e.root):
                return f"residual at {e.root} is {e.residual}"
        if counts != {"A": 4, "B": 2}:
            return f"split value counts {counts}"
        return None

    @staticmethod
    def _check_ci(job, out):
        p, roots, fac = out
        want = ci_polynomial(job["h"])
        if list(p.coeffs) != want:
            return "splitting polynomial differs from (1 - a^2/4) h(1, a)"
        product = [fac.unit]
        for f, mult in fac.factors:
            if f.coeffs[-1] <= 0 or any(c.denominator != 1 for c in f.coeffs):
                return "a factor is not an integer polynomial with positive leading term"
            for _ in range(mult):
                product = poly_mul(product, list(f.coeffs))
        if fac.unresolved is not None:
            product = poly_mul(product, list(fac.unresolved.coeffs))
        if trim(product) != want:
            return "unit * prod(f^k) does not multiply back to p"
        for r in roots:
            if poly_eval(want, r) != 0:
                return f"reported root {r} does not evaluate to 0"
        linear = {Fraction(-f.coeffs[0], f.coeffs[1]) for f, _ in fac.factors if f.degree == 1}
        if linear != set(roots):
            return "rational roots and linear factors disagree"
        return None


# --- cli_cold -----------------------------------------------------------------

CLI_BOOT = "from dpforms.cli import entry; entry()"
SWAP = (7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 5, 6)


def child_env(src):
    return dict(os.environ, PYTHONPATH=str(src))


def run_child(cmd, env):
    """Run cmd to completion; (exit code, stdout, stderr, peak RSS in MiB) of that child alone."""
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with speed.paused(), proc.stdout, proc.stderr:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss / 1024


class CliCold:
    """Cheap `dpforms ... --json` queries, each in a fresh interpreter."""

    name = "cli_cold"

    def __init__(self, src):
        self.env = child_env(src)
        self.peak_rss_mb = 0.0

    def build(self, seed, workdir):
        rng = random.Random(seed)
        m = rng.randint(2, 6)
        kind = rng.choice(("hirzebruch", "plane"))
        n = m + 4 if kind == "plane" else rng.randint(1, m + 5)
        jobs = [["lattice", "--kind", kind, "--m", str(m), "--n", str(n), "--json"]]

        m = rng.randint(2, 8)
        n = rng.randint(1, m + 5)
        argv = ["classify", "--m", str(m), "--n", str(n),
                "--q-point", rng.choice(("yes", "no", "unknown")), "--json"]
        if n >= m + 4:
            argv[5:5] = ["--ell", str(rng.choice(sorted(dpforms.feasible_ell(m, n))))]
        jobs.append(argv)

        m = rng.randint(2, 12)
        jobs.append(["rr", "--m", str(m), "--n", str(m + 4), "--max-j", str(rng.randint(2, 6)),
                     "--embedding", "--json"])

        m = rng.randint(2, 4)
        jobs.append(["curves", "--m", str(m), "--n", str(rng.randint(1, m + 3)), "--json"])

        jobs.append(["sections", "lines", "--a", f"1,0,0,0,{rng.randint(2, 9)}",
                     "--b", f"1,0,{rng.randint(1, 9)}", "--json"])

        sigma = list(range(6))
        rng.shuffle(sigma)
        flips = [rng.random() < 0.5 for _ in range(6)]
        extra = [0] * 12
        for i in range(6):
            lo, hi = (sigma[i] + 6, sigma[i]) if flips[i] else (sigma[i], sigma[i] + 6)
            extra[i], extra[i + 6] = lo + 1, hi + 1
        instance = {"model": {"kind": "plane", "m": 2, "n": 6}, "curves": "auto",
                    "galois": [list(SWAP), extra],
                    "q_point": rng.choice(("yes", "no", "unknown"))}
        path = Path(workdir) / "swap.json"
        path.write_text(json.dumps(instance), encoding="utf-8")
        jobs.append(["ell", "--instance", str(path), "--json"])
        return [{"argv": argv} for argv in jobs]

    def prepare(self, jobs):
        """The in-process answer for each argv, which each fresh interpreter must reproduce."""
        for job in jobs:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = dpforms.run(job["argv"])
            if code != 0:
                raise RuntimeError(f"in-process {' '.join(job['argv'])} exited {code}")
            job["expected"] = buf.getvalue().encode()

    def run(self, job):
        code, out, err, rss = run_child([sys.executable, "-c", CLI_BOOT, *job["argv"]], self.env)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return code, out, err

    def check(self, job, out):
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.decode(errors='replace').strip()}"
        if stdout != job["expected"]:
            return f"{' '.join(job['argv'][:2])}: output differs from the in-process result"
        if json.loads(stdout).get("format") != 1:
            return "output is not a format-1 document"
        return None


def make(name, src):
    if name == "verify":
        return Verify()
    if name == "ell_window":
        return EllWindow()
    if name == "sections_factor":
        return SectionsFactor()
    if name == "cli_cold":
        return CliCold(src)
    raise KeyError(name)

