"""Command line interface.

Seven subcommands: `lattice` (model summary and invariants), `curves`
(census of (-1)-classes), `rr` (anti-plurigenus table and embedding
descriptor), `ell` (invariant disjoint-curve count from an instance file),
`classify` (rationality and cylindricity verdict), `sections` (splitting
polynomial and line census), and `verify` (the full self-check battery).

Every subcommand accepts --json for machine-readable output; the default
is an aligned text table.  Output is deterministic: identical argv yields
byte-identical output.

Exit codes: 0 on success, 1 on invalid input or infeasible parameters,
2 on an internal invariant violation or a failed `verify` run.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import jsonschema

from .curves import family_classes, minus_one_census
from .errors import (
    InputFormatError,
    InternalInvariantError,
    InvalidActionError,
    ParameterError,
    ToolkitError,
)
from .galois import (
    GaloisAction,
    build_curve_system,
    compute_ell,
    orbit_partition,
    standard_curve_system,
)
from .lattice import (
    HIRZEBRUCH,
    PLANE,
    anticanonical_class,
    build_model,
    gram_determinant,
    is_unimodular,
    k_squared_singular,
    lattice_signature,
    load_schema,
)
from .riemann_roch import anti_plurigenus_table, embedding_descriptor
from .sections import (
    binary_form,
    ci_split_polynomial,
    factor_over_rationals,
    line_census,
    poly_text,
    rational_roots,
)
from .verdicts import classify
from .verification import run_all

# caps on `curves`: the window grows with --bound, and with m where n >= m+4
MAX_BOUND = 5
MAX_CENSUS_M = 12


class _Parser(argparse.ArgumentParser):
    """Flag errors must follow the exit-code contract (1), not argparse's 2."""

    def error(self, message: str):
        raise ParameterError(message)


def _print_kv(pairs: list[tuple[str, str]]) -> None:
    width = max(len(key) for key, _ in pairs)
    for key, value in pairs:
        print(f"{key:<{width}}  {value}")


def _matrix_lines(rows) -> list[str]:
    width = max(len(str(x)) for row in rows for x in row)
    return ["  ".join(f"{x:>{width}}" for x in row) for row in rows]


def _emit(payload: dict) -> None:
    print(json.dumps({"format": 1, **payload}, indent=2))


def _parse_coeffs(text: str) -> tuple[Fraction, ...]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ParameterError("empty coefficient list")
    try:
        return tuple(Fraction(token) for token in tokens)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"cannot parse coefficient list {text!r}") from None


def _cmd_lattice(args: argparse.Namespace) -> int:
    model = build_model(args.m, args.n, args.kind)
    mk = anticanonical_class(model)
    sig = lattice_signature(model)
    if args.json:
        _emit({
            "m": model.m,
            "n": model.n,
            "kind": model.kind,
            "rank": model.rank,
            "basis": list(model.basis_names),
            "gram": [list(row) for row in model.gram],
            "anticanonical": list(mk.coeffs),
            "anticanonical_square": model.intersect(mk, mk),
            "k_squared_singular": str(k_squared_singular(model.m, model.n)),
            "determinant": gram_determinant(model),
            "unimodular": is_unimodular(model),
            "signature": list(sig),
        })
        return 0
    _print_kv([
        ("model", model.basis_tag),
        ("rank", str(model.rank)),
        ("basis", " ".join(model.basis_names)),
        ("-K", str(mk.coeffs)),
        ("(-K)^2", str(model.intersect(mk, mk))),
        ("k^2 singular", str(k_squared_singular(model.m, model.n))),
        ("determinant", str(gram_determinant(model))),
        ("unimodular", "yes" if is_unimodular(model) else "no"),
        ("signature", str(sig)),
    ])
    print("gram:")
    for line in _matrix_lines(model.gram):
        print(f"  {line}")
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    if args.bound < 0:
        raise ParameterError(f"--bound must be >= 0, got {args.bound}")
    if args.bound > MAX_BOUND:
        raise ParameterError(f"--bound must be <= {MAX_BOUND}, got {args.bound}")
    if args.n >= args.m + 4 and args.m > MAX_CENSUS_M:
        raise ParameterError(f"curves with n >= m+4 needs m <= {MAX_CENSUS_M}, got m = {args.m}")
    model = build_model(args.m, args.n, args.kind)
    families, certified = minus_one_census(model, args.bound)

    if args.meeting_q:
        q = model.distinguished["Q"]
        classes = [c for c in family_classes(families) if model.intersect(c, q) >= 1]
        if args.json:
            _emit({
                "m": model.m,
                "n": model.n,
                "kind": model.kind,
                "certified": certified,
                "count": len(classes),
                "classes": [list(c.coeffs) for c in classes],
            })
            return 0
        _print_kv([
            ("model", model.basis_tag),
            ("certified", "yes" if certified else "no (window census)"),
            ("Q-meeting classes", str(len(classes))),
        ])
        for c in classes:
            print(f"  {c.coeffs}")
        return 0

    total = sum(len(fam) for fam in families)
    if args.json:
        _emit({
            "m": model.m,
            "n": model.n,
            "kind": model.kind,
            "certified": certified,
            "total": total,
            "families": [
                {
                    "label": fam.label,
                    "degree": fam.degree,
                    "count": len(fam),
                    "classes": [list(c.coeffs) for c in fam.members],
                }
                for fam in families
            ],
        })
        return 0
    _print_kv([
        ("model", model.basis_tag),
        ("certified", "yes" if certified else "no (window census)"),
        ("total", str(total)),
    ])
    for fam in families:
        tag = f" d={fam.degree}" if fam.degree is not None else ""
        print(f"family {fam.label}{tag} ({len(fam)} classes)")
        for c in fam.members:
            print(f"  {c.coeffs}")
    return 0


def _cmd_rr(args: argparse.Namespace) -> int:
    if args.max_j is None and not args.embedding:
        raise ParameterError("nothing to do: pass --max-j and/or --embedding")
    if args.max_j is not None and args.n is None:
        raise ParameterError("--max-j requires --n")

    payload: dict = {"m": args.m}
    rows = ()
    if args.max_j is not None:
        if args.max_j < 1:
            raise ParameterError(f"--max-j must be >= 1, got {args.max_j}")
        rows = anti_plurigenus_table(args.m, args.n, args.max_j)
        payload["n"] = args.n
        payload["rows"] = [
            {
                "j": row.j,
                "residue": row.residue,
                "correction": str(row.correction),
                "h0": row.h0,
            }
            for row in rows
        ]
    if args.embedding:
        desc = embedding_descriptor(args.m)
        kind = "hypersurface" if len(desc.degrees) == 1 else "complete_intersection"
        payload["embedding"] = {
            "weights": list(desc.weights),
            "degrees": list(desc.degrees),
            "type": kind,
        }
    if args.json:
        _emit(payload)
        return 0

    if rows:
        print(f"model hirzebruch(m={args.m},n={args.n})")
        cells = [("j", "t", "correction", "h0")]
        cells += [(str(r.j), str(r.residue), str(r.correction), str(r.h0)) for r in rows]
        widths = [max(len(row[i]) for row in cells) for i in range(4)]
        for row in cells:
            print("  ".join(f"{row[i]:>{widths[i]}}" for i in range(4)))
    if args.embedding:
        desc = embedding_descriptor(args.m)
        weights = ",".join(str(w) for w in desc.weights)
        if len(desc.degrees) == 1:
            print(f"embedding: hypersurface of degree {desc.degrees[0]} in P({weights})")
        else:
            d1, d2 = desc.degrees
            print(f"embedding: complete intersection of degrees {d1}, {d2} in P({weights})")
    return 0


def _load_instance(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParameterError(f"cannot read instance file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"instance file {path!r} is not valid JSON: {exc}") from None
    try:
        jsonschema.validate(doc, load_schema("instance.schema.json"))
    except jsonschema.ValidationError as exc:
        raise InputFormatError(f"instance file {path!r} rejected: {exc.message}") from None
    return doc


def _cmd_ell(args: argparse.Namespace) -> int:
    doc = _load_instance(args.instance)
    entry = doc["model"]
    model = build_model(entry["m"], entry["n"], entry["kind"])
    raw_curves = doc.get("curves", "auto")
    if raw_curves == "auto":
        system = standard_curve_system(model)
    else:
        system = build_curve_system(model, [model.divisor(tuple(c)) for c in raw_curves])
    generators = [list(g) for g in doc["galois"]]
    if generators:
        action = GaloisAction.from_one_based(len(system), generators)
    else:
        action = GaloisAction.trivial(len(system))

    result = compute_ell(system, action)
    orbits = orbit_partition(action)

    verdict_payload = None
    if "q_point" in doc:
        try:
            need_ell = model.n >= model.m + 4
            verdict = classify(
                model.m,
                model.n,
                ell=result.ell if need_ell else None,
                q_point=doc["q_point"],
            )
            verdict_payload = {
                "rational": str(verdict.rational),
                "cylindrical": str(verdict.cylindrical),
                "citations": list(verdict.citations),
                "notes": list(verdict.notes),
            }
        except ToolkitError as exc:
            verdict_payload = {"error": str(exc)}

    if args.json:
        payload = {
            "model": {"m": model.m, "n": model.n, "kind": model.kind},
            "curve_count": len(system),
            "orbits": [[i + 1 for i in orbit] for orbit in orbits],
            "ell": result.ell,
            "witness": [i + 1 for i in result.witness],
            "witness_orbits": [[i + 1 for i in orbit] for orbit in result.witness_orbits],
        }
        if verdict_payload is not None:
            payload["verdict"] = verdict_payload
        _emit(payload)
        return 0

    def orbit_text(orbits_seq) -> str:
        if not orbits_seq:
            return "-"
        return " ".join("{" + ",".join(str(i + 1) for i in orbit) + "}" for orbit in orbits_seq)

    pairs = [
        ("model", model.basis_tag),
        ("curves", str(len(system))),
        ("orbits", orbit_text(orbits)),
        ("ell", str(result.ell)),
        ("witness", " ".join(str(i + 1) for i in result.witness) or "-"),
        ("witness orbits", orbit_text(result.witness_orbits)),
    ]
    if verdict_payload is not None:
        if "error" in verdict_payload:
            pairs.append(("verdict", f"unavailable: {verdict_payload['error']}"))
        else:
            pairs.append(("rational", verdict_payload["rational"]))
            pairs.append(("cylindrical", verdict_payload["cylindrical"]))
            pairs.append(("citations", " ".join(verdict_payload["citations"])))
            for note in verdict_payload["notes"]:
                pairs.append(("note", note))
    _print_kv(pairs)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    verdict = classify(args.m, args.n, ell=args.ell, q_point=args.q_point)
    if args.json:
        _emit({
            "rational": str(verdict.rational),
            "cylindrical": str(verdict.cylindrical),
            "citations": list(verdict.citations),
            "notes": list(verdict.notes),
        })
        return 0
    pairs = [
        ("rational", str(verdict.rational)),
        ("cylindrical", str(verdict.cylindrical)),
        ("citations", " ".join(verdict.citations) or "-"),
    ]
    for note in verdict.notes:
        pairs.append(("note", note))
    _print_kv(pairs)
    return 0


def _cmd_sections_ci(args: argparse.Namespace) -> int:
    h = binary_form(_parse_coeffs(args.h))
    p = ci_split_polynomial(h)
    roots = rational_roots(p)
    decomposition = factor_over_rationals(p)
    root_items = sorted(roots.items())
    if args.json:
        _emit({
            "polynomial": poly_text(p, "a"),
            "degree": p.degree,
            "coefficients": [int(c) for c in p.coeffs],
            "rational_roots": [
                {"root": str(root), "multiplicity": mult} for root, mult in root_items
            ],
            "unit": str(decomposition.unit),
            "factors": [
                {"text": poly_text(f, "a"), "degree": f.degree, "multiplicity": mult}
                for f, mult in decomposition.factors
            ],
            "unresolved": (
                poly_text(decomposition.unresolved, "a")
                if decomposition.unresolved is not None
                else None
            ),
            "factorization_complete": decomposition.complete,
        })
        return 0
    if root_items:
        roots_text = ", ".join(
            str(root) if mult == 1 else f"{root} (x{mult})" for root, mult in root_items
        )
    else:
        roots_text = "none"
    parts = []
    if decomposition.unit != 1:
        parts.append(str(decomposition.unit))
    for f, mult in decomposition.factors:
        text = f"({poly_text(f, 'a')})"
        parts.append(text if mult == 1 else f"{text}^{mult}")
    if decomposition.unresolved is not None:
        parts.append(f"[no factor found within method: {poly_text(decomposition.unresolved, 'a')}]")
    _print_kv([
        ("p(a)", poly_text(p, "a")),
        ("degree", str(p.degree)),
        ("rational roots", roots_text),
        ("factors", " * ".join(parts)),
        ("complete", "yes" if decomposition.complete else "no"),
    ])
    return 0


def _cmd_sections_lines(args: argparse.Namespace) -> int:
    census = line_census(binary_form(_parse_coeffs(args.a)), binary_form(_parse_coeffs(args.b)))
    if args.json:
        _emit({
            "total": census.total_lines,
            "splits": [
                {
                    "source": entry.source,
                    "root": str(entry.root) if entry.root is not None else None,
                    "factor": entry.factor,
                    "count": entry.count,
                    "c": str(entry.residual) if entry.residual is not None else None,
                    "rational_pair": entry.rational_pair,
                }
                for entry in census.split_values
            ],
            "infinity_section": census.includes_infinity_section,
        })
        return 0
    _print_kv([
        ("total lines", str(census.total_lines)),
        ("infinity section", "yes" if census.includes_infinity_section else "no"),
    ])
    print("split values:")
    cells = [("source", "root", "count", "c", "rational pair", "factor")]
    for entry in census.split_values:
        cells.append((
            entry.source,
            str(entry.root) if entry.root is not None else "-",
            str(entry.count),
            str(entry.residual) if entry.residual is not None else "-",
            {True: "yes", False: "no", None: "-"}[entry.rational_pair],
            entry.factor,
        ))
    widths = [max(len(row[i]) for row in cells) for i in range(6)]
    for row in cells:
        print("  " + "  ".join(f"{row[i]:<{widths[i]}}" for i in range(6)).rstrip())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_all()
    ok = all(r.passed for r in results)
    first = next((r for r in results if not r.passed), None)
    if args.json:
        _emit({
            "passed": ok,
            "first_failure": first.tag if first is not None else None,
            "results": [
                {
                    "number": r.number,
                    "tag": r.tag,
                    "title": r.title,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in results
            ],
        })
        return 0 if ok else 2
    tag_width = max(len(r.tag) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.number}  [{r.tag}]{' ' * (tag_width - len(r.tag))}  {r.title}: {r.detail}")
    if ok:
        print(f"all {len(results)} checks passed")
    else:
        failed = sum(1 for r in results if not r.passed)
        print(f"{failed} of {len(results)} checks failed; first failing clause: {first.tag}")
    return 0 if ok else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpforms", description="Forms of singular del Pezzo surfaces: "
                     "lattices, curves, anti-plurigenera, Galois invariants, verdicts.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    lattice = sub.add_parser("lattice", help="model summary and lattice invariants")
    lattice.add_argument("--m", type=int, required=True)
    lattice.add_argument("--n", type=int, required=True)
    lattice.add_argument("--kind", choices=(HIRZEBRUCH, PLANE), default=HIRZEBRUCH)
    lattice.add_argument("--json", action="store_true")
    lattice.set_defaults(handler=_cmd_lattice)

    curves = sub.add_parser("curves", help="census of (-1)-curve classes")
    curves.add_argument("--m", type=int, required=True, help=f"at most {MAX_CENSUS_M} if n >= m+4")
    curves.add_argument("--n", type=int, required=True)
    curves.add_argument("--kind", choices=(HIRZEBRUCH, PLANE), default=HIRZEBRUCH)
    curves.add_argument("--meeting-q", action="store_true",
                        help="restrict to classes with positive Q-intersection")
    curves.add_argument("--bound", type=int, default=0,
                        help="enlarge the default box of a window census by this margin, "
                        f"0 to {MAX_BOUND}")
    curves.add_argument("--json", action="store_true")
    curves.set_defaults(handler=_cmd_curves)

    rr = sub.add_parser("rr", help="anti-plurigenus table and embedding descriptor")
    rr.add_argument("--m", type=int, required=True)
    rr.add_argument("--n", type=int)
    rr.add_argument("--max-j", type=int)
    rr.add_argument("--embedding", action="store_true")
    rr.add_argument("--json", action="store_true")
    rr.set_defaults(handler=_cmd_rr)

    ell = sub.add_parser("ell", help="invariant disjoint-curve count from an instance file")
    ell.add_argument("--instance", required=True, metavar="PATH")
    ell.add_argument("--json", action="store_true")
    ell.set_defaults(handler=_cmd_ell)

    classify_parser = sub.add_parser("classify", help="rationality and cylindricity verdict")
    classify_parser.add_argument("--m", type=int, required=True)
    classify_parser.add_argument("--n", type=int, required=True)
    classify_parser.add_argument("--ell", type=int)
    classify_parser.add_argument("--q-point", choices=("yes", "no", "unknown"),
                                 default="unknown", dest="q_point")
    classify_parser.add_argument("--json", action="store_true")
    classify_parser.set_defaults(handler=_cmd_classify)

    sections = sub.add_parser("sections", help="hyperplane-section splitting analysis")
    secsub = sections.add_subparsers(dest="section_command", required=True, parser_class=_Parser)
    ci = secsub.add_parser("ci", help="splitting polynomial of the symmetric model")
    ci.add_argument("--h", required=True, metavar="COEFFS",
                    help="binary form coefficients, highest x power first")
    ci.add_argument("--json", action="store_true")
    ci.set_defaults(handler=_cmd_sections_ci)
    lines = secsub.add_parser("lines", help="census of lines on w^2 = A + B z^2")
    lines.add_argument("--a", required=True, metavar="COEFFS")
    lines.add_argument("--b", required=True, metavar="COEFFS")
    lines.add_argument("--json", action="store_true")
    lines.set_defaults(handler=_cmd_sections_lines)

    verify = sub.add_parser("verify", help="run the full self-check battery")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2
    except InvalidActionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.report is not None:
            for violation in exc.report.violations:
                print(f"  {violation}", file=sys.stderr)
        return 1
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
