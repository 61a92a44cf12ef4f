"""Command line interface.

Seven subcommands: `lattice` (model summary and invariants), `curves`
(census of (-1)-classes), `rr` (anti-plurigenus table and embedding
descriptor), `ell` (invariant disjoint-curve count from an instance file),
`classify` (rationality and cylindricity verdict), `sections` (splitting
polynomial and line census), and `verify` (the full self-check battery).

Each subcommand's handler imports the library names it uses, so a call
loads only the modules of its subcommand: `dpforms lattice` loads `errors`
and `lattice`, and only `verify` loads `verification`.  A handler computes
one answer document and prints nothing; `run` prints that document, as JSON
under --json and otherwise through the subcommand's text renderer, an
aligned table that reads only the document.
Output is deterministic: identical argv yields byte-identical output.

Exit codes: 0 on success, 1 on invalid input or infeasible parameters,
2 on an internal invariant violation or a failed `verify` run.  A reader
that closes stdout early (``dpforms curves ... | head -1``) ends the run
with exit 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from itertools import islice

from .errors import (
    InputFormatError,
    InternalInvariantError,
    InvalidActionError,
    ParameterError,
    ToolkitError,
)
from .lattice import HIRZEBRUCH, KINDS

# annotations are not evaluated (PEP 563), so the Verdict and UnivariatePoly
# of the hints below need no import

# input caps: the window grows with --bound, a census with m where n >= m+4,
# the closed forms and lattice invariants with m, the ell search with the
# curve count, the rr table with --max-j, and the sections factorization
# with the coefficients of its primitive integer polynomials and their degree
MAX_BOUND = 5
MAX_CENSUS_M = 12
MAX_M = 100
MAX_CURVES = 600
MAX_J = 1000
# the divisor searches behind factor_over_rationals grow with the number of
# divisors of the coefficients and of the values at +-1 and +-2; the slowest
# quartic found at this cap, 720720 t^4 + t^3 - t + 720720 (720720 has 240
# divisors), takes about 0.95 s cold; a prime c in x^4 + c y^4 takes milliseconds
MAX_SECTIONS_COEFF = 10**6
# the rational-root candidates are evaluated at a cost linear in the degree;
# the slowest h found at both caps, 244530, 1, ..., 1, 199520, 1, 299880 of
# degree 16 (6,720 candidate pairs), takes about 0.17 s cold
MAX_SECTIONS_DEGREE = 16
# a coefficient list is sized before Fraction() reads it, as its digits plus |K|
# for each exponent eK: Fraction("1e10000000") takes seconds, and a primitive
# integer form of about as many digits as the list stays printable by str()
MAX_SECTIONS_DIGITS = 2000
_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)")
# "auto" curves at n = m+5 are the window census, which grows with m: 529
# curves at m = 6 and 871 at m = 7, so from m = 7 on it exceeds MAX_CURVES
MAX_AUTO_WINDOW_M = 6


class _Parser(argparse.ArgumentParser):
    """Flag errors must follow the exit-code contract (1), not argparse's 2."""

    def error(self, message: str):
        raise ParameterError(message)


def _print_table(rows, align: str = "<", indent: str = "") -> None:
    """Cells in columns two spaces apart, each as wide as its widest cell; lines right-stripped."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        print((indent + "  ".join(f"{c:{align}{w}}" for c, w in zip(row, widths))).rstrip())


def _emit(payload: dict) -> None:
    # streamed in batches of encoder chunks: a large census is never one
    # string, and an unbuffered stdout (PYTHONUNBUFFERED) gets few writes
    chunks = json.JSONEncoder(indent=2).iterencode({"format": 1, **payload})
    sys.stdout.writelines(iter(lambda: "".join(islice(chunks, 4096)), ""))
    print()


def _model_tag(doc: dict) -> str:
    return f"{doc['kind']}(m={doc['m']},n={doc['n']})"


def _verdict_pairs(document: dict) -> list[tuple[str, str]]:
    pairs = [
        ("rational", document["rational"]),
        ("cylindrical", document["cylindrical"]),
        ("citations", " ".join(document["citations"]) or "-"),
    ]
    return pairs + [("note", note) for note in document["notes"]]


def _verdict_doc(verdict: Verdict) -> dict:
    return {
        "rational": str(verdict.rational),
        "cylindrical": str(verdict.cylindrical),
        "citations": verdict.citations,
        "notes": verdict.notes,
    }


def _check_m(m: int, n: int | None = None) -> None:
    """Refuse m > MAX_M, and, for a census (n given), m > MAX_CENSUS_M where n >= m+4."""
    if m > MAX_M:
        raise ParameterError(f"m must be <= {MAX_M}, got {m}")
    if n is not None and n >= m + 4 and m > MAX_CENSUS_M:
        raise ParameterError(f"curves with n >= m+4 needs m <= {MAX_CENSUS_M}, got m = {m}")


def _check_coefficients(*polys: UnivariatePoly) -> None:
    """Refuse a polynomial whose primitive integer form exceeds MAX_SECTIONS_COEFF."""
    from .sections import primitive_integer_form
    for p in polys:
        if p.is_zero:
            continue
        top = max(map(abs, primitive_integer_form(p)[0]))
        if top > MAX_SECTIONS_COEFF:
            raise ParameterError(
                f"sections takes primitive integer coefficients of at most {MAX_SECTIONS_COEFF} "
                f"in absolute value, got {top}"
            )


def _parse_coeffs(text: str) -> tuple[Fraction, ...]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ParameterError("empty coefficient list")
    size = sum(map(str.isdigit, text))
    if size <= MAX_SECTIONS_DIGITS:  # so each exponent has too few digits to trouble int()
        size += sum(int(exp.replace("_", "")) for exp in _EXPONENT.findall(text))
    if size > MAX_SECTIONS_DIGITS:
        raise ParameterError(
            f"sections takes coefficient lists of at most {MAX_SECTIONS_DIGITS} digits, "
            f"counting |K| more for an exponent eK, got {size}"
        )
    try:
        return tuple(Fraction(token) for token in tokens)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"cannot parse coefficient list {text!r}") from None


def _cmd_lattice(args: argparse.Namespace) -> dict:
    from .lattice import (build_model, gram_determinant, is_unimodular,
                           k_squared_singular, lattice_signature)
    _check_m(args.m)
    model = build_model(args.m, args.n, args.kind)
    mk = model.anticanonical
    return {
        "m": model.m,
        "n": model.n,
        "kind": model.kind,
        "rank": model.rank,
        "basis": model.basis_names,
        "gram": model.gram,
        "anticanonical": mk.coeffs,
        "anticanonical_square": model.intersect(mk, mk),
        "k_squared_singular": str(k_squared_singular(model.m, model.n)),
        "determinant": gram_determinant(model),
        "unimodular": is_unimodular(model),
        "signature": lattice_signature(model),
    }


def _show_lattice(doc: dict) -> None:
    _print_table([
        ("model", _model_tag(doc)),
        ("rank", str(doc["rank"])),
        ("basis", " ".join(doc["basis"])),
        ("-K", str(doc["anticanonical"])),
        ("(-K)^2", str(doc["anticanonical_square"])),
        ("k^2 singular", doc["k_squared_singular"]),
        ("determinant", str(doc["determinant"])),
        ("unimodular", "yes" if doc["unimodular"] else "no"),
        ("signature", str(doc["signature"])),
    ])
    print("gram:")
    width = max(len(str(x)) for row in doc["gram"] for x in row)
    for row in doc["gram"]:
        print("  " + "  ".join(f"{x:>{width}}" for x in row))


def _cmd_curves(args: argparse.Namespace) -> dict:
    from .curves import curves_meeting_q, minus_one_census
    from .lattice import build_model, is_del_pezzo
    if args.bound < 0:
        raise ParameterError(f"--bound must be >= 0, got {args.bound}")
    if args.bound > MAX_BOUND:
        raise ParameterError(f"--bound must be <= {MAX_BOUND}, got {args.bound}")
    _check_m(args.m, args.n)
    model = build_model(args.m, args.n, args.kind)
    certified = is_del_pezzo(model.m, model.n)
    header = {"m": model.m, "n": model.n, "kind": model.kind, "certified": certified}
    if args.meeting_q:
        classes = curves_meeting_q(model, args.bound)
        return {**header, "count": len(classes), "classes": [c.coeffs for c in classes]}
    families = minus_one_census(model, args.bound)
    return {
        **header,
        "total": sum(len(fam) for fam in families),
        "families": [
            {
                "label": fam.label,
                "degree": fam.degree,
                "count": len(fam),
                "classes": [c.coeffs for c in fam.members],
            }
            for fam in families
        ],
    }


def _show_curves(doc: dict) -> None:
    pairs = [
        ("model", _model_tag(doc)),
        ("certified", "yes" if doc["certified"] else "no (window census)"),
    ]
    if "classes" in doc:
        _print_table(pairs + [("Q-meeting classes", str(doc["count"]))])
        for coeffs in doc["classes"]:
            print(f"  {coeffs}")
        return
    _print_table(pairs + [("total", str(doc["total"]))])
    for fam in doc["families"]:
        tag = f" d={fam['degree']}" if fam["degree"] is not None else ""
        print(f"family {fam['label']}{tag} ({fam['count']} classes)")
        for coeffs in fam["classes"]:
            print(f"  {coeffs}")


def _cmd_rr(args: argparse.Namespace) -> dict:
    from .lattice import check_mn
    from .riemann_roch import anti_plurigenus_table, embedding_descriptor
    if args.max_j is None and not args.embedding:
        raise ParameterError("nothing to do: pass --max-j and/or --embedding")
    if args.max_j is not None and args.n is None:
        raise ParameterError("--max-j requires --n")
    if args.max_j is not None and args.max_j > MAX_J:
        raise ParameterError(f"--max-j must be <= {MAX_J}, got {args.max_j}")
    if args.max_j is None and args.n is not None:
        check_mn(args.m, args.n)  # the table checks n itself, after max_j

    doc: dict = {"m": args.m}
    if args.max_j is not None:
        doc["n"] = args.n
        doc["rows"] = [
            {"j": row.j, "residue": row.residue, "correction": str(row.correction), "h0": row.h0}
            for row in anti_plurigenus_table(args.m, args.n, args.max_j)
        ]
    if args.embedding:
        desc = embedding_descriptor(args.m)
        doc["embedding"] = {
            "weights": desc.weights,
            "degrees": desc.degrees,
            "type": "hypersurface" if len(desc.degrees) == 1 else "complete_intersection",
        }
    return doc


def _show_rr(doc: dict) -> None:
    if "rows" in doc:
        print("model", _model_tag({"kind": HIRZEBRUCH, **doc}))
        _print_table([("j", "t", "correction", "h0")] + [
            (str(r["j"]), str(r["residue"]), r["correction"], str(r["h0"])) for r in doc["rows"]
        ], align=">")
    if "embedding" in doc:
        embedding = doc["embedding"]
        weights = ",".join(str(w) for w in embedding["weights"])
        if embedding["type"] == "hypersurface":
            print(f"embedding: hypersurface of degree {embedding['degrees'][0]} in P({weights})")
        else:
            d1, d2 = embedding["degrees"]
            print(f"embedding: complete intersection of degrees {d1}, {d2} in P({weights})")


_INSTANCE_KEYS = {"format", "model", "curves", "galois", "q_point"}


def _int_rows(value) -> bool:
    # a JSON integer only: bool is an int subclass, and 1.0 == 1
    return type(value) is list and all(
        type(row) is list and all(type(x) is int for x in row) for row in value
    )


def _shape_fault(doc) -> str | None:
    """The first shape rule an instance document breaks, or None.  Ranges
    (m, n, kind, image entries, empty lists) are left to the model, curve
    system and action checks, which name their bounds."""
    if type(doc) is not dict or not {"model", "galois"} <= doc.keys() <= _INSTANCE_KEYS:
        return ("the document must be an object with the keys model and galois, "
                "and optionally format, curves and q_point")
    if "format" in doc and not (type(doc["format"]) is int and doc["format"] == 1):
        return f"format must be the integer 1, got {doc['format']!r}"
    model = doc["model"]
    if type(model) is not dict or model.keys() != {"m", "n", "kind"}:
        return "model must be an object with exactly the keys m, n and kind"
    for key in ("m", "n"):
        if type(model[key]) is not int:
            return f"model {key} must be an integer, got {model[key]!r}"
    if doc.get("curves", "auto") != "auto" and not _int_rows(doc["curves"]):
        return 'curves must be "auto" or a list of lists of integers'
    if not _int_rows(doc["galois"]):
        return "galois must be a list of lists of integers"
    if doc.get("q_point", "unknown") not in ("yes", "no", "unknown"):
        return f'q_point must be "yes", "no" or "unknown", got {doc["q_point"]!r}'
    return None


def _load_instance(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParameterError(f"cannot read instance file {path!r}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, overlong or deep values
        raise InputFormatError(f"instance file {path!r} is not valid JSON: {exc}") from None
    fault = _shape_fault(doc)
    if fault is not None:
        raise InputFormatError(f"instance file {path!r} rejected: {fault}")
    return doc


def _cmd_ell(args: argparse.Namespace) -> dict:
    from .curves import curves_meeting_q
    from .galois import GaloisAction, build_curve_system, compute_ell, orbit_partition
    from .lattice import build_model
    from .verdicts import classify
    instance = _load_instance(args.instance)
    entry = instance["model"]
    raw_curves = instance.get("curves", "auto")
    auto = raw_curves == "auto"
    _check_m(entry["m"], entry["n"] if auto else None)
    model = build_model(entry["m"], entry["n"], entry["kind"])
    if auto and model.n == model.m + 5 and model.m > MAX_AUTO_WINDOW_M:
        raise ParameterError(
            f'ell takes at most {MAX_CURVES} curves; "auto" curves at n = m+5 exceed that '
            f"from m = {MAX_AUTO_WINDOW_M + 1} on, got m = {model.m}"
        )
    curves = curves_meeting_q(model) if auto else [model.divisor(tuple(c)) for c in raw_curves]
    if len(curves) > MAX_CURVES:
        raise ParameterError(f"ell takes at most {MAX_CURVES} curves, got {len(curves)}")
    system = build_curve_system(model, list(curves))
    action = GaloisAction.from_one_based(len(system), instance["galois"])

    result = compute_ell(system, action)
    doc = {
        "model": {"m": model.m, "n": model.n, "kind": model.kind},
        "curve_count": len(system),
        "orbits": [[i + 1 for i in orbit] for orbit in orbit_partition(action)],
        "ell": result.ell,
        "witness": [i + 1 for i in result.witness],
        "witness_orbits": [[i + 1 for i in orbit] for orbit in result.witness_orbits],
    }
    if "q_point" in instance:
        ell = result.ell if model.n >= model.m + 4 else None
        try:
            doc["verdict"] = _verdict_doc(classify(model.m, model.n, ell=ell,
                                                   q_point=instance["q_point"]))
        except ToolkitError as exc:
            doc["verdict"] = {"error": str(exc)}
    return doc


def _orbit_text(orbits) -> str:
    return " ".join("{" + ",".join(str(i) for i in orbit) + "}" for orbit in orbits) or "-"


def _show_ell(doc: dict) -> None:
    pairs = [
        ("model", _model_tag(doc["model"])),
        ("curves", str(doc["curve_count"])),
        ("orbits", _orbit_text(doc["orbits"])),
        ("ell", str(doc["ell"])),
        ("witness", " ".join(str(i) for i in doc["witness"]) or "-"),
        ("witness orbits", _orbit_text(doc["witness_orbits"])),
    ]
    verdict = doc.get("verdict")
    if verdict is not None and "error" in verdict:
        pairs.append(("verdict", f"unavailable: {verdict['error']}"))
    elif verdict is not None:
        pairs += _verdict_pairs(verdict)
    _print_table(pairs)


def _cmd_classify(args: argparse.Namespace) -> dict:
    from .verdicts import classify
    return _verdict_doc(classify(args.m, args.n, ell=args.ell, q_point=args.q_point))


def _show_classify(doc: dict) -> None:
    _print_table(_verdict_pairs(doc))


def _cmd_sections_ci(args: argparse.Namespace) -> dict:
    from .sections import binary_form, ci_split_polynomial, factor_over_rationals, poly_text
    h = binary_form(_parse_coeffs(args.h))
    if h.degree > MAX_SECTIONS_DEGREE:
        raise ParameterError(
            f"sections ci takes --h of degree at most {MAX_SECTIONS_DEGREE}, got {h.degree}"
        )
    p = ci_split_polynomial(h)
    _check_coefficients(p)
    decomposition = factor_over_rationals(p)
    # the linear factors carry every rational root, with its multiplicity
    root_items = sorted((-f.coeffs[0] / f.coeffs[1], mult)
                        for f, mult in decomposition.factors if f.degree == 1)
    return {
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
    }


def _show_sections_ci(doc: dict) -> None:
    roots_text = ", ".join(
        r["root"] if r["multiplicity"] == 1 else f"{r['root']} (x{r['multiplicity']})"
        for r in doc["rational_roots"]
    )
    parts = [] if doc["unit"] == "1" else [doc["unit"]]
    for f in doc["factors"]:
        text = f"({f['text']})"
        parts.append(text if f["multiplicity"] == 1 else f"{text}^{f['multiplicity']}")
    if doc["unresolved"] is not None:
        parts.append(f"[no factor found within method: {doc['unresolved']}]")
    _print_table([
        ("p(a)", doc["polynomial"]),
        ("degree", str(doc["degree"])),
        ("rational roots", roots_text or "none"),
        ("factors", " * ".join(parts)),
        ("complete", "yes" if doc["factorization_complete"] else "no"),
    ])


def _cmd_sections_lines(args: argparse.Namespace) -> dict:
    from .sections import binary_form, line_census
    a_form, b_form = binary_form(_parse_coeffs(args.a)), binary_form(_parse_coeffs(args.b))
    _check_coefficients(a_form.dehomogenized(), b_form.dehomogenized())
    census = line_census(a_form, b_form)
    return {
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
    }


def _show_sections_lines(doc: dict) -> None:
    _print_table([
        ("total lines", str(doc["total"])),
        ("infinity section", "yes" if doc["infinity_section"] else "no"),
    ])
    print("split values:")
    _print_table([("source", "root", "count", "c", "rational pair", "factor")] + [
        (split["source"], split["root"] or "-", str(split["count"]), split["c"] or "-",
         {True: "yes", False: "no", None: "-"}[split["rational_pair"]], split["factor"])
        for split in doc["splits"]
    ], indent="  ")


def _cmd_verify(args: argparse.Namespace) -> dict:
    from .verification import run_all
    results = run_all()
    first = next((r for r in results if not r.passed), None)
    return {
        "passed": first is None,
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
    }


def _show_verify(doc: dict) -> None:
    results = doc["results"]
    _print_table([("PASS" if r["passed"] else "FAIL", str(r["number"]), f"[{r['tag']}]",
                   f"{r['title']}: {r['detail']}") for r in results])
    if doc["passed"]:
        print(f"all {len(results)} checks passed")
    else:
        failed = sum(1 for r in results if not r["passed"])
        print(f"{failed} of {len(results)} checks failed; first failing clause: {doc['first_failure']}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpforms", description="Forms of singular del Pezzo surfaces: "
                     "lattices, curves, anti-plurigenera, Galois invariants, verdicts.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    lattice = sub.add_parser("lattice", help="model summary and lattice invariants")
    lattice.add_argument("--m", type=int, required=True, help=f"at most {MAX_M}")
    lattice.add_argument("--n", type=int, required=True)
    lattice.add_argument("--kind", choices=KINDS, default=HIRZEBRUCH)
    lattice.set_defaults(handler=_cmd_lattice, show=_show_lattice)

    curves = sub.add_parser("curves", help="census of (-1)-curve classes")
    curves.add_argument("--m", type=int, required=True,
                        help=f"at most {MAX_M}, and at most {MAX_CENSUS_M} if n >= m+4")
    curves.add_argument("--n", type=int, required=True)
    curves.add_argument("--kind", choices=KINDS, default=HIRZEBRUCH)
    curves.add_argument("--meeting-q", action="store_true",
                        help="restrict to classes with positive Q-intersection")
    curves.add_argument("--bound", type=int, default=0,
                        help="enlarge the default box of a window census (K_X^2 <= 0) by "
                        f"this margin, 0 to {MAX_BOUND}")
    curves.set_defaults(handler=_cmd_curves, show=_show_curves)

    rr = sub.add_parser("rr", help="anti-plurigenus table and embedding descriptor")
    rr.add_argument("--m", type=int, required=True)
    rr.add_argument("--n", type=int, help="with --max-j, a del Pezzo surface (K_X^2 > 0)")
    rr.add_argument("--max-j", type=int, help=f"1 to {MAX_J}")
    rr.add_argument("--embedding", action="store_true")
    rr.set_defaults(handler=_cmd_rr, show=_show_rr)

    ell = sub.add_parser("ell", help="invariant disjoint-curve count from an instance file")
    ell.add_argument("--instance", required=True, metavar="PATH",
                     help=f"instance file: m at most {MAX_M} (at most {MAX_CENSUS_M} for "
                     f'"auto" curves with n >= m+4), at most {MAX_CURVES} curves')
    ell.set_defaults(handler=_cmd_ell, show=_show_ell)

    classify_parser = sub.add_parser("classify", help="rationality and cylindricity verdict")
    classify_parser.add_argument("--m", type=int, required=True)
    classify_parser.add_argument("--n", type=int, required=True)
    classify_parser.add_argument("--ell", type=int)
    classify_parser.add_argument("--q-point", choices=("yes", "no", "unknown"),
                                 default="unknown", dest="q_point")
    classify_parser.set_defaults(handler=_cmd_classify, show=_show_classify)

    sections = sub.add_parser("sections", help="hyperplane-section splitting analysis")
    secsub = sections.add_subparsers(dest="section_command", required=True, parser_class=_Parser)
    ci = secsub.add_parser("ci", help="splitting polynomial of the symmetric model")
    ci.add_argument("--h", required=True, metavar="COEFFS",
                    help="binary form coefficients, highest x power first; "
                    "write --h=-1,... when the first is negative; degree at most "
                    f"{MAX_SECTIONS_DEGREE}; p(a) in primitive integer form may have "
                    f"coefficients up to {MAX_SECTIONS_COEFF} in absolute value; "
                    f"at most {MAX_SECTIONS_DIGITS} digits, an exponent eK counting |K| more")
    ci.set_defaults(handler=_cmd_sections_ci, show=_show_sections_ci)
    lines = secsub.add_parser("lines", help="census of lines on w^2 = A + B z^2")
    lines.add_argument("--a", required=True, metavar="COEFFS",
                       help="the form A, highest x power first; "
                       "write --a=-1,... when the first is negative; A and B in primitive "
                       f"integer form may have coefficients up to {MAX_SECTIONS_COEFF} "
                       f"in absolute value; at most {MAX_SECTIONS_DIGITS} digits, an "
                       "exponent eK counting |K| more")
    lines.add_argument("--b", required=True, metavar="COEFFS",
                       help="the form B, highest x power first; "
                       "write --b=-1,... when the first is negative; at most "
                       f"{MAX_SECTIONS_DIGITS} digits, an exponent eK counting |K| more")
    lines.set_defaults(handler=_cmd_sections_lines, show=_show_sections_lines)

    verify = sub.add_parser("verify", help="run the full self-check battery")
    verify.set_defaults(handler=_cmd_verify, show=_show_verify)

    for leaf in (lattice, curves, rr, ell, classify_parser, ci, lines, verify):
        leaf.add_argument("--json", action="store_true")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        doc = args.handler(args)
        (_emit if args.json else args.show)(doc)
        return 2 if doc.get("passed") is False else 0
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2
    except InvalidActionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.report is not None:
            violations = exc.report.violations
            for violation in violations[:3]:
                print(f"  {violation}", file=sys.stderr)
            if len(violations) > 3:
                print(f"  (+{len(violations) - 3} more)", file=sys.stderr)
        return 1
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so that the
        # flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
