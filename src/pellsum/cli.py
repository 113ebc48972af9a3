"""Command-line front end.

Every subcommand prints a short text summary by default, or the full
structured report with --format structured. --out writes the structured
report to a file either way. Structured reports are canonical: their bytes
are, in UTF-8, exactly

    json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"

and free of anything volatile (wall time, output path), so reruns produce
byte-identical documents. _write_canonical streams that exact text to the
file, stdout or both in one pass, without importing json: one recursive
encoder buffers the text and hands it on in chunks of about 32 Ki
characters at any depth, and encodes a generator as the list it yields, so
a handler can pass a long result without building it. Output that cannot
be opened or written, the document or the text summary, is an error
(exit 1, one `error:` line naming the --out path or stdout).

Exit codes: 0 on success, 1 on usage or domain errors, 2 when an internal
cross-check fails.

Each subcommand is declared once, in build_parser, with the handler its
parser dispatches to. main builds the document's config from the parsed
flags: the subcommand and every dest but --out and --format. A handler
returns (inputs, results, lines): the parsed form of the string flags
(--rec, --primes, --degrees, --bases), which replaces their text in
config; the document's results; and the text summary.

The search, S-unit, recurrence, partition and fixture layers are imported
inside the handlers that use them, so a job that needs only the Pell layer
(`pell`, `solve-norm`, `coords`, `--version`) starts without loading them.
The records the layers return are plain immutable classes (`_records.py`),
not dataclasses: importing `dataclasses` pulls in `inspect`, and each
dataclass compiles its methods with `exec`, which together cost every job
more start-up time than most of them spend computing.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from fractions import Fraction
from types import GeneratorType

from . import __version__
from .errors import InvariantViolationError, PellsumError
from .normform import NormFormProblem, coordinate_set, solution_classes
from .pell import continued_fraction_sqrt, pell_data
from .quadfield import QuadNum, quad


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 is reserved for
    # invariant violations)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_BASE_RE = re.compile(
    r"""^\s*
    (?P<rat>[+-]?\d+(?:/\d+)?)?\s*
    (?:
        (?P<sign>[+-])?\s*
        (?:(?P<coef>\d+(?:/\d+)?)\s*\*\s*)?
        sqrt\(\s*(?P<d>-?\d+)\s*\)
    )?\s*$""",
    re.VERBOSE,
)


def parse_base(text: str) -> Fraction | QuadNum:
    """Parse 'a', 'a/b', 'a+b*sqrt(d)', 'b*sqrt(d)' or 'sqrt(d)' forms."""
    match = _BASE_RE.match(text)
    if not match or (match.group("rat") is None and match.group("d") is None):
        raise ValueError(f"cannot parse base {text!r}")
    try:
        x = Fraction(match.group("rat") or 0)
        y = Fraction(match.group("coef") or 1)
    except ZeroDivisionError:  # a denominator of 0
        raise ValueError(f"cannot parse base {text!r}") from None
    if match.group("d") is None:
        return x
    if match.group("rat") is not None and match.group("sign") is None:
        raise ValueError(f"missing + or - before the sqrt term in {text!r}")
    if match.group("sign") == "-":
        y = -y
    return quad(x, y, int(match.group("d")))


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _rec_config(rec) -> dict:
    return {"coeffs": list(rec.coeffs), "initials": list(rec.initials)}


def _membership_json(memberships) -> list[dict]:
    return [{"coord": coord, "solution": list(pair)} for coord, pair in memberships]


def _hypotheses_json(hyp) -> dict:
    return {
        "exp_bound": hyp.expbound,
        "nondegenerate": hyp.nondegenerate,
        "degeneracy_detail": hyp.degeneracy.detail,
        "unity_orders": list(hyp.unity_orders),
        "independence": [
            {
                "roots": [i, j],
                "dependent": verdict.dependent,
                "witness": list(verdict.witness) if verdict.witness else None,
                "exp_bound": verdict.bound,
            }
            for i, j, verdict in hyp.independence
        ],
        "pairwise_independent": hyp.pairwise_independent,
        "no_root_of_unity": hyp.no_root_of_unity,
        "last_coeff_not_unit": hyp.last_coeff_not_unit,
        "applicable": hyp.applicable,
    }


def _search_json(report) -> dict:
    out = {
        "kind": report.kind,
        "d": report.problem.d,
        "m": report.problem.m,
        "bounds": dict(report.bounds),
        "hit_count": len(report.hits),
        "stabilization": {
            "half_box_hits": report.stabilization[0],
            "full_hits": report.stabilization[1],
            "stable": report.stable,
        },
    }
    if report.kind == "pair-sum":
        out["hits"] = [
            {
                "n1": hit.n1,
                "n2": hit.n2,
                "value": hit.value,
                "memberships": _membership_json(hit.memberships),
            }
            for hit in report.hits
        ]
        out["hypotheses"] = (
            _hypotheses_json(report.hypotheses) if report.hypotheses else None
        )
        out["hypotheses_note"] = report.hypotheses_note
    else:
        out["hits"] = [
            {
                "entries": [str(e) for e in hit.entries],
                "total": str(hit.total),
                "memberships": _membership_json(hit.memberships),
                "certificate": {
                    "ok": hit.certificate.ok,
                    "vanishing": list(hit.certificate.vanishing)
                    if hit.certificate.vanishing
                    else None,
                    "size": hit.certificate.size,
                },
            }
            for hit in report.hits
        ]
    return out


def _search_summary(report) -> list[str]:
    lines = [
        f"{report.kind} search over x^2 - {report.problem.d}*y^2 = {report.problem.m}",
        "bounds: " + ", ".join(f"{name} = {value}" for name, value in report.bounds),
        f"hits: {len(report.hits)}",
    ]
    for hit in report.hits[:20]:
        where = ", ".join(
            f"X{coord} via {tuple(pair)}" for coord, pair in hit.memberships
        )
        if report.kind == "pair-sum":
            lines.append(f"  U_{hit.n1} + U_{hit.n2} = {hit.value} in {where}")
        else:
            entries = " + ".join(str(e) for e in hit.entries)
            lines.append(f"  {entries} = {hit.total} in {where}")
    if len(report.hits) > 20:
        lines.append(f"  ... {len(report.hits) - 20} more")
    half, full = report.stabilization
    lines.append(
        f"stabilization: {half} hits in the half box, {full} total"
        + (" (stable)" if report.stable else " (still growing)")
    )
    if report.kind == "pair-sum":
        if report.hypotheses is not None:
            verdict = "hold" if report.hypotheses.applicable else "FAIL"
            lines.append(f"finiteness hypotheses {verdict}")
        elif report.hypotheses_note:
            lines.append(report.hypotheses_note)
    lines.append(f"wall time {report.wall_time:.3f}s")
    return lines


# -- subcommand handlers ----------------------------------------------------
# each returns (inputs, results, lines), as the module docstring describes


def _cmd_pell(args):
    data = pell_data(args.d)
    a0, digits = continued_fraction_sqrt(args.d)
    results = {
        "d": args.d,
        "a0": a0,
        "period": digits,
        "period_length": len(digits),
        "fundamental": list(data.fundamental),
        "negative": list(data.negative) if data.negative else None,
        "automorph": list(data.automorph),
        "unit": str(data.unit()),
    }
    lines = [
        f"sqrt({args.d}) = [{a0}; {', '.join(map(str, digits))}] (period {len(digits)})",
        f"fundamental solution of x^2 - {args.d}*y^2 = 1: {data.fundamental}",
        (
            f"minimal solution of x^2 - {args.d}*y^2 = -1: {data.negative}"
            if data.negative
            else f"x^2 - {args.d}*y^2 = -1 has no solution (even period)"
        ),
        f"minimal automorph t^2 - {args.d}*u^2 = 4: {data.automorph}"
        f", unit {data.unit()}",
    ]
    return {}, results, lines


def _cmd_solve_norm(args):
    problem = NormFormProblem(args.d, args.m)
    sol = solution_classes(problem)
    results = {
        "d": args.d,
        "m": args.m,
        "scan_bound": sol.scan_bound,
        "orbit_count": len(sol.orbits),
        "orbits": [
            {
                "representative": list(orbit.representative),
                "automorph": list(orbit.automorph),
                "seeds": [list(pair) for pair in orbit.seeds],
                "sign_class": [list(pair) for pair in orbit.sign_class],
            }
            for orbit in sol.orbits
        ],
    }
    lines = [
        f"x^2 - {args.d}*y^2 = {args.m}: "
        f"{len(sol.orbits)} solution class(es), seeds scanned to y <= {sol.scan_bound}"
    ]
    for orbit in sol.orbits:
        lines.append(
            f"  representative {orbit.representative}, automorph {orbit.automorph}"
        )
    return {}, results, lines


def _cmd_coords(args):
    problem = NormFormProblem(args.d, args.m)
    values = coordinate_set(
        problem, args.coord, args.bound, include_trivial=args.include_trivial
    )
    results = {"count": len(values), "values": values}
    shown = ", ".join(map(str, values[:25])) + (", ..." if len(values) > 25 else "")
    lines = [
        f"X{args.coord} for x^2 - {args.d}*y^2 = {args.m}, values <= {args.bound}"
        + (" (trivial solutions included)" if args.include_trivial else ""),
        f"{len(values)} value(s): {shown}" if values else "no values",
    ]
    return {}, results, lines


def _cmd_recur(args):
    from .recurrences import LinearRecurrence, terms_up_to

    rec = LinearRecurrence.from_literal(args.rec)
    terms = terms_up_to(rec, args.n)
    results = {"order": rec.order, "terms": terms}
    shown = ", ".join(map(str, terms[:15])) + (", ..." if len(terms) > 15 else "")
    lines = [f"order {rec.order}, terms U_0 .. U_{args.n}: {shown}"]
    return {"rec": _rec_config(rec)}, results, lines


def _cmd_binet(args):
    from .recurrences import LinearRecurrence, binet

    rec = LinearRecurrence.from_literal(args.rec)
    form = binet(rec)
    first_terms = [form.term(n) for n in range(11)]
    results = {
        "discriminant": form.discriminant,
        "roots": [str(root) for root in form.roots],
        "coefficients": [str(coeff) for coeff in form.coeffs],
        "first_terms": first_terms,
    }
    lines = [
        f"discriminant {form.discriminant}",
        f"roots {form.roots[0]} and {form.roots[1]}",
        f"U_n = ({form.coeffs[0]}) * alpha^n + ({form.coeffs[1]}) * beta^n",
        "first terms: " + ", ".join(map(str, first_terms)),
    ]
    return {"rec": _rec_config(rec)}, results, lines


def _cmd_hypotheses(args):
    from .recurrences import LinearRecurrence
    from .search import audit_hypotheses

    rec = LinearRecurrence.from_literal(args.rec)
    hyp = audit_hypotheses(rec, args.exp_bound)
    results = _hypotheses_json(hyp)
    flags = [
        ("nondegenerate", hyp.nondegenerate),
        ("roots pairwise independent", hyp.pairwise_independent),
        ("no root of unity", hyp.no_root_of_unity),
        ("last coefficient not a unit", hyp.last_coeff_not_unit),
    ]
    lines = [f"{'ok ' if ok else 'NO '} {name}" for name, ok in flags]
    lines.append(
        "all hypotheses hold" if hyp.applicable else "hypotheses do not all hold"
    )
    if not hyp.nondegenerate:
        lines.insert(0, hyp.degeneracy.detail)
    return {"rec": _rec_config(rec)}, results, lines


def _cmd_pairs_search(args):
    from .recurrences import LinearRecurrence
    from .search import pair_sum_search

    rec = LinearRecurrence.from_literal(args.rec)
    problem = NormFormProblem(args.d, args.m)
    report = pair_sum_search(rec, problem, args.index_bound, args.coord_bound)
    return {"rec": _rec_config(rec)}, _search_json(report), _search_summary(report)


def _cmd_sunit_search(args):
    from .search import sunit_sum_search
    from .sunits import SPrimeSet

    basis = SPrimeSet(tuple(_csv_ints(args.primes)))
    problem = NormFormProblem(args.d, args.m)
    report = sunit_sum_search(
        basis, args.tuple_size, args.exp_bound, problem, args.coord_bound
    )
    return {"primes": list(basis.primes)}, _search_json(report), _search_summary(report)


def _cmd_vanishing(args):
    from .recurrences import LinearRecurrence
    from .search import vanishing_pair_sums

    rec = LinearRecurrence.from_literal(args.rec)
    hits = vanishing_pair_sums(rec, args.n)
    results = {
        "count": len(hits),
        # the writer builds each hit's dict as it reaches it
        "hits": ({"n1": n1, "n2": n2, "delta": list(delta)} for n1, n2, delta in hits),
    }
    lines = [f"{len(hits)} vanishing subsum(s) with n1 <= n2 <= {args.n}"]
    for n1, n2, delta in hits[:20]:
        part = "full sum" if delta == (1, 2) else f"root {delta[0]} part"
        lines.append(f"  (n1, n2) = ({n1}, {n2}), {part}")
    if len(hits) > 20:
        lines.append(f"  ... {len(hits) - 20} more")
    return {"rec": _rec_config(rec)}, results, lines


def _cmd_bound(args):
    from .search import FULL_DIGIT_LIMIT, describe_bound, digit_count, schlickewei_bound

    degrees = _csv_ints(args.degrees)
    value = schlickewei_bound(args.s, degrees, args.field_degree)
    digits = digit_count(value)
    shown = describe_bound(value, digits=digits)
    results = {"digits": digits, "value": shown}
    lines = [
        f"bound for {args.s} variable(s), degrees {degrees}, "
        f"field degree {args.field_degree}:",
        f"  {shown}" + (f" ({digits} digits)" if digits <= FULL_DIGIT_LIMIT else ""),
    ]
    return {"degrees": degrees}, results, lines


def _cmd_partitions(args):
    from .partitions import bell_number
    from .search import partition_analysis

    bases = [parse_base(part) for part in args.bases.split(",")]
    reports = partition_analysis(bases, args.exp_bound)
    results = {
        "bell": bell_number(len(bases)),
        "partition_count": len(reports),
        "partitions": [
            {
                "blocks": [list(block) for block in report.blocks],
                "verdict": report.verdict,
                "witnesses": [
                    {"pair": [i, j], "exponents": list(witness)}
                    for i, j, witness in report.witnesses
                ],
            }
            for report in reports
        ],
    }
    lines = [f"{len(reports)} partition(s) of {len(bases)} base(s)"]
    for report in reports:
        blocks = " | ".join("{" + ", ".join(map(str, b)) + "}" for b in report.blocks)
        lines.append(f"  {blocks}: {report.verdict}")
        for i, j, witness in report.witnesses:
            lines.append(
                f"    bases {i} and {j}: alpha^{witness[0]} * beta^{witness[1]} = 1"
            )
    return {"bases": [str(base) for base in bases]}, results, lines


def _cmd_verify_remark(args):
    from .fixtures import verify_remark

    report = verify_remark(args.id, args.n)
    results = {
        "id": report.remark_id,
        "bound": report.bound,
        "agreement": report.agreement,
        "checks": [
            {
                "name": check.name,
                "passed": check.passed,
                "expected": check.expected,
                "computed": check.computed,
            }
            for check in report.checks
        ],
        "discrepancies": list(report.discrepancies),
        "notes": list(report.notes),
    }
    lines = [f"fixture {report.remark_id} replayed up to n = {report.bound}"]
    for check in report.checks:
        mark = "ok " if check.passed else "DIFF"
        lines.append(f"  {mark} {check.name}")
        if not check.passed:
            lines.append(f"       expected {check.expected}, got {check.computed}")
    for text in report.discrepancies:
        lines.append(f"  flag {text}")
    lines.append(
        "agreement: every check reproduced"
        if report.agreement
        else "agreement: NO, see DIFF lines"
    )
    return {}, results, lines


def build_parser() -> _Parser:
    parser = _Parser(prog="pellsum", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"pellsum {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND", parser_class=_Parser)
    sub.required = True

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="write the structured report here")
    common.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="stdout format (default text)",
    )
    rec = argparse.ArgumentParser(add_help=False)
    rec.add_argument("--rec", required=True)
    norm = argparse.ArgumentParser(add_help=False)
    norm.add_argument("--d", type=int, required=True)
    norm.add_argument("--m", type=int, required=True)

    def add(name, handler, summary, parents=()):
        p = sub.add_parser(name, parents=[common, *parents], help=summary)
        p.set_defaults(handler=handler)
        return p

    p = add("pell", _cmd_pell, "continued fraction and fundamental solutions for sqrt(d)")
    p.add_argument("--d", type=int, required=True)

    add("solve-norm", _cmd_solve_norm, "solution classes of x^2 - d*y^2 = m", [norm])

    p = add("coords", _cmd_coords, "coordinate set X1 or X2 up to a bound", [norm])
    p.add_argument("--coord", type=int, choices=(1, 2), required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--include-trivial", action="store_true")

    p = add("recur", _cmd_recur,
            "terms of a recurrence given as 'a1,..,ad;U0,..,U(d-1)'", [rec])
    p.add_argument("--n", type=int, required=True)

    add("binet", _cmd_binet, "exact closed form of an order-2 recurrence", [rec])

    p = add("hypotheses", _cmd_hypotheses,
            "audit the finiteness hypotheses for a recurrence", [rec])
    p.add_argument("--exp-bound", type=int, default=10)

    p = add("pairs-search", _cmd_pairs_search,
            "pairs U_n1 + U_n2 landing in a coordinate set", [rec, norm])
    p.add_argument("--n", dest="index_bound", metavar="N", type=int, required=True,
                   help="index bound")
    p.add_argument("--bound", dest="coord_bound", metavar="BOUND", type=int,
                   required=True, help="coordinate value bound")

    p = add("sunit-search", _cmd_sunit_search,
            "S-unit tuples whose sum lands in a coordinate set")
    p.add_argument("--primes", required=True, help="comma-separated primes")
    p.add_argument("--t", dest="tuple_size", metavar="T", type=int, required=True,
                   help="tuple size (1..4)")
    p.add_argument("--exp-bound", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--bound", dest="coord_bound", metavar="BOUND", type=int,
                   required=True, help="coordinate value bound")

    p = add("vanishing", _cmd_vanishing,
            "vanishing subsums of pair sums of an order-2 recurrence", [rec])
    p.add_argument("--n", type=int, required=True)

    p = add("bound", _cmd_bound, "counting bound for unit equations")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--degrees", required=True, help="comma-separated degrees")
    p.add_argument("--field-degree", type=int, required=True)

    p = add("partitions", _cmd_partitions,
            "pairwise dependence across all index partitions")
    p.add_argument("--bases", required=True,
                   help="comma-separated values like '3+2*sqrt(2),3-2*sqrt(2)'")
    p.add_argument("--exp-bound", type=int, required=True)

    p = add("verify-remark", _cmd_verify_remark,
            "replay one recorded example against recomputation")
    p.add_argument("--id", required=True)
    p.add_argument("--n", type=int, required=True)

    return parser


# -- canonical document writer ----------------------------------------------
# The text is json.dumps's (module docstring), written without json: with an
# indent, json runs its pure-Python encoder, and in a fresh process that
# takes 70-85 ms (json.dumps) or 85-110 ms (JSONEncoder.iterencode) for the
# dense `vanishing` document (606 KB) against 45-60 ms here (2-core VM,
# Python 3.11); and a job that does not import json starts sooner.

# json.encoder.py_encode_basestring's rule: quote, backslash and C0 controls
_ESCAPE = re.compile(r'[\x00-\x1f\\"]')
_ESCAPES = {chr(i): f"\\u{i:04x}" for i in range(0x20)}
_ESCAPES.update({"\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f", "\n": "\\n",
                 "\r": "\\r", "\t": "\\t"})

# the text reaches the sink in chunks of about this many characters; a sink
# call costs more than a buffered write, and with PYTHONUNBUFFERED set each
# stdout write is a system call
_CHUNK = 1 << 15


def _escape(match) -> str:
    return _ESCAPES[match.group()]


def _quote(text: str) -> str:
    # a key that is not a str fails here with TypeError
    return '"' + _ESCAPE.sub(_escape, text) + '"'


def _emit(value, indent: str, buffer, write) -> None:
    """Add value's indent=2 text to buffer; indent is its line's newline prefix.

    Between two items of a container, at any depth, a buffer holding _CHUNK
    characters or more goes to write and starts again empty. Lists, tuples
    and generators are arrays alike; an array or object is empty when it
    yields no first item.
    """
    if type(value) is int:  # the most common value; bool is a subclass, not int
        buffer.write(int.__repr__(value))
    elif isinstance(value, str):
        buffer.write(_quote(value))
    elif value is None:
        buffer.write("null")
    elif value is True:
        buffer.write("true")
    elif value is False:
        buffer.write("false")
    elif isinstance(value, int):
        buffer.write(int.__repr__(value))
    else:
        if isinstance(value, dict):
            items, opening, closing = sorted(value.items()), "{", "}"
        elif isinstance(value, (list, tuple, GeneratorType)):
            items, opening, closing = value, "[", "]"
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        inner = indent + "  "
        comma = "," + inner
        separator = opening + inner
        for item in items:
            if closing == "}":
                key, item = item
                buffer.write(separator + _quote(key) + ": ")
            else:
                buffer.write(separator)
            if type(item) is int:
                buffer.write(int.__repr__(item))
            else:
                _emit(item, inner, buffer, write)
            separator = comma
            if buffer.tell() >= _CHUNK:
                write(buffer.getvalue())
                buffer.seek(0)
                buffer.truncate()
        buffer.write(indent + closing if separator is comma else opening + closing)


def _write_canonical(doc: dict, write) -> None:
    """Pass the canonical text of doc to write, in chunks, newline-terminated."""
    buffer = io.StringIO()
    _emit(doc, "\n", buffer, write)
    buffer.write("\n")
    write(buffer.getvalue())


def main(argv=None) -> int:
    # documents hold exact integers of any length (x1 for d = 1000000007 has
    # 6,382 digits); lift the interpreter's cap on int-to-str conversion,
    # which Pythons before 3.10.7 do not have
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        inputs, results, lines = args.handler(args)
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (PellsumError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    handle = None
    streams = [sys.stdout] if args.format == "structured" else []
    stream = None  # the stream an OSError comes from; None while --out opens

    def write(piece):
        nonlocal stream
        for stream in streams:
            stream.write(piece)

    try:
        if args.out:
            handle = open(args.out, "w", encoding="utf-8")
            streams.insert(0, handle)
        # text mode without --out never reads the document, so it is not encoded
        if streams:
            config = {
                key: value
                for key, value in vars(args).items()
                if key not in ("handler", "out", "format")
            }
            doc = {"version": __version__, "config": {**config, **inputs}, "results": results}
            _write_canonical(doc, write)
        for stream in streams:
            stream.flush()
        if args.format != "structured":
            stream = sys.stdout
            for line in lines:
                stream.write(f"{line}\n")
            if args.out:
                stream.write(f"report written to {args.out}\n")
            stream.flush()
    except OSError as exc:
        name = "stdout" if stream is sys.stdout else args.out
        print(f"error: cannot write report to {name}: {exc.strerror or exc}",
              file=sys.stderr)
        if stream is not None:
            # its unwritten buffer would fail again when the stream is closed
            # or flushed at exit (the Python docs' SIGPIPE note)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
        return 1
    finally:
        if handle is not None:
            handle.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
