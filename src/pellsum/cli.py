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
a handler can pass a long result without building it. A RecordTable, a
sorted key tuple with an iterable of value tuples (each value an int or a
tuple of ints), is written as the list of dicts it stands for, one row at a
time through a %-template per value shape, so a long list of small records
needs no dict per record. Output that cannot
be opened or written, the document or the text summary, is an error
(exit 1, one `error:` line naming the --out path or stdout); so is a
write to an unbuffered stdout that ends short.

Exit codes: 0 on success, 1 on usage or domain errors, 2 when an internal
cross-check fails.

This module holds main, the writer, the table of subcommands (_COMMANDS)
and the handlers of `pell`, `solve-norm` and `coords`. Every other handler,
named _cmd_<subcommand> with - as _, sits with the code shaping its
document beside the layer it drives (recurrences.py, search.py,
partitions.py, fixtures.py), and main imports that module on dispatch.
build_parser registers the arguments of the subcommand argv[0] names, or
of all twelve when it names none (--help, --version, a usage error). Each
job is a fresh interpreter that, without cached bytecode
(PYTHONDONTWRITEBYTECODE), compiles every module it imports, at 1 to 1.5 ms
per 100 lines on a 2-core VM: so a job compiles and builds only what it
runs. The Pell layer stays bound at module level, where the benchmark's
tracer (perfbench/trace_child.py) finds and wraps it.

main builds the document's config from the parsed flags: the subcommand
and every dest but --out and --format. A handler returns (inputs, results,
lines): the parsed form of the string flags (--rec, --primes, --degrees,
--bases), which replaces their text in config; the document's results;
and the text summary.

The records the layers return are plain immutable classes (`_records.py`),
not dataclasses: importing `dataclasses` pulls in `inspect`, and each
dataclass compiles several methods with `exec`, which together cost every
job more start-up time than most of them spend computing. A record class
compiles one method, a plain `__init__` over its fields, so the interpreter
binds its arguments. Handlers put the records' tuples in documents as they
are; the writer encodes a tuple as the array json.dumps makes of a list.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from importlib import import_module
from types import GeneratorType

from . import __version__
from .errors import InvariantViolationError, PellsumError
from .normform import NormFormProblem, coordinate_set, solution_classes
from .pell import _pell_results, pell_data


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 is reserved for
    # invariant violations)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# -- Pell-layer subcommand handlers -----------------------------------------
# each returns (inputs, results, lines), as the module docstring describes


def _cmd_pell(args):
    data = pell_data(args.d)
    results = _pell_results(data)
    lines = [
        f"sqrt({args.d}) = [{results['a0']}; {', '.join(map(str, data.period))}]"
        f" (period {results['period_length']})",
        f"fundamental solution of x^2 - {args.d}*y^2 = 1: {data.fundamental}",
        (
            f"minimal solution of x^2 - {args.d}*y^2 = -1: {data.negative}"
            if data.negative
            else f"x^2 - {args.d}*y^2 = -1 has no solution (even period)"
        ),
        f"minimal automorph t^2 - {args.d}*u^2 = 4: {data.automorph}"
        f", unit {results['unit']}",
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
                "representative": orbit.representative,
                "automorph": orbit.automorph,
                "seeds": orbit.seeds,
                "sign_class": orbit.sign_class,
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


_INT = {"type": int, "required": True}
_D, _M, _N = ("--d", _INT), ("--m", _INT), ("--n", _INT)
_REC = ("--rec", {"required": True})
_COORD_BOUND = ("--bound", {"dest": "coord_bound", "metavar": "BOUND", "type": int,
                            "required": True, "help": "coordinate value bound"})

# Every subcommand, once: the module holding its handler, its summary, and
# its arguments after --out and --format, in the order --help lists them.
_COMMANDS = {
    "pell": ("cli", "continued fraction and fundamental solutions for sqrt(d)", [_D]),
    "solve-norm": ("cli", "solution classes of x^2 - d*y^2 = m", [_D, _M]),
    "coords": ("cli", "coordinate set X1 or X2 up to a bound", [
        _D, _M, ("--coord", {"type": int, "choices": (1, 2), "required": True}),
        ("--bound", _INT), ("--include-trivial", {"action": "store_true"})]),
    "recur": ("recurrences", "terms of a recurrence given as 'a1,..,ad;U0,..,U(d-1)'",
              [_REC, _N]),
    "binet": ("recurrences", "exact closed form of an order-2 recurrence", [_REC]),
    "hypotheses": ("recurrences", "audit the finiteness hypotheses for a recurrence",
                   [_REC, ("--exp-bound", {"type": int, "default": 10})]),
    "pairs-search": ("search", "pairs U_n1 + U_n2 landing in a coordinate set", [
        _REC, _D, _M, ("--n", {"dest": "index_bound", "metavar": "N", "type": int,
                               "required": True, "help": "index bound"}), _COORD_BOUND]),
    "sunit-search": ("search", "S-unit tuples whose sum lands in a coordinate set", [
        ("--primes", {"required": True, "help": "comma-separated primes"}),
        ("--t", {"dest": "tuple_size", "metavar": "T", "type": int, "required": True,
                 "help": "tuple size (1..4)"}),
        ("--exp-bound", _INT), _D, _M, _COORD_BOUND]),
    "vanishing": ("search", "vanishing subsums of pair sums of an order-2 recurrence",
                  [_REC, _N]),
    "bound": ("search", "counting bound for unit equations", [
        ("--s", _INT), ("--degrees", {"required": True, "help": "comma-separated degrees"}),
        ("--field-degree", _INT)]),
    "partitions": ("partitions", "pairwise dependence across all index partitions", [
        ("--bases", {"required": True,
                     "help": "comma-separated values like '3+2*sqrt(2),3-2*sqrt(2)'"}),
        ("--exp-bound", _INT)]),
    "verify-remark": ("fixtures", "replay one recorded example against recomputation",
                      [("--id", {"required": True}), _N]),
}


def build_parser(argv=()) -> _Parser:
    """The parser, with only the subcommand argv[0] names, or every one."""
    parser = _Parser(prog="pellsum", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"pellsum {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND", parser_class=_Parser)
    sub.required = True
    first = argv[0] if argv else None
    for name, (_, summary, arguments) in _COMMANDS.items():
        if first not in _COMMANDS or name == first:
            p = sub.add_parser(name, help=summary)
            p.add_argument("--out", metavar="PATH", help="write the structured report here")
            p.add_argument("--format", choices=("text", "structured"), default="text",
                           help="stdout format (default text)")
            for flag, options in arguments:
                p.add_argument(flag, **options)
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


class RecordTable:
    """A list of objects with one sorted key tuple, written as the list of
    dicts it stands for. Each row holds one value per key, an int or a tuple
    of ints; the writer renders a row through one %-template per value
    shape, without building its dict."""

    __slots__ = ("keys", "rows")

    def __init__(self, keys, rows):
        if list(keys) != sorted(set(keys)):
            raise ValueError("record table keys must be sorted and distinct")
        self.keys, self.rows = tuple(keys), rows


def _row_template(keys, shape, indent: str) -> str:
    """The text of one row of a RecordTable as a %-template; shape holds -1
    for an int value and a tuple value's length; indent is the row's."""
    if len(shape) != len(keys):
        raise ValueError(f"a record table row has {len(shape)} values for {len(keys)} keys")
    if not keys:
        return "{}"
    field, item = indent + "  ", indent + "    "
    parts = []
    for key, width in zip(keys, shape):
        if width < 0:
            text = "%d"
        elif width == 0:
            text = "[]"
        else:
            text = "[" + item + ("," + item).join(["%d"] * width) + field + "]"
        parts.append(field + _quote(key).replace("%", "%%") + ": " + text)
    return "{" + ",".join(parts) + indent + "}"


def _emit_table(table: RecordTable, indent: str, buffer, write) -> None:
    # _emit's array text for the table's rows, with _emit's chunking
    inner = indent + "  "
    comma = "," + inner
    separator = "[" + inner
    templates: dict[tuple, str] = {}
    for row in table.rows:
        shape, flat = [], []
        for value in row:
            if type(value) is tuple:
                shape.append(len(value))
                flat += value
            else:
                shape.append(-1)
                flat.append(value)
        shape = tuple(shape)
        template = templates.get(shape)
        if template is None:
            template = templates[shape] = _row_template(table.keys, shape, inner)
        buffer.write(separator + template % tuple(flat))
        separator = comma
        if buffer.tell() >= _CHUNK:
            write(buffer.getvalue())
            buffer.seek(0)
            buffer.truncate()
    buffer.write(indent + "]" if separator is comma else "[]")


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
    elif type(value) is RecordTable:
        _emit_table(value, indent, buffer, write)
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


def _stdout_writer():
    """sys.stdout.write, or, when stdout is unbuffered, a write of all the
    text: its text layer drops what a short write to the raw file leaves."""
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        return out.write
    out.flush()

    def write(text):
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:  # the write after a short one raises, as a buffered one does
            data = data[raw.write(data):]

    return write


def main(argv=None) -> int:
    # documents hold exact integers of any length (x1 for d = 1000000007 has
    # 6,382 digits); lift the interpreter's cap on int-to-str conversion,
    # which Pythons before 3.10.7 do not have
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    layer = import_module(f".{_COMMANDS[args.subcommand][0]}", __package__)
    handler = getattr(layer, "_cmd_" + args.subcommand.replace("-", "_"))
    try:
        inputs, results, lines = handler(args)
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (PellsumError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    handle = None
    write_stdout = _stdout_writer()
    sinks = [(sys.stdout, write_stdout)] if args.format == "structured" else []
    stream = None  # the stream an OSError comes from; None while --out opens

    def write(piece):
        nonlocal stream
        for stream, sink in sinks:
            sink(piece)

    try:
        if args.out:
            handle = open(args.out, "w", encoding="utf-8")
            sinks.insert(0, (handle, handle.write))
        # text mode without --out never reads the document, so it is not encoded
        if sinks:
            config = {
                key: value for key, value in vars(args).items() if key not in ("out", "format")
            }
            doc = {"version": __version__, "config": {**config, **inputs}, "results": results}
            _write_canonical(doc, write)
        for stream, _ in sinks:
            stream.flush()
        if args.format != "structured":
            stream = sys.stdout
            for line in lines:
                write_stdout(f"{line}\n")
            if args.out:
                write_stdout(f"report written to {args.out}\n")
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
