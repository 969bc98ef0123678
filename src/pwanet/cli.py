"""Command line front end.

Subcommands: compile a network file into a PWA file, evaluate either kind
of file at an exact rational point, check univalence, count non-empty
regions, and export an SMT script. Exit codes are stable: 0 success,
2 parse problem or a file that cannot be read or written, 3 dimension
problem (a layer chain that breaks, which building the Network reports,
or a point of the wrong width), 4 non-PWA layer, 5 univalence
violation, 6 result too large (a compile that network.oversize refuses:
by the product of the layers' piece counts, or under --prune by the live
pieces, which the pruned fold checks as it grows; an SMT script that
would declare more than network.MAX_RATIONALS variables, or a rational
too long to write as text; no output file is written or changed).
Output is deterministic byte for byte. An existing output is rewritten in
place: it stays the same file, with the same mode and links, and is cut
to the new length after the write, so a write that fails leaves a prefix
of the new text and no old bytes after it.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys

from . import formats, network, pwa
from .formats import ParseError
from .numeric import ColVec, DimensionError, ScalarTooLong, format_scalar, parse_scalar

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_NON_PWA = 4
EXIT_UNIVALENCE = 5
EXIT_TOO_LARGE = 6


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


def _over(path: str, flags: int) -> int:
    # Without O_TRUNC an existing file keeps its blocks for the write to
    # reuse; os.open's default mode 0o777 would make new files executable.
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", opener=_over) as handle:
        fd = handle.fileno()
        # The length of an older text that the new one may not cover; a
        # FIFO, /dev/null or a terminal has none.
        old = os.fstat(fd)
        left = old.st_size if stat.S_ISREG(old.st_mode) else 0
        try:
            handle.write(text)
            handle.flush()
        finally:
            # Cut after the last byte written, also when the write failed.
            if left:
                end = os.lseek(fd, 0, os.SEEK_CUR)
                if left > end:
                    os.ftruncate(fd, end)


def _parse_point(text: str) -> ColVec:
    stripped = text.strip()
    if not stripped:
        return ColVec([])
    try:
        return ColVec(parse_scalar(part) for part in stripped.split(","))
    except ValueError as exc:
        raise ParseError(f"point: {exc}") from None


def _format_vec(v: ColVec) -> str:
    return ", ".join(format_scalar(e) for e in v)


def _cmd_compile(args) -> int:
    net = formats.parse_network(_read(args.network))
    index = network.non_pwa_layer(net)
    if index is not None:
        print(f"error: layer {index}: not piecewise-affine", file=sys.stderr)
        return EXIT_NON_PWA
    # transform checks its own bounds and raises network.TooLarge.
    fn = network.transform(net, prune=args.prune)
    _write(args.out, formats.serialize_pwa(fn))
    return EXIT_OK


def _cmd_eval(args) -> int:
    point = _parse_point(args.point)
    if args.pwa:
        fn = formats.parse_pwa(_read(args.pwa))
        value = pwa.evaluate(fn, point)
        print("outside domain" if value is None else _format_vec(value))
    else:
        value = network.nn_eval(formats.parse_network(_read(args.network)), point)
        print("undefined" if value is None else _format_vec(value))
    return EXIT_OK


def _cmd_check(args) -> int:
    fn = formats.parse_pwa(_read(args.pwa))
    verdict = pwa.check_univalence(fn)
    if isinstance(verdict, pwa.UnivalenceViolation):
        print(
            f"violation: pieces {verdict.piece_i} and {verdict.piece_j} "
            f"differ in row {verdict.row} at point ({_format_vec(verdict.witness)})"
        )
        return EXIT_UNIVALENCE
    print("univalent")
    return EXIT_OK


def _cmd_regions(args) -> int:
    fn = formats.parse_pwa(_read(args.pwa))
    print(pwa.count_regions(fn))
    return EXIT_OK


def _cmd_export_smt(args) -> int:
    fn = formats.parse_pwa(_read(args.pwa))
    # One declaration per input and output, even where no row bounds them.
    if fn.in_dim + fn.out_dim > network.MAX_RATIONALS:
        limit = network.MAX_RATIONALS
        print(f"error: the SMT script would declare more than {limit} variables", file=sys.stderr)
        return EXIT_TOO_LARGE
    _write(args.out, formats.export_smt(fn, assert_domain=args.assert_domain))
    return EXIT_OK


# Built on the first call and reused: parse_args never changes a parser.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwanet",
        description="exact piecewise-affine functions and network compilation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a network file to a PWA file")
    p.add_argument("--network", required=True, help="network JSON input")
    p.add_argument("--out", required=True, help="PWA JSON output")
    p.add_argument("--prune", action="store_true", help="drop empty pieces")
    p.set_defaults(handler=_cmd_compile)

    p = sub.add_parser("eval", help="evaluate a PWA or network file at a point")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pwa", help="PWA JSON input")
    group.add_argument("--network", help="network JSON input")
    p.add_argument("--point", required=True, help='input vector, e.g. "1,1" or "2.7,-1/3"')
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("check", help="decide univalence of a PWA file")
    p.add_argument("--pwa", required=True, help="PWA JSON input")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("regions", help="count non-empty pieces of a PWA file")
    p.add_argument("--pwa", required=True, help="PWA JSON input")
    p.set_defaults(handler=_cmd_regions)

    p = sub.add_parser("export-smt", help="write a QF_LRA script for a PWA file")
    p.add_argument("--pwa", required=True, help="PWA JSON input")
    p.add_argument("--out", required=True, help="SMT-LIB output")
    p.add_argument(
        "--assert-domain",
        action="store_true",
        help="also assert that the input lies in some piece",
    )
    p.set_defaults(handler=_cmd_export_smt)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (ScalarTooLong, network.TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
