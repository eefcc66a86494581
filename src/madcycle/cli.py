"""Command-line front end.

Exit codes: 0 yes/ok, 1 no, 2 unknown, 64 usage error (PreconditionError
or CapExceeded), 65 data error (malformed, missing or unreadable input,
bytes that are not UTF-8 included, or a failed write), 70 internal error, a
bare ValueError included.
Identical argv and input always produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from . import oracles
from .errors import CapExceeded, GraphInputError, PreconditionError
from .graph import CycleCertificate, verify_cycle_certificate
from .instances import (
    emit_graph,
    emit_result,
    gen_hardness_gadget,
    gen_instance,
    parse_graph,
)
from .solver import solve

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="madcycle", description="long cycles above the density bound")
    sub = p.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("file", help="input graph file ('-' for stdin)")
        sp.add_argument(
            "--format", choices=("edgelist", "dimacs"), default="edgelist"
        )

    sp = sub.add_parser("mad", help="exact maximum average degree and witness")
    add_input(sp)

    sp = sub.add_parser("solve", help="decide a cycle of length >= mad+k")
    add_input(sp)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--path", action="store_true", help="path variant")
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("verify", help="check a cycle certificate")
    add_input(sp)
    sp.add_argument("--cycle", required=True, help="comma-separated vertex ids")
    sp.add_argument("--min-len", type=int, default=3)

    sp = sub.add_parser("gen", help="generate an instance")
    sp.add_argument(
        "family", choices=("gnp2c", "near_complete", "bipartite_dense", "lemma7_trace")
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="family parameter, repeatable",
    )

    sp = sub.add_parser("oracle", help="ground-truth oracles for small instances")
    sp.add_argument("which", choices=("cycle", "stpath", "mad", "segments"))
    add_input(sp)
    sp.add_argument("--s", type=int, default=0)
    sp.add_argument("--t", type=int, default=1)
    sp.add_argument("--T", default="", help="comma-separated T for segments")
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--cap", type=int, default=None)

    sp = sub.add_parser("gadget", help="hardness transform")
    add_input(sp)
    return p


def _read(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _vertex(g, v: int, flag: str) -> int:
    if not 0 <= v < g.n:
        raise PreconditionError(f"{flag}: vertex {v} out of range, n={g.n}")
    return v


def _int_list(text: str, flag: str) -> list[int]:
    """The comma-separated integers of a list flag; a bad item is a usage error."""
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise PreconditionError(f"{flag}: bad integer list {text!r}") from None


def run_cli(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE

    try:
        return _dispatch(args, out)
    except (GraphInputError, OSError) as exc:
        print(f"data error: {exc}", file=err)
        return EXIT_DATA
    except (PreconditionError, CapExceeded) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except Exception as exc:
        # a fault of the program, never to be read as an answer
        print(f"internal error: {type(exc).__name__}: {exc}", file=err)
        traceback.print_exc(file=err)
        return EXIT_INTERNAL


def _dispatch(args, out) -> int:
    if args.command == "mad":
        from .density import mad_with_witness

        g = parse_graph(_read(args.file), args.format)
        w = mad_with_witness(g)
        print(w.mad, file=out)
        print("witness", " ".join(map(str, sorted(w.vertices))), file=out)
        return EXIT_YES

    if args.command == "solve":
        g = parse_graph(_read(args.file), args.format)
        res = solve(
            g,
            args.k,
            mode="path" if args.path else "cycle",
            with_trace=args.trace,
        )
        if args.json:
            out.write(emit_result(res).decode())
        else:
            print(f"answer {res.answer}", file=out)
            print(f"mad {res.mad}", file=out)
            print(f"threshold {res.threshold_len}", file=out)
            print(f"branch {res.branch}", file=out)
            if res.certificate is not None:
                print("cycle", " ".join(map(str, res.certificate.vertices)), file=out)
            if res.path_certificate is not None:
                print(
                    "path", " ".join(map(str, res.path_certificate.vertices)), file=out
                )
            if res.answer == "unknown" and "reason" in res.stats:
                print(f"reason {res.stats['reason']}", file=out)
        return {"yes": EXIT_YES, "no": EXIT_NO}.get(res.answer, EXIT_UNKNOWN)

    if args.command == "verify":
        g = parse_graph(_read(args.file), args.format)
        cert = CycleCertificate(tuple(_int_list(args.cycle, "--cycle")), args.min_len)
        check = verify_cycle_certificate(g, cert)
        if check:
            print("ok", file=out)
            return EXIT_YES
        print(f"invalid: {check.reason}", file=out)
        return EXIT_NO

    if args.command == "gen":
        params = {}
        for item in args.param:
            if "=" not in item:
                raise PreconditionError(f"bad --param {item!r}, expected KEY=VALUE")
            key, val = item.split("=", 1)
            try:
                params[key] = int(val)
            except ValueError:
                try:
                    params[key] = float(val)
                except ValueError:
                    params[key] = val
        g, meta = gen_instance(args.family, params, args.seed)
        for key in sorted(meta):
            print(f"# {key} {meta[key]}", file=out)
        out.write(emit_graph(g).decode())
        return EXIT_YES

    if args.command == "oracle":
        g = parse_graph(_read(args.file), args.format)

        def cap(default: int) -> int:
            # --cap replaces the oracle's own cap on n whenever it is given
            return default if args.cap is None else args.cap

        if args.which == "cycle":
            length, cert = oracles.oracle_longest_cycle(g, cap=cap(oracles.LONGEST_CYCLE_CAP))
            print(f"circumference {length}", file=out)
            if cert is not None:
                print("cycle", " ".join(map(str, cert.vertices)), file=out)
            return EXIT_YES
        if args.which == "stpath":
            s, t = _vertex(g, args.s, "--s"), _vertex(g, args.t, "--t")
            best = oracles.oracle_longest_st_path(
                g, s, t, cap=cap(oracles.LONGEST_ST_PATH_CAP))
            print(f"max_vertices {best}", file=out)
            return EXIT_YES
        if args.which == "mad":
            print(oracles.oracle_mad(g, cap=cap(oracles.MAD_CAP)), file=out)
            return EXIT_YES
        T = {_vertex(g, v, "--T") for v in _int_list(args.T, "--T")}
        ok = oracles.oracle_segments(g, T, args.r, args.p,
                                    n_cap=cap(oracles.SEGMENTS_N_CAP))
        print("yes" if ok else "no", file=out)
        return EXIT_YES if ok else EXIT_NO

    if args.command == "gadget":
        g = parse_graph(_read(args.file), args.format)
        gp = gen_hardness_gadget(g)
        out.write(emit_graph(gp).decode())
        return EXIT_YES

    raise PreconditionError(f"unknown command {args.command!r}")


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
