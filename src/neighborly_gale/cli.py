"""Command-line interface: search, count, validate, bound, construct, verify.

Exit codes: 0 success, 1 assertion or verification failure, 2 usage error.
A reader that closes stdout early (``| head``) ends the command with 0.  A
write that fails otherwise, as on a full disk, ends it with one ``error:``
line on stderr and exit code 1.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from itertools import islice

from . import bounds as bounds_mod
from .constructions import EXAMPLE_BUILDERS, VFPair, join, pyramid, recursive_family
from .diagram import GaleDiagram, count_cofacets, validate
from .errors import CounterexampleError, DiagramError, OracleSizeError, ParameterError
from .oracle import oracle_count_cofacets
from .search import (
    PRUNE_LEVELS,
    SearchConfig,
    enumerate_diagrams,
    find_delta3,
    verify_theorem1,
    write_results_jsonl,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


def _parse_labels(text: str) -> tuple[int, ...]:
    try:
        labels = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"labels must be comma-separated integers: {exc}") from exc
    if len(labels) < 4 or len(labels) % 2:
        raise ParameterError(
            f"need an even number (>= 4) of labels for a 2n-gon, got {len(labels)}"
        )
    if any(x < 0 for x in labels):
        raise ParameterError("labels must be nonnegative")
    return labels


def _diagram_from_args(args) -> GaleDiagram:
    labels = _parse_labels(args.labels)
    return GaleDiagram(
        n=len(labels) // 2, labels=labels, center=getattr(args, "center", 0)
    )


def _parse_pair(text: str) -> VFPair:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParameterError(f"expected d,vertices,facets - got {text!r}")
    try:
        d, v, f = (int(x) for x in parts)
    except ValueError as exc:
        raise ParameterError(f"pair entries must be integers: {exc}") from exc
    return VFPair(d=d, vertices=v, facets=f)


def _default_jobs() -> int:
    """Worker count from ``NEIGHBORLY_GALE_JOBS``, 1 when unset or empty."""
    env = os.environ.get("NEIGHBORLY_GALE_JOBS")
    if not env:
        return 1
    try:
        jobs = int(env)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ParameterError(f"NEIGHBORLY_GALE_JOBS must be a positive integer, got {env!r}")
    return jobs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neighborly-gale",
        description=(
            "Reduced Gale diagrams of d-polytopes with d+3 vertices: cofacet "
            "counts, neighborliness checks, facet-gap search, and facet bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta3", help="minimum of cofacets - vertices for one k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prune", choices=PRUNE_LEVELS, default="extremal")
    p.add_argument("--jobs", type=int)
    p.add_argument("--emit-all", action="store_true", help="keep every optimal witness")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="also write witnesses as JSON lines to this file")

    p = sub.add_parser("enumerate", help="stream the diagrams of the search space")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prune", choices=PRUNE_LEVELS, default="extremal")
    p.add_argument("--limit", type=int, help="stop after this many diagrams")
    p.add_argument("--out", help="write JSON lines here instead of stdout")

    p = sub.add_parser("cofacets", help="count cofacets of one diagram")
    p.add_argument("--labels", required=True, help="comma-separated 2n labels")
    p.add_argument("--center", type=int, default=0)
    p.add_argument("--oracle", action="store_true",
                   help="also run the geometric counter and insist on agreement")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="validate diagram properties for one k")
    p.add_argument("--labels", required=True)
    p.add_argument("--center", type=int, default=0)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("bound", help="evaluate a facet-count bound")
    p.add_argument("name", choices=sorted(bounds_mod.BOUND_REGISTRY))
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("construct", help="build example diagrams or (d,v,f) triples")
    p.add_argument(
        "kind",
        choices=("example1", "example2", "example3", "join", "pyramid", "family"),
    )
    p.add_argument("--k", type=int, help="for example1/2/3")
    p.add_argument("--pair", action="append", default=[],
                   help="d,vertices,facets - repeat for join operands")
    p.add_argument("--m", type=int, help="recursion depth for family")
    p.add_argument("--n", type=int, help="base vertex count for family")

    p = sub.add_parser("verify", help="search vs closed form plus golden diagrams")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--prune", choices=PRUNE_LEVELS, default="extremal")
    p.add_argument("--jobs", type=int)

    return parser


def _out_file(path: str | None, default=None):
    """``--out`` opened for writing, else ``default``; a bad path is a usage error."""
    try:
        return open(path, "w", encoding="utf-8") if path else nullcontext(default)
    except OSError as exc:
        raise ParameterError(f"cannot write --out {path}: {exc.strerror}") from exc


def _cmd_delta3(args, out) -> int:
    config = SearchConfig(
        k=args.k, prune_level=args.prune, emit_all=args.emit_all, jobs=args.jobs
    )
    with _out_file(args.out) as fh:  # opened before the search, so a bad path fails fast
        result = find_delta3(config)
        if fh:
            write_results_jsonl(result, fh)
    if args.format == "json":
        out.write(json.dumps(result.to_json()) + "\n")
    else:
        out.write(f"k={result.k} prune={result.prune_level} delta3={result.delta3}\n")
        for w in result.witnesses:
            out.write(
                f"witness n={w.n} labels={','.join(map(str, w.labels))} "
                f"cofacets={count_cofacets(w)} vertices={w.vertex_count}\n"
            )
        out.write(
            f"nodes={result.stats.nodes} evaluated={result.stats.evaluated} "
            f"pieces={result.stats.pieces} wall_time={result.stats.wall_time:.3f}s\n"
        )
    return 0


def _cmd_enumerate(args, out) -> int:
    if args.limit is not None and args.limit < 0:
        raise ParameterError(f"--limit must be >= 0, got {args.limit}")
    config = SearchConfig(k=args.k, prune_level=args.prune)
    with _out_file(args.out, out) as sink:
        for diagram in islice(enumerate_diagrams(config), args.limit):
            sink.write(json.dumps(diagram.to_json()) + "\n")
    return 0


def _cmd_cofacets(args, out) -> int:
    diagram = _diagram_from_args(args)
    fast = count_cofacets(diagram)
    slow = oracle_count_cofacets(diagram) if args.oracle else None
    if args.format == "json":
        payload = {"diagram": diagram.to_json(), "cofacets": fast}
        if slow is not None:
            payload["oracle"] = slow
        out.write(json.dumps(payload) + "\n")
    else:
        out.write(f"{fast}\n")
        if slow is not None:
            out.write(f"oracle: {slow}\n")
    if slow is not None and slow != fast:
        sys.stderr.write(
            "cofacet counters disagree: "
            + json.dumps({"diagram": diagram.to_json(), "fast": fast, "oracle": slow})
            + "\n"
        )
        return CHECK_FAILED
    return 0


def _cmd_check(args, out) -> int:
    diagram = _diagram_from_args(args)
    report = validate(diagram, args.k)
    if args.format == "json":
        out.write(json.dumps(report.to_json()) + "\n")
    else:
        flags = report.to_json()
        for name in ("P1", "P2", "P3", "P4", "N", "S"):
            mark = "pass" if flags[name] else "FAIL"
            where = report.first_violations.get(name)
            suffix = "" if where is None else f" (first violation at {where})"
            out.write(f"{name}: {mark}{suffix}\n")
        out.write(f"dimension: {report.dimension}\n")
    return 0


def _cmd_bound(args, out) -> int:
    report = bounds_mod.evaluate_bound(args.name, d=args.d, n=args.n, k=args.k, j=args.j)
    if args.format == "json":
        out.write(json.dumps(report.to_json()) + "\n")
    else:
        out.write(f"{report.value}\n")
    return 0


def _cmd_construct(args, out) -> int:
    if args.kind in EXAMPLE_BUILDERS:
        if args.k is None:
            raise ParameterError(f"construct {args.kind} needs --k")
        diagram = EXAMPLE_BUILDERS[args.kind](args.k)
        out.write(json.dumps(diagram.to_json()) + "\n")
        return 0
    if args.kind == "join":
        pairs = [_parse_pair(text) for text in args.pair]
        if len(pairs) < 2:
            raise ParameterError("join needs at least two --pair operands")
        result = pairs[0]
        for other in pairs[1:]:
            result = join(result, other)
    elif args.kind == "pyramid":
        pairs = [_parse_pair(text) for text in args.pair]
        if len(pairs) != 1:
            raise ParameterError("pyramid needs exactly one --pair operand")
        result = pyramid(pairs[0])
    else:  # family
        if args.m is None or args.n is None:
            raise ParameterError("family needs --m and --n")
        result = recursive_family(args.m, args.n)
    out.write(json.dumps(result.to_json()) + "\n")
    return 0


def _cmd_verify(args, out) -> int:
    rows = verify_theorem1(args.kmax, prune_level=args.prune, jobs=args.jobs)
    failed = False
    out.write("k  searched  closed_form  match\n")
    for row in rows:
        mark = "yes" if row["match"] else "NO"
        out.write(f"{row['k']}  {row['searched']}  {row['closed_form']}  {mark}\n")
        if not row["match"]:
            failed = True
            sys.stderr.write("mismatch witness: " + json.dumps(row["witnesses"]) + "\n")

    # golden diagrams: the three example families at k = 2, figure counts
    golden = [
        ("example1", 2, 18, 12),
        ("example2", 2, 12, 8),
        ("example3", 2, 14, 7),
    ]
    out.write("diagram  cofacets  vertices  match\n")
    for name, k, want_f, want_v in golden:
        diagram = EXAMPLE_BUILDERS[name](k)
        got_f = count_cofacets(diagram)
        got_v = diagram.vertex_count
        ok = (got_f, got_v) == (want_f, want_v)
        out.write(f"{name}  {got_f}  {got_v}  {'yes' if ok else 'NO'}\n")
        if not ok:
            failed = True
            sys.stderr.write(
                "golden mismatch: " + json.dumps(diagram.to_json()) + "\n"
            )
    return CHECK_FAILED if failed else 0


_HANDLERS = {
    "delta3": _cmd_delta3,
    "enumerate": _cmd_enumerate,
    "cofacets": _cmd_cofacets,
    "check": _cmd_check,
    "bound": _cmd_bound,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        if getattr(args, "jobs", 1) is None:  # delta3 or verify without --jobs
            args.jobs = _default_jobs()
        code = _HANDLERS[args.command](args, sys.stdout)
        sys.stdout.flush()  # a failed write surfaces here, not at exit
        return code
    except CounterexampleError as exc:
        sys.stderr.write(
            "conjecture counterexample: "
            + json.dumps(
                {
                    "diagram": exc.diagram.to_json(),
                    "cofacets": exc.cofacets,
                    "vertices": exc.vertices,
                }
            )
            + "\n"
        )
        return CHECK_FAILED
    except (ParameterError, OracleSizeError) as exc:  # too big for the oracle is bad input
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except DiagramError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return CHECK_FAILED
    except OSError as exc:
        # the reader closed the pipe, having taken what it wanted, or a write
        # failed (a full disk): point stdout at the null device so that the
        # flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return 0
        sys.stderr.write(f"error: {exc}\n")
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
