"""Command-line front end; the only module that writes to stdout or disk.

Every subcommand loads its files through the schema layer, runs one
library operation, and prints either a short text report or a single
JSON document (``--json``). Output ordering is deterministic, so equal
inputs give byte-equal reports.

Exit codes: 0 success; 1 a check failed (axioms, assumptions, missing
obstruction, numerics); 2 structurally unsupported input; 3 malformed
file or flag. argparse wants to exit with 2 on bad usage, which would
collide with the unsupported-structure code, so the parser is bent to
exit with 3 instead.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Sequence

from .catalog import names as catalog_names
from .catalog import run as catalog_run
from .errors import (
    InputError,
    ObstructionRequiredError,
    OrbifusionError,
    SchemaError,
    UnsupportedStructureError,
)
from .fileio import (
    dump_json,
    fmt_float,
    graph_dot,
    is_request,
    load_graph,
    load_perm,
    load_ring,
    load_ring_doc,
    parse_request,
    parse_ring,
)
from .graphs import (
    fold_graph,
    induced_graph_symmetry,
    pf_norm,
    recognize,
    validate_symmetry,
)
from .orbifold import (
    ObstructionValue,
    OrbifoldInput,
    cyclic_action,
    global_dim_check,
    obstruction_bound,
    orbifold_sectors,
)
from .rings import fp_dimensions, require_valid, validate_ring
from .su3 import fusion_product, obstruction_m, parse_weight, weight_label

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


_PHASE = re.compile(r"^(-?\d+)/(\d+)$")


def _phase(text: str) -> ObstructionValue:
    """Parse an exact phase ``j/n``; decimals are refused on purpose."""
    m = _PHASE.match(text)
    if m is None:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an exact phase; write integers j/n, e.g. 1/2 or 2/3"
        )
    j, n = int(m.group(1)), int(m.group(2))
    if n < 1:
        raise argparse.ArgumentTypeError("the phase order n must be at least 1")
    return ObstructionValue(j % n, n)


def _emit(args, lines: list[str], doc: dict) -> None:
    if args.json:
        sys.stdout.write(dump_json(doc))
    elif lines:
        print("\n".join(lines))


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    ring = load_ring(args.ring)
    report = validate_ring(ring)
    lines = [f"ring: {ring.size} labels, {ring.nnz} stored constants"]
    failures = []
    if report.passed:
        lines.append("axioms: pass")
    else:
        for f in report.failures:
            lines.append(f"FAIL {f}")
            failures.append(
                {"axiom": f.axiom, "witnesses": [list(w) for w in f.witnesses]}
            )
    doc = {
        "labels": ring.size,
        "constants": ring.nnz,
        "passed": report.passed,
        "failures": failures,
    }
    _emit(args, lines, doc)
    return 0 if report.passed else 1


def _cmd_dims(args) -> int:
    ring = load_ring(args.ring)
    table = fp_dimensions(ring)
    lines = [f"{lab}: {fmt_float(table[i])}" for i, lab in enumerate(ring.labels)]
    lines.append(f"global: {fmt_float(table.global_dim())}")
    doc = {
        "dims": {lab: table[i] for i, lab in enumerate(ring.labels)},
        "global": table.global_dim(),
    }
    _emit(args, lines, doc)
    return 0


def _cmd_obstruction(args) -> int:
    ring = load_ring(args.ring)
    require_valid(ring)
    action = cyclic_action(ring, args.alpha)
    inp = OrbifoldInput.make(action, args.rho, loi_trivial_attested=False)
    bound = obstruction_bound(inp)
    rep = inp.assumptions
    lines = [
        f"alpha: {args.alpha}, order {action.order}",
        f"rho: {rep.rho}",
        f"m = {bound.m}",
        f"n = {bound.n}",
        f"gcd(m, n) = {bound.gcd}",
        f"verdict: {bound.verdict.value}",
    ]
    doc = {
        "alpha": args.alpha,
        "order": action.order,
        "rho": rep.rho,
        "m": bound.m,
        "n": bound.n,
        "gcd": bound.gcd,
        "verdict": bound.verdict.value,
    }
    _emit(args, lines, doc)
    return 0


def _cmd_orbifold(args) -> int:
    # a request has no top-level N, so this reads it as load_json does
    doc = load_ring_doc(args.input)
    if is_request(doc):
        if (
            args.alpha is not None
            or args.rho is not None
            or args.assume_loi_trivial
            or args.obstruction is not None
        ):
            raise InputError(
                "a request document already fixes alpha, rho, the attestation, "
                "and the obstruction; drop those flags or pass a bare ring file"
            )
        req = parse_request(doc, base=os.path.dirname(args.input) or ".")
        ring = req.ring
        alpha, rho = req.alpha, req.rho
        attested = req.loi_trivial
        explicit = req.obstruction
    else:
        ring = parse_ring(doc)
        if args.alpha is None:
            raise InputError("--alpha is required when the input is a bare ring file")
        alpha, rho = args.alpha, args.rho
        attested = args.assume_loi_trivial
        explicit = args.obstruction
    if args.perm is not None and args.graph is None:
        raise InputError("--perm only applies together with --graph")
    if args.dot is not None and args.graph is None:
        raise InputError("--dot only applies together with --graph")

    require_valid(ring)
    action = cyclic_action(ring, alpha)
    inp = OrbifoldInput.make(action, rho, attested)
    rep = inp.assumptions.require("A1", "A2", "A3")
    lines = [str(item) for item in rep.items]

    bound = obstruction_bound(inp)
    if explicit is not None:
        value = explicit
        source = "supplied"
    elif bound.certified is not None:
        value = bound.certified
        source = "certified by the gcd test"
    else:
        raise ObstructionRequiredError(
            f"gcd({bound.m}, {bound.n}) = {bound.gcd} does not "
            "certify triviality; pass --obstruction j/n or record the value in "
            "the request document"
        )
    lines.append(f"m = {bound.m}, n = {bound.n}, verdict {bound.verdict.value}")
    lines.append(f"obstruction: {value.describe()} ({source})")

    dims = fp_dimensions(ring)
    sectors = orbifold_sectors(inp, value, dims=dims)
    pieces = sum(len(fam.pieces) for fam in sectors.split)
    lines.append(
        f"sectors: merged {len(sectors.merged)}, pieces {pieces}, p = {sectors.p}"
    )
    for cls in sectors.merged:
        members = ", ".join(cls.members)
        lines.append(
            f"  {cls.representative} <- {{{members}}}  d = {fmt_float(cls.dimension)}"
        )
    for fam in sectors.split:
        tag = "  [extrapolated]" if fam.extrapolated else ""
        lines.append(
            f"  {fam.source} -> {', '.join(fam.pieces)}"
            f"  d = {fmt_float(fam.dimension)}{tag}"
        )

    code = 0
    law_doc = None
    if sectors.p == sectors.n:
        law = global_dim_check(ring, sectors)
        lines.append(str(law))
        law_doc = {
            "input_sum": law.input_sum,
            "output_sum": law.output_sum,
            "rel_error": law.rel_error,
            "passed": law.passed,
        }
        if not law.passed:
            code = 1

    graph_doc = None
    if args.graph is not None:
        graph = load_graph(args.graph)
        base_norm = pf_norm(graph)
        lines.append(
            f"graph: {len(graph.even)} even, {len(graph.odd)} odd, "
            f"pf norm {fmt_float(base_norm)}"
        )
        if not value.is_trivial:
            if args.dot is not None:
                raise InputError(
                    "--dot needs a folded graph, and a nontrivial obstruction "
                    "predicts no fold"
                )
            lines.append("no graph change predicted; folded graph not computed")
            graph_doc = {"pf_norm": base_norm, "folded": None}
        else:
            if args.perm is not None:
                sym = validate_symmetry(graph, load_perm(args.perm), action.order)
            else:
                # even vertices named by ring labels fold without a perm file
                sym = induced_graph_symmetry(
                    ring, action, graph, {v: v for v in graph.even}
                )
            folded = fold_graph(sym)
            folded_norm = pf_norm(folded)
            cls = recognize(folded)
            lines.append(
                f"folded: {len(folded.even)} even, {len(folded.odd)} odd, "
                f"pf norm {fmt_float(folded_norm)}"
            )
            lines.append(f"recognized: {cls}")
            graph_doc = {
                "pf_norm": base_norm,
                "folded": {
                    "even": list(folded.even),
                    "odd": list(folded.odd),
                    "edges": [[a, b, w] for a, b, w in folded.edges()],
                    "pf_norm": folded_norm,
                    "class": str(cls),
                },
            }
            if args.dot is not None:
                try:
                    with open(args.dot, "w", encoding="utf-8") as fh:
                        fh.write(graph_dot(folded))
                except OSError as exc:
                    raise SchemaError(f"cannot write {args.dot}: {exc}") from exc
                lines.append(f"wrote {args.dot}")

    out = {
        "assumptions": [
            {"item": it.item, "passed": it.passed, "detail": it.detail}
            for it in rep.items
        ],
        "m": bound.m,
        "n": bound.n,
        "verdict": bound.verdict.value,
        "obstruction": {"j": value.j, "n": value.n, "source": source},
        "p": sectors.p,
        "merged": [
            {
                "representative": c.representative,
                "members": list(c.members),
                "dimension": c.dimension,
            }
            for c in sectors.merged
        ],
        "split": [
            {
                "source": fam.source,
                "pieces": list(fam.pieces),
                "dimension": fam.dimension,
                "extrapolated": fam.extrapolated,
            }
            for fam in sectors.split
        ],
        "global_dim": law_doc,
        "graph": graph_doc,
    }
    _emit(args, lines, out)
    return code


def _cmd_graph_identify(args) -> int:
    graph = load_graph(args.graph)
    cls = recognize(graph)
    lines = [
        f"vertices: {len(graph.even)} even, {len(graph.odd)} odd",
        f"edges: {len(graph.edges())}",
    ]
    norm = None
    if graph.is_connected():
        norm = pf_norm(graph)
        lines.append(f"pf norm: {fmt_float(norm)}")
    lines.append(f"class: {cls}")
    doc = {
        "even": len(graph.even),
        "odd": len(graph.odd),
        "edges": len(graph.edges()),
        "pf_norm": norm,
        "class": str(cls),
    }
    _emit(args, lines, doc)
    return 0


def _cmd_graph_fold(args) -> int:
    graph = load_graph(args.graph)
    vperm = load_perm(args.perm)
    sym = validate_symmetry(graph, vperm, args.order)
    folded = fold_graph(sym)
    cls = recognize(folded)
    base_norm, folded_norm = pf_norm(graph), pf_norm(folded)
    lines = [
        f"pf norm: {fmt_float(base_norm)} -> {fmt_float(folded_norm)}",
        f"folded: {len(folded.even)} even, {len(folded.odd)} odd",
        f"class: {cls}",
    ]
    doc = {
        "even": list(folded.even),
        "odd": list(folded.odd),
        "edges": [[a, b, w] for a, b, w in folded.edges()],
        "pf_norm": folded_norm,
        "input_pf_norm": base_norm,
        "class": str(cls),
    }
    _emit(args, lines, doc)
    return 0


def _cmd_su3_fuse(args) -> int:
    x = parse_weight(args.x)
    y = parse_weight(args.y)
    doc = {weight_label(w): m for w, m in fusion_product(x, y, args.level).items()}
    lines = [f"{lab}: {m}" for lab, m in doc.items()]
    _emit(args, lines, doc)
    return 0


def _cmd_su3_m(args) -> int:
    res = obstruction_m(args.k)
    lines = [
        f"level = {res.level}",
        f"m = {res.m}",
        f"n = {res.n}",
        f"gcd(m, n) = {res.gcd}",
        f"verdict: {res.verdict.value}",
    ]
    doc = {
        "k": res.k,
        "level": res.level,
        "m": res.m,
        "n": res.n,
        "gcd": res.gcd,
        "verdict": res.verdict.value,
    }
    _emit(args, lines, doc)
    return 0


def _cmd_catalog_list(args) -> int:
    entries = catalog_names()
    _emit(args, entries, {"names": entries})
    return 0


def _cmd_catalog_run(args) -> int:
    if args.all == (args.name is not None):
        raise InputError("pass exactly one of a catalog name or --all")
    targets = catalog_names() if args.all else [args.name]
    reports = [catalog_run(name) for name in targets]
    lines: list[str] = []
    for rep in reports:
        if lines:
            lines.append("")
        lines.append(str(rep))
    doc = {"reports": [rep.to_dict() for rep in reports]}
    _emit(args, lines, doc)
    return 0 if all(rep.passed for rep in reports) else 1


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit one JSON document")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="orbifusion",
        description="fusion rings, cyclic quotients, and principal graph folds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the axioms on a ring file")
    p.add_argument("ring", help="ring JSON path")
    _json_flag(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("dims", help="Frobenius-Perron dimension table")
    p.add_argument("ring", help="ring JSON path")
    _json_flag(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("obstruction", help="gcd bound for the obstruction order")
    p.add_argument("ring", help="ring JSON path")
    p.add_argument("--alpha", required=True, help="invertible label generating the symmetry")
    p.add_argument("--rho", help="fixed self-dual label; scanned for if omitted")
    _json_flag(p)
    p.set_defaults(func=_cmd_obstruction)

    p = sub.add_parser("orbifold", help="quotient sectors, and optionally the graph fold")
    p.add_argument("input", help="ring JSON path, or a request document")
    p.add_argument("--alpha", help="invertible label generating the symmetry")
    p.add_argument("--rho", help="fixed self-dual label; scanned for if omitted")
    p.add_argument(
        "--assume-loi-trivial",
        action="store_true",
        help="assert the analytic invariant vanishes; never assumed by default",
    )
    p.add_argument(
        "--obstruction",
        type=_phase,
        metavar="j/n",
        help="explicit obstruction phase as an exact fraction of a turn",
    )
    p.add_argument("--graph", help="principal graph JSON to fold alongside")
    p.add_argument("--perm", help="vertex permutation JSON for the graph symmetry")
    p.add_argument("--dot", metavar="PATH", help="write the folded graph as DOT")
    _json_flag(p)
    p.set_defaults(func=_cmd_orbifold)

    g = sub.add_parser("graph", help="principal graph operations")
    gsub = g.add_subparsers(dest="graph_command", required=True)
    p = gsub.add_parser("identify", help="recognize a bipartite graph")
    p.add_argument("graph", help="graph JSON path")
    _json_flag(p)
    p.set_defaults(func=_cmd_graph_identify)
    p = gsub.add_parser("fold", help="fold a graph by an explicit symmetry")
    p.add_argument("graph", help="graph JSON path")
    p.add_argument("--perm", required=True, help="vertex permutation JSON")
    p.add_argument("--order", required=True, type=int, help="exact symmetry order")
    _json_flag(p)
    p.set_defaults(func=_cmd_graph_fold)

    s = sub.add_parser("su3", help="level-truncated rank-2 fusion")
    ssub = s.add_subparsers(dest="su3_command", required=True)
    p = ssub.add_parser("fuse", help="fuse two weights at a level")
    p.add_argument("--level", required=True, type=int, help="truncation level")
    p.add_argument("x", help="first weight, written a,b")
    p.add_argument("y", help="second weight, written a,b")
    _json_flag(p)
    p.set_defaults(func=_cmd_su3_fuse)
    p = ssub.add_parser("m", help="self-coupling count of the fixed weight at level 3k")
    p.add_argument("--k", required=True, type=int, help="level divided by three")
    _json_flag(p)
    p.set_defaults(func=_cmd_su3_m)

    c = sub.add_parser("catalog", help="built-in worked examples")
    csub = c.add_subparsers(dest="catalog_command", required=True)
    p = csub.add_parser("list", help="names of the built-in entries")
    _json_flag(p)
    p.set_defaults(func=_cmd_catalog_list)
    p = csub.add_parser("run", help="run one entry, or all of them")
    p.add_argument("name", nargs="?", help="catalog entry name")
    p.add_argument("--all", action="store_true", help="run every entry")
    _json_flag(p)
    p.set_defaults(func=_cmd_catalog_run)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; what is still buffered goes to
        # the null device, so that the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 1
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 3
    except UnsupportedStructureError as exc:
        print(f"unsupported structure: {exc}", file=sys.stderr)
        return 2
    except OrbifusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
