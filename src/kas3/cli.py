"""Command-line front end: every pipeline stage behind one binary with JSON I/O."""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from ._util import canonical_json, int_text
from .algebra import BinaryCode, fold_enumerator, parse_polynomial, weight_enumerator
from .core import (
    build_config_doc,
    cycle_space_weight_enumerator,
    find_edge_tripartition,
    parse_config_doc,
)
from .errors import SchemaError, ToolkitError
from .gadgets import (
    make_matching_triangular_triangle,
    make_s5,
    make_tunnel,
    tripartite_reduction,
)
from .kasteleyn_construct import (
    build_T,
    certify_trivial_signing,
    matrix_from_doc,
    strong_matching_bijection_check,
)
from .lattice import cubic_lattice, dimer_polynomial, embed_T
from .tensor3 import (
    Tensor3,
    RectMatrixTriple,
    binet_cauchy_C,
    binet_cauchy_rhs,
    check_binet_cauchy_shape,
    determinant3,
    encode_ring_value,
    kasteleyn_sign_via_k1,
    permanent3,
    triadjacency,
)


@dataclass(frozen=True)
class CommandResult:
    status: int
    payload: dict
    summary: str


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit, or bytes that are not UTF-8
        raise SchemaError(f"cannot read {path} as JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested past the interpreter's recursion limit
        raise SchemaError(f"{path} is nested too deeply to read as JSON") from exc


def _value_text(value) -> str:
    if isinstance(value, int):
        return int_text(value)
    return value.to_text()


_GADGET_MAKERS = {
    "tunnel": make_tunnel,
    "s5": make_s5,
    "mtt": make_matching_triangular_triangle,
}


def _cmd_gadget(args) -> CommandResult:
    gadget = _GADGET_MAKERS[args.kind](certify=args.certify)
    payload = gadget.to_doc()
    lines = [
        f"{args.kind}: {len(gadget.config.edge_ids)} edges, "
        f"{len(gadget.config.triangle_ids)} triangles, {len(gadget.ends)} ends"
    ]
    if args.certify:
        payload["certificate"] = gadget.certificate_doc()
        passed = sum(1 for c in gadget.certificate if c.passed)
        lines.append(f"certificate: {passed}/{len(gadget.certificate)} checks passed")
        for check in gadget.certificate:
            mark = "ok" if check.passed else "FAIL"
            detail = f" ({check.detail})" if check.detail else ""
            lines.append(f"  [{mark}] {check.name}{detail}")
    return CommandResult(0, payload, "\n".join(lines))


def _cmd_reduce(args) -> CommandResult:
    config, weights, _, _ = parse_config_doc(_load_json(args.config))
    result = tripartite_reduction(config, weights)
    payload = result.to_doc()
    summary = (
        f"reduced: {len(config.triangle_ids)} triangles -> "
        f"{len(result.config.triangle_ids)} triangles, "
        f"{len(result.config.edge_ids)} edges, tripartition attached"
    )
    return CommandResult(0, payload, summary)


def _cmd_per3(args) -> CommandResult:
    tensor = Tensor3.from_doc(_load_json(args.tensor))
    value = permanent3(tensor)
    return CommandResult(0, {"value": encode_ring_value(value)}, _value_text(value))


def _cmd_det3(args) -> CommandResult:
    tensor = Tensor3.from_doc(_load_json(args.tensor))
    value = determinant3(tensor)
    return CommandResult(0, {"value": encode_ring_value(value)}, _value_text(value))


def _cmd_triadj(args) -> CommandResult:
    config, weights, edge_classes, _ = parse_config_doc(_load_json(args.config))
    if edge_classes is None:
        edge_classes = find_edge_tripartition(config)
        if edge_classes is None:
            raise ToolkitError("configuration is not edge-tripartite")
    tensor, axes = triadjacency(config, edge_classes, weights)
    payload = {"tensor": tensor.to_doc(), "axes": [list(axis) for axis in axes]}
    summary = f"tensor side {tensor.cube_side} with {len(tensor.entries)} entries"
    return CommandResult(0, payload, summary)


def _cmd_kasteleyn_build(args) -> CommandResult:
    matrix = matrix_from_doc(_load_json(args.matrix))
    tc = build_T(matrix)
    payload = {
        "m": tc.m,
        "config": build_config_doc(tc.config, vertex_classes=tc.vertex_classes),
        "tensor": tc.tensor.to_doc(),
        "support_edges": [list(e) for e in tc.edge_list],
    }
    lines = [
        f"side m = {tc.m} (= 2n + |E| = 2*{tc.n} + {len(tc.edge_list)}), "
        f"{len(tc.config.triangle_ids)} triangles"
    ]
    if args.certify:
        signing = certify_trivial_signing(tc)
        bijection = strong_matching_bijection_check(tc)
        payload["certification"] = {
            "trivial_signing": signing.to_doc(),
            "strong_matching_bijection": bijection.to_doc(),
        }
        lines.append(
            f"trivial signing: {'ok' if signing.passed else 'FAIL'} "
            f"({signing.contributing_pairs} contributing pairs)"
        )
        lines.append(
            f"matching bijection: {'ok' if bijection.passed else 'FAIL'} "
            f"({bijection.graph_matchings} <-> {bijection.strong_matchings})"
        )
        if not (signing.passed and bijection.passed):
            return CommandResult(1, payload, "\n".join(lines))
    return CommandResult(0, payload, "\n".join(lines))


def _cmd_sign_k1(args) -> CommandResult:
    tensor = Tensor3.from_doc(_load_json(args.tensor))
    outcome = kasteleyn_sign_via_k1(tensor)
    if outcome is None:
        return CommandResult(
            0,
            {"certified": False},
            "not certified: a projection graph has no Pfaffian signing",
        )
    signed, sign1, sign2 = outcome
    payload = {
        "certified": True,
        "tensor": signed.to_doc(),
        "sign1": [[a, b, s] for (a, b), s in sorted(sign1.items())],
        "sign2": [[a, c, s] for (a, c), s in sorted(sign2.items())],
    }
    return CommandResult(0, payload, "certified: determinant of resigned tensor equals permanent")


def _cmd_lattice(args) -> CommandResult:
    lattice = cubic_lattice(args.a, args.b, args.c)
    if args.export_off:
        emb = embed_T(lattice)
        text = emb.to_off()
        try:
            Path(args.export_off).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise SchemaError(f"cannot write {args.export_off}: {exc}") from exc
        payload = {
            "dims": list(lattice.dims),
            "off_path": args.export_off,
            "vertices": len(emb.coordinates),
            "faces": len(emb.construction.config.triangle_ids),
        }
        return CommandResult(
            0, payload, f"wrote {payload['vertices']} vertices, {payload['faces']} faces"
        )
    if args.dimers:
        poly = dimer_polynomial(lattice)
        count = poly(1)
        payload = {
            "dims": list(lattice.dims),
            "count": count,
            "polynomial": poly.to_text(),
            "odd_vertices": lattice.vertex_count % 2 == 1,
        }
        return CommandResult(0, payload, str(count))
    payload = {
        "dims": list(lattice.dims),
        "vertices": lattice.vertex_count,
        "edges": lattice.edge_count,
    }
    return CommandResult(
        0, payload, f"{payload['vertices']} vertices, {payload['edges']} edges"
    )


def _cmd_code_wenum(args) -> CommandResult:
    code = BinaryCode.from_doc(_load_json(args.code))
    poly = weight_enumerator(code)
    payload = {"k": code.k, "n": code.n, "enumerator": poly.to_text()}
    return CommandResult(0, payload, poly.to_text())


def _cmd_fold(args) -> CommandResult:
    poly = parse_polynomial(args.poly)
    folded = fold_enumerator(poly, args.e)
    return CommandResult(0, {"folded": folded.to_text()}, folded.to_text())


def _cmd_kernel_wenum(args) -> CommandResult:
    config, _, _, _ = parse_config_doc(_load_json(args.config))
    poly = cycle_space_weight_enumerator(config, args.p)
    return CommandResult(0, {"p": args.p, "enumerator": poly.to_text()}, poly.to_text())


def _cmd_bc_check(args) -> CommandResult:
    rng = random.Random(args.seed)
    r, n = args.r, args.n
    if r < 1 or n < r:
        raise SchemaError(f"need 1 <= r <= n, got r={r}, n={n}")
    check_binet_cauchy_shape(r, n)
    draw = lambda: [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
    triple = RectMatrixTriple.from_rows(draw(), draw(), draw())
    lhs = determinant3(binet_cauchy_C(triple))
    rhs = binet_cauchy_rhs(triple)
    payload = {
        "r": r,
        "n": n,
        "seed": args.seed,
        "lhs": encode_ring_value(lhs),
        "rhs": encode_ring_value(rhs),
        "equal": lhs == rhs,
    }
    summary = f"det of contracted tensor = {_value_text(lhs)}; subset sum = {_value_text(rhs)}"
    return CommandResult(0 if lhs == rhs else 1, payload, summary)


class _Parser(argparse.ArgumentParser):
    """A parser whose argument errors are schema errors (exit 2, one JSON error), not usage on stderr.

    Subparsers are made with the class of their parent, so they raise too.
    """

    def error(self, message: str):
        raise SchemaError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="print the JSON payload")
    parser = _Parser(
        prog="kas3",
        description="Exact matchings, 3-matrix permanents/determinants and dimer counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gadget", parents=[common], help="emit a certified building block")
    p.add_argument("kind", choices=sorted(_GADGET_MAKERS))
    p.add_argument("--certify", action="store_true")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("reduce", parents=[common], help="tripartite matching-preserving rewrite")
    p.add_argument("config")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("per3", parents=[common], help="permanent of a 3-matrix")
    p.add_argument("tensor")
    p.set_defaults(func=_cmd_per3)

    p = sub.add_parser("det3", parents=[common], help="determinant of a 3-matrix")
    p.add_argument("tensor")
    p.set_defaults(func=_cmd_det3)

    p = sub.add_parser("triadj", parents=[common], help="edge-adjacency tensor of a configuration")
    p.add_argument("config")
    p.set_defaults(func=_cmd_triadj)

    p = sub.add_parser("kasteleyn", parents=[], help="matrix-to-tensor constructions")
    ksub = p.add_subparsers(dest="kasteleyn_command", required=True)
    pb = ksub.add_parser("build", parents=[common])
    pb.add_argument("matrix")
    pb.add_argument("--certify", action="store_true")
    pb.set_defaults(func=_cmd_kasteleyn_build)

    p = sub.add_parser(
        "sign-k1",
        parents=[common],
        help='resign via projection-graph signings; a sufficient test: "not certified" does not mean "not Kasteleyn"',
    )
    p.add_argument("tensor")
    p.set_defaults(func=_cmd_sign_k1)

    p = sub.add_parser("lattice", parents=[common], help="cubic lattice dimers and export")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--dimers", action="store_true")
    group.add_argument("--export-off", metavar="PATH")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("code", parents=[], help="binary-code operations")
    csub = p.add_subparsers(dest="code_command", required=True)
    pw = csub.add_parser("wenum", parents=[common])
    pw.add_argument("code")
    pw.set_defaults(func=_cmd_code_wenum)

    p = sub.add_parser("fold", parents=[common], help="halve exponent residues of a polynomial")
    p.add_argument("poly")
    p.add_argument("--e", type=int, required=True)
    p.set_defaults(func=_cmd_fold)

    p = sub.add_parser("kernel-wenum", parents=[common], help="GF(p) cycle-space enumerator")
    p.add_argument("config")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_kernel_wenum)

    p = sub.add_parser("bc-check", parents=[common], help="random Binet-Cauchy identity check")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bc_check)

    return parser


def _execute(argv: list[str]) -> tuple[CommandResult, bool]:
    """Parse and execute: the result, and whether the command line asked for JSON."""
    try:
        args = _parser().parse_args(argv)
        return args.func(args), args.json
    except SchemaError as exc:
        return CommandResult(
            2, {"error": {"type": "schema", "message": str(exc)}}, f"schema error: {exc}"
        ), True
    except ToolkitError as exc:
        return CommandResult(
            1, {"error": {"type": "operation", "message": str(exc)}}, f"error: {exc}"
        ), True


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def run(argv: list[str]) -> CommandResult:
    """Parse and execute; the entry point tests drive directly."""
    return _execute(argv)[0]


def main(argv: list[str] | None = None) -> int:
    result, as_json = _execute(sys.argv[1:] if argv is None else argv)
    if result.status != 0 or as_json:
        print(canonical_json(result.payload))
    else:
        print(result.summary)
    return result.status


if __name__ == "__main__":
    sys.exit(main())
