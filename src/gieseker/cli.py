"""Command line front door.

Every subcommand prints a deterministic JSON report (sorted keys, exact
rationals rendered as "p/q").  Exit codes: 0 on success, 1 on usage or parse
errors, 2 when the inputs fall outside a classification's hypotheses; the
message on standard error names the violated hypothesis.  Each report carries
a ``hypothesis`` field stating the regime the computed facts rely on.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import category_o, diagnostics, ideal_lattice, quiver_engine, torus_chambers
from .errors import RegimeError
from .partitions import (
    format_multipartition,
    format_partition,
    parse_multipartition,
)

# tokens like "-1/2" or "-3,0;1" are values, not option names
_VALUE_TOKEN = re.compile(r"^-\d[\d,;/-]*$")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _VALUE_TOKEN

    def error(self, message: str) -> None:
        raise _UsageError(message)

    def _check_value(self, action, value) -> None:
        # quote the choices on every Python build, as 3.10-3.12 do; later
        # 3.12 and 3.13 releases list them unquoted
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {choices})"
            )


def _emit(payload: dict) -> None:
    # with indent, json.dump and json.dumps run the same pure-Python encoder:
    # these are print(json.dumps(...))'s bytes, not held as one string
    json.dump(payload, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _cmd_diagnose(args) -> int:
    lam = diagnostics.parse_parameter(args.lam)
    payload = diagnostics.diagnose(args.n, args.r, lam).to_dict()
    payload["hypothesis"] = (
        "classification windows over moduli 1..n; localization tested at "
        "both signs via the parameter flip -lambda-r"
    )
    if args.cartan:
        payload["cartan_summands"] = [
            {
                "composition": list(s.composition),
                "factors": [
                    {
                        "slot": f.slot,
                        "size": f.size,
                        "lambda": diagnostics.format_parameter(f.parameter),
                        "has_findim_rep": f.has_finite_dimensional_rep,
                    }
                    for f in s.factors
                ],
            }
            for s in diagnostics.cartan_decomposition(args.n, args.r, lam)
        ]
    _emit(payload)
    return 0


def _cmd_walls(args) -> int:
    labels = torus_chambers.wall_labels(args.n, args.r)
    _emit(
        {
            "n": args.n,
            "r": args.r,
            "count": len(labels),
            "count_with_multiplicity": len(labels),
            "walls": labels,
            "hypothesis": "finite fixed locus fails exactly on these forms",
        }
    )
    return 0


def _cmd_generic(args) -> int:
    nu = torus_chambers.parse_cocharacter(args.nu)
    generic = torus_chambers.is_generic(nu, args.n)
    _emit(
        {
            "n": args.n,
            "cocharacter": torus_chambers.format_cocharacter(nu),
            "generic": generic,
            "dominant": torus_chambers.is_dominant(nu, args.n),
            "violated_walls": [
                str(w) for w in torus_chambers.violated_walls(nu, args.n)
            ],
            "hypothesis": "genericity = lying off every wall of the arrangement",
        }
    )
    return 0


def _cmd_poincare(args) -> int:
    coeffs = category_o.poincare_polynomial(args.n, args.r)
    _emit(
        {
            "n": args.n,
            "r": args.r,
            "coefficients": list(coeffs),
            "polynomial": category_o.polynomial_string(coeffs),
            "top_degree": len(coeffs) - 1,
            "top_cohomology_check": category_o._top_cohomology_holds(coeffs, args.n, args.r),
            "hypothesis": (
                "graded character of the fixed-point weights of the "
                "multipartition labels"
            ),
        }
    )
    return 0


def _cmd_supports(args) -> int:
    lam = diagnostics.parse_parameter(args.lam)
    sigma = parse_multipartition(args.sigma, args.r)
    report = category_o.support_dimension(args.n, args.r, lam, sigma)
    _emit(
        {
            "n": args.n,
            "r": args.r,
            "lambda": diagnostics.format_parameter(lam),
            "sigma": format_multipartition(report.sigma),
            "denominator": (
                "infinite" if report.denominator is None else report.denominator
            ),
            "quotient_size": report.quotient_size,
            "support_dim": report.support_dim,
            "annihilator_index": report.annihilator_index,
            "hypothesis": (
                "support formula for positive lambda with denominator m > 1 "
                "and a dominant one-parameter subgroup"
            ),
        }
    )
    return 0


def _cmd_block(args) -> int:
    lam = diagnostics.parse_parameter(args.lam)
    nu = torus_chambers.parse_cocharacter(args.nu)
    block = category_o.block_structure(args.n, args.r, lam, nu)
    _emit(
        {
            "n": block.n,
            "r": block.r,
            "lambda": diagnostics.format_parameter(lam),
            "cocharacter": torus_chambers.format_cocharacter(nu),
            "denominator": (
                "infinite" if block.denominator is None else block.denominator
            ),
            "kind": block.kind,
            "labels": (
                None
                if block.labels is None
                else [format_multipartition(s) for s in block.labels]
            ),
            "labels_ordered": block.labels_ordered,
            "finite_dim_label": (
                None
                if block.finite_dim_label is None
                else format_multipartition(block.finite_dim_label)
            ),
            "finite_dim_candidates": (
                None
                if block.finite_dim_candidates is None
                else [format_partition(p) for p in block.finite_dim_candidates]
            ),
            "note": block.note,
            "hypothesis": (
                "block classification for generic one-parameter subgroups and "
                "non-integral parameters"
            ),
        }
    )
    return 0


def _cmd_ideal_lattice(args) -> int:
    k = args.k
    op = args.op
    payload: dict = {"k": k, "op": op}

    def need(name: str, value):
        if value is None:
            raise _UsageError(f"--{name} is required for op {op!r}")
        return value

    il = ideal_lattice
    ops = {
        "normalize": lambda a: a,
        "sum-form": il.to_sum_form,
        "from-sum-form": il.to_intersection_form,
        "intersect": il.intersect,
        "sum": il.sum_,
        "product": il.product,
        "contains": il.contains,
    }
    if op == "count":
        payload["result"] = il.count_ideals(k)
    else:
        form = {"normalize": args.form, "from-sum-form": "sum"}.get(op, "intersection")
        operands = [il.parse_antichain(need("a", args.a), k, form)]
        if op in ("intersect", "sum", "product", "contains"):
            operands.append(il.parse_antichain(need("b", args.b), k))
        out = ops[op](*operands)
        if isinstance(out, bool):  # contains
            payload["result"] = out
        else:
            payload["result"], payload["form"] = out.to_lists(), out.form
    payload["hypothesis"] = (
        "two-sided ideals of the k-fold tensor power correspond to "
        "antichains of subsets of {1..k}"
    )
    _emit(payload)
    return 0


def _cmd_leaves(args) -> int:
    payload: dict = {"n": args.n, "r": args.r}
    dim_kind = "unreduced" if args.unreduced else "reduced"
    if args.r >= 2:
        payload["leaves"] = [
            {
                "collection": list(leaf),
                "dimension": ideal_lattice.leaf_dimension(
                    leaf, args.n, args.r, reduced=not args.unreduced
                ),
            }
            for leaf in ideal_lattice.enumerate_leaves(args.n, args.r)
        ]
    else:
        payload["leaves"] = None
        payload["note"] = "leaf classification requires r >= 2"
    payload["dimension_convention"] = dim_kind
    if args.lam is not None:
        lam = diagnostics.parse_parameter(args.lam)
        chain = ideal_lattice.ideal_chain(args.n, args.r, lam)
        payload["chain"] = {
            "lambda": diagnostics.format_parameter(lam),
            "denominator": (
                "infinite" if chain.denominator is None else chain.denominator
            ),
            "simple": chain.simple,
            "entries": [
                {
                    "index": e.index,
                    "leaf": list(e.leaf),
                    "variety_dim": e.variety_dim,
                }
                for e in chain.entries
            ],
        }
    payload["hypothesis"] = (
        "leaves are labeled by collections summing to at most n; the ideal "
        "chain has floor(n/m) members at finite homological dimension"
    )
    _emit(payload)
    return 0


def _cmd_model_block(args) -> int:
    if args.verify:
        payload = quiver_engine.verify_model_properties(args.N)
    else:
        a = quiver_engine.build_model_algebra(args.N)
        projectives, standards, _, tiltings = quiver_engine.model_families(a)
        payload = {
            "n_vertices": a.N,
            "algebra_dim": a.dim,
            "projective_dims": [m.total_dim for m in projectives],
            "standard_dims": [m.total_dim for m in standards],
            "tilting_dims": [m.total_dim for m in tiltings],
            "cartan_matrix": [list(p.dims) for p in projectives],
        }
    payload["hypothesis"] = (
        "bound-quiver model of the unique nontrivial block at denominator n"
    )
    _emit(payload)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="gieseker",
        description="Representation-theoretic invariants of quantized "
        "Gieseker moduli spaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("diagnose", help="parameter diagnostics")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("lam", metavar="lambda")
    p.add_argument("--cartan", action="store_true", help="include the Cartan summands")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("walls", help="wall arrangement for (n, r)")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.set_defaults(func=_cmd_walls)

    p = sub.add_parser("generic", help="genericity/dominance of a cocharacter")
    p.add_argument("n", type=int)
    p.add_argument("nu", help='cocharacter "d1,...,dr;k"')
    p.set_defaults(func=_cmd_generic)

    p = sub.add_parser("poincare", help="fixed-point Poincare polynomial")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.set_defaults(func=_cmd_poincare)

    p = sub.add_parser("supports", help="support dimension of a simple")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("lam", metavar="lambda")
    p.add_argument("--sigma", required=True, help='multipartition "a,b|c|-"')
    p.set_defaults(func=_cmd_supports)

    p = sub.add_parser("block", help="block structure of the category")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("lam", metavar="lambda")
    p.add_argument("--nu", required=True, help='cocharacter "d1,...,dr;k"')
    p.set_defaults(func=_cmd_block)

    p = sub.add_parser("ideal-lattice", help="antichain ideal calculus")
    p.add_argument("k", type=int)
    p.add_argument(
        "--op",
        required=True,
        choices=[
            "count",
            "normalize",
            "intersect",
            "sum",
            "product",
            "contains",
            "sum-form",
            "from-sum-form",
        ],
    )
    p.add_argument("--a", help="antichain as a JSON list of integer lists")
    p.add_argument("--b", help="second antichain for binary ops")
    p.add_argument(
        "--form",
        default="intersection",
        choices=["intersection", "sum"],
        help="form tag used by the normalize op",
    )
    p.set_defaults(func=_cmd_ideal_lattice)

    p = sub.add_parser("leaves", help="leaf labels, dimensions, ideal chain")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--lambda", dest="lam", default=None, metavar="lambda")
    p.add_argument(
        "--unreduced",
        action="store_true",
        help="report framed (unreduced) leaf dimensions",
    )
    p.set_defaults(func=_cmd_leaves)

    p = sub.add_parser("model-block", help="model block algebra reports")
    p.add_argument("N", type=int)
    p.add_argument(
        "--verify", action="store_true", help="run the full property checks"
    )
    p.set_defaults(func=_cmd_model_block)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RegimeError as exc:
        print(f"out of regime: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the final
        # flush at exit does not raise again (Python's signal docs, "Note on
        # SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
