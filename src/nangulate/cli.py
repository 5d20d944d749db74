"""Command line entry point.

Subcommands mirror the engine operations; every command emits a JSON report
(sorted keys, so identical inputs and seeds give byte-identical output) and
a short text rendering derived from it.

Exit codes: 0 pass, 1 axiom/membership failure, 2 input error,
3 unsupported regime, 4 resource limit (the bimodule syzygy budget),
5 internal error.
"""

from __future__ import annotations

import argparse
import sys

from .linalg import field_by_name
from .algebras import AlgebraError
from .structure import (
    UnsupportedRegime,
    algebra_radical,
    is_selfinjective,
    is_semisimple,
    primitive_idempotents,
)
from .bimodules import ResourceBudgetExceeded, bimodule_syzygy, detect_twist
from .builders import dual_numbers
from .complexes import ComplexError, is_exact, mapping_cone, rotate_left, rotate_right, z1
from .engine import EngineError, RefusedContext, build_context, r_u_complex
from .verify import local_ring_existence, unit_equivalence_table, verify_axioms
from . import io as nio

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5


def _emit(report, out_path=None):
    text = nio.dumps(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def cmd_algebra_check(args):
    data = nio.load_json_file(args.algebra)
    try:
        A = nio.algebra_from_json(data)
    except nio.FormatError as exc:
        msg = str(exc)
        report = {"ok": False, "error": msg}
        _emit(report, args.out)
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_INPUT
    idems = primitive_idempotents(A)
    report = {
        "ok": True,
        "field": A.field.name,
        "dim": A.dim,
        "associative": True,
        "selfinjective": is_selfinjective(A),
        "semisimple": is_semisimple(A),
        "radical_dim": algebra_radical(A).nrows,
        "idempotents": [[A.field.fmt(c) for c in e] for e in idems],
    }
    _emit(report, args.out)
    print(
        f"dim {A.dim} over {A.field.name}: selfinjective: "
        f"{str(report['selfinjective']).lower()}, semisimple: {str(report['semisimple']).lower()}",
        file=sys.stderr,
    )
    return EXIT_PASS


def cmd_syzygy(args):
    data = nio.load_json_file(args.algebra)
    A = nio.algebra_from_json(data)
    chain = bimodule_syzygy(A, args.n, budget=args.budget)
    env = chain.env
    twist = detect_twist(env, chain.top)
    report = {
        "n": args.n,
        "syzygy_dim": chain.top.dim,
        "step_dims": chain.dims(),
        "twist": None
        if twist is None
        else {
            "matrix": nio.mat_to_json(twist.sigma.mat),
            "order": twist.sigma.order(),
        },
    }
    _emit(report, args.out)
    if twist is None:
        print(f"Omega^{args.n} has dimension {chain.top.dim}; twist: none", file=sys.stderr)
    else:
        kind = "identity" if twist.sigma.is_identity() else "nontrivial"
        print(f"Omega^{args.n} is a twisted bimodule; twist: {kind}, order {report['twist']['order']}", file=sys.stderr)
    return EXIT_PASS


def _build_ctx_from_args(args):
    data = nio.load_json_file(args.algebra)
    A = nio.algebra_from_json(data)
    unit = None
    if getattr(args, "unit", None) is not None:
        unit = tuple(A.field.mul(A.field.of_int(args.unit), c) for c in A.unit)
    return build_context(A, args.n, args.mode, unit=unit, force=getattr(args, "force", False))


def cmd_angulate(args):
    ctx = _build_ctx_from_args(args)
    report = nio.context_to_json(ctx)
    _emit(report, args.out)
    print(f"context built: mode {ctx.mode}, n = {ctx.n}", file=sys.stderr)
    return EXIT_PASS


def cmd_check_angle(args):
    ctx = nio.context_from_json(nio.load_json_file(args.context))
    X = nio.complex_from_json(ctx.algebra, nio.load_json_file(args.angle))
    cert = ctx.check_membership(X)
    report = {
        "member": cert.verdict,
        "reason": cert.reason,
        "exact": is_exact(X),
        "dims": list(X.dims()),
    }
    _emit(report, args.out)
    return EXIT_PASS if cert.verdict else EXIT_FAIL


def cmd_rotate(args):
    data = nio.load_json_file(args.angle)
    A = nio.algebra_from_json(nio.load_json_file(args.algebra))
    X = nio.complex_from_json(A, data)
    Y = rotate_right(X) if args.direction == "right" else rotate_left(X)
    _emit(nio.complex_to_json(Y), args.out)
    return EXIT_PASS


def cmd_cone(args):
    A = nio.algebra_from_json(nio.load_json_file(args.algebra))
    X = nio.complex_from_json(A, nio.load_json_file(args.source))
    Y = nio.complex_from_json(A, nio.load_json_file(args.target))
    phi = nio.chain_map_from_json(X, Y, nio.load_json_file(args.chain_map))
    C = mapping_cone(phi)
    _emit(nio.complex_to_json(C), args.out)
    return EXIT_PASS


def cmd_lift(args):
    ctx = nio.context_from_json(nio.load_json_file(args.context))
    A = ctx.algebra
    X = nio.complex_from_json(A, nio.load_json_file(args.source))
    Y = nio.complex_from_json(A, nio.load_json_file(args.target))
    MX, _ = z1(ctx._twist_first(X))
    MY, _ = z1(ctx._twist_first(Y))
    h = nio.module_map_from_json(MX, MY, nio.load_json_file(args.kernel_map))
    lifted = ctx.lift_morphism(h, X, Y)
    report = {
        "chain_map": nio.chain_map_to_json(lifted),
        "cone_member": ctx.check_membership(mapping_cone(lifted)).verdict,
    }
    _emit(report, args.out)
    return EXIT_PASS


def cmd_verify(args):
    ctx = nio.context_from_json(nio.load_json_file(args.context))
    report = verify_axioms(ctx, samples=args.samples, seed=args.seed)
    _emit(report.to_dict(), args.out)
    for name in ("N1a", "N1b", "N1c", "N2", "N3", "N4"):
        entry = report.axioms[name]
        status = "pass" if entry["pass"] else "FAIL"
        print(f"{name}: {status} ({entry['instances']} instances)", file=sys.stderr)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_localring(args):
    field = field_by_name(f"F{args.field}")
    A = dual_numbers(field)
    exists = local_ring_existence(args.field, args.n)
    unit = tuple(field.mul(field.of_int(args.unit), c) for c in A.unit)
    report = {
        "field": field.name,
        "n": args.n,
        "unit": args.unit,
        "exists": exists,
    }
    if not exists:
        report["reason"] = "n odd and 2p != 0"
    if exists or args.force:
        ctx = build_context(A, args.n, "local-ring", unit=unit, force=args.force)
        gen = r_u_complex(A, unit, args.n)
        report["generator"] = nio.complex_to_json(gen)
        table = unit_equivalence_table(A, args.n)
        units = sorted({u for u, _ in table})
        report["unit_equivalences"] = {
            str(u): {str(v): table[(u, v)] for v in units} for u in units
        }
        if args.verify_samples:
            rep = verify_axioms(ctx, samples=args.verify_samples, seed=args.seed)
            report["axioms"] = rep.to_dict()["axioms"]
            report["axioms_pass"] = rep.passed
    _emit(report, args.out)
    if exists:
        print(f"n-angulation exists for n = {args.n} over {field.name}[x]/(x^2)", file=sys.stderr)
    else:
        print(f"no n-angulation (n odd, 2p != 0) for n = {args.n} over {field.name}[x]/(x^2)", file=sys.stderr)
    if not exists and not args.force:
        return EXIT_PASS  # the verdict itself is the answer
    if args.verify_samples and not report.get("axioms_pass", True):
        return EXIT_FAIL
    return EXIT_PASS


def make_parser():
    parser = argparse.ArgumentParser(
        prog="nangulate",
        description="Exact-arithmetic workbench for n-angulations of projective module categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra-check", help="validate an algebra file and report its structure")
    p.add_argument("algebra")
    p.add_argument("--out")
    p.set_defaults(func=cmd_algebra_check)

    p = sub.add_parser("syzygy", help="bimodule syzygy dimensions and the detected twist")
    p.add_argument("algebra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_syzygy)

    p = sub.add_parser("angulate", help="build an angulation context and persist it")
    p.add_argument("algebra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["quasi-periodic", "local-ring", "semisimple"], required=True)
    p.add_argument("--unit", type=int)
    p.add_argument("--force", action="store_true", help="build negative-control contexts past refusals")
    p.add_argument("--out")
    p.set_defaults(func=cmd_angulate)

    p = sub.add_parser("check-angle", help="membership of a periodic complex in a context")
    p.add_argument("context")
    p.add_argument("angle")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_angle)

    p = sub.add_parser("rotate", help="rotate a periodic complex")
    p.add_argument("algebra")
    p.add_argument("angle")
    p.add_argument("--direction", choices=["left", "right"], default="left")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser("cone", help="mapping cone of a chain map")
    p.add_argument("algebra")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("chain_map")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("lift", help="lift a kernel-level map to a chain map")
    p.add_argument("context")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("kernel_map")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify", help="run the axiom suite on a context")
    p.add_argument("context")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("localring", help="existence table and class data for F_p[x]/(x^2)")
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--unit", type=int, default=1)
    p.add_argument("--force", action="store_true")
    p.add_argument("--verify-samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_localring)

    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (nio.FormatError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RefusedContext, UnsupportedRegime) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ResourceBudgetExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (EngineError, AlgebraError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ComplexError as exc:
        # io turns malformed input into FormatError, so a ComplexError that
        # gets here is a broken invariant, not a verdict on the input
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
