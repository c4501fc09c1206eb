"""Command-line front end.

Exit codes: 0 success or property true, 1 property false, 2 usage or
input error.  Data goes to stdout and is byte-deterministic; timing goes
to stderr.  The environment variable RBX_SEED seeds any randomized
helper that callers build on top (see rng_from_env).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

from .algebras import Algebra
from .errors import NotRBError, RbxError
from .fields import PrimeField, Rationals
from .formats import (
    algebra_from_text,
    operator_from_text,
    operator_to_text,
    tensor_from_text,
    tensor_to_text,
)
from .jordan import (
    JordanSpec,
    block_pair_op,
    classify_case,
    gen_system,
    nonsplit_dim4_op,
    rank_one_split_op,
    split_dim4_op,
)
from .linalg import Subspace
from .orbits import CLAIMS, orbit_classify, verify_claim
from .rb import (
    Decomposition,
    RBOperator,
    _diagnostics,
    apply_phi,
    check_rb,
    conjugate,
    is_splitting,
    left_mult_op,
    nonsplit_weight1_op,
    rb_from_inverse_derivation,
    rb_to_triple,
    split_op,
    triple_to_rb,
    weight0_matrix_ops,
)
from .search import (
    enumerate_automorphisms,
    enumerate_automorphisms_raw,
    enumerate_derivations,
    enumerate_rb,
    enumerate_rb_raw,
)
from .ybe import (
    corner_pair_tensor,
    op_from_tensor_form,
    op_from_tensor_sandwich,
    tensor_from_op,
    trace_form,
)


def rng_from_env(default: int = 20240) -> random.Random:
    """Shared seed source: RBX_SEED overrides the fixed default."""
    return random.Random(int(os.environ.get("RBX_SEED", default)))


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_algebra(args) -> Algebra:
    if not args.algebra:
        raise RbxError("--algebra FILE is required here")
    return algebra_from_text(_read(args.algebra), allow_char2=args.allow_char2)


def _load_operator(args, a: Algebra):
    if not args.op:
        raise RbxError("--op FILE is required here")
    op, w = operator_from_text(_read(args.op), a)
    if args.weight is not None:
        w = a.field.parse(args.weight)
    return op, w


def _field_from_p(args):
    if args.p is None:
        return Rationals()
    return PrimeField(args.p, allow_char2=args.allow_char2)


def _case_tag(r: RBOperator) -> str:
    case = classify_case(r)
    if case is not None:
        return case
    rep = _diagnostics(r)
    return rep.unit_case if rep.unit_case != "not-applicable" else "none"


def _emit(text: str):
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    a = _load_algebra(args)
    op, w = _load_operator(args, a)
    if not check_rb(op, w):
        if args.format == "machine":
            print(f"rb=false weight={w}")
        else:
            print(f"not RB weight={w}")
        return 1
    r = RBOperator._verified(op, w)
    split = "true" if is_splitting(r) else "false"
    case = _case_tag(r)
    if args.format == "machine":
        print(f"rb=true weight={w} splitting={split} case={case}")
    else:
        print(f"RB weight={w} splitting={split} case={case}")
    return 0


def _parse_indices(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t != ""]


def _parse_scalars(field, text: str):
    return tuple(field.parse(t) for t in text.split(","))


def _cmd_construct(args) -> int:
    verb = args.verb
    if verb in ("ex11", "ex12"):
        r = nonsplit_dim4_op() if verb == "ex11" else split_dim4_op()
        _emit(operator_to_text(r))
        return 0
    if verb == "ex10":
        field = _field_from_p(args)
        diag = _parse_scalars(field, args.d or "1,1,1")
        spec = JordanSpec.make(field, diag, field.parse(args.weight or "1"))
        _emit(operator_to_text(block_pair_op(spec)))
        return 0
    if verb == "ex13":
        field = _field_from_p(args)
        diag = _parse_scalars(field, args.d or "1,1")
        spec = JordanSpec.make(field, diag, field.parse(args.weight or "1"))
        if args.alpha is None or args.k is None or args.l is None:
            raise RbxError("ex13 needs --alpha a0,a1,a2 --k K --l L")
        alpha = _parse_scalars(field, args.alpha)
        r = rank_one_split_op(spec, alpha, field.parse(args.k), field.parse(args.l))
        _emit(operator_to_text(r))
        return 0
    if verb in ("m1", "m2", "m3", "m4"):
        field = _field_from_p(args)
        _emit(operator_to_text(weight0_matrix_ops(field)[verb]))
        return 0
    if verb == "example14":
        field = _field_from_p(args)
        _emit(operator_to_text(nonsplit_weight1_op(field)))
        return 0
    if verb == "example16":
        field = _field_from_p(args)
        _emit(tensor_to_text(corner_pair_tensor(field)))
        return 0

    a = _load_algebra(args)
    if verb == "split":
        if args.first is None:
            raise RbxError("split needs --first i,j,... (basis indices of the first part)")
        w = a.field.parse(args.weight) if args.weight is not None else a.field.one
        chosen = set(_parse_indices(args.first))
        first = Subspace(a.field, a.dim, [a.basis_vector(i) for i in sorted(chosen)])
        second = Subspace(
            a.field, a.dim, [a.basis_vector(i) for i in range(a.dim) if i not in chosen]
        )
        r = split_op(Decomposition(a, first, second), w)
        _emit(operator_to_text(r))
        return 0
    if verb == "phi":
        op, w = _load_operator(args, a)
        if not check_rb(op, w):
            print(f"not RB weight={w}")
            return 1
        _emit(operator_to_text(apply_phi(RBOperator._verified(op, w))))
        return 0
    if verb == "conjugate":
        op, w = _load_operator(args, a)
        if args.auto is None:
            raise RbxError("conjugate needs --auto FILE with the automorphism matrix")
        psi, _ = operator_from_text(_read(args.auto), a)
        if not check_rb(op, w):
            print(f"not RB weight={w}")
            return 1
        _emit(operator_to_text(conjugate(RBOperator._verified(op, w), psi.matrix)))
        return 0
    if verb == "l-e":
        if args.element is None:
            raise RbxError("l-e needs --element c0,c1,... and --weight LAM")
        w = a.field.parse(args.weight) if args.weight is not None else a.field.one
        ev = _parse_scalars(a.field, args.element)
        op = left_mult_op(a, ev, w)
        _emit(operator_to_text(op, w))
        return 0
    if verb == "from-derivation":
        op, w = _load_operator(args, a)
        _emit(operator_to_text(rb_from_inverse_derivation(op, w)))
        return 0
    if verb == "triple-to-rb":
        # round trip through the (subalgebra, ideal, section) data of a
        # weight-0 operator and emit the rebuilt operator
        op, w = _load_operator(args, a)
        if not check_rb(op, w):
            print(f"not RB weight={w}")
            return 1
        triple = rb_to_triple(RBOperator._verified(op, w))
        _emit(operator_to_text(triple_to_rb(triple)))
        return 0
    raise RbxError(f"unknown construct verb {verb!r}")


def _cmd_convert(args) -> int:
    a = _load_algebra(args)
    if args.mode == "sandwich":
        if args.tensor is None:
            raise RbxError("sandwich mode needs --tensor FILE")
        t = tensor_from_text(_read(args.tensor), a)
        op = op_from_tensor_sandwich(t)
        _emit(operator_to_text(op, a.field.zero))
        return 0
    if args.mode == "form-trace":
        if args.tensor is None:
            raise RbxError("form-trace mode needs --tensor FILE")
        t = tensor_from_text(_read(args.tensor), a)
        op = op_from_tensor_form(t, trace_form(a))
        _emit(operator_to_text(op, a.field.zero))
        return 0
    if args.mode == "to-tensor":
        op, _w = _load_operator(args, a)
        t = tensor_from_op(op, trace_form(a))
        _emit(tensor_to_text(t))
        return 0
    raise RbxError(f"unknown convert mode {args.mode!r}")


def _cmd_gen_system(args) -> int:
    field = _field_from_p(args)
    diag = _parse_scalars(field, args.d or "1,1")
    weight = field.parse(args.weight) if args.weight is not None else field.one
    spec = JordanSpec.make(field, diag, weight)
    _emit(gen_system(spec, reduced=args.reduced).format())
    return 0


def _cmd_enumerate(args) -> int:
    a = _load_algebra(args)
    kind = args.kind
    if kind == "rb":
        w = a.field.parse(args.weight) if args.weight is not None else a.field.zero
        found = enumerate_rb_raw(a, w) if args.raw else enumerate_rb(a, w)
        print(f"enumerate algebra={a.name} weight={w} kind=rb count={len(found)}")
        for r in found:
            print(" ".join(str(c) for row in r.matrix.data for c in row))
        return 0
    if kind == "auto":
        found = enumerate_automorphisms_raw(a) if args.raw else enumerate_automorphisms(a)
        print(f"enumerate algebra={a.name} kind=auto count={len(found)}")
        for m in found:
            print(" ".join(str(c) for row in m.data for c in row))
        return 0
    if kind == "derivation":
        w = a.field.parse(args.weight) if args.weight is not None else a.field.one
        found = enumerate_derivations(a, w)
        print(f"enumerate algebra={a.name} weight={w} kind=derivation count={len(found)}")
        for d in found:
            print(" ".join(str(c) for row in d.matrix.data for c in row))
        return 0
    raise RbxError(f"unknown enumerate kind {kind!r}")


def _cmd_classify(args) -> int:
    a = _load_algebra(args)
    w = a.field.parse(args.weight) if args.weight is not None else a.field.zero
    report = orbit_classify(a, w)
    print(f"classify algebra={a.name} weight={w}")
    for line in report.lines():
        print(line)
    return 0


def _cmd_verify(args) -> int:
    claim = args.claim
    if claim is None:
        raise RbxError("--claim ID is required; known: " + " ".join(sorted(CLAIMS)))
    if claim not in CLAIMS:
        raise RbxError(f"unknown claim {claim!r}; known: " + " ".join(sorted(CLAIMS)))
    row = CLAIMS[claim]
    if args.p is not None and args.p not in row.primes:
        raise RbxError(
            f"claim {claim} is pinned to p in {sorted(row.primes)}, got {args.p}"
        )
    if args.weight is not None and args.weight != str(row.weight):
        raise RbxError(f"claim {claim} is pinned to weight {row.weight}, got {args.weight}")
    report = verify_claim(claim)
    for line in report.lines:
        print(line)
    print(("pass: " if report.ok else "fail: ") + row.phrase)
    return 0 if report.ok else 1


def _cmd_info(args) -> int:
    a = _load_algebra(args)
    print(f"algebra {a.name}")
    print(f"field={a.field!r} dim={a.dim}")
    print(f"associative={str(a.is_associative()).lower()} "
          f"commutative={str(a.is_commutative()).lower()}")
    print(f"unital={str(a.unit is not None).lower()}")
    if a.grading is not None:
        print("grading=" + " ".join(str(g) for g in a.grading))
    print(f"quadratic={str(a.quadratic is not None).lower()}")
    if a.matrix_shape is not None:
        print(f"matrix_shape={a.matrix_shape}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--algebra", help="algebra file")
    p.add_argument("--op", help="operator file")
    p.add_argument("--weight", help="weight element override")
    p.add_argument("--p", type=int, help="prime for field construction")
    p.add_argument("--allow-char2", action="store_true", help="permit characteristic 2")
    p.add_argument("--format", choices=("human", "machine"), default="human")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rbx", description="Rota-Baxter operators on structure-constant algebras"
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify an operator file against an algebra")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct", help="build named operators and tensors")
    p.add_argument(
        "verb",
        choices=(
            "split", "phi", "conjugate", "l-e", "from-derivation", "triple-to-rb",
            "ex10", "ex11", "ex12", "ex13", "m1", "m2", "m3", "m4",
            "example14", "example16",
        ),
    )
    _add_common(p)
    p.add_argument("--first", help="comma-separated basis indices of the first summand")
    p.add_argument("--auto", help="automorphism matrix file (operator format)")
    p.add_argument("--element", help="comma-separated coefficients of an element")
    p.add_argument("--d", help="comma-separated form diagonal")
    p.add_argument("--alpha", help="comma-separated isotropic vector for ex13")
    p.add_argument("--k", help="first multiplier for ex13")
    p.add_argument("--l", help="second multiplier for ex13")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("convert", help="tensor/operator conversions")
    _add_common(p)
    p.add_argument("--mode", required=True, choices=("sandwich", "form-trace", "to-tensor"))
    p.add_argument("--tensor", help="tensor file")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("gen-system", help="emit the polynomial system for a form diagonal")
    _add_common(p)
    p.add_argument("--d", help="comma-separated form diagonal (default 1,1)")
    p.add_argument("--reduced", action="store_true", help="emit the reduced system")
    p.set_defaults(func=_cmd_gen_system)

    p = sub.add_parser("enumerate", help="exhaustive search over a finite field")
    _add_common(p)
    p.add_argument("--kind", choices=("rb", "auto", "derivation"), default="rb")
    p.add_argument("--raw", action="store_true", help="filter all matrices, no pruning")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("classify", help="orbits of the enumerated operators")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "verify",
        help="run one of the fixed verification claims",
        description="Run one of the fixed verification claims. --p, if given, must be "
        "one of the claim's pinned primes, and --weight its pinned weight; the "
        "claim always runs over all of its pinned primes, whatever --p says.",
    )
    _add_common(p)
    p.add_argument("--claim", help="claim identifier")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("info", help="describe an algebra file")
    _add_common(p)
    p.set_defaults(func=_cmd_info)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except NotRBError as exc:
        print(f"not RB: {exc}", file=sys.stderr)
        return 1
    except RbxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = time.perf_counter() - start
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
