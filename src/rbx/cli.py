"""Command-line front end.

Exit codes: 0 success or property true, 1 property false, 2 usage or
input error.  Data goes to stdout and is byte-deterministic; timing goes
to stderr.  Each subcommand, and each construct verb, accepts only the
options its handler reads (COMMANDS and VERBS); any other option is a
usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .algebras import Algebra
from .errors import NotRBError, RbxError
from .fields import PrimeField, Rationals, bounded_int
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
from .residues import pack_columns
from .search import (
    IntAlgebra,
    _automorphism_columns,
    _automorphisms_raw,
    _derivations,
    _rb_raw,
    _rb_search,
)
from .ybe import (
    corner_pair_tensor,
    op_from_tensor_form,
    op_from_tensor_sandwich,
    tensor_from_op,
    trace_form,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_algebra(args) -> Algebra:
    if not args.algebra:
        raise RbxError("--algebra FILE is required here")
    return algebra_from_text(_read(args.algebra), allow_char2=args.allow_char2)


def _weight(args, field, default):
    return field.parse(args.weight) if args.weight is not None else default


def _read_operator(args, a: Algebra):
    if not args.op:
        raise RbxError("--op FILE is required here")
    return operator_from_text(_read(args.op), a)


def _load_operator(args, a: Algebra):
    """The --op operator with its weight, which --weight overrides."""
    op, w = _read_operator(args, a)
    return op, _weight(args, a.field, w)


def _checked_rb(op, w) -> RBOperator | None:
    """The operator if it is Rota-Baxter; otherwise print why not."""
    if check_rb(op, w):
        return RBOperator._verified(op, w)
    print(f"not RB weight={w}")
    return None


def _field_from_p(args):
    if args.p is None:
        return Rationals()
    return PrimeField(args.p, allow_char2=args.allow_char2)


def _jordan_spec(args, diagonal: str) -> JordanSpec:
    field = _field_from_p(args)
    diag = _parse_scalars(field, args.d or diagonal)
    return JordanSpec.make(field, diag, _weight(args, field, field.one))


def _case_tag(r: RBOperator) -> str:
    case = classify_case(r)
    if case is not None:
        return case
    rep = _diagnostics(r)
    return rep.unit_case if rep.unit_case != "not-applicable" else "none"


def _emit(text: str) -> int:
    """Print a command's result; returns its exit code, 0."""
    sys.stdout.write(text)
    return 0


def _parse_scalars(field, text: str):
    return tuple(field.parse(t) for t in text.split(","))


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


def _cmd_convert(args) -> int:
    if args.mode == "to-tensor":
        if args.tensor is not None:
            raise RbxError("--tensor does not apply to --mode to-tensor")
    elif args.op is not None:
        raise RbxError(f"--op does not apply to --mode {args.mode}")
    a = _load_algebra(args)
    if args.mode == "to-tensor":
        op, _w = _read_operator(args, a)
        return _emit(tensor_to_text(tensor_from_op(op, trace_form(a))))
    if args.tensor is None:
        raise RbxError(f"{args.mode} mode needs --tensor FILE")
    t = tensor_from_text(_read(args.tensor), a)
    if args.mode == "sandwich":
        op = op_from_tensor_sandwich(t)
    else:
        op = op_from_tensor_form(t, trace_form(a))
    return _emit(operator_to_text(op, a.field.zero))


def _cmd_gen_system(args) -> int:
    return _emit(gen_system(_jordan_spec(args, "1,1"), reduced=args.reduced).format())


def _cmd_enumerate(args) -> int:
    kind = args.kind
    if args.raw and kind == "derivation":
        raise RbxError("--raw applies to --kind rb and auto only")
    if args.weight is not None and kind == "auto":
        raise RbxError("--weight does not apply to --kind auto")
    a = _load_algebra(args)
    head = f"enumerate algebra={a.name}"
    # every listing is checked residue columns, sorted row-major
    if kind == "auto":
        found = _automorphisms_raw(a) if args.raw else _automorphism_columns(a)
    else:
        if kind == "rb":
            w = _weight(args, a.field, a.field.zero)
            found = _rb_raw(a, w)[1] if args.raw else _rb_search(a, w)[2]
        else:
            w = _weight(args, a.field, a.field.one)
            found = _derivations(IntAlgebra(a), w.value)
        head += f" weight={w}"
    print(f"{head} kind={kind} count={len(found)}")
    for cols in found:
        print(" ".join(map(str, pack_columns(cols, a.dim))))
    return 0


def _cmd_classify(args) -> int:
    a = _load_algebra(args)
    w = _weight(args, a.field, a.field.zero)
    report = orbit_classify(a, w)
    print(f"classify algebra={a.name} weight={w}")
    for line in report.lines():
        print(line)
    return 0


def _cmd_verify(args) -> int:
    """Run one of the fixed verification claims. --p, if given, must be one
    of the claim's pinned primes, and --weight its pinned weight; the claim
    always runs over all of its pinned primes, whatever --p says."""
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
# construct verbs
# ---------------------------------------------------------------------------


def _basis_index(token: str, dim: int) -> int:
    error = f"--first {token!r} is not a basis index in 0..{dim - 1}"
    if not token.strip().isdecimal():
        raise RbxError(error)
    index = bounded_int(token.strip(), error, len(str(dim)))
    if index >= dim:
        raise RbxError(error)
    return index


def _verb_split(args) -> int:
    a = _load_algebra(args)
    if args.first is None:
        raise RbxError("split needs --first i,j,... (basis indices of the first part)")
    w = _weight(args, a.field, a.field.one)
    chosen = {_basis_index(t, a.dim) for t in args.first.split(",") if t != ""}
    first = Subspace(a.field, a.dim, [a.basis_vector(i) for i in sorted(chosen)])
    second = Subspace(
        a.field, a.dim, [a.basis_vector(i) for i in range(a.dim) if i not in chosen]
    )
    return _emit(operator_to_text(split_op(Decomposition(a, first, second), w)))


def _verb_phi(args) -> int:
    a = _load_algebra(args)
    r = _checked_rb(*_load_operator(args, a))
    return 1 if r is None else _emit(operator_to_text(apply_phi(r)))


def _verb_conjugate(args) -> int:
    a = _load_algebra(args)
    op, w = _load_operator(args, a)
    if args.auto is None:
        raise RbxError("conjugate needs --auto FILE with the automorphism matrix")
    psi, _ = operator_from_text(_read(args.auto), a)
    r = _checked_rb(op, w)
    return 1 if r is None else _emit(operator_to_text(conjugate(r, psi.matrix)))


def _verb_l_e(args) -> int:
    a = _load_algebra(args)
    if args.element is None:
        raise RbxError("l-e needs --element c0,c1,... and --weight LAM")
    w = _weight(args, a.field, a.field.one)
    ev = _parse_scalars(a.field, args.element)
    return _emit(operator_to_text(left_mult_op(a, ev, w), w))


def _verb_from_derivation(args) -> int:
    a = _load_algebra(args)
    return _emit(operator_to_text(rb_from_inverse_derivation(*_load_operator(args, a))))


def _verb_triple_to_rb(args) -> int:
    # round trip through the (subalgebra, ideal, section) data of a
    # weight-0 operator and emit the rebuilt operator
    a = _load_algebra(args)
    r = _checked_rb(*_load_operator(args, a))
    return 1 if r is None else _emit(operator_to_text(triple_to_rb(rb_to_triple(r))))


def _verb_ex10(args) -> int:
    return _emit(operator_to_text(block_pair_op(_jordan_spec(args, "1,1,1"))))


def _verb_ex11(args) -> int:
    return _emit(operator_to_text(nonsplit_dim4_op()))


def _verb_ex12(args) -> int:
    return _emit(operator_to_text(split_dim4_op()))


def _verb_ex13(args) -> int:
    spec = _jordan_spec(args, "1,1")
    if args.alpha is None or args.k is None or args.l is None:
        raise RbxError("ex13 needs --alpha a0,a1,a2 --k K --l L")
    f = spec.field
    r = rank_one_split_op(spec, _parse_scalars(f, args.alpha), f.parse(args.k), f.parse(args.l))
    return _emit(operator_to_text(r))


def _verb_m1_to_m4(args) -> int:
    return _emit(operator_to_text(weight0_matrix_ops(_field_from_p(args))[args.verb]))


def _verb_example14(args) -> int:
    return _emit(operator_to_text(nonsplit_weight1_op(_field_from_p(args))))


def _verb_example16(args) -> int:
    return _emit(tensor_to_text(corner_pair_tensor(_field_from_p(args))))


# ---------------------------------------------------------------------------
# argument wiring: each handler with the options it reads
# ---------------------------------------------------------------------------


OPTIONS = {
    "algebra": {"help": "algebra file"},
    "op": {"help": "operator file"},
    "weight": {"help": "weight element override"},
    "p": {"type": int, "help": "prime for field construction"},
    "allow-char2": {"action": "store_true", "help": "permit characteristic 2"},
    "format": {"choices": ("human", "machine"), "default": "human"},
    "mode": {"required": True, "choices": ("sandwich", "form-trace", "to-tensor")},
    "tensor": {"help": "tensor file"},
    "d": {"help": "comma-separated form diagonal"},
    "reduced": {"action": "store_true", "help": "emit the reduced system"},
    "kind": {"choices": ("rb", "auto", "derivation"), "default": "rb"},
    "raw": {"action": "store_true", "help": "filter all matrices, no pruning (rb, auto)"},
    "claim": {"help": "claim identifier"},
    "first": {"help": "comma-separated basis indices of the first summand"},
    "auto": {"help": "automorphism matrix file (operator format)"},
    "element": {"help": "comma-separated coefficients of an element"},
    "alpha": {"help": "comma-separated isotropic vector for ex13"},
    "k": {"help": "first multiplier for ex13"},
    "l": {"help": "second multiplier for ex13"},
}

# subcommand: (handler, options, help); construct's options follow its verb
COMMANDS = {
    "check": (_cmd_check, "algebra op weight allow-char2 format",
              "verify an operator file against an algebra"),
    "construct": (None, "", "build named operators and tensors"),
    "convert": (_cmd_convert, "algebra op allow-char2 mode tensor",
                "tensor/operator conversions"),
    "gen-system": (_cmd_gen_system, "p allow-char2 d weight reduced",
                   "emit the polynomial system for a form diagonal"),
    "enumerate": (_cmd_enumerate, "algebra allow-char2 weight kind raw",
                  "exhaustive search over a finite field"),
    "classify": (_cmd_classify, "algebra allow-char2 weight",
                 "orbits of the enumerated operators"),
    "verify": (_cmd_verify, "claim p weight", "run one of the fixed verification claims"),
    "info": (_cmd_info, "algebra allow-char2", "describe an algebra file"),
}

# construct verb: (handler, options)
VERBS = {
    "split": (_verb_split, "algebra allow-char2 first weight"),
    "phi": (_verb_phi, "algebra allow-char2 op weight"),
    "conjugate": (_verb_conjugate, "algebra allow-char2 op weight auto"),
    "l-e": (_verb_l_e, "algebra allow-char2 element weight"),
    "from-derivation": (_verb_from_derivation, "algebra allow-char2 op weight"),
    "triple-to-rb": (_verb_triple_to_rb, "algebra allow-char2 op weight"),
    "ex10": (_verb_ex10, "p allow-char2 d weight"),
    "ex11": (_verb_ex11, ""),
    "ex12": (_verb_ex12, ""),
    "ex13": (_verb_ex13, "p allow-char2 d weight alpha k l"),
    **{m: (_verb_m1_to_m4, "p allow-char2") for m in ("m1", "m2", "m3", "m4")},
    "example14": (_verb_example14, "p allow-char2"),
    "example16": (_verb_example16, "p allow-char2"),
}


def _add_parser(sub, name: str, func, options: str, **keywords):
    p = sub.add_parser(name, **keywords)
    for option in options.split():
        p.add_argument("--" + option, **OPTIONS[option])
    p.set_defaults(func=func)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand and verb, built once per process."""
    top = argparse.ArgumentParser(
        prog="rbx", description="Rota-Baxter operators on structure-constant algebras"
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (func, options, help_text) in COMMANDS.items():
        # a handler's docstring is the description its --help prints
        description = func.__doc__ if func else None
        _add_parser(sub, name, func, options, help=help_text, description=description)
    verbs = sub.choices["construct"].add_subparsers(dest="verb", required=True)
    for name, (func, options) in VERBS.items():
        _add_parser(verbs, name, func, options)
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
