"""Command-line front end: input schema, report formats, exit codes.

Input files are UTF-8 JSON with keys p, torus_rank, root_of_unity_exponent,
weights, generators (each {perm, coeff_num, coeff_den} with 1-based
permutation image lists), optional extra_blocks (same shape per block) and an
optional split claim.  Unknown keys are rejected so golden outputs stay
bit-exact.

Exit codes: 0 success, 2 inconclusive (no certified exactness), and for
every request that gives no answer one JSON diagnostic {"error", "detail"} on
stderr, its exit code read from the error code:

    BUDGET_EXCEEDED, LIMIT_EXCEEDED  3
    any other code (BAD_INPUT, ...)  1
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from . import oracle, pipeline
from .monogrp import (
    DEFAULT_MAX_STEPS,
    EdtorusError,
    MonomialGroupPresentation,
    MonomialRep,
    RepBlock,
    character_lattice_action,
    check_rep_compatible,
    limit_steps,
    natural_rep,
    validate,
)
from .stab import generic_stabilizer
from .symrank import eta_bounds, symrank as symrank_search, weight_seed

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2
EXIT_BUDGET = 3
_EXIT_CODES = {"BUDGET_EXCEEDED": EXIT_BUDGET, "LIMIT_EXCEEDED": EXIT_BUDGET}

MAX_STEPS_ENV = "EDTORUS_MAX_STEPS"


# -- schema ---------------------------------------------------------------------

_TOP_KEYS = {"p", "torus_rank", "root_of_unity_exponent", "weights", "generators", "extra_blocks", "split"}
_GEN_KEYS = {"perm", "coeff_num", "coeff_den"}
_BLOCK_KEYS = {"weights", "generators"}


def _int(x, what: str) -> int:
    """A JSON integer; bool, float and str are rejected, never coerced."""
    if type(x) is not int:
        raise EdtorusError("BAD_INPUT", f"{what} must be an integer, got {json.dumps(x)}")
    return x


def _int_list(x, length: int, what: str) -> tuple[int, ...]:
    if not isinstance(x, list) or len(x) != length:
        raise EdtorusError("BAD_INPUT", f"{what} must be an array of {length} integers")
    return tuple(_int(v, what) for v in x)


def _object(x, keys: set, what: str) -> dict:
    if not isinstance(x, dict):
        raise EdtorusError("BAD_INPUT", f"{what} must be a JSON object")
    if set(x) - keys:
        raise EdtorusError("BAD_INPUT", f"unknown {what} keys: {sorted(set(x) - keys)}")
    return x


def _parse_weights(x, d: int) -> tuple[tuple[int, ...], ...]:
    if not isinstance(x, list) or not x:
        raise EdtorusError("BAD_INPUT", "weights must be a nonempty array of integer arrays")
    return tuple(_int_list(w, d, "each weight") for w in x)


def _parse_generators(x, num_lines: int) -> list:
    if not isinstance(x, list):
        raise EdtorusError("BAD_INPUT", "generators must be an array")
    return [_parse_generator(g, num_lines) for g in x]


def _parse_generator(obj, num_lines: int):
    obj = _object(obj, _GEN_KEYS, "generator")
    perm = _int_list(obj.get("perm"), num_lines, "perm")
    if sorted(perm) != list(range(1, num_lines + 1)):
        raise EdtorusError("BAD_INPUT", "perm must be a 1-based image list of the lines")
    num = _int_list(obj.get("coeff_num"), num_lines, "coeff_num")
    den = _int_list(obj.get("coeff_den"), num_lines, "coeff_den")
    if 0 in den:
        raise EdtorusError("BAD_INPUT", "coeff_den entries must be nonzero")
    return tuple(x - 1 for x in perm), tuple(map(_mod_one, num, den))


def _mod_one(a: int, b: int) -> tuple[int, int]:
    """a/b mod 1 in lowest terms, for b nonzero: (numerator in [0, den), den > 0)."""
    g = math.gcd(a, b) if b > 0 else -math.gcd(a, b)
    return a // g % (b // g), b // g


def _scaled(coeffs, n: int) -> tuple[tuple[int, ...], ...]:
    """Reduced fractions (a, b) in [0, 1) as integers modulo n; every denominator b must divide n."""
    bad = next((b for coeff in coeffs for _, b in coeff if n % b), None)
    if bad is not None:
        raise EdtorusError("BAD_INPUT", f"coefficient denominator {bad} does not divide e = {n}")
    return tuple(tuple(a * (n // b) for a, b in coeff) for coeff in coeffs)


def presentation_from_json(doc) -> tuple[MonomialGroupPresentation, list[RepBlock]]:
    """Parse and type-check an input document; malformed input raises EdtorusError("BAD_INPUT")."""
    if not isinstance(doc, dict):
        raise EdtorusError("BAD_INPUT", "top level must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise EdtorusError("BAD_INPUT", f"unknown keys: {sorted(unknown)}")
    for key in ("p", "torus_rank", "root_of_unity_exponent", "weights", "generators"):
        if key not in doc:
            raise EdtorusError("BAD_INPUT", f"missing key: {key}")
    p, d, e = (_int(doc[key], key) for key in ("p", "torus_rank", "root_of_unity_exponent"))
    if d < 0:
        raise EdtorusError("BAD_INPUT", f"torus_rank must be nonnegative, got {d}")
    split = doc.get("split")
    if split is not None and not isinstance(split, bool):
        raise EdtorusError("BAD_INPUT", "split must be true, false or null")
    weights = _parse_weights(doc["weights"], d)
    gens = _parse_generators(doc["generators"], len(weights))
    P = MonomialGroupPresentation(
        p=p,
        torus_rank=d,
        root_of_unity_exponent=e,
        weights=weights,
        generators=tuple(zip([g[0] for g in gens], _scaled([g[1] for g in gens], e))),
        split_claim=split,
    )
    extra = doc.get("extra_blocks", [])
    if not isinstance(extra, list):
        raise EdtorusError("BAD_INPUT", "extra_blocks must be an array")
    blocks: list[RepBlock] = []
    for block in extra:
        block = _object(block, _BLOCK_KEYS, "block")
        bweights = _parse_weights(block.get("weights"), d)
        parsed = _parse_generators(block.get("generators"), len(bweights))
        if len(parsed) != len(gens):
            raise EdtorusError("BAD_INPUT", "each block needs one action per presentation generator")
        # the block's modulus is the lcm of its reduced denominators
        modulus = math.lcm(*(b for g in parsed for _, b in g[1]))
        blocks.append(
            RepBlock(
                weights=bweights,
                gen_perms=tuple(g[0] for g in parsed),
                gen_coeffs=_scaled([g[1] for g in parsed], modulus),
                modulus=modulus,
            )
        )
    return P, blocks


def presentation_to_json(P: MonomialGroupPresentation) -> dict:
    e = P.root_of_unity_exponent
    doc = {
        "p": P.p,
        "torus_rank": P.torus_rank,
        "root_of_unity_exponent": e,
        "weights": [list(w) for w in P.weights],
        "generators": [
            {
                "perm": [x + 1 for x in perm],
                "coeff_num": [c // math.gcd(c, e) for c in coeff],
                "coeff_den": [e // math.gcd(c, e) for c in coeff],
            }
            for perm, coeff in P.generators
        ],
    }
    if P.split_claim is not None:
        doc["split"] = P.split_claim
    return doc


def load_presentation(path: str, rep_selector: str) -> tuple[MonomialGroupPresentation, MonomialRep]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise EdtorusError("BAD_INPUT", f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, over-long integers, deep nesting too
        raise EdtorusError("BAD_INPUT", f"invalid JSON in {path}: {exc}") from exc
    P, blocks = presentation_from_json(doc)
    rep = natural_rep(P)
    if rep_selector == "full" and blocks:
        rep = MonomialRep(presentation=P, blocks=rep.blocks + tuple(blocks))
    return P, rep


# -- report serialization ---------------------------------------------------------


def jsonable(report):
    """A report as JSON values: a dataclass's field names are its keys, a matrix is its rows."""
    if isinstance(report, (tuple, list)):
        return [jsonable(x) for x in report]
    if dataclasses.is_dataclass(report):
        return {f.name: jsonable(getattr(report, f.name)) for f in dataclasses.fields(report)}
    return report


def jsonable_stabilizer(report) -> dict:
    """The one flattened report: its keys are computed from StabilizerReport's fields."""
    return {
        "torus_part_invariant_factors": list(report.torus_part.invariant_factors),
        "component_image_size": len(report.component_image),
        "component_image_indices": list(report.component_image),
        "p_rank": report.p_rank,
        "p_faithful": report.p_faithful,
        "p_generically_free": report.p_generically_free,
        "stabilizer_order": report.stabilizer_order,
    }


def emit(doc, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        return
    _emit_table(doc, out)


def _emit_table(doc, out, indent: str = "") -> None:
    if isinstance(doc, dict):
        width = max((len(str(k)) for k in doc), default=0)
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, (dict, list)) and v and not _is_scalar_list(v):
                out.write(f"{indent}{k}:\n")
                _emit_table(v, out, indent + "  ")
            else:
                out.write(f"{indent}{str(k).ljust(width)}  {_scalar(v)}\n")
    elif isinstance(doc, list):
        for item in doc:
            if isinstance(item, (dict, list)) and not _is_scalar_list(item):
                _emit_table(item, out, indent + "  ")
                out.write("\n" if indent == "" else "")
            else:
                out.write(f"{indent}- {_scalar(item)}\n")
    else:
        out.write(f"{indent}{_scalar(doc)}\n")


def _is_scalar_list(v) -> bool:
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _scalar(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, list):
        return "[" + ", ".join(_scalar(x) for x in v) + "]"
    return str(v)


# -- command handlers --------------------------------------------------------------


def _cmd_validate(args, out) -> int:
    P, _ = load_presentation(args.input, "natural")
    report = validate(P)
    emit(jsonable(report), args.format, out)
    return EXIT_OK if report.ok else _EXIT_CODES.get(report.error, EXIT_INVALID)


def _cmd_stabilizer(args, out) -> int:
    P, rep = load_presentation(args.input, args.rep)
    report = generic_stabilizer(P, rep)
    emit(jsonable_stabilizer(report), args.format, out)
    return EXIT_OK


def _cmd_symrank(args, out) -> int:
    P, _ = load_presentation(args.input, "natural")
    L = character_lattice_action(P)
    res = symrank_search(L, P.p, B=args.bound, initial_witness=weight_seed(P))
    emit(jsonable(res), args.format, out)
    return EXIT_OK if res.status == "EXACT" else EXIT_INCONCLUSIVE


def _cmd_eta(args, out) -> int:
    P, rep = load_presentation(args.input, args.rep)
    res = eta_bounds(P, rep if args.rep != "none" else None, B=args.bound)
    emit(jsonable(res), args.format, out)
    return EXIT_OK if res.exact is not None else EXIT_INCONCLUSIVE


def _ed_from_args(args):
    if args.target[0] == "case":
        rest = args.target[1:]
        try:
            nums = [int(x) for x in rest[1:]]
        except ValueError:
            raise EdtorusError("BAD_INPUT", f"case arguments must be integers: {' '.join(rest[1:])}") from None
        if len(rest) == 3 and rest[0] == "sl":
            return pipeline.ed_case_sl(*nums)
        if len(rest) == 2 and rest[0] == "so":
            return pipeline.ed_case_so(*nums)
        raise EdtorusError("BAD_INPUT", "usage: ed case sl <n> <p> | ed case so <n>")
    if len(args.target) != 1:
        raise EdtorusError("BAD_INPUT", "usage: ed <input.json> | ed case ...")
    P, rep = load_presentation(args.target[0], args.rep)
    return pipeline.essential_p_dimension(P, rep)


def _cmd_ed(args, out) -> int:
    report = _ed_from_args(args)
    emit(jsonable(report), args.format, out)
    return EXIT_OK if report.exact is not None else EXIT_INCONCLUSIVE


def _cmd_case(args, out) -> int:
    if args.family == "sl":
        case = pipeline.sln_case(args.n, args.p)
        doc = {
            "family": "sl",
            "n": case.n,
            "p": case.p,
            "case": case.label,
            "h_description": case.h_description,
            "presentation": presentation_to_json(case.presentation),
        }
    else:
        case = pipeline.so_case(args.n)
        doc = {
            "family": "so",
            "n": case.n,
            "h_description": case.h_description,
            "notes": list(case.notes),
            "presentation": presentation_to_json(case.presentation),
        }
    emit(doc, args.format, out)
    return EXIT_OK


def _cmd_table(args, out) -> int:
    if args.family == "sl":
        rows = pipeline.table_sl(args.nmax, args.p)
    else:
        rows = pipeline.table_so(args.nmax)
    emit(rows, args.format, out)
    return EXIT_OK


def _cmd_oracle(args, out) -> int:
    if args.kind == "stab":
        P, rep = load_presentation(args.input, args.rep)
        # input validation only: the oracle's own computation stays independent
        check_rep_compatible(P, rep)
        report = oracle.ff_stabilizer(P, rep, q=args.q, trials=args.trials, seed=args.seed)
        emit(jsonable(report), args.format, out)
        return EXIT_OK
    if args.kind == "symrank":
        P, _ = load_presentation(args.input, "natural")
        L = character_lattice_action(P)
        value = oracle.symrank_bruteforce(L, P.p, args.bound)
        emit({"value": value, "search_bound": args.bound}, args.format, out)
        return EXIT_OK
    if args.kind == "sylow":
        report = oracle.sylow_abelian_bound_check(args.d, args.p)
        doc = {
            "max_order": report.max_order,
            "bound": report.bound,
            "passed": report.passed,
            "witness_size": len(report.witness),
        }
        emit(doc, args.format, out)
        return EXIT_OK if report.passed else EXIT_INCONCLUSIVE
    raise EdtorusError("BAD_INPUT", "unknown oracle kind")


class _Parser(argparse.ArgumentParser):
    """A malformed command line is BAD_INPUT (exit 1): argparse's exit 2 reads as INCONCLUSIVE."""

    def error(self, message):
        raise EdtorusError("BAD_INPUT", f"{self.prog}: {message}")


def _env_max_steps() -> int:
    """The default step limit: EDTORUS_MAX_STEPS, read afresh at every call, else DEFAULT_MAX_STEPS."""
    env_steps = os.environ.get(MAX_STEPS_ENV)
    try:
        return int(env_steps) if env_steps else DEFAULT_MAX_STEPS
    except ValueError:
        raise EdtorusError("BAD_INPUT", f"{MAX_STEPS_ENV} must be an integer, got {env_steps!r}") from None


class _Lazy:
    """A subcommand's parser, built by `build` when argparse first uses it, to
    parse the rest of an argv.  So a process builds only the parsers on the
    command paths it runs, while each family still lists all its members in
    help, usage and "invalid choice"."""

    def __init__(self, build, **kwargs):
        self._build, self._kwargs = build, kwargs

    @functools.cached_property
    def _parser(self) -> argparse.ArgumentParser:
        parser = _Parser(**self._kwargs)
        self._build(parser)
        return parser

    def __getattr__(self, name):
        return getattr(self._parser, name)


def _arg(*flags, **kwargs):
    return flags, kwargs


_INPUT = _arg("input")
_REP = _arg("--rep", choices=("natural", "full"), default="full")
_BOUND = _arg("-B", "--bound", type=int, default=None)
_COMMON = (_arg("--format", choices=("table", "json"), default="table"), _arg("--max-steps", type=int, default=None))


def _leaf(fn, *args):
    """What sets up a command's parser: its arguments in help order, then the options every command takes."""

    def build(parser):
        for flags, kwargs in args + _COMMON:
            parser.add_argument(*flags, **kwargs)
        parser.set_defaults(fn=fn)

    return build


def _family(dest, members):
    """What sets up a family's parser: its members, {name: (help or None, their set-up)} in help order."""

    def build(parser):
        subs = parser.add_subparsers(dest=dest, required=True, parser_class=_Lazy)
        for name, (summary, member) in members.items():
            subs.add_parser(name, build=member, **({"help": summary} if summary else {}))

    return build


_COMMANDS = _family("command", {
    "validate": ("check a presentation file", _leaf(_cmd_validate, _INPUT)),
    "stabilizer": ("generic stabilizer of a representation", _leaf(_cmd_stabilizer, _INPUT, _REP)),
    "symrank": ("symmetric p-rank of the character lattice", _leaf(_cmd_symrank, _INPUT, _BOUND)),
    "eta": (
        "minimal p-faithful dimension bounds",
        _leaf(_cmd_eta, _INPUT, _arg("--rep", choices=("natural", "full", "none"), default="full"), _BOUND),
    ),
    "ed": (
        "essential p-dimension report",
        _leaf(_cmd_ed, _arg("target", nargs="+", help="<input.json> or: case sl <n> <p> | case so <n>"), _REP),
    ),
    "case": ("emit a case-study presentation", _family("family", {
        "sl": (None, _leaf(_cmd_case, _arg("n", type=int), _arg("p", type=int))),
        "so": (None, _leaf(_cmd_case, _arg("n", type=int))),
    })),
    "table": ("case-study tables against the closed forms", _family("family", {
        "sl": (None, _leaf(_cmd_table, _arg("nmax", type=int), _arg("p", type=int))),
        "so": (None, _leaf(_cmd_table, _arg("nmax", type=int))),
    })),
    "oracle": ("independent brute-force checks", _family("kind", {
        "stab": (None, _leaf(_cmd_oracle, _INPUT, _REP, _arg("-q", type=int, default=None),
                             _arg("--trials", type=int, default=50), _arg("--seed", type=int, default=0))),
        "symrank": (None, _leaf(_cmd_oracle, _INPUT, _arg("-B", "--bound", type=int, default=3))),
        "sylow": (None, _leaf(_cmd_oracle, _arg("d", type=int), _arg("p", type=int))),
    })),
})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built at the first call and shared by every later one, so it holds no
    per-request state; each command's parser is built at its first request."""
    parser = _Parser(
        prog="edtorus",
        description="essential p-dimension of torus extensions presented by monomial generators",
    )
    _COMMANDS(parser)
    return parser


def main(argv=None) -> int:
    args = None
    try:
        default_steps = _env_max_steps()
        args = build_parser().parse_args(argv)
        args.max_steps = default_steps if args.max_steps is None else args.max_steps
        if args.max_steps < 0:
            raise EdtorusError("BAD_INPUT", f"the step budget (--max-steps or {MAX_STEPS_ENV}) must be >= 0")
        with limit_steps(args.max_steps):
            return args.fn(args, sys.stdout)
    except MemoryError:  # named by its parsed command path, such as "oracle stab"
        words = (getattr(args, dest, None) for dest in ("command", "family", "kind"))
        code, detail = "BUDGET_EXCEEDED", f"{' '.join(filter(None, words))}: out of memory"
    except EdtorusError as exc:
        code, detail = exc.code, exc.detail
    sys.stderr.write(json.dumps({"error": code, "detail": detail}, sort_keys=True) + "\n")
    return _EXIT_CODES.get(code, EXIT_INVALID)

if __name__ == "__main__":
    sys.exit(main())
