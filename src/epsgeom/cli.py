"""Command-line front end: parse inputs, dispatch, emit deterministic JSON.

One binary, subcommand style.  Every invocation prints a single JSON
object with the resolved session configuration echoed first, then either
the result or a coded error.  Exit codes: 0 success, 1 domain error,
2 usage error.  A value that starts with "-", such as -3*eps or -i, which
argparse alone reads as an option, binds to the flag before it when that
flag takes a value, as --flag=value, and otherwise to the subcommand's
positional, as if it came after "--", as does a value that starts with
"--" but abbreviates none of the subcommand's options, such as --3.  "--"
is still needed before a positional value that starts with "-h" or
abbreviates an option, and "=" after an abbreviated flag.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from .errors import CorpusMismatch, EpsgeomError, InvalidInput
from .groebner import (
    Ideal,
    MonomialOrder,
    buchberger,
    contraction,
    ideal_member,
    radical_member,
    syzygy_basis,
)
from .levicivita import INF, LCNumber, TruncationOrder, lc_classify, lc_st
from .parser import (
    _parse_list,
    format_gaussian,
    format_lc,
    format_poly,
    parse_generators,
    parse_lc,
    parse_point,
    parse_poly,
)
from .poly import max_abs_normalize, poly_shadow
from .shadow import (
    PointAssignment,
    VarietyPresentation,
    newton_puiseux_lift,
    open_shadow_witness,
    reduce_on_variety,
    verify_shadow_closure,
)
from .transfer import (
    PolyMatrix,
    exactness_transfer_check,
    flatness_witness,
    kernel_extension_check,
    tensor_iso_check,
)
from .varieties import (
    FamilySpec,
    RationalMap,
    build_family,
    domain_witness_report,
    family_checks,
    is_point_ideal,
)

DATA_DIR = Path(__file__).resolve().parent / "data"


@dataclass(frozen=True)
class SessionConfig:
    """Run-wide knobs, echoed into every JSON output for reproducibility.

    Each field is a config-file key and a flag of every subcommand: its name
    with "-" for "_" (truncation_order, --truncation-order) unless its
    metadata names the flag.  Its type converts the raw text.
    """

    truncation_order: Fraction = Fraction(16)
    monomial_order: str = field(default="grevlex", metadata={"flag": "--order"})
    seed: int = 0
    power_bound: int = 6

    def to_json(self):
        return {k: str(v) if isinstance(v, Fraction) else v for k, v in vars(self).items()}

    def order(self):
        return MonomialOrder.from_name(self.monomial_order)


_DEFAULT_CONFIG = SessionConfig()


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # a fixed width, so the help text does not depend on the terminal
        formatter = functools.partial(argparse.HelpFormatter, width=80)
        super().__init__(formatter_class=formatter, **kwargs)

    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        # -h/--help: the text becomes the result of the one JSON line
        raise _HelpRequested(self.format_help())


class _CommandParser(_Parser):
    """A subcommand's parser, which binds values that start with "-" as the
    module docstring says."""

    def __init__(self, **kwargs):
        # whether each option string takes a value; "--" ends the options
        self.takes_value = {"--": False}
        self.has_positional = False
        super().__init__(**kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.takes_value.update(dict.fromkeys(action.option_strings, action.nargs != 0))
        self.has_positional = self.has_positional or not action.option_strings
        return action

    def parse_known_args(self, args=None, namespace=None):
        rest, dashed = [], []
        for k, value in enumerate(args):
            if value == "--":
                rest += args[k:]
                break
            if value.startswith("-") and value.partition("=")[0] not in self.takes_value:
                if rest and self.takes_value.get(rest[-1]):
                    rest[-1] += "=" + value
                    continue
                # a token that starts with "-h", or with "--" and abbreviates
                # an option, such as --trunc, stays an option
                if self.has_positional and not self._names_option(value):
                    dashed.append(value)
                    continue
            rest.append(value)
        added = bool(dashed) and "--" not in rest
        namespace, extras = super().parse_known_args(rest + ["--"] * added + dashed, namespace)
        if added and "--" in extras:
            # the positional was given, so the dashed values are extras
            extras.remove("--")
        return namespace, extras

    def _names_option(self, value):
        if value.startswith("--"):
            head = value.partition("=")[0]
            return any(s.startswith(head) for s in self.takes_value)
        return value[:2] in self.takes_value


@functools.cache
def _build_parser():
    """The argument parser, built on first use and shared after that.

    parse_args keeps its state in the namespace it returns and never changes
    the parser, so threads can share it.
    """
    p = _Parser(prog="epsgeom", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, _, arguments in _COMMANDS:
        q = sub.add_parser(name)
        for f in fields(SessionConfig):
            q.add_argument(f.metadata.get("flag", "--" + f.name.replace("_", "-")), dest=f.name)
        q.add_argument("--config")
        for argument in arguments:
            if isinstance(argument, str):
                # a positional, or an option that must be given
                argument = argument, {"required": True} if argument.startswith("-") else {}
            q.add_argument(argument[0], **argument[1])
    return p


def _resolve_config(ns):
    types = {f.name: f.type for f in fields(SessionConfig)}
    values = {}
    if ns.config:
        try:
            text = Path(ns.config).read_text()
        except OSError as ex:
            raise _UsageError("cannot read config file: %s" % ex) from None
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError("config line %d is not key=value" % lineno)
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in types:
                raise _UsageError("unknown config key: %s" % key)
            values[key] = val
    # flags win over the file; a key left unset keeps its default
    values.update((f, getattr(ns, f)) for f in types if getattr(ns, f) is not None)
    parsed = {}
    for f, convert in types.items():
        if f not in values:
            continue
        try:
            parsed[f] = convert(values[f])
            if f == "monomial_order":
                MonomialOrder.from_name(parsed[f])
        except (ValueError, ZeroDivisionError, EpsgeomError):
            raise _UsageError("bad config value: %s = %s" % (f, values[f])) from None
    config = SessionConfig(**parsed)
    if config.truncation_order <= 0:
        raise _UsageError("truncation order must be positive")
    if config.power_bound < 0:
        raise _UsageError("power bound must be nonnegative")
    return config


# --- argument parsing helpers -------------------------------------------------


def _parse_gaussian(text):
    x = parse_lc(text)
    st = x.standard_part()
    if x != LCNumber.from_gaussian(st):
        raise InvalidInput("expected a standard value, got %s" % format_lc(x))
    return st


def _parse_matrix(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as ex:
        raise InvalidInput("matrix must be JSON: %s" % ex) from None
    ok = isinstance(data, list) and all(
        isinstance(r, list) and all(isinstance(e, str) for e in r)
        for r in data
    )
    if not ok:
        raise InvalidInput("matrix must be a JSON array of rows of strings")
    return PolyMatrix.from_strings(data)


def _point_json(point):
    return {"z%d" % v: format_lc(point[v]) for v in point.support()}


def _frac_str(v):
    return "inf" if v == INF else str(v)


# --- subcommand handlers ------------------------------------------------------


def _cmd_st(config, ns):
    return format_gaussian(lc_st(parse_lc(ns.expr)))


def _cmd_classify(config, ns):
    valuation, label = lc_classify(parse_lc(ns.expr))
    return {"valuation": _frac_str(valuation), "label": label}


def _cmd_shadow_poly(config, ns):
    return format_poly(poly_shadow(parse_poly(ns.expr)))


def _cmd_normalize(config, ns):
    return format_poly(max_abs_normalize(parse_poly(ns.expr)))


def _cmd_reduce_on_variety(config, ns):
    f = parse_poly(ns.poly)
    gens = parse_generators(ns.variety)
    if ns.ambient:
        try:
            ambient = tuple(
                int(chunk) for chunk in ns.ambient.split(",") if chunk.strip()
            )
        except ValueError:
            raise InvalidInput(
                "--ambient %s: expected comma-separated variable indices"
                % ns.ambient
            ) from None
    else:
        seen = set(f.support())
        for g in gens:
            seen.update(g.support())
        ambient = tuple(sorted(seen))
    r = reduce_on_variety(f, VarietyPresentation(ambient, gens))
    return {
        "all_of_x": r.all_of_x,
        "poly": None if r.all_of_x else format_poly(r.poly),
        "iterations": r.iterations,
    }


def _cmd_lift(config, ns):
    f = parse_poly(ns.poly)
    xi = newton_puiseux_lift(
        f, parse_lc(ns.at), TruncationOrder(config.truncation_order)
    )
    v = xi.support()[0]
    residual = xi.value.valuation()
    return {
        "variable": "z%d" % v,
        "root": format_lc(xi[v]),
        "residual_valuation": _frac_str(residual),
    }


def _cmd_open_witness(config, ns):
    f = parse_poly(ns.poly)
    at = PointAssignment(parse_point(ns.at))
    w = open_shadow_witness(f, at, seed=config.seed)
    return {
        "point": _point_json(w),
        "value": format_lc(w.value),
    }


def _cmd_verify_closure(config, ns):
    return verify_shadow_closure(
        _parse_list(ns.roots, parse_lc), TruncationOrder(config.truncation_order)
    )


def _cmd_groebner(config, ns):
    basis = buchberger(parse_generators(ns.ideal), config.order())
    return [format_poly(g) for g in basis]


def _cmd_member(config, ns):
    ideal = Ideal(parse_generators(ns.ideal))
    return ideal_member(parse_poly(ns.poly), ideal)


def _cmd_radical_member(config, ns):
    ideal = Ideal(parse_generators(ns.ideal))
    return radical_member(parse_poly(ns.poly), ideal)


def _cmd_contract(config, ns):
    ideal = Ideal(parse_generators(ns.ideal))
    return [format_poly(g) for g in contraction(ideal, ns.keep).generators]


def _cmd_syzygy(config, ns):
    b = syzygy_basis(parse_generators(ns.row), config.order())
    return {
        "coefficients": [format_poly(g) for g in b.coefficients],
        "generators": [
            [format_poly(x) for x in v] for v in b.generators
        ],
    }


def _cmd_point_ideal(config, ns):
    r = is_point_ideal(parse_generators(ns.ideal))
    return {
        "point": None if r.point is None else _point_json(r.point),
        "reason": r.reason,
    }


def _cmd_domain_witness(config, ns):
    dens = parse_generators(ns.denominators)
    phi = RationalMap.from_denominators(dens)
    return domain_witness_report(phi, len(dens))


def _family_spec(ns):
    return FamilySpec(_parse_list(ns.parameters, _parse_gaussian), include_extra=ns.extra)


def _cmd_family_build(config, ns):
    spec = _family_spec(ns)
    return {
        "family": spec.to_json(),
        "generators": [format_poly(g) for g in build_family(spec)],
    }


def _cmd_family_check(config, ns):
    return family_checks(_family_spec(ns), power_bound=config.power_bound)


def _cmd_flat_witness(config, ns):
    r = flatness_witness(
        parse_generators(ns.row), parse_generators(ns.solution)
    )
    return [format_poly(g) for g in r]


def _cmd_kernel_check(config, ns):
    return kernel_extension_check(_parse_matrix(ns.matrix))


def _cmd_exact_check(config, ns):
    return exactness_transfer_check(
        _parse_matrix(ns.first), _parse_matrix(ns.second)
    )


def _cmd_tensor_check(config, ns):
    return tensor_iso_check(_parse_matrix(ns.matrix))


def _cmd_corpus(config, ns):
    path = Path(ns.fixtures) if ns.fixtures else DATA_DIR / "corpus.json"
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as ex:
        raise InvalidInput("cannot load fixtures: %s" % ex) from None
    cases = data["cases"]
    for case in cases:
        if case["argv"] and case["argv"][0] == "corpus":
            raise InvalidInput("corpus fixtures cannot invoke corpus")

    def run_case(case):
        code, out = run_command(list(case["argv"]))
        return {"name": case["name"], "exit": code, "output": out}

    # --threads is accepted for compatibility; a GIL-bound pool was no faster
    results = [run_case(c) for c in cases]

    if ns.write_golden:
        payload = {
            "cases": [
                {
                    "name": c["name"],
                    "argv": list(c["argv"]),
                    "exit": r["exit"],
                    "output": r["output"],
                }
                for c, r in zip(cases, results)
            ]
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return {"written": len(results), "path": str(path)}

    mismatched = [
        c["name"]
        for c, r in zip(cases, results)
        if c.get("exit") != r["exit"] or c.get("output") != r["output"]
    ]
    if mismatched:
        raise CorpusMismatch(
            "%d of %d fixtures diverged: %s"
            % (len(mismatched), len(results), ", ".join(mismatched))
        )
    return {"total": len(results), "matched": len(results)}


# Each subcommand: its name, its handler and the arguments it adds to the
# config flags, in order.  An argument is a positional or a required option,
# or an (option, add_argument keywords) pair.
_COMMANDS = (
    ("st", _cmd_st, ["expr"]),
    ("classify", _cmd_classify, ["expr"]),
    ("shadow-poly", _cmd_shadow_poly, ["expr"]),
    ("normalize", _cmd_normalize, ["expr"]),
    ("reduce-on-variety", _cmd_reduce_on_variety, ["--poly", "--variety", ("--ambient", {})]),
    ("lift", _cmd_lift, ["--poly", "--at"]),
    ("open-witness", _cmd_open_witness, ["--poly", "--at"]),
    ("verify-closure", _cmd_verify_closure, ["--roots"]),
    ("groebner", _cmd_groebner, ["--ideal"]),
    ("member", _cmd_member, ["--ideal", "--poly"]),
    ("radical-member", _cmd_radical_member, ["--ideal", "--poly"]),
    ("contract", _cmd_contract, ["--ideal", ("--keep", {"required": True, "type": int})]),
    ("syzygy", _cmd_syzygy, ["--row"]),
    ("point-ideal", _cmd_point_ideal, ["--ideal"]),
    ("domain-witness", _cmd_domain_witness, ["--denominators"]),
    ("family-build", _cmd_family_build, ["--parameters", ("--extra", {"action": "store_true"})]),
    ("family-check", _cmd_family_check, ["--parameters", ("--extra", {"action": "store_true"})]),
    ("flat-witness", _cmd_flat_witness, ["--row", "--solution"]),
    ("kernel-check", _cmd_kernel_check, ["--matrix"]),
    ("exact-check", _cmd_exact_check, ["--first", "--second"]),
    ("tensor-check", _cmd_tensor_check, ["--matrix"]),
    (
        "corpus",
        _cmd_corpus,
        [
            ("--threads", {"type": int, "default": 1}),
            ("--fixtures", {}),
            ("--write-golden", {"action": "store_true"}),
        ],
    ),
)
_HANDLERS = {name: handler for name, handler, _ in _COMMANDS}


def _dump(config, ok, result=None, error=None):
    body = {"config": config.to_json(), "ok": ok}
    if ok:
        body["result"] = result
    else:
        body["error"] = error
    return json.dumps(body, separators=(",", ":"))


def run_command(argv):
    """Execute one invocation; returns (exit code, JSON output line)."""
    try:
        ns = _build_parser().parse_args(list(argv))
        config = _resolve_config(ns)
    except _HelpRequested as ex:
        return 0, _dump(_DEFAULT_CONFIG, True, result=str(ex))
    except _UsageError as ex:
        return 2, _dump(
            _DEFAULT_CONFIG,
            False,
            error={"code": "usage", "message": str(ex)},
        )
    try:
        result = _HANDLERS[ns.command](config, ns)
    except EpsgeomError as ex:
        return 1, _dump(
            config, False, error={"code": ex.code, "message": str(ex)}
        )
    except Exception as ex:
        # last resort: a fault inside a command still ends in one JSON line;
        # KeyboardInterrupt and SystemExit are not Exceptions and propagate
        return 1, _dump(
            config,
            False,
            error={"code": "internal", "message": "%s: %s" % (type(ex).__name__, ex)},
        )
    return 0, _dump(config, True, result=result)


def main(argv=None):
    code, out = run_command(sys.argv[1:] if argv is None else argv)
    try:
        print(out, flush=True)
    except BrokenPipeError:
        # the reader has gone; stdout goes to devnull so that the flush at
        # interpreter shutdown does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
