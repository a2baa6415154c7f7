"""The CLI is a thin client: same answers as the library, stable JSON."""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epsgeom
from epsgeom import groebner
from epsgeom.cli import _HANDLERS, DATA_DIR, SessionConfig, main, run_command
from epsgeom.gaussian import GaussianRational
from epsgeom.groebner import Ideal, MonomialOrder, buchberger, ideal_member, syzygy_basis
from epsgeom.levicivita import LCNumber, lc_classify, lc_st
from epsgeom.parser import format_gaussian, format_lc, format_poly, parse_generators, parse_lc, parse_poly
from epsgeom.poly import Monomial, Poly

DEFAULT_CONFIG = {
    "truncation_order": "16",
    "monomial_order": "grevlex",
    "seed": 0,
    "power_bound": 6,
}


def run(*argv):
    code, out = run_command(list(argv))
    return code, json.loads(out)


class TestEnvelope:
    def test_success_shape_and_key_order(self):
        code, out = run_command(["st", "3+2*eps"])
        assert code == 0
        body = json.loads(out)
        assert list(body) == ["config", "ok", "result"]
        assert list(body["config"]) == [
            "truncation_order",
            "monomial_order",
            "seed",
            "power_bound",
        ]
        assert body["config"] == DEFAULT_CONFIG
        assert body["ok"] is True
        assert body["result"] == "3"

    def test_error_shape(self):
        code, body = run("st", "3 + $")
        assert code == 1
        assert list(body) == ["config", "ok", "error"]
        assert body["ok"] is False
        assert body["error"]["code"] == "ParseError"
        assert "position" in body["error"]["message"]

    def test_output_is_compact_single_line(self):
        _, out = run_command(["classify", "eps"])
        assert "\n" not in out
        assert ": " not in out and ", " not in out

    def test_member_example(self):
        code, body = run("member", "--ideal", "z1", "--poly", "z1*z2")
        assert code == 0
        assert body["result"] is True


class TestExitCodes:
    def test_unknown_subcommand_is_usage(self):
        code, body = run("frobnicate")
        assert code == 2
        assert body["ok"] is False
        assert body["error"]["code"] == "usage"
        # usage failures still echo a config: the defaults
        assert body["config"] == DEFAULT_CONFIG

    def test_missing_required_flag_is_usage(self):
        code, body = run("member", "--ideal", "z1")
        assert code == 2
        assert body["error"]["code"] == "usage"

    def test_domain_error_from_handler(self):
        code, body = run("flat-witness", "--row", "z1; z2", "--solution", "1; 0")
        assert code == 1
        assert body["error"]["code"] == "NotASolution"

    def test_reserved_variable_is_domain_error(self):
        code, body = run("radical-member", "--ideal", "z0", "--poly", "z0")
        assert code == 1
        assert body["error"]["code"] == "ReservedVariableInUse"

    def test_bad_matrix_json(self):
        code, body = run("kernel-check", "--matrix", "not json")
        assert code == 1
        assert body["error"]["code"] == "InvalidInput"

    def test_bad_ambient_is_one_error_line(self):
        argv = ["reduce-on-variety", "--poly", "z1", "--variety", "z1"]
        code, out = run_command(argv + ["--ambient", "x"])
        assert code == 1
        assert len(out.splitlines()) == 1
        body = json.loads(out)
        assert body["ok"] is False
        assert body["error"]["code"] == "InvalidInput"
        code, body = run(*argv, "--ambient", "1,2")
        assert code == 0
        assert body["result"]["all_of_x"] is True

    def test_deep_nesting_is_one_parse_error_line(self):
        code, out = run_command(["st", "(" * 3000 + "1" + ")" * 3000])
        assert code == 1
        assert len(out.splitlines()) == 1
        body = json.loads(out)
        assert body["ok"] is False
        assert body["error"]["code"] == "ParseError"
        code, body = run("st", "(" * 100 + "1+eps" + ")" * 100)
        assert code == 0
        assert body["result"] == "1"

    @pytest.mark.parametrize(
        "argv",
        [["verify-closure", "--roots", "1; 2 + $"], ["family-check", "--parameters", "1; 2 + $"]],
        ids=["roots", "parameters"],
    )
    def test_parse_error_position_counts_from_the_start_of_the_list(self, argv):
        code, body = run(*argv)
        assert code == 1
        assert body["error"] == {"code": "ParseError", "message": "unexpected character '$' (at position 7)"}

    def test_unexpected_exception_is_internal_error(self, monkeypatch):
        def broken(config, ns):
            raise RuntimeError("boom")

        monkeypatch.setitem(_HANDLERS, "st", broken)
        code, out = run_command(["st", "1"])
        assert code == 1
        assert len(out.splitlines()) == 1
        body = json.loads(out)
        assert body["ok"] is False
        assert body["config"] == DEFAULT_CONFIG
        assert body["error"] == {"code": "internal", "message": "RuntimeError: boom"}

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupt_and_exit_propagate(self, monkeypatch, exc):
        def stop(config, ns):
            raise exc()

        monkeypatch.setitem(_HANDLERS, "st", stop)
        with pytest.raises(exc):
            run_command(["st", "1"])

    def test_point_ideal_with_eps_value(self):
        code, body = run("point-ideal", "--ideal", "z1 - eps")
        assert code == 0
        assert body["ok"] is True
        assert body["result"] == {"point": {"z1": "eps"}, "reason": ""}

    def test_point_ideal_with_infinite_series_value(self):
        # z1 = 1/(1 + eps) is not a finite Levi-Civita sum
        code, body = run("point-ideal", "--ideal", "(1+eps)*z1 - 1")
        assert code == 0
        assert body["result"] == {
            "point": None,
            "reason": "a coordinate is not a finite Levi-Civita sum",
        }

    def test_value_starting_with_minus_takes_equals_form(self):
        code, body = run("verify-closure", "--roots=-3*eps^2")
        assert code == 0
        assert body["ok"] is True
        assert body["result"]["instance"] == ["-3*eps^2"]

    def test_value_starting_with_minus_binds_to_the_flag_before_it(self):
        # argparse alone reads a separate "-3*eps^2" or "-i" as a flag
        joined = run_command(["verify-closure", "--roots=-3*eps^2"])
        assert run_command(["verify-closure", "--roots", "-3*eps^2"]) == joined
        code, body = run("lift", "--poly", "z1^2 + 1", "--at", "-i")
        assert code == 0 and body["result"]["root"] == "-i"
        # one of the subcommand's own flags is still a flag
        code, body = run("lift", "--poly", "--at", "0")
        assert code == 2
        assert body["error"]["message"] == "argument --poly: expected one argument"

    @pytest.mark.parametrize(
        "argv",
        [["st", "-3*eps"], ["classify", "-i"], ["shadow-poly", "-z1"]],
        ids=["st", "classify", "shadow-poly"],
    )
    def test_positional_value_starting_with_minus(self, argv):
        # argparse alone reads it as an unknown option and finds no positional
        code, out = run_command(argv)
        assert code == 0
        assert (code, out) == run_command([argv[0], "--", argv[1]])

    def test_positional_value_starting_with_minus_before_a_flag(self):
        code, body = run("st", "-3*eps", "--order", "lex")
        assert code == 0
        assert body["result"] == "0" and body["config"]["monomial_order"] == "lex"

    def test_positional_value_starting_with_minus_after_an_abbreviation(self):
        # a "--" token that names or abbreviates an option stays an option
        expected = run_command(["st", "--truncation-order", "4", "--", "-eps"])
        assert expected[0] == 0
        assert run_command(["st", "--trunc", "4", "-eps"]) == expected

    @pytest.mark.parametrize(
        "argv, result",
        [
            (["st", "--3"], "3"),
            (["st", "--eps"], "0"),
            (["st", "--trunc=4", "--3"], "3"),
            (["classify", "---i*--i^3*-i"], {"valuation": "0", "label": "appreciable"}),
        ],
        ids=["st", "st-eps", "st-after-an-abbreviation", "classify"],
    )
    def test_positional_value_starting_with_two_minus_signs(self, argv, result):
        # a "--" token that abbreviates none of the options is the positional
        code, body = run(*argv)
        assert code == 0 and body["result"] == result
        positional = argv[-1]
        assert run_command(argv) == run_command(argv[:-1] + ["--", positional])

    def test_mistyped_flag_reaches_the_parser(self):
        # --trunction-order abbreviates no option, so it is read as the expression
        code, body = run("st", "--trunction-order")
        assert code == 1
        assert body["error"] == {
            "code": "ParseError",
            "message": "unknown name 'trunction' (at position 2)",
        }

    def test_abbreviated_option_stays_an_option(self):
        # --tr and --trunc=4 abbreviate --truncation-order; --he abbreviates --help
        code, body = run("st", "--tr")
        assert code == 2
        assert body["error"]["message"] == "argument --truncation-order: expected one argument"
        _, body = run("st", "--trunc=4", "eps")
        assert body["config"]["truncation_order"] == "4"
        assert run_command(["st", "--he"]) == run_command(["st", "--help"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a value after a flag that takes one binds to that flag
            (["st", "--order", "-3*eps"], "the following arguments are required: expr"),
            # with the positional given, the value is an unknown argument
            (["st", "-3*eps", "2"], "unrecognized arguments: -3*eps"),
            (["st", "1", "--order", "lex", "-i"], "unrecognized arguments: -i"),
        ],
        ids=["after-a-flag", "positional-given", "positional-given-before-a-flag"],
    )
    def test_dash_values_that_stay_usage_errors(self, argv, message):
        code, body = run(*argv)
        assert code == 2
        assert body["error"] == {"code": "usage", "message": message}


SHARED_FLAGS = (
    "[--truncation-order TRUNCATION_ORDER] [--order MONOMIAL_ORDER] [--seed SEED]"
    " [--power-bound POWER_BOUND] [--config CONFIG]"
)
# each subcommand's own arguments, as its usage line lists them
OWN_ARGUMENTS = {
    "st": "expr",
    "classify": "expr",
    "shadow-poly": "expr",
    "normalize": "expr",
    "reduce-on-variety": "--poly POLY --variety VARIETY [--ambient AMBIENT]",
    "lift": "--poly POLY --at AT",
    "open-witness": "--poly POLY --at AT",
    "verify-closure": "--roots ROOTS",
    "groebner": "--ideal IDEAL",
    "member": "--ideal IDEAL --poly POLY",
    "radical-member": "--ideal IDEAL --poly POLY",
    "contract": "--ideal IDEAL --keep KEEP",
    "syzygy": "--row ROW",
    "point-ideal": "--ideal IDEAL",
    "domain-witness": "--denominators DENOMINATORS",
    "family-build": "--parameters PARAMETERS [--extra]",
    "family-check": "--parameters PARAMETERS [--extra]",
    "flat-witness": "--row ROW --solution SOLUTION",
    "kernel-check": "--matrix MATRIX",
    "exact-check": "--first FIRST --second SECOND",
    "tensor-check": "--matrix MATRIX",
    "corpus": "[--threads THREADS] [--fixtures FIXTURES] [--write-golden]",
}


class TestHelp:
    @pytest.mark.parametrize("command", ["(top level)"] + sorted(_HANDLERS))
    def test_help_is_one_json_line(self, command, capsys):
        prefix = [] if command == "(top level)" else [command]
        prog = " ".join(["epsgeom"] + prefix)
        for flag in ("-h", "--help"):
            code, out = run_command(prefix + [flag])
            assert code == 0
            assert len(out.splitlines()) == 1
            body = json.loads(out)
            assert body["ok"] is True
            assert body["config"] == DEFAULT_CONFIG
            assert body["result"].startswith("usage: %s " % prog)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", sorted(_HANDLERS))
    def test_usage_lists_shared_flags_then_own_arguments(self, command):
        _, body = run(command, "--help")
        usage = " ".join(body["result"].split("\n\n")[0].split())
        assert usage == "usage: epsgeom %s [-h] %s %s" % (command, SHARED_FLAGS, OWN_ARGUMENTS[command])

    def test_help_ignores_terminal_width(self, monkeypatch):
        outputs = set()
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            outputs.add(run_command(["kernel-check", "--help"]))
        assert len(outputs) == 1

    def test_help_wins_over_missing_flags(self):
        code, body = run("member", "--ideal", "z1", "--help")
        assert code == 0
        assert "--poly POLY" in body["result"]


class TestSharedParser:
    ARGV = (
        ["st", "3+2*eps"],
        ["classify", "eps^(-1)", "--truncation-order", "8"],
        ["member", "--ideal", "z1", "--poly", "z1*z2", "--order", "lex"],
        ["groebner", "--ideal", "z1^2 - z2; z1*z2 - 1", "--seed", "3"],
        ["st", "--order"],
        ["nope"],
        ["kernel-check", "-h"],
    )

    def test_parser_is_built_once(self, monkeypatch):
        run_command(["st", "1"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in self.ARGV:
            run_command(list(argv))
        assert built == []

    def test_threads_share_the_parser(self):
        expected = [run_command(list(argv)) for argv in self.ARGV]
        results = [[] for _ in range(8)]

        def work(out):
            for _ in range(5):
                out.append([run_command(list(argv)) for argv in self.ARGV])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(out,)) for out in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for out in results:
            assert out == [expected] * 5


class TestMatchesLibrary:
    def test_st(self):
        for text in ("3+2*eps", "1/2 - eps^(1/2)", "i + eps*i"):
            _, body = run("st", text)
            assert body["result"] == format_gaussian(lc_st(parse_lc(text)))

    def test_classify(self):
        for text, label in (("eps", "infinitesimal"), ("2", "appreciable"), ("eps^(-1)", "unlimited")):
            _, body = run("classify", text)
            v, lbl = lc_classify(parse_lc(text))
            assert body["result"] == {"valuation": str(v), "label": lbl}
            assert lbl == label

    def test_groebner(self):
        text = "z1^2 - z2; z1*z2 - 1"
        _, body = run("groebner", "--ideal", text)
        assert body["result"] == [format_poly(g) for g in buchberger(parse_generators(text))]

    def test_member_agrees(self):
        ideal = Ideal(parse_generators("z1^2"))
        _, body = run("member", "--ideal", "z1^2", "--poly", "z1")
        assert body["result"] is ideal_member(parse_poly("z1"), ideal)

    def test_syzygy(self):
        _, body = run("syzygy", "--row", "z1; z2")
        b = syzygy_basis(parse_generators("z1; z2"))
        assert body["result"]["generators"] == [
            [format_poly(x) for x in v] for v in b.generators
        ]

    def test_lift_square_root(self):
        _, body = run("lift", "--poly", "z1^2 - eps", "--at", "0")
        assert body["result"]["root"] == "eps^(1/2)"
        assert body["result"]["residual_valuation"] == "inf"

    def test_lift_square_root_past_float_range(self):
        # the radicand 10^400 is far past the largest float
        code, body = run("lift", "--poly=z1^2 - 10^400*eps^2", "--at=0")
        assert code == 0
        assert body["result"]["root"] == "%d*eps" % 10**200
        assert body["result"]["residual_valuation"] == "inf"


class TestLcFractionEngine:
    """Eps-carrying argvs run the engine's LCFraction kernel, which no corpus
    fixture and no benchmark workload reaches."""

    CASES = [
        (
            ["groebner", "--ideal=eps*z1 - 1; z1^2 - z2"],
            ["z1 - eps^(-1)", "z2 - eps^(-2)"],
        ),
        (
            ["syzygy", "--row=eps*z1; z2"],
            {"coefficients": ["eps*z1", "z2"], "generators": [["z2", "-eps*z1"]]},
        ),
        (
            # 1/(1 + eps) is a quotient with a non-unit denominator
            ["point-ideal", "--ideal=(1+eps)*z1 - 1; z2 - eps"],
            {"point": None, "reason": "a coordinate is not a finite Levi-Civita sum"},
        ),
    ]

    @pytest.mark.parametrize(
        "argv, result", CASES, ids=[argv[0] for argv, _ in CASES]
    )
    def test_result(self, argv, result, monkeypatch):
        kernel = groebner._LcKernel
        built = []

        def element(vec, lead, _element=kernel.element):
            built.append(lead)
            return _element(vec, lead)

        monkeypatch.setattr(kernel, "element", staticmethod(element))
        code, body = run(*argv)
        assert code == 0
        assert body["result"] == result
        assert built


class TestConfig:
    def test_flag_overrides_default(self):
        _, body = run("st", "eps", "--truncation-order", "8", "--seed", "3")
        assert body["config"]["truncation_order"] == "8"
        assert body["config"]["seed"] == 3

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text("truncation_order = 12\npower_bound = 4  # search depth\n")
        _, body = run("st", "eps", "--config", str(cfg))
        assert body["config"]["truncation_order"] == "12"
        assert body["config"]["power_bound"] == 4
        assert body["config"]["monomial_order"] == "grevlex"

    def test_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text("seed = 5\n")
        _, body = run("st", "eps", "--config", str(cfg), "--seed", "9")
        assert body["config"]["seed"] == 9

    def test_bad_config_values_are_usage_errors(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text("colour = green\n")
        code, body = run("st", "eps", "--config", str(cfg))
        assert code == 2
        assert body["error"]["code"] == "usage"
        code, _ = run("st", "eps", "--truncation-order", "-1")
        assert code == 2
        code, _ = run("st", "eps", "--order", "mystery")
        assert code == 2
        # a bad value is named by its key and its raw text, from a flag or a file
        for flag, message in [
            ("--truncation-order=1/0", "truncation_order = 1/0"),
            ("--truncation-order=abc", "truncation_order = abc"),
            ("--seed=x", "seed = x"),
            ("--power-bound=1.5", "power_bound = 1.5"),
            ("--order=mystery", "monomial_order = mystery"),
        ]:
            code, body = run("st", "eps", flag)
            assert code == 2
            assert body["error"]["message"] == "bad config value: " + message
        cfg.write_text("seed = x\n")
        code, body = run("st", "eps", "--config", str(cfg))
        assert code == 2
        assert body["error"]["message"] == "bad config value: seed = x"

    def test_order_flag_reaches_groebner(self):
        _, grev = run("groebner", "--ideal", "z1^2 - z2")
        _, lex = run("groebner", "--ideal", "z1^2 - z2", "--order", "lex")
        assert grev["config"]["monomial_order"] == "grevlex"
        assert lex["config"]["monomial_order"] == "lex"
        from epsgeom.groebner import LEX

        assert lex["result"] == [format_poly(g) for g in buchberger(parse_generators("z1^2 - z2"), LEX)]

    def test_session_config_defaults(self):
        c = SessionConfig()
        assert c.to_json() == DEFAULT_CONFIG


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        for argv in (
            ["groebner", "--ideal", "z1^2 - z2; z1*z2 - 1"],
            ["verify-closure", "--roots", "1 + eps; -1"],
            ["family-check", "--parameters", "1; 2"],
        ):
            first = run_command(list(argv))
            assert all(run_command(list(argv)) == first for _ in range(2))

    def test_corpus_matches(self):
        code, body = run("corpus")
        assert code == 0
        assert body["result"]["total"] == body["result"]["matched"] == 36

    def test_corpus_fixture_guard(self, tmp_path):
        fixtures = tmp_path / "fx.json"
        fixtures.write_text(json.dumps({"cases": [{"name": "loop", "argv": ["corpus"]}]}))
        code, body = run("corpus", "--fixtures", str(fixtures))
        assert code == 1
        assert body["error"]["code"] == "InvalidInput"

    def test_corpus_mismatch_reports_names(self, tmp_path):
        fixtures = tmp_path / "fx.json"
        fixtures.write_text(
            json.dumps(
                {
                    "cases": [
                        {
                            "name": "drifted",
                            "argv": ["st", "3+2*eps"],
                            "exit": 0,
                            "output": "stale",
                        }
                    ]
                }
            )
        )
        code, body = run("corpus", "--fixtures", str(fixtures))
        assert code == 1
        assert body["error"]["code"] == "CorpusMismatch"
        assert "drifted" in body["error"]["message"]


class TestMain:
    def test_main_prints_and_returns(self, capsys):
        code = main(["st", "3+2*eps"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["result"] == "3"

    @staticmethod
    def _with_closed_stdout(*argv):
        # the pipe's read end is closed before the child writes, so its
        # print meets a broken pipe
        read, write = os.pipe()
        os.close(read)
        src = str(Path(epsgeom.__file__).resolve().parents[1])
        try:
            return subprocess.run(
                [sys.executable, "-m", "epsgeom", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=src),
                timeout=60,
            )
        finally:
            os.close(write)

    def test_closed_stdout_is_not_a_traceback(self):
        proc = self._with_closed_stdout("verify-closure", "--roots=-3*eps^2")
        assert proc.stderr == b""
        assert proc.returncode == 0

    def test_closed_stdout_keeps_the_corpus_exit_code(self):
        proc = self._with_closed_stdout("corpus")
        assert proc.stderr == b""
        assert proc.returncode == 0


# Well-formed argvs for the lifting commands: roots c*eps^q (+ a standard
# shift and a second term) with q in {-2, ..., 2, 1/2, 1/3}, polynomials of
# degree up to 5, shadow roots that may or may not be roots.
VALUATIONS = [Fraction(q) for q in range(-2, 3)] + [Fraction(1, 2), Fraction(1, 3)]
small_gaussians = st.builds(
    GaussianRational, st.integers(-3, 3), st.integers(-2, 2)
)


@st.composite
def lc_roots(draw):
    q = draw(st.sampled_from(VALUATIONS))
    r = LCNumber.term(draw(small_gaussians), q)
    if draw(st.booleans()):
        r = r + LCNumber.term(draw(small_gaussians), q + draw(st.sampled_from(VALUATIONS[3:])))
    return r + LCNumber.from_gaussian(draw(small_gaussians))


def _factored(var, roots):
    return "*".join("(z%d - (%s))" % (var, format_lc(r)) for r in roots)


def _shadow_root(draw, roots):
    limited = [lc_st(r) for r in roots if r.is_limited()]
    if limited and draw(st.booleans()):
        return draw(st.sampled_from(limited))
    return draw(small_gaussians)


truncation_flags = st.sampled_from(
    [[], ["--truncation-order", "16"], ["--truncation-order", "1/2"], ["--truncation-order", "3"]]
)


@st.composite
def lift_argvs(draw):
    roots = draw(st.lists(lc_roots(), min_size=1, max_size=5))
    at = format_gaussian(_shadow_root(draw, roots))
    return ["lift", "--poly=" + _factored(1, roots), "--at=" + at] + draw(truncation_flags)


@st.composite
def large_constant_lift_argvs(draw):
    # edges of degree 3 to 6 at the shadow root 0 with constants up to 10^40:
    # z1^n minus a constant, perhaps an n-th power, or n roots c_k*eps
    big = st.builds(GaussianRational, st.integers(-10**40, 10**40), st.integers(-10**40, 10**40))
    n = draw(st.integers(3, 6))
    if draw(st.booleans()):
        power = "^%d" % n if draw(st.booleans()) else ""
        poly = "z1^%d - (%s)%s*eps^%d" % (n, format_gaussian(draw(big)), power, n)
    else:
        poly = _factored(1, [LCNumber.term(draw(big), 1) for _ in range(n)])
    return ["lift", "--poly=" + poly, "--at=0"] + draw(truncation_flags)


@st.composite
def verify_closure_argvs(draw):
    roots = draw(st.lists(lc_roots(), min_size=1, max_size=5))
    roots = "; ".join(format_lc(r) for r in roots)
    return ["verify-closure", "--roots=" + roots] + draw(truncation_flags)


@st.composite
def open_witness_argvs(draw):
    roots1 = draw(st.lists(lc_roots(), min_size=0, max_size=3))
    roots2 = draw(st.lists(lc_roots(), min_size=0, max_size=2))
    poly = "*".join(p for p in (_factored(1, roots1), _factored(2, roots2)) if p) or "1"
    point = {1: _shadow_root(draw, roots1), 2: _shadow_root(draw, roots2)}
    if draw(st.booleans()):
        # a point may leave a variable out, or sit off the shadow
        del point[draw(st.sampled_from([1, 2]))]
    at = ",".join("z%d=%s" % (v, format_gaussian(x)) for v, x in point.items())
    return ["open-witness", "--poly=" + poly, "--at=" + at, "--seed", str(draw(st.integers(0, 9)))]


def _assert_contract(argvs):
    """Each argv prints one JSON line within 5 s, with exit 0, 1 or 2 and
    never an `internal` error."""

    @given(argvs)
    @settings(max_examples=100, deadline=5000)
    def check(argv):
        code, out = run_command(argv)
        assert code in (0, 1, 2)
        assert "\n" not in out and "Traceback" not in out
        body = json.loads(out)
        assert body["ok"] is (code == 0)
        if code:
            assert body["error"]["code"] != "internal", body["error"]["message"]

    check()


# an edge polynomial of degree 6 whose root is -i
DEGREE_6_EDGE = (
    "(-332908/28125 + 3988/75*i)*eps^6 + (-177526/1875 + 1100158/28125*i)*eps^5*z1^1"
    " + (-1577/25 + 19651/1875*i)*eps^4*z1^2 + (-39457/450 + 7387/450*i)*eps^3*z1^3"
    " + (-4543/90 + -20261/450*i)*eps^2*z1^4 + (31/6 + -629/30*i)*eps^1*z1^5"
    " + (5/2 + -1/2*i)*z1^6"
)


class TestLiftingArgvProperty:
    @pytest.mark.parametrize(
        "argvs",
        [lift_argvs(), large_constant_lift_argvs(), verify_closure_argvs(), open_witness_argvs()],
        ids=["lift", "lift-large-constants", "verify-closure", "open-witness"],
    )
    def test_one_json_line_and_a_contract_exit_code(self, argvs):
        _assert_contract(argvs)

    @pytest.mark.parametrize(
        "poly, code, want",
        [
            ("z1^3 - 10^39*eps^3", 0, '"root":"%d*eps"' % 10**13),
            ("z1^3 - 1000000007*eps^3", 1, '"code":"NonConstructibleRoot"'),
            ("z1^3 - 10^120*eps^3", 0, '"root":"%d*eps"' % 10**40),
            (DEGREE_6_EDGE, 0, '"root":"-i*eps"'),
        ],
        ids=["10^39", "1000000007", "10^120", "degree-6-edge"],
    )
    def test_edge_roots_within_5_s(self, poly, code, want):
        # the rational-root search over Gaussian divisors took 6.4 s, over
        # 40 s, over 60 s and 5 s on these on a 2-core box
        got, out = _within_5_s(lambda: run_command(["lift", "--poly=" + poly, "--at=0"]))
        assert got == code and want in out


# Well-formed argvs for the ideal commands. One generator may be a
# parenthesised power, up to ^12, of a linear form in z1 and z2, so powers run
# through the parser; the others are small polynomials in z1 and z2 with Z[i]
# coefficients, and targets may also use z3. Orders and --keep values include
# ones the commands reject.


def _linear_text(draw):
    terms = ["(%s)*z%d" % (format_gaussian(draw(small_gaussians)), v) for v in (1, 2)]
    return " + ".join(terms + ["(%s)" % format_gaussian(draw(small_gaussians))])


@st.composite
def small_poly_texts(draw, nvars=3):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        exps = draw(st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).filter(lambda e: sum(e) <= 2))
        mono = "".join("*z%d^%d" % (v, e) for v, e in enumerate(exps, start=1) if e)
        terms.append("(%s)%s" % (format_gaussian(draw(small_gaussians)), mono))
    return " + ".join(terms)


@st.composite
def ideal_texts(draw):
    gens = draw(st.lists(small_poly_texts(2), min_size=0, max_size=2))
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), "(%s)^%d" % (_linear_text(draw), draw(st.integers(1, 12))))
    return "; ".join(gens)


ORDER_FLAGS = [
    [], ["--order", "lex"], ["--order", "grevlex"], ["--order", "elimination(z1)"],
    ["--order", "elimination(z2, z3)"], ["--order", "revlex"],
]
# member, radical-member and contract run under grevlex whatever the flag
# says (see TestOrderInvariance), so their properties draw every order too
order_flags = st.sampled_from(ORDER_FLAGS)


@st.composite
def groebner_argvs(draw):
    return ["groebner", "--ideal=" + draw(ideal_texts())] + draw(order_flags)


@st.composite
def member_argvs(draw, command):
    poly = draw(small_poly_texts())
    if draw(st.booleans()):
        poly = "(%s)^%d*(%s)" % (_linear_text(draw), draw(st.integers(1, 12)), poly)
    if command == "member" and draw(st.booleans()):
        poly += " + eps*z1"
    return [command, "--ideal=" + draw(ideal_texts()), "--poly=" + poly] + draw(order_flags)


@st.composite
def contract_argvs(draw):
    keep = str(draw(st.integers(-1, 3)))
    return ["contract", "--ideal=" + draw(ideal_texts()), "--keep", keep] + draw(order_flags)


def _within_5_s(call):
    def timeout(signum, frame):
        raise TimeoutError("past 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# Argvs that took seconds or minutes while member and radical-member read
# --order, each with that order. The member call spent 8.6 s in one normal
# form; the radical-member ones, over 240 s, 13.4 s and 101.5 s in the
# Rabinowitsch basis. Under grevlex each takes about 0.01 s.
SLOW_UNDER_ORDER = {
    "member-elimination": (
        [
            "member",
            "--ideal=((-1)*z1 + (-2)*z2 + (-3))^11; (2+i) + (-3+2*i)*z1^2 + (-2*i)*z2^2",
            "--poly=((-3)*z1 + (0)*z2 + (0))^9*((2) + (0))",
        ],
        "elimination(z1)",
    ),
    "radical-member-lex": (
        [
            "radical-member",
            "--ideal=((-2)*z1 + (-3+2*i)*z2 + (-1+i))^8",
            "--poly=((-1+i)*z1 + (-2*i)*z2 + (3))^3*((3+2*i)*z1*z3)",
        ],
        "lex",
    ),
    "radical-member-elimination": (
        [
            "radical-member",
            "--ideal=((1-2*i)*z1 + (-3-i)*z2 + (-2-2*i))^7",
            "--poly=((1-2*i)*z1 + (3-2*i)*z2 + (1))*((-3)*z1 + 1)",
        ],
        "elimination(z1)",
    ),
    "radical-member-elimination-101-s": (
        [
            "radical-member",
            "--ideal=((i)*z1 + (1+i)*z2 + (2))*((1)*z1 + (i)*z2 + (-1))*((3)*z1 + (2)*z2 + (1))^2",
            "--poly=((-3+2*i)*z1 + (-3+2*i)*z2 + (3))*((2)*z1 + (-3+2*i)*z2 + (-2))*((2)*z1 + (2)*z2 + (-2))",
        ],
        "elimination(z1)",
    ),
}


class TestIdealArgvProperty:
    @pytest.mark.parametrize(
        "argvs",
        [groebner_argvs(), member_argvs("member"), member_argvs("radical-member"), contract_argvs()],
        ids=["groebner", "member", "radical-member", "contract"],
    )
    def test_one_json_line_and_a_contract_exit_code(self, argvs):
        _assert_contract(argvs)

    @pytest.mark.xfail(
        strict=True,
        reason="no resource bound yet: on a 2-core box the call took over "
        "240 s (ROADMAP items 2 and 4)",
    )
    @pytest.mark.parametrize(
        "argv",
        [
            [
                "groebner",
                "--ideal=(-2-i)*z1^2 + (-2*i)*z2*z3; ((3+2*i)*z1 + (-3-2*i)*z2 + (-2-i))^7",
                "--order", "lex",
            ],
        ],
        ids=["groebner-lex-3-variables"],
    )
    def test_runaway(self, argv):
        # ideal generators in the properties use z1 and z2 only, which keeps
        # this argv out of them
        code, out = _within_5_s(lambda: run_command(argv))
        assert code in (0, 1) and json.loads(out).get("error", {}).get("code") != "internal"

    def test_point_ideal_of_the_lex_runaway(self):
        # point-ideal reads the reduced basis under grevlex, which is
        # {z_i - a_i} for a point ideal as under any order; the lex basis of
        # this ideal is the runaway above, and took over 20 s here
        argv = [
            "point-ideal",
            "--ideal=(-2-i)*z1^2 + (-2*i)*z2*z3; ((3+2*i)*z1 + (-3-2*i)*z2 + (-2-i))^7",
        ]
        code, out = _within_5_s(lambda: run_command(argv))
        assert code == 0 and '"ok":true' in out and '"point":null' in out

    @pytest.mark.parametrize("name", ["radical-member-lex", "radical-member-elimination"])
    def test_former_runaway(self, name):
        # radical-member builds its Rabinowitsch ideal under grevlex, so
        # these end within 5 s whatever --order says
        argv, order = SLOW_UNDER_ORDER[name]
        code, out = _within_5_s(lambda: run_command(argv + ["--order", order]))
        assert code == 0 and '"result":false' in out

    @pytest.mark.xfail(
        strict=True,
        raises=TimeoutError,
        reason="no resource bound yet: on a 2-core box the bases took over "
        "240 s and 101.5 s (ROADMAP items 2 and 4)",
    )
    @pytest.mark.parametrize("name", ["radical-member-lex", "radical-member-elimination-101-s"])
    def test_rabinowitsch_runaway(self, name):
        # the engine defect those argvs drew, pinned at the library: the
        # Rabinowitsch ideal's basis under the order they named
        argv, order = SLOW_UNDER_ORDER[name]
        gens = parse_generators(argv[1].removeprefix("--ideal="))
        g = parse_poly(argv[2].removeprefix("--poly="))
        probe = Poly.constant(1) - Poly.variable(0) * g
        ideal = Ideal(gens + [probe], MonomialOrder.from_name(order))
        _within_5_s(ideal.is_proper)


# the corpus fixtures of the commands that read no --order, and the argvs above
ORDER_FREE_ARGVS = {
    case["name"]: case["argv"]
    for case in json.loads((DATA_DIR / "corpus.json").read_text())["cases"]
    if case["argv"][0] in ("member", "radical-member", "contract")
}
ORDER_FREE_ARGVS.update((name, argv) for name, (argv, _) in SLOW_UNDER_ORDER.items())


class TestOrderInvariance:
    """member, radical-member and contract answer the same under any order."""

    @pytest.mark.parametrize("argv", list(ORDER_FREE_ARGVS.values()), ids=list(ORDER_FREE_ARGVS))
    def test_same_answer_under_every_order(self, argv):
        answers = []
        for flags in ([], ["--order", "lex"], ["--order", "grevlex"],
                      ["--order", "elimination(z1)"], ["--order", "elimination(z2,z3)"]):
            start = time.perf_counter()
            code, out = run_command(argv + flags)
            assert time.perf_counter() - start < 1.0, flags
            body = json.loads(out)
            del body["config"]
            answers.append((code, body))
        assert all(a == answers[0] for a in answers)


# Well-formed argvs for the module commands: rows and matrices of small
# polynomials in z1 and z2 with Z[i] or rational coefficients and, now and
# then, an eps term. These drive cofactor rows, syzygy rows and eps-slice
# targets through the engine; standard-only commands reject eps entries.

_entry_coeffs = st.one_of(
    small_gaussians,
    st.builds(GaussianRational, st.fractions(min_value=-3, max_value=3, max_denominator=5)),
)


@st.composite
def entry_polys(draw, eps=True):
    acc = Poly.zero("standard")
    for _ in range(draw(st.integers(1, 2))):
        exps = draw(st.lists(st.integers(0, 2), min_size=2, max_size=2).filter(lambda e: sum(e) <= 2))
        mono = Monomial([(v, e) for v, e in enumerate(exps, start=1)])
        acc = acc + Poly("standard", {mono: draw(_entry_coeffs)})
    if eps and draw(st.integers(0, 3)) == 0:
        acc = acc + Poly.constant(LCNumber.eps(draw(st.integers(1, 2)))) * Poly.variable(draw(st.integers(1, 2)))
    return acc


def _texts(polys):
    return [format_poly(f) for f in polys]


def _matrix_text(rows):
    return json.dumps([_texts(r) for r in rows])


@st.composite
def entry_matrices(draw, eps=True):
    nrows, ncols = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    if draw(st.integers(0, 7)) == 0:
        return [[Poly.zero("standard")] * ncols for _ in range(nrows)]
    return [[draw(entry_polys(eps)) for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def syzygy_argvs(draw):
    row = draw(st.lists(entry_polys(), min_size=1, max_size=3))
    return ["syzygy", "--row=" + "; ".join(_texts(row))] + draw(order_flags)


@st.composite
def flat_witness_argvs(draw):
    a = draw(st.lists(entry_polys(eps=False), min_size=2, max_size=3))
    # x combines the Koszul syzygies a_j e_i - a_i e_j, each with a constant
    # or an eps-power multiplier, so it solves sum a_i x_i = 0
    x = [Poly.zero("extended") for _ in a]
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            s = Poly.constant(LCNumber.eps(draw(st.integers(0, 2))) * LCNumber.from_gaussian(draw(small_gaussians)))
            x[i] = x[i] + s * a[j]
            x[j] = x[j] - s * a[i]
    if draw(st.integers(0, 4)) == 0:
        x[0] = x[0] + draw(entry_polys())
    return ["flat-witness", "--row=" + "; ".join(_texts(a)), "--solution=" + "; ".join(_texts(x))]


@st.composite
def kernel_check_argvs(draw):
    return ["kernel-check", "--matrix=" + _matrix_text(draw(entry_matrices()))]


@st.composite
def tensor_check_argvs(draw):
    return ["tensor-check", "--matrix=" + _matrix_text(draw(entry_matrices()))]


@st.composite
def exact_check_argvs(draw):
    # A = [[a*h_j], [b*h_j]] and B = [[b, -a]] make a complex, B*A = 0
    a, b = draw(entry_polys()), draw(entry_polys(eps=False))
    hs = draw(st.lists(entry_polys(eps=False), min_size=1, max_size=2))
    first = [[a * h for h in hs], [b * h for h in hs]]
    second = [[b, -a]]
    if draw(st.integers(0, 4)) == 0:
        second = draw(entry_matrices())
    return ["exact-check", "--first=" + _matrix_text(first), "--second=" + _matrix_text(second)]


class TestModuleArgvProperty:
    @pytest.mark.parametrize(
        "argvs",
        [syzygy_argvs(), flat_witness_argvs(), kernel_check_argvs(), exact_check_argvs(), tensor_check_argvs()],
        ids=["syzygy", "flat-witness", "kernel-check", "exact-check", "tensor-check"],
    )
    def test_one_json_line_and_a_contract_exit_code(self, argvs):
        _assert_contract(argvs)


# Argvs for the expression, variety and family commands. Expressions are sums
# of terms built from Gaussian constants, eps powers (fractional and negative)
# and variable powers; a term may be a parenthesised power, up to ^12, of a
# short sum. Now and then an atom is malformed. Lists may be empty, and the
# config flags include values the CLI rejects.

EXPR_ATOMS = ["eps", "i", "2/3", "eps^(1/2)", "eps^(-2)", "eps^(-1/3)", "(1+i*eps)"]
VARIABLE_ATOMS = ["z1", "z2", "z3", "z1^2", "z2^3"]
MALFORMED_ATOMS = ["eps^(1/0)", "z1^(1/2)", "2/0", "z1^(-1)", "eps^", "(z1", "z0", "1/eps", "z\u00b2", "2^\u00b2"]
CONFIG_FLAGS = [[], ["--truncation-order=1/2"], ["--power-bound=0"], ["--power-bound=3"], ["--order=lex"]]
BAD_CONFIG_FLAGS = [
    ["--truncation-order=1/0"], ["--power-bound=-1"], ["--power-bound=-7"], ["--power-bound=1.5"], ["--seed=x"],
]


def _one_in_five(draw):
    # hypothesis favours the ends of a range; a middle value keeps the rate
    return draw(st.integers(0, 4)) == 3


@st.composite
def config_flags(draw):
    return draw(st.sampled_from(BAD_CONFIG_FLAGS if _one_in_five(draw) else CONFIG_FLAGS))


@st.composite
def maybe_malformed(draw, texts):
    return draw(st.sampled_from(MALFORMED_ATOMS) if _one_in_five(draw) else texts)


@st.composite
def expr_texts(draw, variables=True):
    atoms = EXPR_ATOMS + (VARIABLE_ATOMS if variables else [])

    def term():
        factors = ["(%s)" % format_gaussian(draw(small_gaussians))]
        for _ in range(draw(st.integers(0, 2))):
            factors.append(draw(maybe_malformed(st.sampled_from(atoms))))
        return "*".join(factors)

    terms = [term() for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        inner = " + ".join(term() for _ in range(draw(st.integers(1, 2))))
        terms.append("(%s)^%d" % (inner, draw(st.integers(1, 12))))
    return " + ".join(terms)


@st.composite
def expression_argvs(draw):
    command = draw(st.sampled_from(["st", "classify", "shadow-poly", "normalize"]))
    expr = draw(expr_texts(variables=command in ("shadow-poly", "normalize") or draw(st.booleans())))
    return [command, expr] + draw(config_flags())


@st.composite
def reduce_on_variety_argvs(draw):
    variety = "; ".join(draw(st.lists(small_poly_texts(2), min_size=0, max_size=2)))
    argv = ["reduce-on-variety", "--poly=" + draw(expr_texts()), "--variety=" + variety]
    ambient = draw(st.sampled_from([None, "1,2", "1,2,3", "", "2", "a,b", "0", "-1"]))
    if ambient is not None:
        argv.append("--ambient=" + ambient)
    return argv + draw(config_flags())


@st.composite
def domain_witness_argvs(draw):
    dens = draw(st.lists(maybe_malformed(small_poly_texts(2)), min_size=0, max_size=3))
    return ["domain-witness", "--denominators=" + "; ".join(dens)] + draw(config_flags())


@st.composite
def family_argvs(draw):
    # eps, 1+eps and z1 are not standard values, 0 is not a valid parameter
    values = st.one_of(small_gaussians.map(format_gaussian), st.sampled_from(["eps", "1+eps", "z1", "1/2", "0"]))
    params = draw(st.lists(maybe_malformed(values), min_size=0, max_size=3))
    argv = [draw(st.sampled_from(["family-build", "family-check"])), "--parameters=" + "; ".join(params)]
    if draw(st.booleans()):
        argv.append("--extra")
    return argv + draw(config_flags())


class TestRemainingArgvProperty:
    @pytest.mark.parametrize(
        "argvs",
        [expression_argvs(), reduce_on_variety_argvs(), domain_witness_argvs(), family_argvs()],
        ids=["expression", "reduce-on-variety", "domain-witness", "family"],
    )
    def test_one_json_line_and_a_contract_exit_code(self, argvs):
        _assert_contract(argvs)
