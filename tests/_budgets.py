"""The ledger of budgeted CLI calls: each call that once ran long, once.

Tier-1 runs every entry in-process through ``run_command`` within
IN_PROCESS_S (``tests/test_cli.py::TestBudgetedCalls``). Run as a script,
``PYTHONPATH=src python tests/_budgets.py`` runs every bounded entry in a
fresh ``python -m epsgeom`` process within FRESH_PROCESS_S, prints one line
a call, and exits 1 if any call fails. A change that ends a slow call pins it
by adding one entry here; one that ends a runaway drops the entry's reason.
"""

import json
import signal
import subprocess
import sys
import time
from typing import NamedTuple

IN_PROCESS_S = 5
FRESH_PROCESS_S = 10


class Call(NamedTuple):
    """A CLI argv, its exit code, and the fragments its one JSON line shows.

    The fragments must appear in order after ``"ok":true`` (exit 0) or
    ``"ok":false`` (exit 1). A runaway names the ROADMAP items that own it;
    tier-1 pins it as a strict xfail and the fresh-process loop skips it.
    """

    name: str
    argv: list
    code: int
    fragments: tuple
    runaway: str | None = None


def within(seconds, call):
    """call(), or TimeoutError once it has run for seconds."""

    def timeout(signum, frame):
        raise TimeoutError("past %s s" % seconds)

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def mismatch(call, code, out):
    """Why exit code and output line do not answer call, or None if they do."""
    if code != call.code:
        return "exit %d, want %d" % (code, call.code)
    at = 0
    for fragment in ('"ok":%s' % ("false" if code else "true"),) + call.fragments:
        found = out.find(fragment, at)
        if found < 0:
            return "no %s after position %d" % (fragment, at)
        at = found + len(fragment)
    return None


# a 5 x 5 matrix with two-term entries and a nonzero determinant
FULL_RANK_5X5 = [
    ["-3*z1^2 + 3", "-3*z1^2 + 3*z1", "2*z2^2 + z1*z3", "-z2 + 2", "-2*z3^2 - 1"],
    ["-z2*z3 + 2*z2", "-2*z2^2 - 2*z2", "-z1^2 + 3", "-z2^2 - 3*z2", "-3*z1^2 - 3*z3^2"],
    ["3*z1^2 + 3", "2*z1^2 - z2^2", "-3*z1 + 1", "2*z1^2 + 2*z1", "z1^2 - z1"],
    ["z1^2 - z1", "2*z3 - 2", "2*z1 + 1", "3*z3^2 + z2", "z1^2 - 3*z2"],
    ["2*z1 + 3*z2", "-3*z1*z3 - 2*z3^2", "-z2^2 - 3*z2", "-z1^2 + z2", "-z1 - 2"],
]
CORANK_ONE_2X3 = [
    ["2*z1^2 - 1", "-z1 - z2", "-z1^2 + 3"],
    ["3*z1^2 + 2*z1", "-3*z3 - 3", "-z1 + 3"],
]
# an edge polynomial of degree 6 whose root is -i
DEGREE_6_EDGE = (
    "(-332908/28125 + 3988/75*i)*eps^6 + (-177526/1875 + 1100158/28125*i)*eps^5*z1^1"
    " + (-1577/25 + 19651/1875*i)*eps^4*z1^2 + (-39457/450 + 7387/450*i)*eps^3*z1^3"
    " + (-4543/90 + -20261/450*i)*eps^2*z1^4 + (31/6 + -629/30*i)*eps^1*z1^5"
    " + (5/2 + -1/2*i)*z1^6"
)
LEX_RUNAWAY_IDEAL = "--ideal=(-2-i)*z1^2 + (-2*i)*z2*z3; ((3+2*i)*z1 + (-3-2*i)*z2 + (-2-i))^7"

CALLS = (
    # member and radical-member run under grevlex whatever --order says. While
    # they read it, the member call spent 8.6 s in one normal form, and the
    # radical-member ones over 240 s, 13.4 s and 101.5 s in the Rabinowitsch
    # basis. test_rabinowitsch_runaway pins those bases at the library
    Call("member-elimination", [
        "member", "--ideal=((-1)*z1 + (-2)*z2 + (-3))^11; (2+i) + (-3+2*i)*z1^2 + (-2*i)*z2^2",
        "--poly=((-3)*z1 + (0)*z2 + (0))^9*((2) + (0))", "--order", "elimination(z1)",
    ], 0, ('"result":false',)),
    Call("radical-member-lex", [
        "radical-member", "--ideal=((-2)*z1 + (-3+2*i)*z2 + (-1+i))^8",
        "--poly=((-1+i)*z1 + (-2*i)*z2 + (3))^3*((3+2*i)*z1*z3)", "--order", "lex",
    ], 0, ('"result":false',)),
    Call("radical-member-elimination", [
        "radical-member", "--ideal=((1-2*i)*z1 + (-3-i)*z2 + (-2-2*i))^7",
        "--poly=((1-2*i)*z1 + (3-2*i)*z2 + (1))*((-3)*z1 + 1)", "--order", "elimination(z1)",
    ], 0, ('"result":false',)),
    Call("radical-member-elimination-101-s", [
        "radical-member", "--ideal=((i)*z1 + (1+i)*z2 + (2))*((1)*z1 + (i)*z2 + (-1))*((3)*z1 + (2)*z2 + (1))^2",
        "--poly=((-3+2*i)*z1 + (-3+2*i)*z2 + (3))*((2)*z1 + (-3+2*i)*z2 + (-2))*((2)*z1 + (2)*z2 + (-2))",
        "--order", "elimination(z1)",
    ], 0, ('"result":false',)),
    # the Rabinowitsch basis over Z[i] swells; sugar halves the time, still
    # past the alarm. TestIdealArgvProperty draws argvs like it and can miss
    # its deadline
    Call("radical-member-grevlex-flake", [
        "radical-member", "--ideal=((-2)*z1 + (-1)*z2 + (0))^11; (-1) + (3)*z1^2 + (0)",
        "--poly=((0)*z1 + (2)*z2 + (1))^9*((i)*z2^2 + (-1))",
    ], 0, ('"result":false',), runaway="no resource bound yet: on a 2-core box the call took 9.4-11.5 s in a "
         "fresh process (ROADMAP items 2, 4 and 5)"),
    # ideal generators in the argv properties use z1 and z2 only, which keeps
    # this argv out of them
    Call("groebner-lex-3-variables", ["groebner", LEX_RUNAWAY_IDEAL, "--order", "lex"], 0, ('"result":["',),
         runaway="no resource bound yet: on a 2-core box the call took over 240 s (ROADMAP items 2 and 4)"),
    # point-ideal reads the reduced basis under grevlex, which is {z_i - a_i}
    # for a point ideal as under any order; the lex basis took over 20 s
    Call("point-ideal-of-the-lex-runaway", ["point-ideal", LEX_RUNAWAY_IDEAL], 0, ('"point":null',)),
    # each pass normalises before its radical question, so the eps^(-1)
    # coefficient is scaled down instead of refused with UnlimitedCoefficient
    Call("reduce-on-variety-unlimited-coefficient", ["reduce-on-variety", "--poly=eps^(-1)*z1 + z2", "--variety=z1"],
         0, ('"iterations":2',)),
    # the rational-root search over Gaussian divisors took 6.4 s, over 40 s,
    # over 60 s and 5 s on these, and its trial division of the norm past
    # 60 s; lifting roots modulo an inert prime answers in milliseconds
    Call("lift-10^39", ["lift", "--poly=z1^3 - 10^39*eps^3", "--at=0"], 0, ('"root":"%d*eps"' % 10**13,)),
    Call("lift-1000000007", ["lift", "--poly=z1^3 - 1000000007*eps^3", "--at=0"],
         1, ('"code":"NonConstructibleRoot"',)),
    Call("lift-10^120", ["lift", "--poly=z1^3 - 10^120*eps^3", "--at=0"], 0, ('"root":"%d*eps"' % 10**40,)),
    Call("lift-degree-6-edge", ["lift", "--poly=" + DEGREE_6_EDGE, "--at=0"], 0, ('"root":"-i*eps"',)),
    # argparse alone reads -3*eps or -i as an unknown option, and these calls
    # exited 2 with "the following arguments are required: expr"; --3
    # abbreviates no flag of st, so it is the positional
    Call("st-dash-value", ["st", "-3*eps"], 0, ('"result":"0"',)),
    Call("classify-dash-i", ["classify", "-i"], 0, ('"label":"appreciable"',)),
    Call("st-double-dash", ["st", "--3"], 0, ('"result":"3"',)),
    # eps-carrying generators run the Groebner engine over the LCFraction
    # field, which no corpus fixture reaches
    Call("groebner-lcfraction", ["groebner", "--ideal=eps*z1 - 1; z1^2 - z2"],
         0, ('"result":["z1 - eps^(-1)","z2 - eps^(-2)"]',)),
    Call("syzygy-lcfraction", ["syzygy", "--row=eps*z1; z2"], 0, ('"generators":[["z2","-eps*z1"]]',)),
    Call("point-ideal-lcfraction", ["point-ideal", "--ideal=(1+eps)*z1 - 1; z2 - eps"],
         0, ('"point":null,"reason":"a coordinate is not a finite Levi-Civita sum"',)),
    # a Poly power of two or more terms multiplies packed terms (shadow-poly
    # runs it in the extended domain); is_proper reads the pair loop's leads
    # and reduces nothing
    Call("member-packed-power", ["member", "--ideal=(z1 + z2 - 1)^6", "--poly=(z1 + z2 - 1)^7*(z1 - i)"],
         0, ('"result":true',)),
    Call("radical-member-proper-true", ["radical-member", "--ideal=(z1 - z2)^3; (z1 + 1)^2", "--poly=z1 - z2"],
         0, ('"result":true',)),
    Call("radical-member-proper-false", ["radical-member", "--ideal=(z1 - z2)^3; (z1 + 1)^2", "--poly=z1 - z2 + 1"],
         0, ('"result":false',)),
    Call("shadow-poly-packed-power", ["shadow-poly", "((1 + eps)*z1 + 2*eps - 1)^4"],
         0, ('"result":"z1^4 - 4*z1^3 + 6*z1^2 - 4*z1 + 1"',)),
    # the lift's 16 Newton steps shift coefficients that are never rescaled;
    # the parser folds constants as numbers, so these expressions build a
    # Poly only where a variable meets one
    Call("lift-unscaled-shifts", ["lift", "--poly=(z1 - 2)*(z1 + 1) - 3*eps", "--at=2"],
         0, ('1077205/1594323*eps^16","residual_valuation":"17"',)),
    Call("st-folded-constants", ["st", "(1/2)^3 - i^2 + eps - eps"], 0, ('"result":"9/8"',)),
    Call("shadow-poly-folded-constants", ["shadow-poly", "(2 - eps)*(z1 - i)^2 - eps^(-1)*eps*z1"],
         0, ('"result":"2*z1^2 + (-1-4*i)*z1 - 2"',)),
    # a minus binds looser than ^ wherever it stands, so 0 + -3^2 is -9; a
    # superscript digit is a ParseError, not an internal int() failure; a
    # list item's ParseError counts from the start of the flag's value
    Call("st-unary-minus", ["st", "0 + -3^2"], 0, ('"result":"-9"',)),
    Call("st-superscript-digit", ["st", "²"], 1, ('"code":"ParseError"',)),
    Call("member-list-item-position", ["member", "--ideal=z1; z2 + $", "--poly=z1"], 1, ("at position 9",)),
    # the 5 x 5 matrix's tagged syzygy run took past 120 s; its columns are
    # independent at one point, so its kernel is 0 with no run. The 2 x 3
    # matrix and the row have coprime maximal minors, so their kernels are
    # the row of minors with no run
    Call("kernel-check-5x5", ["kernel-check", "--matrix=" + json.dumps(FULL_RANK_5X5)], 0, ('"standard_kernel":[]',)),
    Call("tensor-check-5x5", ["tensor-check", "--matrix=" + json.dumps(FULL_RANK_5X5)], 0, ('"standard_kernel":[]',)),
    Call("kernel-check-2x3", ["kernel-check", "--matrix=" + json.dumps(CORANK_ONE_2X3)], 0, (
        '"standard_kernel":[["z1^2*z3 + 2/3*z1^2 - 1/3*z1*z2 + z1 + z2 - 3*z3 - 3","z1^4 - z1^2 - 5/3*z1 - 1",'
        '"-z1^3 - z1^2*z2 + 2*z1^2*z3 + 4/3*z1^2 - 2/3*z1*z2 - z3 - 1"]]',
    )),
    Call("flat-witness-corank-one", [
        "flat-witness", "--row", "z1^2 + z2; z2^3 - 1",
        "--solution", "(1 + eps*z3)*(z2^3 - 1); -(1 + eps*z3)*(z1^2 + z2)",
    ], 0, ('"result":["eps*z3 + 1"]',)),
    # one membership of the pole's power decides every power bound
    Call("family-check-huge-power-bound", ["family-check", "--parameters=1; 2", "--power-bound=100000000"],
         0, ('"power_bound":100000000', '"pole_powers_excluded":true', '"pass":true')),
)


def main():
    """Run each bounded call in a fresh process; 1 if any call fails."""
    failed = 0
    for call in CALLS:
        if call.runaway:
            continue
        start, out = time.perf_counter(), ""
        try:
            run = subprocess.run(
                [sys.executable, "-m", "epsgeom"] + call.argv,
                capture_output=True, text=True, timeout=FRESH_PROCESS_S,
            )
        except subprocess.TimeoutExpired:
            problem = "past %s s" % FRESH_PROCESS_S
        else:
            out = run.stdout
            # any stderr output, such as a warning or a traceback, fails the call
            problem = "stderr: " + run.stderr.strip() if run.stderr else mismatch(call, run.returncode, out)
        print("%s %5.2f s %s" % ("FAIL" if problem else "ok  ", time.perf_counter() - start, call.name))
        if problem:
            failed += 1
            print("  %s: %s" % (problem, out.strip() or "no output"))
    print("%d of %d bounded calls failed" % (failed, sum(not call.runaway for call in CALLS)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
