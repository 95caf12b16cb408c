"""Small random argv for every subcommand: the CLI ends in exit 0, 1 or 2.

A usage error is exit 2 with one `error:` line, never a traceback; argparse's
own SystemExit is its exit 2.  Each subcommand mostly gets its required flags
and a few of its own optional ones, from small pools that mix valid values
with zero, negative, malformed and out-of-range ones.  Sometimes it also gets
one flag that only other commands take, and then it must exit 2.  Sizes stay
small so each call is quick.

The token parser is also checked against `Fraction(str(token))` itself, on
short tokens over digits, signs, slashes, points, exponents, underscores,
spaces and a non-ASCII digit.
"""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cachecast.cli import _parse_fraction, build_parser, main


def mostly(valid, invalid):
    """Five draws in six from the valid values."""
    return st.integers(0, 5).flatmap(lambda i: st.sampled_from(invalid if i == 5 else valid))


SIZES = mostly(["2", "3", "4", "1"], ["-1", "0"])
COUNTS = mostly(["1", "2", "3"], ["-1", "0", "x"])
MU = mostly(["0", "1/4", "1/3", "1/2", "1"], ["2", "-1/4", "1/0", "x"])
STRENGTH = st.sampled_from(["1/5", "1/2", "3/4", "1"])
BAD_STRENGTHS = st.sampled_from(["", "1,1/2", "0,1", "1/2,2", "1/0,1", "a,1"])

CONFIG = {"--config": st.just(str(Path(__file__).parent / "no-such-config.json"))}
P = mostly(["2", "1024", "1e300"], ["nan", "inf", "1", "0.5", "x"])
SEED = st.sampled_from(["-1", "0", "7"])
FORMAT = st.sampled_from(["csv", "json", "xml"])
TRADEOFF = {
    "--mu-grid": mostly(["0:1:1/4", "1/4:1/2:1/8"], ["0:1:0", "1:0:1/4", "0:1", "a:b:c"]),
    "--r": mostly(["0,0", "1/10,0,0", "0,1/10,0,0"], ["-1,0", "1/0", "0,x"]),
    "--format": FORMAT,
}
# subcommand -> (flags it mostly gets, its own flags it sometimes gets); None marks a switch
FLAGS = {
    "gndt": ({"--N": SIZES, "--mu": MU}, {**CONFIG, **TRADEOFF, "--exact": None}),
    "sweep-memory": (
        {"--N": SIZES, "--mu-grid": TRADEOFF["--mu-grid"]},
        {**CONFIG, **TRADEOFF, "--mu": MU},
    ),
    "holes": ({"--N": SIZES, "--mu": MU}, CONFIG),
    "region": (
        {
            "--sigma": SIZES,
            "--kind": mostly(["full", "symmetric", "missing", "two-multicast"], ["x"]),
            "--s": mostly(["1", "2", "3"], ["-1", "0", "9"]),
            "--gamma": SIZES,
            "--leaders": mostly(["1", "1,2", "1,3"], ["1,7", "2", "0,1", "", "1,x", "1,1/2"]),
        },
        CONFIG,
    ),
    "verify": (
        {"--max-K": COUNTS, "--max-N": COUNTS, "--region-trials": mostly(["1"], ["-1", "0"])},
        {
            **CONFIG,
            "--seed": SEED,
            "--N": mostly(["1", "2"], ["-1", "0"]),
            "--mu": MU,
            "--B": mostly(["24", "48"], ["-8", "0", "1", "x", "1/2"]),
            "--d": mostly(["1,2", "1,1,1"], ["0,1", "1,9", "x", "1,1.5"]),
            "--inject-fault": None,
        },
    ),
    "finite-snr": (
        {"--sigma": SIZES, "--certificates": mostly(["1", "3"], ["-2", "0"])},
        {**CONFIG, "--P": P, "--seed": SEED},
    ),
}
# every flag some command takes, with values to draw for it
EVERY = {"--K": SIZES, "--alpha": STRENGTH}
for usual, sometimes in FLAGS.values():
    EVERY.update(usual)
    EVERY.update(sometimes)
SUBPARSERS = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))


def foreign_flags(command: str) -> list[str]:
    """Flags of other commands that this one does not take, prefixes of its
    own flags (--r of verify's --region-trials) included."""
    own = {s for a in SUBPARSERS.choices[command]._actions for s in a.option_strings}
    return sorted(flag for flag in EVERY if flag not in own)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    usual, sometimes = FLAGS[command]
    K = draw(mostly(["2", "3", "1"] if command == "verify" else ["2", "3", "4", "1"], ["-1", "0"]))
    if draw(st.integers(0, 5)) < 5:  # valid strengths, usually one per user
        size = draw(mostly([max(int(K), 1)], [1, 2, 3, 4, 5]))
        strengths = draw(st.lists(STRENGTH, min_size=size - 1, max_size=size - 1))
        alpha = ",".join(sorted(strengths, key=Fraction) + ["1"])
    else:
        alpha = draw(BAD_STRENGTHS)
    chosen = {"--K": K, "--alpha": alpha} if command != "verify" else {}
    if command == "verify" and draw(st.booleans()):
        chosen["--K"] = K
    for flag, values in usual.items():
        chosen[flag] = draw(values)
    chosen = {flag: value for flag, value in chosen.items() if draw(st.integers(0, 9)) < 9}
    for flag in draw(st.lists(st.sampled_from(sorted(sometimes)), unique=True, max_size=2)):
        chosen[flag] = None if sometimes[flag] is None else draw(sometimes[flag])
    foreign = draw(st.integers(0, 5)) == 5
    if foreign:
        flag = draw(st.sampled_from(foreign_flags(command)))
        chosen[flag] = None if EVERY[flag] is None else draw(EVERY[flag])
    argv = [command]
    for flag, value in chosen.items():
        argv += [flag] if value is None else [flag, value]
    return argv, foreign


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
@example((["region", "--K", "3", "--sigma", "2", "--alpha", "1/2,1"], False))
@example((["finite-snr", "--K", "3", "--sigma", "2", "--alpha", "1/2,1"], False))
@example((["holes", "--K", "2", "--N", "2", "--alpha", "1/2,1", "--mu", "1/2", "--P", "nan"], True))
@example((["gndt", "--K", "2", "--N", "2", "--alpha", "1/2,1", "--mu", "-1/4"], False))
@example((["sweep-memory", "--K", "2", "--N", "2", "--alpha", "1/2,1", "--mu", "0", "--r", "-1,0"], False))
def test_exit_code_is_0_1_or_2_without_traceback(drawn):
    argv, foreign = drawn
    code, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    # every value flag is drawn with a value, so argparse never finds one missing
    assert "expected one argument" not in err, (argv, err)
    assert code == 2 or not foreign, (argv, code, err)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.text(alphabet="0123456789/+-._e \u0663", max_size=8))
@example("1/")
@example("/2")
@example("1/0")
@example("0/0")
@example("01/02")
@example("1_000")
@example("\u0663/\u0664")
@example(" 1/2")
def test_token_parser_matches_fraction_text(token):
    """A token's value is the one Fraction reads from its text, and a token
    Fraction refuses is refused with the message for that refusal."""
    try:
        want = Fraction(str(token))
    except ZeroDivisionError:
        want = f"--x: {token!r} has a zero denominator"
    except ValueError:
        want = f"--x: {token!r} is not a number"
    try:
        got = _parse_fraction(token, "--x")
    except ValueError as exc:
        got = str(exc)
    assert (type(got), got) == (type(want), want), token
