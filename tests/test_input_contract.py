"""The input contract as properties: every argv is answered or refused with exit 2.

The argv strategy draws each subcommand's arguments from the parser's own
choices, mixed with junk tokens (signs, spaces, underscores, non-ASCII
digits, empty and repeated arrows), and runs `cli.run` in process.  Ranks,
row and term counts are drawn small, so every example ends fast; `verify`
draws only `--max-n` tokens that are refused before a suite runs, and
`reconcile` never draws `--online`.  The text strategy feeds the three text
readers, `DynkinType.parse`, `build_cartan` and `parse_bfile`, and checks
what they accept against a regular-expression statement of the same rule.
The closed forms admit a type by that statement too, plus A0 and B0; every
entry point that takes a rank refuses 1001 with one message, and a rank
that is a bool, a float or a string with another.
"""

import contextlib
import io
import re
import sys
from typing import get_args

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynkin_tilting import cli, formulas, oeis, verify
from dynkin_tilting.diagrams import (
    RANK_RANGE,
    SERIES,
    DiagramError,
    DynkinType,
    _plain_int,
    all_orientations,
    build_cartan,
    canonical_shape,
    default_orientation,
)
from dynkin_tilting.enumeration import Statistic
from dynkin_tilting.oeis import BFileError, parse_bfile

# tokens no integer argument takes
_NOT_INTS = ["", " ", "-", "--", "-1", "+3", " 3", "3 ", "1_0", "\u0663", "\uff13", "\u00b2", "3.0", "0x3", "x", "e8"]
# no junk token is '--' and a letter, which argparse would read as a prefix of
# a long option, so a drawn argv never reaches `reconcile --online`
# a digit run past CPython's default int-to-text limit of 4,300 digits: every
# reader refuses it as it refuses any other token that is no integer
_LONG_DIGITS = "9" * 5000
_JUNK = st.one_of(
    st.sampled_from(_NOT_INTS + ["a", "AB", "none", "default", ">", ",", "1>2\n", "-h"]),
    st.text("ABDEacde0123456789 +_.>,\t\n\u0663", max_size=4),
)
_SMALL = st.integers(0, 6).map(str)
_ODD_INTS = st.sampled_from(["03", "006", "1001", "99999999999999999999"] + _NOT_INTS)
_ODD_SERIES = st.sampled_from(["a", "e", "H", "AB", ""])
_ORIENTATIONS = st.one_of(
    st.sampled_from(["default", "none", "", ",", ">", "1>2,,2>3", "none,none", "1>2,1>2", " 1>2"]),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=5).map(
        lambda arrows: ",".join(f"{src}>{dst}" for src, dst in arrows)
    ),
)


def _refused_max_n(token: str) -> bool:
    value = _plain_int(token)
    return value is None or not verify.IDENTITY_MIN_N <= value <= verify.IDENTITY_MAX_N


@st.composite
def _argv(draw, out_path: str) -> list[str]:
    # half the draws are well formed: choices, small integers and, for
    # enumerate, an orientation of the drawn type; the other half mixes junk
    # into every argument and between them
    clean = draw(st.booleans())

    def pick(valid, junk=_JUNK):
        return draw(valid if clean else st.one_of(valid, junk))

    commands = ["table", "triangle", "enumerate", "verify", "reconcile"]
    command = pick(st.sampled_from(commands), st.sampled_from(["frobnicate", "-h", ""]))
    positional: list[str] = []
    options: list[list[str]] = []

    def maybe(*tokens):
        if draw(st.booleans()):
            options.append(list(tokens))

    if command == "table":
        positional = [pick(st.sampled_from(SERIES), _ODD_SERIES), pick(_SMALL, _ODD_INTS)]
    elif command == "triangle":
        positional = [pick(st.sampled_from(oeis.TRIANGLE_NAMES))]
        maybe("--rows", pick(_SMALL, _ODD_INTS))
        maybe("--format", pick(st.sampled_from(oeis.FORMATS)))
    elif command == "enumerate":
        positional = [pick(st.sampled_from(SERIES), _ODD_SERIES), pick(_SMALL, _ODD_INTS)]
        orientations = st.just("default")
        with contextlib.suppress(DiagramError):
            dtype = DynkinType.parse("".join(positional))
            if dtype.rank <= 6:  # at most 32 orientations
                orientations = st.sampled_from(all_orientations(canonical_shape(dtype)))
        maybe("--orientation", pick(orientations, _ORIENTATIONS))
        maybe("--statistic", pick(st.sampled_from(get_args(Statistic))))
        maybe("--list")
        maybe("--max-results", pick(st.sampled_from(["1", "14", "100", "1000"]), _ODD_INTS))
    elif command == "verify":
        for level in draw(st.lists(st.sampled_from(list(verify.SUITES)), max_size=2)):
            options.append([f"--{level}"])
        options.append(["--max-n", draw(st.one_of(st.integers(0, 200).map(str), _JUNK).filter(_refused_max_n))])
        maybe("--threads", pick(_SMALL, _ODD_INTS))
        maybe("--out", out_path)
    elif command == "reconcile":
        positional = [pick(st.sampled_from(oeis.SEQUENCE_IDS))]
        maybe("--terms", pick(st.sampled_from(["1", "40", "200"]), _ODD_INTS))
    groups = draw(st.permutations([positional, *options]))
    argv = [command] + [token for group in groups for token in group]
    # a junk token anywhere but after `verify`'s --max-n, where it would be the bound
    for _ in range(0 if clean else draw(st.integers(0, 2))):
        token = draw(_JUNK.filter(_refused_max_n) if command == "verify" else _JUNK)
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _refusal_is_reported(err: str) -> bool:
    """argparse prints its usage, then 'prog: error: message'; a refusal of
    the program's own ends stderr with an 'error: ' line."""
    if err.startswith("usage: "):
        return re.search(r"^dynkin-tilting[a-z ]*: error: ", err, re.MULTILINE) is not None
    return err.splitlines()[-1].startswith("error: ")


def test_cli_argv_is_answered_or_refused(tmp_path_factory):
    out_path = str(tmp_path_factory.mktemp("verify-out") / "report.txt")

    @given(_argv(out_path))
    @example(["enumerate", "A", "1", "--orientation", "none"])
    @example(["enumerate", "A", "3", "--orientation", "none"])
    @example(["enumerate", "A", "3", "--orientation", ""])
    @example(["table", "e", "8"])
    @example(["verify", "--quick", "--max-n", "-1"])
    @example(["reconcile", "A009766", "--terms", "200"])  # more terms than the fixture: a FAIL line, exit 1
    @settings(max_examples=300, deadline=None, derandomize=True)
    def check(argv):
        code, out, err = _run(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out == "", argv
            assert _refusal_is_reported(err), (argv, err)
        if code == 0:
            assert out and out.endswith("\n"), argv
            assert _run(argv) == (0, out, err), argv

    check()


def test_config_line_shows_an_unprintable_argument_by_repr():
    code, out, err = _run(["enumerate", "A", "3", "--orientation", "1>2\n# injected,2>3"])
    assert (code, out) == (2, "")
    config, error = err.splitlines()
    assert config == r"# config: enumerate A 3 --orientation '1>2\n# injected,2>3'"
    assert error.startswith("error: bad orientation fragment")


def _expected_type(label: str) -> DynkinType | None:
    match = re.fullmatch(r"([A-G])([0-9]{1,4300})", label)
    if match is None:
        return None
    series, rank = match[1], int(match[2])
    lo, hi = RANK_RANGE[series]
    # a series with no last rank ends at the rank limit of 1000
    return DynkinType(series, rank) if lo <= rank <= (1000 if hi is None else hi) else None


def _refusal(call, *args) -> str | None:
    """The message of the ValueError that call(*args) raises, or None if it returns."""
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


@given(
    st.sampled_from([*SERIES, "X", "a", ""]),
    st.one_of(st.integers(-2, 12), st.integers(995, 1005), st.sampled_from([10**6, 10**20])),
)
@example("A", 0)
@example("B", 0)
@example("C", 0)
@example("D", 1)
@example("A", 1000)
@example("A", 1001)
@example("A", 10**6)  # its total alone would not end within a minute
@settings(max_examples=300, deadline=None, derandomize=True)
def test_closed_forms_admit_by_the_type_rule(series, n):
    expected = (series, n) in {("A", 0), ("B", 0)} or _expected_type(f"{series}{n}") is not None
    assert (_refusal(formulas.a_s, series, n, 0) is None) == expected, (series, n)
    assert (_refusal(formulas.a_total, series, n) is None) == expected, (series, n)


@pytest.mark.parametrize("rank", [True, False, 3.0, "3"])
@pytest.mark.parametrize("series", ["A", "B"])
def test_a_rank_that_is_no_int_is_refused(series, rank):
    # True == 1, False == 0 and 3.0 == 3, but none of them is a rank, and
    # False must not pass for the empty types A0 and B0
    calls = [DynkinType, lambda *args: formulas.a_s(*args, 0), formulas.a_total, formulas.a_row]
    for call in calls:
        assert _refusal(call, series, rank) == f"rank must be an integer, got {rank!r}", (call, rank)


def _cli_refusal(*argv: str) -> str | None:
    """The refusal `cli.run` reports for argv, or None if it answers."""
    code, out, err = _run(list(argv))
    if code == 0:
        return None
    assert (code, out) == (2, ""), argv
    return err.splitlines()[-1].removeprefix("error: ")


def _refuse_to_build(*_):
    raise AssertionError("a refused rank built a category")


# entry point -> the series it reads and its refusal at a rank
_RANK_ENTRY_POINTS = {
    "table": ("A", lambda n: _cli_refusal("table", "A", str(n))),
    "enumerate": ("A", lambda n: _cli_refusal("enumerate", "A", str(n))),
    "DynkinType": ("A", lambda n: _refusal(DynkinType, "A", n)),
    "DynkinType.parse": ("A", lambda n: _refusal(DynkinType.parse, f"A{n}")),
    "a_row": ("A", lambda n: _refusal(formulas.a_row, "A", n)),
    "verify_type": ("A", lambda n: _refusal(verify.verify_type, "A", n)),
    "verify_bc_equality": ("B", lambda n: _refusal(verify.verify_bc_equality, n)),
}


@pytest.mark.parametrize("rank", [1000, 1001])
@pytest.mark.parametrize("entry", list(_RANK_ENTRY_POINTS))
def test_every_entry_point_refuses_ranks_above_the_rank_limit(monkeypatch, entry, rank):
    monkeypatch.setattr(cli, "build_category", _refuse_to_build)
    monkeypatch.setattr(verify, "build_category", _refuse_to_build)
    series, refusal = _RANK_ENTRY_POINTS[entry]
    got = refusal(rank)
    if rank > 1000:
        assert got == f"{series}{rank} has rank {rank}, above the rank limit of 1000"
    else:  # answered, or refused only by the result budget
        assert got is None or re.fullmatch(rf"{series}1000 has [0-9]+ result sets, above the limit of 10000000.*", got)


def _expected_arrows(dtype: DynkinType, text: str):
    """The sorted arrows text names, or None: 'default', 'none' for the
    empty arrow set, or fragments src>dst in 1 to 4,300 ASCII digits covering each
    diagram edge once."""
    shape = canonical_shape(dtype)
    if text == "default":
        return default_orientation(shape)
    fragments = [] if text == "none" else text.split(",")
    matches = [re.fullmatch(r"([0-9]{1,4300})>([0-9]{1,4300})", fragment) for fragment in fragments]
    if None in matches:
        return None
    arrows = [(int(m[1]), int(m[2])) for m in matches]
    edges = sorted((i, j) for i, j, _, _ in shape.edges)
    return tuple(sorted(arrows)) if sorted(tuple(sorted(arrow)) for arrow in arrows) == edges else None


_TYPES = [DynkinType.parse(label) for label in ("A1", "D2", "A3", "B3", "D4", "G2")]
_ARROW_TEXT = st.one_of(
    st.text("0123456789>,none\u0663 +", max_size=12),
    st.lists(st.sampled_from(["1>2", "2>1", "2>3", "3>2", "2>4", "4>2", "1>1", "01>2", "3>02"]), max_size=4).map(
        ",".join
    ),
    st.text(max_size=8),
)
_BFILE_TEXT = st.one_of(
    st.lists(st.sampled_from(["0 1", "1 2", "2 5", "3 14", "1 -2", "#c", "", " 2  5 ", "2 x", "1 2"]), max_size=5).map(
        "\n".join
    ),
    st.text("0123456789 -#\n\t\r\x1c\x85\u3000\u0663", max_size=16),
    st.text(max_size=12),
)


def _expected_entries(text: str) -> tuple[tuple[int, int], ...] | None:
    """The entries of a b-file text, or None: lines end at '\\n' alone, and
    each is blank, a '#' comment, or an index and a value in 1 to 4,300 ASCII digits
    parted by spaces and tabs; the indices step by 1, and there is an entry."""
    entries: list[tuple[int, int]] = []
    for line in text.split("\n"):
        match = re.fullmatch(r"[ \t]*(?:#.*|([0-9]{1,4300})[ \t]+([0-9]{1,4300}))?[ \t]*", line)
        if match is None or (match[1] and entries and int(match[1]) != entries[-1][0] + 1):
            return None
        if match[1]:
            entries.append((int(match[1]), int(match[2])))
    return tuple(entries) or None


@given(st.one_of(st.text("ABCDEFGHabcdefg0123456789 +-_\u0663", max_size=4), st.text(max_size=4)))
@example("e8")  # the series letter is read as written
@example("E8")
@example("E9")
@example("A0")
@example("A03")
@example("A1000")
@example("A1001")
@example("A" + "9" * 20)
@example("A" + _LONG_DIGITS)
@example("")
@settings(max_examples=400, deadline=None, derandomize=True)
def test_type_labels_follow_one_rule(label):
    try:
        got = DynkinType.parse(label)
    except DiagramError:
        got = None
    assert got == _expected_type(label), label


@given(st.sampled_from(_TYPES), _ARROW_TEXT)
@example(DynkinType("A", 1), "none")
@example(DynkinType("D", 2), "none")
@example(DynkinType("A", 3), "none")
@example(DynkinType("A", 3), "")
@example(DynkinType("A", 3), "default")
@example(DynkinType("A", 3), "1>2,none")
@example(DynkinType("A", 3), f"1>2,{_LONG_DIGITS}>3")
@settings(max_examples=400, deadline=None, derandomize=True)
def test_orientation_text_follows_one_rule(dtype, text):
    try:
        got = build_cartan(dtype, text).orientation
    except DiagramError:
        got = None
    assert got == _expected_arrows(dtype, text), (dtype, text)


@given(_BFILE_TEXT)
@example("0\u30001\n1 2\x1c2 5")  # Unicode blanks are no field gap and no line end
@example("0 1\r\n1 2")
@example(" 0\t1 \n\n# c\n1  2\t")
@example("0 " + _LONG_DIGITS)
@example(_LONG_DIGITS + " 1")
@settings(max_examples=300, deadline=None, derandomize=True)
def test_bfile_text_is_read_or_refused(text):
    try:
        got = parse_bfile("X", text).entries
    except BFileError:
        got = None
    assert got == _expected_entries(text), text


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="int() has no digit limit here")
@pytest.mark.parametrize("limit", [0, 640, 4300])
def test_digit_runs_past_4300_are_refused_whatever_the_int_limit(limit):
    # int() raises past the limit, or reads any length when it is 0; the
    # readers refuse more than 4,300 digits either way, each with its own message
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert _plain_int(_LONG_DIGITS) is None and _plain_int("9" * 4301) is None
        if not 0 < limit < 4300:
            assert _plain_int("9" * 4300) == 10**4300 - 1
        label = "A" + _LONG_DIGITS
        assert _refusal(DynkinType.parse, label) == f"cannot parse type label {label!r}"
        assert _refusal(parse_bfile, "X", "0 " + _LONG_DIGITS).startswith("line 1: non-integer field")
        refusal = _cli_refusal("table", "A", _LONG_DIGITS)
        assert refusal.endswith(f"argument n: expected an integer >= 0, got {_LONG_DIGITS!r}")
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="int() has no digit limit here")
def test_digit_runs_past_a_lowered_int_limit_are_refused():
    # a caller's limit below 4,300 makes int() raise sooner; a run it
    # refuses is no integer to the readers, which each give their own refusal
    digits = "9" * 1000
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert _plain_int(digits) is None and _plain_int("9" * 640) == 10**640 - 1
        label = "A" + digits
        with pytest.raises(DiagramError, match=re.escape(f"cannot parse type label {label!r}")):
            DynkinType.parse(label)
        with pytest.raises(BFileError, match="^line 2: non-integer field"):
            parse_bfile("X", "0 1\n1 " + digits)
        refusal = _cli_refusal("table", "A", digits)
        assert refusal.endswith(f"argument n: expected an integer >= 0, got {digits!r}")
    finally:
        sys.set_int_max_str_digits(before)
