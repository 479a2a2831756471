"""Verifier reports and the command-line surface."""

import hashlib
import io
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import dynkin_tilting
from dynkin_tilting import cli, formulas, oeis, verify
from dynkin_tilting.cli import run
from dynkin_tilting.verify import (
    orientation_sweep,
    run_suite,
    verify_bc_equality,
    verify_identities,
    verify_sincere_structure,
    verify_type,
)
from tests.oracles import partial_diagonal_sum, partial_row_sum


def test_verify_type_e6():
    rep = verify_type("E", 6)
    assert rep.passed
    line = rep.lines()[0]
    assert "1 6 20 50 110 228 418 | 833" in line


def _refuse_to_build(*_):
    raise AssertionError("a refused search built a category")


def test_verify_type_rejects_big_ranks(monkeypatch):
    monkeypatch.setattr(verify, "build_category", _refuse_to_build)
    with pytest.raises(ValueError, match="A15 has 35357670 result sets, above the limit of 10000000") as refused:
        verify_type("A", 15)
    # no option of a library caller raises the limit; only `enumerate` names one
    assert "--max-results" not in str(refused.value)


@pytest.mark.parametrize("orientations", [[], iter(())], ids=["list", "iterator"])
def test_verify_type_refuses_no_orientations(monkeypatch, orientations):
    # no orientation means no check, and "all 0 checks passed" proves nothing
    monkeypatch.setattr(verify, "build_category", _refuse_to_build)
    with pytest.raises(ValueError, match="at least one orientation"):
        verify_type("A", 3, orientations)


def test_bc_equality_rejects_big_ranks(monkeypatch):
    monkeypatch.setattr(verify, "build_category", _refuse_to_build)
    with pytest.raises(ValueError, match="B13 has 10400600 result sets, above the limit of 10000000"):
        verify_bc_equality(13)


def _refuse_to_forecast(*_):
    raise AssertionError("a rank above the limit reached the result forecast")


def test_library_callers_refuse_ranks_above_the_row_cap(monkeypatch):
    # the forecast of A 10**6 is an integer of about 600,000 digits
    monkeypatch.setattr(verify, "build_category", _refuse_to_build)
    monkeypatch.setattr(formulas, "a_total", _refuse_to_forecast)
    with pytest.raises(ValueError, match=r"^A1000000 has rank 1000000, above the rank limit of 1000$"):
        verify_type("A", 10**6)
    with pytest.raises(ValueError, match=r"^B9000 has rank 9000, above the rank limit of 1000$"):
        verify_bc_equality(9000)


# a bound that leaves no check would render "# all 0 checks passed"
@pytest.mark.parametrize(
    "suite, arg, match",
    [
        (verify_bc_equality, 1, "below 2"),
        (verify_bc_equality, -3, "below 2"),
        (verify_sincere_structure, 1, "below 2"),
        (verify_sincere_structure, 0, "below 2"),
    ],
    ids=["bc-1", "bc-minus-3", "sincere-1", "sincere-0"],
)
def test_suites_refuse_to_pass_vacuously(monkeypatch, suite, arg, match):
    monkeypatch.setattr(verify, "build_category", _refuse_to_build)
    with pytest.raises(ValueError, match=match):
        suite(arg)


@pytest.mark.parametrize(
    "series, n",
    [("A", 9), ("A", 10), pytest.param("B", 12, marks=pytest.mark.slow), pytest.param("D", 12, marks=pytest.mark.slow)],
)
def test_verify_type_within_budget(series, n):
    # A9 has 16,796 result sets, which the rank cap of 8 used to refuse
    assert verify_type(series, n).passed


def test_verify_orientations_a4_d4():
    assert len(orientation_sweep("A", 4)) == 8
    assert len(orientation_sweep("D", 4)) == 8
    assert verify_type("A", 4, orientation_sweep("A", 4)).passed
    assert verify_type("D", 4, orientation_sweep("D", 4)).passed


def test_orientation_sweep_sample_is_seeded():
    s1 = orientation_sweep("A", 6)
    s2 = orientation_sweep("A", 6)
    assert s1 == s2
    assert len(s1) == 10


def test_bc_equality():
    assert verify_bc_equality(5).passed


def test_identities_n50():
    rep = verify_identities(50)
    assert rep.passed
    assert len(rep.checks) == 16


# family of each call of a formulas check function; the hook families are
# told apart by their series argument
_FAMILY_OF = {
    "hook_check": "id.hook.{}",
    "modified_hook_check": "id.modified-hook.{}",
    "summation_check": "id.summation",
    "total_split_check": "id.total-split",
    "comparison_check": "id.comparison",
    "diagonal_checks": "id.diagonals",
    "b_decomposition_check": "id.b-decomposition",
    "lucas_vs_d_deviation_check": "id.lucas-deviation",
    "z_recursion_check": "id.z-recursion",
    "hockey_stick_check": "id.hockey-stick",
    "z_boundary_check": "id.z-boundary",
    "shear_check": "id.shear",
}


def _count_identity_calls(monkeypatch, max_n):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[_FAMILY_OF[name].format(args[0])] += 1
            return fn(*args)

        return wrapper

    for name in _FAMILY_OF:
        monkeypatch.setattr(formulas, name, counting(name, getattr(formulas, name)))
    assert verify_identities(max_n).passed
    return calls


def test_identity_argument_domains(monkeypatch):
    calls = _count_identity_calls(monkeypatch, 10)
    assert calls == {
        "id.hook.A": 55,
        "id.hook.B": 45,
        "id.hook.D": 36,
        "id.hook.E": 15,
        "id.modified-hook.D": 8,
        "id.modified-hook.E": 5,
        "id.summation": 135,
        "id.total-split": 29,
        "id.comparison": 9,
        "id.diagonals": 29,
        "id.b-decomposition": 9,
        "id.lucas-deviation": 9,
        "id.z-recursion": 139,
        "id.hockey-stick": 106,
        "id.z-boundary": 32,
        "id.shear": 183,
    }
    families = set(calls)
    assert sum(calls.values()) == 844
    calls = _count_identity_calls(monkeypatch, 50)
    assert sum(calls.values()) == 18164
    assert calls["id.shear"] == 3923
    assert calls["id.summation"] == 3675
    # at the smallest accepted bound every family is called at least once
    assert set(_count_identity_calls(monkeypatch, verify.IDENTITY_MIN_N)) == families


@pytest.mark.parametrize("max_n, a_s_calls, z_value_calls", [(10, 1026, 616), (30, 6316, 4206)])
def test_identity_suite_cell_calls(monkeypatch, max_n, a_s_calls, z_value_calls):
    # the cells the suite computes: hook, summation, z-recursion and
    # hockey-stick read each row once per family, not once per instance
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("a_s", "z_value"):
        monkeypatch.setattr(formulas, name, counting(name, getattr(formulas, name)))
    assert verify_identities(max_n).passed
    assert calls == {"a_s": a_s_calls, "z_value": z_value_calls}


@pytest.mark.parametrize(
    "max_n, calls, digest",
    [
        (10, 844, "f4319daf52fcf78ea7c4b6a03a4d9cbd1a94dcc8c3c5ade4aedc1d5cc87cf8e8"),
        (30, 6704, "f697c85a7e62eb87ab885a5e89c114081f1a11502ff80cedf09d7690e808cee8"),
    ],
    ids=["max_n-10", "max_n-30"],
)
def test_identity_suite_call_order(monkeypatch, max_n, calls, digest):
    # every (check name, arguments) call in order: the failure text and the
    # partial-sum caches depend on it
    made = []

    def recording(name, fn):
        def wrapper(*args):
            made.append((name, args))
            return fn(*args)

        return wrapper

    for name in _FAMILY_OF:
        monkeypatch.setattr(formulas, name, recording(name, getattr(formulas, name)))
    assert verify_identities(max_n).passed
    assert len(made) == calls
    assert hashlib.sha256(repr(made).encode()).hexdigest() == digest


def test_identity_min_n_comes_from_the_regions():
    # id.hook.D and id.modified-hook.D start at n = 3; README and the CLI
    # help state the bound
    assert verify.IDENTITY_MIN_N == 3
    regions = {check_id: region for check_id, *_, region in formulas.IDENTITY_FAMILIES}
    assert not list(formulas._instances(regions["id.hook.D"], 2))


def test_identity_bound_below_minimum_rejected(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("run_suite enumerated before checking max_n")

    monkeypatch.setattr(verify, "verify_type", no_enumeration)
    for bad in (verify.IDENTITY_MIN_N - 1, 0, -5, verify.IDENTITY_MAX_N + 1):
        with pytest.raises(ValueError, match="identity-suite bound"):
            verify_identities(bad)
        with pytest.raises(ValueError, match="identity-suite bound"):
            run_suite("quick", max_n=bad)


def test_suite_bounds_that_are_no_int_are_refused(monkeypatch):
    # refused before anything is built, not by range() after the categories
    monkeypatch.setattr(verify, "build_category", _refuse_to_build)
    for bad in (30.0, "30"):
        text = re.escape(f"identity-suite bound must be an integer, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{text}$"):
            verify_identities(bad)
        with pytest.raises(ValueError, match=f"^{text}$"):
            run_suite("quick", max_n=bad)
    with pytest.raises(ValueError, match=r"^sincere-structure bound must be an integer, got 3\.0$"):
        verify_sincere_structure(3.0)
    for bad in ("3", 3.0):
        text = re.escape(f"B/C comparison bound must be an integer, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{text}$"):
            verify_bc_equality(bad)


def test_failing_identity_instance_is_reported(monkeypatch):
    shear = formulas.shear_check
    monkeypatch.setattr(formulas, "shear_check", lambda *args: args != ("B", 3, 1) and shear(*args))
    rep = verify_identities(10)
    assert not rep.passed
    assert len(rep.checks) == 16
    failed = [c for c in rep.checks if not c.passed]
    assert [c.check_id for c in failed] == ["id.shear"]
    assert failed[0].actual == "failed at [('B', 3, 1)]"
    assert rep.render().endswith("# 1 of 16 checks FAILED\n")


def _literal_summation(series, n, s):
    return partial_row_sum(series, n, s) == formulas.a_s(series, n + 1, s)


def _literal_hockey_stick(series, t, s):
    return formulas.z_value(series, t, s) == partial_diagonal_sum(series, t, s)


@pytest.mark.parametrize(
    "patched, cell, check_name, literal",
    [
        ("a_s", ("A", 2, 1), "summation_check", _literal_summation),
        ("z_value", ("A", 1, 0), "hockey_stick_check", _literal_hockey_stick),
    ],
    ids=["summation", "hockey-stick"],
)
def test_identity_suite_forgets_stale_partial_sums(monkeypatch, patched, cell, check_name, literal):
    # The sums that the calls outside the run cache here were read through the
    # unpatched cell function; the patched one is a new cache key, so the run
    # must read its sums afresh and report what the literal sums report
    assert verify_identities(12).passed
    assert formulas.summation_check("A", 2, 1) and formulas.hockey_stick_check("A", 2, 1)
    original = getattr(formulas, patched)
    monkeypatch.setattr(formulas, patched, lambda *args: original(*args) + (args == cell))
    check, instances = getattr(formulas, check_name), []
    monkeypatch.setattr(formulas, check_name, lambda *args: instances.append(args) or check(*args))
    report = {c.check_id: c for c in verify_identities(12).checks}
    failures = [args for args in instances if not literal(*args)]
    assert failures
    assert report[_FAMILY_OF[check_name]].actual == f"failed at {failures[:5]}"


def test_identity_suite_memory_stays_linear(monkeypatch):
    # Only the four families that cache rows or sums run: traced allocations
    # make the whole suite at 120 about 8 s, and the other families keep
    # nothing between instances.  A cache of the whole triangle peaks near
    # 0.54 MB.
    for name in _FAMILY_OF:
        if name not in ("hook_check", "summation_check", "z_recursion_check", "hockey_stick_check"):
            monkeypatch.setattr(formulas, name, lambda *args: True)
    tracemalloc.start()
    try:
        assert verify_identities(verify.IDENTITY_MAX_N).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 250_000


def test_suite_bounds_at_their_edges(monkeypatch):
    # the least bounds run and pass, and so does the sincere bound's largest
    assert verify_bc_equality(2).passed
    assert verify_sincere_structure(2).passed
    assert verify_sincere_structure(6).passed
    monkeypatch.setattr(verify, "build_category", _refuse_to_build)
    with pytest.raises(ValueError, match=r"^sincere-structure bound 7 is above the limit of 6$"):
        verify_sincere_structure(7)


def test_sincere_structure():
    rep = verify_sincere_structure(5)
    assert rep.passed
    ids = {c.check_id for c in rep.checks}
    assert ids == {"sincere.u", "sincere.v", "sincere.per-vertex", "sincere.total", "sincere.eta"}


def test_report_rendering_shape():
    rep = verify_identities(10)
    for line in rep.lines():
        fields = line.split("\t")
        assert len(fields) == 5
        assert fields[4] in ("PASS", "FAIL")
    assert rep.render().endswith("checks passed\n")


def test_failing_check_does_not_abort(tmp_path, monkeypatch):
    from dynkin_tilting import oeis

    bad = tmp_path / "b129869.txt"
    bad.write_text("0 1\n1 5\n2 21\n3 1\n4 1\n5 1\n6 1\n7 1\n")
    monkeypatch.setenv(oeis.FIXTURE_ENV_VAR, str(tmp_path))
    monkeypatch.setattr(verify, "RECONCILE_TERMS", {"A129869": 8})
    rep = verify.verify_reconcile()
    assert not rep.passed
    assert len(rep.checks) == 1
    assert "FAIL" in rep.render()


def test_suite_quick_passes_and_thread_invariant(capsys):
    r1 = run_suite("quick")
    assert r1.passed
    assert run(["verify", "--quick", "--threads", "8"]) == 0
    header, body = capsys.readouterr().out.split("\n", 1)
    assert header.startswith("# verify suite=quick max-n=30 ")
    assert r1.render() == body


def test_suite_full_passes():
    rep = run_suite("full")
    assert rep.passed
    assert len(rep.checks) > 100


def test_suite_slow_covers_e7_e8():
    rep = run_suite("slow")
    assert rep.passed
    subjects = " ".join(c.subject for c in rep.checks)
    assert "E7" in subjects and "E8" in subjects
    assert any("1771 4784 17342 | 25080" in c.actual for c in rep.checks)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("exhaustive")


# --- CLI ---------------------------------------------------------------------


def test_cli_table(capsys):
    assert run(["table", "D", "6"]) == 0
    assert capsys.readouterr().out == "1 6 20 50 105 196 294 | total 672\n"
    assert run(["table", "G", "2"]) == 0
    assert capsys.readouterr().out == "1 2 5 | total 8\n"


def test_cli_table_empty_type(capsys):
    assert run(["table", "A", "0"]) == 0
    assert capsys.readouterr().out == "1 | total 1\n"


def _assert_module_prints_table_a3(module):
    env = {**os.environ, "PYTHONPATH": str(Path(dynkin_tilting.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", module, "table", "A", "3"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "1 3 5 5 | total 14\n"


def test_cli_module_entry_point():
    _assert_module_prints_table_a3("dynkin_tilting.cli")


def test_package_module_entry_point():
    _assert_module_prints_table_a3("dynkin_tilting")


def test_cli_table_bad_rank(capsys):
    assert run(["table", "C", "1"]) == 2
    assert "inadmissible" in capsys.readouterr().err
    assert run(["table", "A", "1001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: A1001 has rank 1001, above the rank limit of 1000" in captured.err
    assert run(["table", "A", "1000"]) == 0
    assert capsys.readouterr().out.endswith(f" | total {formulas.a_total('A', 1000)}\n")


def test_cli_usage_error(capsys):
    assert run(["table", "Z", "1"]) == 2
    assert run([]) == 2
    assert run(["frobnicate"]) == 2


def test_cli_enumerate(capsys):
    assert run(["enumerate", "D", "4"]) == 0
    out = capsys.readouterr().out
    assert "by-support-rank: 1 4 9 16 20 | total 50" in out


def test_cli_enumerate_antichain_has_both_rows(capsys):
    assert run(["enumerate", "A", "2", "--statistic", "antichain"]) == 0
    out = capsys.readouterr().out
    assert "by-support-rank: 1 2 2 | total 5" in out
    assert "by-size:         1 3 1 | total 5" in out


def test_cli_enumerate_orientation(capsys):
    assert run(["enumerate", "A", "4", "--orientation", "1>2,3>2,4>3"]) == 0
    out = capsys.readouterr().out
    assert "1 4 9 14 14 | total 42" in out


def test_cli_enumerate_listing(capsys):
    assert run(["enumerate", "A", "2", "--statistic", "antichain", "--list"]) == 0
    assert capsys.readouterr().out == "-\n1,0\n1,0 1,1\n1,1\n2,0\n"


_BAD_ORIENTATIONS = [
    # (spec, the part at fault, last line of stderr)
    ("x>2,2>3", "x>2", "error: bad orientation fragment 'x>2'; expected 'src>dst'"),
    ("1>2>3", "1>2>3", "error: bad orientation fragment '1>2>3'; expected 'src>dst'"),
    ("1>2,3", "3", "error: bad orientation fragment '3'; expected 'src>dst'"),
    ("1>2,2>3,1>2", "1>2", "error: orientation repeats the edge (1, 2): arrows (1, 2) and (1, 2)"),
    ("1>2,3>2,2>1", "2>1", "error: orientation repeats the edge (1, 2): arrows (1, 2) and (2, 1)"),
    # int() takes each of these endpoints; an orientation takes only ASCII digits
    (" 1>2,2>3", " 1>2", "error: bad orientation fragment ' 1>2'; expected 'src>dst'"),
    ("+1>2,2>3", "+1>2", "error: bad orientation fragment '+1>2'; expected 'src>dst'"),
    ("1 > 2,2>3", "1 > 2", "error: bad orientation fragment '1 > 2'; expected 'src>dst'"),
    ("\u0661>2,2>3", "\u0661>2", "error: bad orientation fragment '\u0661>2'; expected 'src>dst'"),
    ("1_0>2,2>3", "1_0>2", "error: bad orientation fragment '1_0>2'; expected 'src>dst'"),
    ("linear", "linear", "error: bad orientation fragment 'linear'; expected 'src>dst'"),
    ("", "empty", "error: bad orientation fragment ''; expected 'src>dst'"),
    # 'none' is the orientation of a diagram with no edge, and A3 has two
    (
        "none",
        "none",
        "error: arrow set does not match the A3 diagram edges: expected undirected [(1, 2), (2, 3)], got []",
    ),
]


@pytest.mark.parametrize(
    "spec, error", [pytest.param(spec, error, id=f"{spec}-{culprit}") for spec, culprit, error in _BAD_ORIENTATIONS]
)
def test_cli_enumerate_rejects_bad_orientation(capsys, spec, error):
    assert run(["enumerate", "A", "3", "--orientation", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == error


@pytest.mark.parametrize("label", ["A 1", "B 1", "D 2"])
def test_cli_enumerate_edgeless_orientation_none(capsys, label):
    # 'none' is the text a report prints for the one orientation of an edgeless diagram
    assert run(["enumerate", *label.split(), "--orientation", "none"]) == 0
    none = capsys.readouterr().out
    assert run(["enumerate", *label.split()]) == 0
    assert capsys.readouterr().out == none != ""


def test_cli_integers_take_leading_zeros(capsys):
    assert run(["enumerate", "A", "3", "--orientation", "1>2,2>3"]) == 0
    plain = capsys.readouterr().out
    assert run(["enumerate", "A", "03", "--orientation", "01>002,2>3"]) == 0
    assert capsys.readouterr().out == plain == "by-support-rank: 1 3 5 5 | total 14\n"


# sha256 of `enumerate ... --list` stdout, pinned from the recursive walker
# that preceded the explicit-stack one; the order of the sets is part of it
_LISTING_DIGESTS = [
    ("D 6 --orientation 2>1,2>3,4>3,5>4,4>6", "550345629ae19b39a501e04fdd74e51991fa249a7a7dc73af6f548462bbf2044"),
    (
        "F 4 --orientation 2>1,2>3,4>3 --statistic antichain",
        "5b96807e41984d7c5445c4cd8d6be0882767f992792284ba73b9dc89b51e2098",
    ),
    ("C 6 --orientation 1>2,3>2,3>4,5>4,5>6", "0c2a3dbf43bcbc8a0f1088e3233dbdb006ee4a39fef9aa26c078f13c339ce724"),
    ("B 7", "6126434e8265b39e7d2492d04e01812d4a63b63aaa7c16b28e7e6e1abba58a43"),
    ("D 8", "0f94128eab39b381ce486f07ffc32a930a2de883ee38275281095ed3acb3546f"),
    ("E 8", "4e0be3a5f1b1e20f52a8933e54602392e1804ef3d8fb0ffbc00ec2bee1d3d679"),
    ("E 7 --orientation 2>1,2>3,4>3,4>5,6>4,6>7", "3df1ecfdfa404d56cb5d7c2187ba9b04fccae0cc587b09fc6dbfe7033fff1fac"),
    ("A 10 --statistic antichain", "1d856a80dde3ec7a8423523fcfeb0857c5dd15a9d9750f8c6c31d86fecc48433"),
]


@pytest.mark.parametrize("args, digest", _LISTING_DIGESTS)
def test_cli_enumerate_listing_bytes(capsys, args, digest):
    assert run(["enumerate", *args.split(), "--list"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# the four listings of perfbench's enum-list workload at the default
# orientation, as the workload spells them (it checks line counts only),
# pinned before the walk stopped levels early; the line count is checked
# first, so a failure tells sets missing or added from bytes changed
_BENCHMARK_LISTINGS = [
    ("E 8 --statistic tilting", "4e0be3a5f1b1e20f52a8933e54602392e1804ef3d8fb0ffbc00ec2bee1d3d679", 25080),
    ("A 10 --statistic antichain", "1d856a80dde3ec7a8423523fcfeb0857c5dd15a9d9750f8c6c31d86fecc48433", 58786),
    ("D 8 --statistic tilting", "0f94128eab39b381ce486f07ffc32a930a2de883ee38275281095ed3acb3546f", 9438),
    ("B 7 --statistic tilting", "6126434e8265b39e7d2492d04e01812d4a63b63aaa7c16b28e7e6e1abba58a43", 3432),
]


@pytest.mark.parametrize("args, digest, lines", _BENCHMARK_LISTINGS)
def test_cli_enumerate_benchmark_listings(capsys, args, digest, lines):
    assert run(["enumerate", *args.split(), "--list"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# listings shorter than one block, of two blocks and a rest, and of two lines;
# sha256 and line count pinned from the one-write-per-set code
_BLOCK_LISTINGS = [
    ("D 6 --statistic antichain", "567abb65d536375271ae02e823c8e50af9e40fdd935838eb70577cddbec3ce99", 672),
    ("E 6", "6d7af6bcccc626a606dd0d80e5868f6837b5a5fb7d4d0bb904e570c1671964b0", 833),
    ("A 1", "bed2bb29c7e560d2a9e1e16fa1dee467763ea5610027b7faa5b202c321d2048e", 2),
]


@pytest.mark.parametrize("args, digest, lines", _BLOCK_LISTINGS)
def test_cli_enumerate_listing_same_bytes_buffered_or_not(capsys, args, digest, lines):
    assert run(["enumerate", *args.split(), "--list"]) == 0
    expected = capsys.readouterr().out.encode()
    assert expected.count(b"\n") == lines
    assert hashlib.sha256(expected).hexdigest() == digest
    env = {**os.environ, "PYTHONPATH": str(Path(dynkin_tilting.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    command = [sys.executable, "-m", "dynkin_tilting.cli", "enumerate", *args.split(), "--list"]
    for mode in ({}, {"PYTHONUNBUFFERED": "1"}):
        proc = subprocess.run(command, capture_output=True, env={**env, **mode}, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout == expected, mode


class _WriteRecorder(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


# every command's stdout goes out through run's one block writer: a listing,
# a triangle of short rows, and a report written as one string
@pytest.mark.parametrize(
    "args, lines",
    [("enumerate E 6 --list", 833), ("triangle A --rows 60 --format csv", 60), ("verify --quick", 111)],
    ids=["enumerate-E6", "triangle-A60-csv", "verify-quick"],
)
def test_cli_enumerate_listing_writes_blocks(monkeypatch, args, lines):
    recorder = _WriteRecorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert run(args.split()) == 0
    text = recorder.getvalue()
    assert text.count("\n") == lines
    assert "".join(recorder.writes) == text
    assert all(len(block) >= io.DEFAULT_BUFFER_SIZE for block in recorder.writes[:-1])
    assert len(recorder.writes) <= len(text) // io.DEFAULT_BUFFER_SIZE + 1


def test_cli_enumerate_refuses_before_building(capsys, monkeypatch):
    def build_category(*_):
        raise AssertionError("a refused enumeration built its category")

    monkeypatch.setattr(cli, "build_category", build_category)
    assert run(["enumerate", "A", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "error: A20 has 24466267020 result sets, above the limit of 10000000; raise it with --max-results"
    )


@pytest.mark.parametrize("rank", ["1001", "7200"])
def test_cli_enumerate_refuses_ranks_above_the_row_cap(capsys, monkeypatch, rank):
    # A7200's forecast used to end in Python's limit on integer string
    # conversion; no option raises this limit, so none is named
    monkeypatch.setattr(formulas, "a_total", _refuse_to_forecast)
    assert run(["enumerate", "A", rank]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"error: A{rank} has rank {rank}, above the rank limit of 1000"


def test_cli_enumerate_rank_1000_reaches_the_forecast(capsys):
    assert run(["enumerate", "A", "1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"error: A1000 has {formulas.a_total('A', 1000)} result sets, above the limit of 10000000; "
        "raise it with --max-results"
    )


def test_cli_enumerate_max_results(capsys):
    assert run(["enumerate", "A", "4", "--max-results", "41"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: A4 has 42 result sets, above the limit of 41" in captured.err
    assert run(["enumerate", "A", "4", "--max-results", "42"]) == 0
    assert capsys.readouterr().out == "by-support-rank: 1 4 9 14 14 | total 42\n"
    assert run(["enumerate", "A", "4", "--max-results", "0"]) == 2
    assert capsys.readouterr().out == ""


# int() takes each of these; every integer argument takes only ASCII digits
@pytest.mark.parametrize(
    "args",
    [
        ["enumerate", "A", "+3"],
        ["enumerate", "A", "3", "--max-results", "+42"],
        ["table", "A", "1_0"],
        ["table", "A", " 3"],
        ["table", "A", "\u0663"],
        ["table", "A", "-3"],
        ["triangle", "A", "--rows", "1_0"],
        ["reconcile", "A009766", "--terms", "+5"],
    ],
)
def test_cli_refuses_malformed_integers(capsys, args):
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected an integer >= " in captured.err


def test_cli_triangle_csv(capsys):
    assert run(["triangle", "B", "--rows", "10", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[9] == "1,9,45,165,495,1287,3003,6435,12870,24310"


@pytest.mark.parametrize("rows", ["0", "1001"])
def test_cli_triangle_rejects_row_count(capsys, rows):
    assert run(["triangle", "A", "--rows", rows]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: row count must be within 1..1000" in captured.err


@pytest.mark.parametrize("args", [["triangle", "B", "--rows", "400"], ["enumerate", "A", "8", "--list"]])
def test_cli_reader_closing_stdout_early(tmp_path, args):
    # each command writes well over a pipe's buffer, so it writes after the close
    env = {**os.environ, "PYTHONPATH": str(Path(dynkin_tilting.__file__).parents[1])}
    with open(tmp_path / "err", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "dynkin_tilting.cli", *args], stdout=subprocess.PIPE, stderr=err, env=env
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        err.seek(0)
        stderr = err.read()
    assert "error:" not in stderr
    assert "Traceback" not in stderr


def test_cli_verify_out_survives_reader_closing_stdout(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(dynkin_tilting.__file__).parents[1])}
    command = [sys.executable, "-m", "dynkin_tilting.cli", "verify", "--quick"]
    report = tmp_path / "report.txt"
    # the suite runs for a while, so the reader is gone before the first write
    proc = subprocess.Popen([*command, "--out", str(report)], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    plain = subprocess.run(command, capture_output=True, env=env, timeout=120)
    assert plain.returncode == 0
    assert report.read_bytes() == plain.stdout


def test_cli_reconcile(capsys):
    assert run(["reconcile", "A009766", "--terms", "55"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_reconcile_compares_every_fixture_term_by_default(capsys):
    # with no --terms each sequence is compared over its whole fixture, which
    # for A129869 (20 terms) is shorter than any fixed default of 40
    for sid in oeis.SEQUENCE_IDS:
        held = len(oeis.fetch_bfile(sid).entries)
        assert run(["reconcile", sid]) == 0, sid
        sid_, terms, detail, status = capsys.readouterr().out.rstrip("\n").split("\t")
        assert (sid_, terms, status) == (sid, f"terms={held}", "PASS")
        assert detail.startswith(f"{held} terms agree"), detail
        assert oeis.reconcile(sid) == oeis.reconcile(sid, held)


@pytest.mark.parametrize("terms", ["200", "999", "10000000000000"])
def test_cli_reconcile_beyond_bfile_fails(capsys, terms):
    assert run(["reconcile", "A009766", "--terms", terms]) == 1
    assert capsys.readouterr().out == f"A009766\tterms={terms}\tb-file has only 136 terms\tFAIL\n"


def test_cli_reconcile_rejects_zero_terms(capsys):
    assert run(["reconcile", "A009766", "--terms", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: need at least one term" in captured.err


def test_cli_verify_quick_deterministic(capsys):
    assert run(["verify", "--quick"]) == 0
    first = capsys.readouterr().out
    assert run(["verify", "--quick"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert run(["verify", "--quick", "--threads", "8"]) == 0
    third = capsys.readouterr().out
    assert first == third
    assert first.startswith("# verify suite=quick")
    assert "checks passed" in first


def test_cli_verify_rejects_nonpositive_threads(capsys):
    assert run(["verify", "--quick", "--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["2", "0", "-5", "121"])
def test_cli_verify_rejects_bound_below_identity_minimum(tmp_path, capsys, bound):
    out = tmp_path / "report.txt"
    out.write_text("kept\n")
    assert run(["verify", "--quick", "--max-n", bound, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-n" in captured.err
    assert out.read_text() == "kept\n"
    # the bounds themselves parse
    for edge in (verify.IDENTITY_MIN_N, verify.IDENTITY_MAX_N):
        assert cli._build_parser().parse_args(["verify", "--max-n", str(edge)]).max_n == edge


def test_cli_verify_unwritable_out_is_a_usage_error(tmp_path, capsys):
    # a directory cannot be opened for writing; the suite must not run
    assert run(["verify", "--quick", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: ")


def test_cli_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert run(["verify", "--quick", "--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out
