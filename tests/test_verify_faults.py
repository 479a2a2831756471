"""Every check of a `verify` report can fail.

Each test feeds one wrong input to the actual side of some checks: the count
table of one orientation, the sincere classification, the eta map or its
inverse, or one fixture file.  The report of `verify --quick --out F` must
then fail exactly the checks that read that input, say how many failed, exit
1 and still write F.  Without this, a check that compared its expected value
with itself would print the same PASS line as a working one.
"""

import hashlib
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from dynkin_tilting import oeis, verify
from dynkin_tilting.cli import run
from dynkin_tilting.diagrams import DynkinType, build_cartan

QUICK_CHECKS = 109
_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_verify_quick_matches_the_benchmark_digest(monkeypatch, capsys):
    # the benchmark's own pin, read from its file; its dataclasses need the
    # module registered while it runs
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert run(["verify", "--quick"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == dict(workloads._VERIFY)[("--quick",)]


def _failing_quick_run(tmp_path, capsys):
    """Run `verify --quick --out F`; return the (id, subject) of each failed
    check, after checking the exit code, the summary and F."""
    out = tmp_path / "report.txt"
    assert run(["verify", "--quick", "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout
    lines = stdout.splitlines()
    rows = [line.split("\t") for line in lines[1:-1]]
    assert len(rows) == QUICK_CHECKS
    failed = {(row[0], row[1]) for row in rows if row[4] == "FAIL"}
    assert all(row[4] == "PASS" for row in rows if (row[0], row[1]) not in failed)
    assert lines[-1] == f"# {len(failed)} of {QUICK_CHECKS} checks FAILED"
    return failed


def _bump_first(table):
    """The table with one more set at support-rank 0."""
    first, *rest = table.by_support_rank
    return table._replace(by_support_rank=(first + 1, *rest), total=table.total + 1)


def _patch_count_tables(monkeypatch, label, kind, orientation=None):
    original = verify.count_tables

    def count_tables(cat, statistic):
        table = original(cat, statistic)
        hit = cat.datum.label == label and statistic == kind
        if orientation is not None:
            hit = hit and cat.datum.orientation == orientation
        return _bump_first(table) if hit else table

    monkeypatch.setattr(verify, "count_tables", count_tables)


_A4_SPEC = "1>2,2>3,3>4"  # in the A4 sweep; not the default orientation
_A4_SUBJECT = f"A4 orientation={_A4_SPEC}"


def test_one_orientation_tilting_table(monkeypatch, tmp_path, capsys):
    orientation = build_cartan(DynkinType("A", 4), _A4_SPEC).orientation
    assert orientation != build_cartan(DynkinType("A", 4)).orientation
    _patch_count_tables(monkeypatch, "A4", "tilting", orientation)
    assert _failing_quick_run(tmp_path, capsys) == {
        ("enum.tilting.rank", _A4_SUBJECT),
        ("enum.antichain.rank", _A4_SUBJECT),
        ("enum.orientation.invariance", "A4 over 8 orientations"),
    }


def test_one_orientation_antichain_table(monkeypatch, tmp_path, capsys):
    orientation = build_cartan(DynkinType("A", 4), _A4_SPEC).orientation
    _patch_count_tables(monkeypatch, "A4", "antichain", orientation)
    assert _failing_quick_run(tmp_path, capsys) == {("enum.antichain.rank", _A4_SUBJECT)}


def test_c_table_against_b(monkeypatch, tmp_path, capsys):
    _patch_count_tables(monkeypatch, "C3", "tilting")
    assert _failing_quick_run(tmp_path, capsys) == {
        ("enum.tilting.rank", "C3 orientation=default"),
        ("enum.antichain.rank", "C3 orientation=default"),
        ("enum.bc.equal", "B3 vs C3"),
    }


@pytest.mark.parametrize(
    "field, failed",
    [
        ("u_count", {"sincere.u", "sincere.total"}),
        ("v_count", {"sincere.v", "sincere.total"}),
        ("per_vertex", {"sincere.per-vertex"}),
    ],
)
def test_sincere_classification(monkeypatch, tmp_path, capsys, field, failed):
    original = verify.classify_sincere

    def classify_sincere(cat):
        split = original(cat)
        if cat.datum.label != "B3":
            return split
        value = getattr(split, field)
        return split._replace(**{field: value[::-1] if field == "per_vertex" else value + 1})

    monkeypatch.setattr(verify, "classify_sincere", classify_sincere)
    assert _failing_quick_run(tmp_path, capsys) == {(check_id, "B3") for check_id in failed}


@pytest.mark.parametrize("name", ["eta_map", "eta_inverse"])
def test_eta(monkeypatch, tmp_path, capsys, name):
    original = getattr(verify, name)

    def identity_on_a3(cat, ac):
        # on A3, keep the injective member (eta_map) or leave it out (eta_inverse)
        return ac if cat.datum.label == "A3" else original(cat, ac)

    monkeypatch.setattr(verify, name, identity_on_a3)
    assert _failing_quick_run(tmp_path, capsys) == {("sincere.eta", "A3")}


def test_fixture_file(monkeypatch, tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(oeis.fixture_dir(), fixtures)
    bfile = fixtures / "b129869.txt"
    bfile.write_text(bfile.read_text().replace("\n3 ", "\n3 1", 1))
    monkeypatch.setenv(oeis.FIXTURE_ENV_VAR, str(fixtures))
    assert _failing_quick_run(tmp_path, capsys) == {("oeis.reconcile", "A129869 terms=8")}
