"""Triangle rendering, b-file parsing, and fixture reconciliation."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dynkin_tilting
from dynkin_tilting import formulas, oeis, verify
from dynkin_tilting.cli import run
from dynkin_tilting.oeis import (
    BFileError,
    fetch_bfile,
    parse_bfile,
    reconcile,
    render_triangle,
    triangle_doc,
    triangle_lines,
)
from tests.oracles import vmhwm_growth_kb


def generate_terms(sequence_id, terms):
    """First `terms` (index, value) pairs of a supported sequence."""
    sequence = oeis._sequence(sequence_id, terms)
    return oeis._flat(sequence.rows(), terms, sequence.offset)


def _values(bfile):
    return [v for _, v in bfile.entries]


def test_triangle_doc_row_shapes():
    a = triangle_doc("A", 10)
    assert a.rows[0] == (1,)
    assert len(a.rows[9]) == 10
    d = triangle_doc("D", 8)
    assert d.first_row == 2
    assert d.rows[0] == (1, 2, 1)
    lucas = triangle_doc("lucas", 5)
    assert lucas.rows[0] == (2,)
    assert lucas.rows[3] == (1, 4, 5, 2)


def _closed_form_row(name, n):
    """a_row(name, n).  The 1000-row D triangle ends at D_1001, past the rank
    limit of 1000, so that row is read from the Lucas brackets that a_s("D", n, s) reads."""
    if n <= 1000:
        return formulas.a_row(name, n)
    return tuple(formulas.bailey(n + s - 2, s) for s in range(n)) + (formulas.bailey(2 * n - 2, n - 2),)


def _closed_form_rows(name, rows):
    """The rows of a triangle from the closed forms, one cell at a time."""
    if name in ("A", "B", "D"):
        first = 2 if name == "D" else 0
        return tuple(_closed_form_row(name, n) for n in range(first, first + rows))
    if name == "sheared-catalan":
        return tuple(tuple(formulas.z_value("A", t, s) for s in range((t + 1) // 2 + 1)) for t in range(rows))
    if name == "pascal":
        return tuple(tuple(formulas.binom(t, s) for s in range(t + 1)) for t in range(rows))
    # lucas: the open corner carries the OEIS value 2
    return ((2,),) + tuple(tuple(formulas.bailey(t, s) for s in range(t + 1)) for t in range(1, rows))


@pytest.mark.parametrize("rows", [200, pytest.param(1000, marks=pytest.mark.slow)])
@pytest.mark.parametrize("name", oeis.TRIANGLE_NAMES)
def test_recursion_rows_match_closed_forms(name, rows):
    doc = triangle_doc(name, rows)
    assert doc.rows == _closed_form_rows(name, rows)
    if name in ("A", "B", "D"):
        ranks = range(doc.first_row, doc.first_row + rows)
        # a_total("D", n) is the Lucas bracket [2n-1 over n-1], past the rank limit too
        totals = (formulas.a_total(name, n) if n <= 1000 else formulas.bailey(2 * n - 1, n - 1) for n in ranks)
        assert doc.sums == tuple(totals)
    else:
        assert doc.sums == tuple(map(sum, doc.rows))


# sha256 of render_triangle(name, 200, fmt) and of the CLI's stdout, pinned
# from the per-cell closed-form builder that preceded the recursions
_TRIANGLE_DIGESTS = {
    ("A", "pretty"): "54007c27b79b52e408494b75040c1adc5a6f7f9e68f8c9e6536ded5ae0fda492",
    ("A", "csv"): "abbb4c09524a06d6fbc56ab06d14722e328a7d7a8be411e272a876fa0e8aaa29",
    ("A", "bfile"): "b0d31b04c6dec1aa179c5495e8cea5820dbc6266fe2d2aac6116131484bda0f1",
    ("B", "pretty"): "d31bbcd406d9075e57b3b003a24dddb4695c23abef8b03ef1756d32b7cdc48b8",
    ("B", "csv"): "cacba561ce4f8f17ff9a5890b428d6797069e7f87975c775ca54ef20945e9e75",
    ("B", "bfile"): "1c281c4286f6082c766aa4fe52f1593093b7570f7c7e0db5761c5104a730aebd",
    ("D", "pretty"): "4f0db540feef33e847ec7c6b1e75a215599dbda6a367c5e011bd323c51203440",
    ("D", "csv"): "f1506f7c64fece18045bc6bcb14278915dc760317a384f65c7c2e562acef56bc",
    ("D", "bfile"): "d3fa50ba7a3c2e049b32a3752fc7bb7cd248c2c49d1d98ce4d13fed0df29fe08",
    ("sheared-catalan", "pretty"): "3ee589ae9f90fabfd0109b1e1197aca707d2ca51b0ba8ee551ad1e8ef5c12785",
    ("sheared-catalan", "csv"): "42719e09425ad2c08d7fa99ece41be5012ad0e30efd1a4275b7df272d64819b5",
    ("sheared-catalan", "bfile"): "995006a56ccaa6e1a3a88e63077d1d11e711fc67b04e1658ebfe23b6c90602fc",
    ("pascal", "pretty"): "adf88fed1d036f26f8facea2817fdae2123d0f1ff94d54325323d98be64bd66f",
    ("pascal", "csv"): "5651ce0be046bdc78b7e46cf32cb377551ecee6ffcbcbd57e141e118f795cdae",
    ("pascal", "bfile"): "45cc62a163d021991fc7ad5d1700bea7ab15b7eca6e15caedeb1ead4542ded88",
    ("lucas", "pretty"): "a9dd8a3c52865b2037947f3277d586dcbf20609e7946f292c64baac46224f012",
    ("lucas", "csv"): "657c2fb01c30b657ff2dc3253d898e3f50690b5e57e49f96a1f7e6cdca0ecf60",
    ("lucas", "bfile"): "a11dc2fe28e7cf24609f7d22b6528e3298a4b26f360eb3c7c1f5e96d149d4161",
}


@pytest.mark.parametrize("name, fmt", list(_TRIANGLE_DIGESTS))
def test_triangle_bytes_pinned(name, fmt, capsys):
    assert run(["triangle", name, "--rows", "200", "--format", fmt]) == 0
    for blob in (render_triangle(name, 200, fmt), capsys.readouterr().out.encode()):
        assert hashlib.sha256(blob).hexdigest() == _TRIANGLE_DIGESTS[name, fmt]


# sha256 of render_triangle(name, rows, fmt) and of the CLI's stdout for the
# first rows, pinned from the renderer that held every row before writing:
# the lucas corner, which pretty shows as a dot and which alone sets the
# column width at one row; D's open dots before its row 2; and the b-file
# corner comment
_EDGE_ROW_DIGESTS = {
    ("A", 1, "pretty"): "8e7dcc0f950ef528b27b396ae68cafc555c12370b98613345ce58e57978d1c9f",
    ("A", 1, "csv"): "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ("A", 1, "bfile"): "c4a83badb3ae64270ae0e3ab68a5facb944819e64e6ff78c392c87104599d806",
    ("B", 1, "pretty"): "8e7dcc0f950ef528b27b396ae68cafc555c12370b98613345ce58e57978d1c9f",
    ("B", 1, "csv"): "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ("B", 1, "bfile"): "2317f9a1920806f4db66356e910c2dbca9f3e9ee15a1ecfffc615b1aa0ddda2f",
    ("D", 1, "pretty"): "832e611a1fd709c619a7cf9f794626718afe8dbc25b9e5ce14611777c19d4363",
    ("D", 1, "csv"): "2f87c318af5a394806350ab921582d0d266234b4613a08201bc066b4660d72dd",
    ("D", 1, "bfile"): "cc94e140e6110b196377111b81f39f60098078272a3d9d3c24c9abbb1b2d8970",
    ("sheared-catalan", 1, "pretty"): "5b1f6465de6d6a241c5a9da8665147b96f61cb5450be65fecde45d2b920dd144",
    ("sheared-catalan", 1, "csv"): "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ("sheared-catalan", 1, "bfile"): "09f2bd71f9b3af30181aa3d5fc66b096b23383d2108c59d95adadef52cb06bf1",
    ("pascal", 1, "pretty"): "5b1f6465de6d6a241c5a9da8665147b96f61cb5450be65fecde45d2b920dd144",
    ("pascal", 1, "csv"): "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ("pascal", 1, "bfile"): "f5d263345ac45a32835d56e9c8c596654e146b8fe7b432d22185ca11dd00fa0d",
    ("lucas", 1, "pretty"): "12643288920cde59644bc62532f3b3f7ac19d3d7fd265c3f44abd8c1b2a46d36",
    ("lucas", 1, "csv"): "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ("lucas", 1, "bfile"): "178e810ebb7e955a19e5ccf0108b3e5e4d3735b8f1ce0e34104486918368db76",
    ("A", 2, "pretty"): "85a3dd5a1e4971d9c0831d91f7126ec5a5527a246e6da85c8df853f0acb54d15",
    ("A", 2, "csv"): "f68572c0ac3831c33d7e923aa722fbdf53aad6b2446cb8f1e1c2007676423072",
    ("A", 2, "bfile"): "90eedbc6c8b723a0b23823d7802c464838904354448855ed3dfe368144b73dbe",
    ("B", 2, "pretty"): "85a3dd5a1e4971d9c0831d91f7126ec5a5527a246e6da85c8df853f0acb54d15",
    ("B", 2, "csv"): "f68572c0ac3831c33d7e923aa722fbdf53aad6b2446cb8f1e1c2007676423072",
    ("B", 2, "bfile"): "46bf8e460b3c22b7674836d3f7114cfeaf2588b3c2b7a9f8aeb7eb538320c27e",
    ("D", 2, "pretty"): "c2de4aeffb23858e298047dd53a63bf26c0e32a3329a7e21b5003da1416aeeee",
    ("D", 2, "csv"): "930a630c0b2e561c176af6e9b7a03c3654a9cc4ffdaa650f4072c1d8819797e4",
    ("D", 2, "bfile"): "182fa03a53bd0ff3fd2d1449e5c3717851d1ce3949a67fb0aeb90a7ebb0178f2",
    ("sheared-catalan", 2, "pretty"): "d5c50474841c9f4d8a4447a42eef67371f5707f1bdf57b58c090445d6d104c04",
    ("sheared-catalan", 2, "csv"): "f68572c0ac3831c33d7e923aa722fbdf53aad6b2446cb8f1e1c2007676423072",
    ("sheared-catalan", 2, "bfile"): "0abdc0ffecf329f1257089d292f1206b7ee8fd3559c0946ea71ae6516139310f",
    ("pascal", 2, "pretty"): "d5c50474841c9f4d8a4447a42eef67371f5707f1bdf57b58c090445d6d104c04",
    ("pascal", 2, "csv"): "f68572c0ac3831c33d7e923aa722fbdf53aad6b2446cb8f1e1c2007676423072",
    ("pascal", 2, "bfile"): "5375b1e680b7d913c7d9ce1e5b173e955a6a97961ae76788d455d00215334a7f",
    ("lucas", 2, "pretty"): "b8f9664da4e812b4e255dce4951923d4a29838eb97921765fa5da957d09fdbe5",
    ("lucas", 2, "csv"): "4f1dcfb225f67b87b4eec6091deaa9f4e781eff67a68f76856eaad08396fa2f1",
    ("lucas", 2, "bfile"): "0a14a7be0978cd8789f71a6a07a33993eb7c77b1374523c7ea43dcf45228fdea",
    ("A", 3, "pretty"): "5c3a23a7ef9fe7b534b624bae0ae4dc4c7d4340748f5c2dcd5242ddcc3f5b181",
    ("A", 3, "csv"): "0b3281fe6e49155975736b0ec6b004cc51449f6fc42911e0480572125c8118b5",
    ("A", 3, "bfile"): "f4792c9c1cabbcce6058c3f04c98bfdc1ef44fcad0863bc91f306025eb45963b",
    ("B", 3, "pretty"): "1728725e77e8b6b1465131c3b50493ca6200b5f0ee865d867177e587efd6527c",
    ("B", 3, "csv"): "ce92096af2de9230f363682f3078c0c4c0e069d760ab1e54b0a5a82527e5a3e3",
    ("B", 3, "bfile"): "e85f6bc7236950ef4d36367df704e56aad4f05699d67e82a8919e8ff5f8b27f4",
    ("D", 3, "pretty"): "1c6c86c77eb179dc70619e853b8d3619207287544b9cf1e42e49f395f0ff1374",
    ("D", 3, "csv"): "693d6c2b233939e659e2baf42c41aa1d443b680ef3ba6c75d18691df007b3a15",
    ("D", 3, "bfile"): "0aac3a5db449f26740e5c1324ebc14488670915ce52c856717df1fba167852c5",
    ("sheared-catalan", 3, "pretty"): "f9ae4c6faad0656e8f3a2979a7a716c5b8fda8e8dc3101acadc4712fc7e1c01c",
    ("sheared-catalan", 3, "csv"): "bf9b457a0885be89d97ea465fd24e879fb1c9b46428ffa597af2d700d0cb909e",
    ("sheared-catalan", 3, "bfile"): "6ad06383171493a522a44653419b6054227693925dfeb6dc5542af9ea613f1a4",
    ("pascal", 3, "pretty"): "23db4ed243db4f86d16027b74e103473ad3b273fb59e7a5b443edfae561930a0",
    ("pascal", 3, "csv"): "df171a0d0f145f3da00efea7fcb40f80160a02dd8322d738e4b457676f770097",
    ("pascal", 3, "bfile"): "24c681bbc1475640bcbe082cbb4b489d4e67672eca4f40187e3b3c4634a63a34",
    ("lucas", 3, "pretty"): "05b39ef82f85eab66ba5bcf953641bc3faa6a84c12e65e86b74dbf7600081780",
    ("lucas", 3, "csv"): "54037ec2dd38e72a619be434246e1abb98ea531e7f605d32f2a8978c10ccea99",
    ("lucas", 3, "bfile"): "05eb61bfc017af781ea5aec6625bbb21502de8d20365d7ab2973d2980c9de389",
}


@pytest.mark.parametrize("name, rows, fmt", list(_EDGE_ROW_DIGESTS))
def test_edge_rows_pinned(name, rows, fmt, capsys):
    assert run(["triangle", name, "--rows", str(rows), "--format", fmt]) == 0
    for blob in (render_triangle(name, rows, fmt), capsys.readouterr().out.encode()):
        assert hashlib.sha256(blob).hexdigest() == _EDGE_ROW_DIGESTS[name, rows, fmt]


# holding the rows before writing them grew VmHWM by about 7 MB at 400 rows
# and by about 80 MB at 1000; generating each row as it is written grows it
# by about 0.4 MB at 400 rows, and at 1000 rows by 1.4 MB (csv) and 3 MB
# (pretty, whose widest cell is found in a first pass)
def test_triangle_is_written_row_by_row():
    assert vmhwm_growth_kb("triangle", "B", "--rows", "400", "--format", "pretty") < 2 * 1024


@pytest.mark.slow
@pytest.mark.parametrize("fmt", ["pretty", "csv"])
def test_thousand_row_triangle_is_written_row_by_row(fmt):
    assert vmhwm_growth_kb("triangle", "B", "--rows", "1000", "--format", fmt) < 6 * 1024


def test_pretty_rendering_d_has_dots_and_sums():
    text = render_triangle("D", 8, "pretty").decode()
    lines = text.splitlines()
    assert lines[0].split() == ["0", "·"]
    assert lines[1].split() == ["1", "·", "·"]
    assert lines[2].split() == ["2", "1", "2", "1", "|", "4"]
    assert lines[-1].split()[-1] == "35750"


def test_pretty_rendering_b_row9():
    text = render_triangle("B", 10, "pretty").decode()
    row9 = text.splitlines()[9].split()
    assert row9[1:11] == ["1", "9", "45", "165", "495", "1287", "3003", "6435", "12870", "24310"]
    assert row9[-1] == "48620"


def test_pretty_sum_columns_match_totals():
    from dynkin_tilting.formulas import a_total

    for name, series, first in (("A", "A", 0), ("B", "B", 0), ("D", "D", 2)):
        text = render_triangle(name, 10, "pretty").decode()
        data_lines = [ln for ln in text.splitlines() if "|" in ln]
        for k, line in enumerate(data_lines):
            assert int(line.rsplit("|", 1)[1]) == a_total(series, first + k)


def test_csv_rendering():
    text = render_triangle("B", 10, "csv").decode()
    assert text.splitlines()[9] == "1,9,45,165,495,1287,3003,6435,12870,24310"


def test_bfile_roundtrip():
    for name in ("A", "B", "D", "pascal", "lucas", "sheared-catalan"):
        blob = render_triangle(name, 9, "bfile").decode()
        parsed = parse_bfile("X", blob)
        doc = triangle_doc(name, 9)
        flat = [v for row in doc.rows for v in row]
        assert _values(parsed) == flat
        assert parsed.entries[0][0] == doc.offset


def test_bad_inputs():
    for bad in (("Z", 5, "pretty"), ("A", 5, "yaml"), ("A", 0, "csv"), ("A", 1001, "csv")):
        with pytest.raises(ValueError):
            render_triangle(*bad)
        with pytest.raises(ValueError):  # raised without taking a line
            triangle_lines(*bad)
    with pytest.raises(ValueError):
        generate_terms("A000001", 5)
    triangle_lines("A", 1000, "csv")  # the largest row count is admitted
    assert generate_terms("A009766", 1) == [(0, 1)]
    with pytest.raises(ValueError, match=r"^need at least one term$"):
        generate_terms("A009766", 0)


def test_parse_bfile_errors():
    with pytest.raises(BFileError, match="line 2"):
        parse_bfile("X", "0 1\nabc def\n")
    with pytest.raises(BFileError, match="line 3"):
        parse_bfile("X", "0 1\n1 2\n5 9\n")
    with pytest.raises(BFileError):
        parse_bfile("X", "# only comments\n")
    with pytest.raises(BFileError, match=r"^line 1: expected 'index value', got '0 1 2'$"):
        parse_bfile("X", "0 1 2\n")
    with pytest.raises(BFileError, match=r"^line 2: negative value -2$"):
        parse_bfile("X", "0 1\n1 -2\n")
    # int() takes each of these fields; a b-file takes only ASCII digits
    for field in ("1_0", "+3", "\u0663"):
        with pytest.raises(BFileError, match=rf"^line 2: non-integer field in '1 {re.escape(field)}'$"):
            parse_bfile("X", f"0 1\n1 {field}\n")
        with pytest.raises(BFileError, match=rf"^line 2: non-integer field in '{re.escape(field)} 1'$"):
            parse_bfile("X", f"0 1\n{field} 1\n")
    # a line ends at '\n' alone and its fields part at spaces and tabs alone
    with pytest.raises(BFileError, match=r"^line 1: expected 'index value', got '0\\u30001'$"):
        parse_bfile("X", "0\u30001\n1 2\x1c2 5")
    with pytest.raises(BFileError, match=r"^line 2: expected 'index value', got '1 2\\x1c2 5'$"):
        parse_bfile("X", "0 1\n1 2\x1c2 5")
    parsed = parse_bfile("X", "# c\n\n0 1\n1 2\n2 0\n")  # zero is a value
    assert parsed.entries == ((0, 1), (1, 2), (2, 0))


def test_fixture_first_entries():
    assert fetch_bfile("A009766").entries[0] == (0, 1)
    assert fetch_bfile("A029635").entries[0] == (0, 2)
    assert fetch_bfile("A241188").entries[0] == (1, 1)


def test_generated_prefixes():
    assert [v for _, v in generate_terms("A009766", 10)] == [1, 1, 1, 1, 2, 2, 1, 3, 5, 5]
    assert [v for _, v in generate_terms("A008315", 12)] == [1, 1, 1, 1, 1, 2, 1, 3, 2, 1, 4, 5]
    assert [v for _, v in generate_terms("A029635", 10)] == [2, 1, 2, 1, 3, 2, 1, 4, 5, 2]
    assert [v for _, v in generate_terms("A129869", 8)] == [1, 5, 20, 77, 294, 1122, 4290, 16445]


def test_flat_stops_at_the_row_that_completes_the_prefix():
    pulled = []

    def rows():
        for row in oeis._SEQUENCES["A009766"][0]():
            pulled.append(row)
            yield row

    # rows (1,), (1, 1), (1, 2, 2): the fourth term opens the third row
    assert oeis._flat(rows(), 4, 0) == [(0, 1), (1, 1), (2, 1), (3, 1)]
    assert len(pulled) == 3


def test_d_fixture_matches_transcribed_rows():
    from tests.test_formulas import TRIANGLE_B, TRIANGLE_D

    flat_d = [v for n in sorted(TRIANGLE_D) for v in TRIANGLE_D[n][0]]
    got = _values(fetch_bfile("A241188"))[: len(flat_d)]
    assert got == flat_d
    flat_b = [v for n in sorted(TRIANGLE_B) for v in TRIANGLE_B[n][0]]
    assert _values(fetch_bfile("A059481"))[: len(flat_b)] == flat_b


# the prefix lengths the verify suites reconcile by default, written out here
# independently of verify.RECONCILE_TERMS; tests/test_acceptance.py reads them too
RECONCILE_TERMS = {
    "A009766": 55,
    "A059481": 55,
    "A241188": 54,
    "A008315": 40,
    "A007318": 55,
    "A029635": 40,
    "A129869": 8,
}


def test_reconcile_all_fixtures():
    assert verify.RECONCILE_TERMS == RECONCILE_TERMS
    for sid, terms in RECONCILE_TERMS.items():
        res = reconcile(sid, terms)
        assert res.passed, (sid, res.detail)


def test_reconcile_reports_mismatch(tmp_path, monkeypatch):
    bad = tmp_path / "b129869.txt"
    bad.write_text("0 1\n1 5\n2 21\n")
    monkeypatch.setenv(oeis.FIXTURE_ENV_VAR, str(tmp_path))
    res = reconcile("A129869", 3)
    assert not res.passed
    assert "index 2" in res.detail


def test_missing_fixture(tmp_path, monkeypatch):
    monkeypatch.setenv(oeis.FIXTURE_ENV_VAR, str(tmp_path))
    with pytest.raises(FileNotFoundError):
        fetch_bfile("A007318")


def test_fixture_generator_reproduces_shipped_bfiles(tmp_path):
    # tools/gen_fixtures.py builds each b-file from its binomial definition,
    # without the package; the shipped fixtures must be exactly its output
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("gen_fixtures", root / "tools" / "gen_fixtures.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.OUT = tmp_path
    gen.main()
    shipped = root / "src" / "dynkin_tilting" / "fixtures"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in shipped.iterdir())
    for path in tmp_path.iterdir():
        assert path.read_bytes() == (shipped / path.name).read_bytes(), path.name


@pytest.mark.parametrize(
    "error",
    [pytest.param(TimeoutError("timed out"), id="timeout"), pytest.param(OSError("network unreachable"), id="unreachable")],
)
def test_online_fetch_failure_warns_and_uses_fixture(monkeypatch, capsys, error):
    import urllib.request

    def refuse(url, timeout):
        raise error

    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    res = fetch_bfile("A129869", online=True)
    assert res == fetch_bfile("A129869")
    assert "falling back to fixture" in capsys.readouterr().err


def test_offline_by_default(monkeypatch):
    # fetch_bfile swallows every error of a live fetch, so a urlopen that
    # raised would go unseen: record the calls instead
    import urllib.request

    calls = []
    monkeypatch.setattr(urllib.request, "urlopen", lambda *args, **kwargs: calls.append(args))
    fetch_bfile("A007318")
    reconcile("A007318", 10)
    assert calls == []


# modules a CLI process must not pay to import: the network stack is needed
# only by `reconcile --online`, and the rest are the start-up cost of
# dataclasses (inspect pulls in ast, dis and tokenize) and of fractions
_UNLOADED_BY_CLI = ("urllib.request", "dataclasses", "fractions", "decimal", "inspect")


def test_cli_import_leaves_urllib_request_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(dynkin_tilting.__file__).parents[1])}
    code = f"import sys, dynkin_tilting.cli; print([m for m in {_UNLOADED_BY_CLI!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
