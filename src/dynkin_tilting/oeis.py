"""Triangle rendering and b-file reconciliation.

Supported triangle names:

  A, B, D            the per-series support-rank tables
  sheared-catalan    the sheared ballot triangle (rows t >= 0)
  pascal             C(t, s)
  lucas              [t over s], with the open (0,0) corner

`triangle --rows` (at most MAX_ROWS) counts rows, not ranks, so the rank
limit does not apply: the D table starts at D_2, and row 1000 is D_1001.

Rows are built one from the previous by the additive recursions that
``formulas`` states and ``verify`` checks: the hook recursion
a_s(n) = a_s(n-1) + a_{s-1}(n) for the A, B and D tables, and the
z-recursion z_s(t) = z_{s-1}(t-1) + z_s(t-1) for the Pascal, Lucas and
sheared ballot triangles.  The few cells outside the recursions' regions
(the B main diagonal, the last two cells of each D row) take O(1) exact
integer steps per row.  The closed forms in ``formulas`` are the test
oracle for every generated row.  ``triangle_lines`` generates each row as
it writes it and holds none; pretty output generates the rows twice, first
for the column widths.

b-file format: lines "<index> <value>" in ASCII digits, each ended by a line
feed alone and split by spaces and tabs alone, '#' comments and blank lines
ignored, indices increasing by 1 from the sequence offset.  Offline
fixture files shipped with the package are authoritative; a live fetch from
oeis.org is opt-in and falls back to the fixture with a warning on any failure.

Sequence ids and their generators (offsets as in the shipped fixtures):

  A009766  type-A table read by rows (n >= 0), offset 0
  A059481  type-B table read by rows (n >= 0), offset 0
  A241188  type-D table read by rows (n >= 2), offset 1
  A008315  ballot triangle rows n >= 0, entries s <= n//2, offset 0
  A007318  Pascal triangle read by rows, offset 0
  A029635  Lucas triangle read by rows with corner value 2, offset 0
  A129869  type-D main diagonal a_n(D_n), n = 2, 3, ..., offset 0
"""

from __future__ import annotations

import os
import sys
from functools import reduce
from itertools import accumulate, chain, count, islice
from operator import add
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .diagrams import _plain_int

FIXTURE_ENV_VAR = "DYNKIN_TILTING_FIXTURES"
_FIXTURE_DIR = Path(__file__).parent / "fixtures"
_FETCH_TIMEOUT_S = 10.0

# most rows `triangle` renders
MAX_ROWS = 1000

Row = tuple[int, ...]


class BFileError(ValueError):
    """Malformed b-file content."""


class TriangleDoc(NamedTuple):
    """A triangle held whole: rows plus row sums (the CLI streams rows instead)."""

    name: str
    first_row: int
    rows: tuple[Row, ...]
    sums: tuple[int, ...]
    offset: int  # linear index of the first b-file term


class BFile(NamedTuple):
    sequence_id: str
    entries: tuple[tuple[int, int], ...]


# --- row generators -----------------------------------------------------------


def _a_rows() -> Iterator[Row]:
    """A_0, A_1, ...: the hook recursion on the whole row, a_n(n) = a_{n-1}(n)."""
    row: Row = (1,)
    while True:
        yield row
        hooked = tuple(accumulate(row))
        row = hooked + hooked[-1:]


def _b_rows() -> Iterator[Row]:
    """B_0, B_1, ...: the hook recursion for s < n, then the main diagonal
    a_n(B_n) = C(2n-1, n) = a_{n-1}(B_n) (2n-1)/n."""
    row: Row = (1,)
    n = 0
    while True:
        yield row
        n += 1
        hooked = tuple(accumulate(row))
        row = hooked + (hooked[-1] * (2 * n - 1) // n,)


def _d_rows() -> Iterator[Row]:
    """D_2, D_3, ...: the hook recursion for s <= n-2, the modified hook
    a_{n-1}(D_n) = a_{n-1}(D_{n-1}) + a_{n-2}(D_n) + Catalan(n-2), and
    a_n(D_n) = [2n-2 over n-2] = (3n-4) Catalan(n-1) / 2."""
    row: Row = (1, 2, 1)
    n = 2
    catalan, next_catalan = 1, 1  # Catalan(n-2), Catalan(n-1)
    while True:
        yield row
        n += 1
        catalan, next_catalan = next_catalan, next_catalan * 2 * (2 * n - 3) // n
        hooked = tuple(accumulate(row[:-1]))
        row = hooked + (row[-1] + hooked[-1] + catalan, (3 * n - 4) * next_catalan // 2)


def _z_rows(row: Row) -> Iterator[Row]:
    """Pascal (first row (1,)) or Lucas (first row (1, 2)): each row is
    z_0 = 1, z_s(t) = z_{s-1}(t-1) + z_s(t-1), and the diagonal kept."""
    while True:
        yield row
        row = (row[0], *map(add, row, row[1:]), row[-1])


def _sheared_ballot_rows() -> Iterator[Row]:
    """Rows t = 0, 1, ... of the sheared ballot triangle, s <= (t+1)//2: the
    z-recursion, where the new cell of an odd row has z_s(t-1) = 0."""
    row: Row = (1,)
    t = 0
    while True:
        yield row
        t += 1
        row = (row[0], *map(add, row, row[1:])) + (row[-1:] if t % 2 else ())


def _pascal_rows() -> Iterator[Row]:
    return _z_rows((1,))


def _lucas_rows() -> Iterator[Row]:
    # row 0 is the open corner; OEIS A029635 pins it to 2
    return chain([(2,)], _z_rows((1, 2)))


class _Triangle(NamedTuple):
    """A row generator and the conventions of its triangle; a sequence that
    is no triangle of its own reads only the generator and the offset."""

    rows: Callable[[], Iterable[Row]]
    first_row: int = 0  # index of the first generated row
    offset: int = 0  # b-file index of the first cell
    first_shown: int = 0  # first row `pretty` prints; the rows before it are open dots
    sums: bool = False  # `pretty` adds the row-sum column
    corner: int | None = None  # OEIS value of the open (0,0) corner, noted in b-files and reconcile


_TRIANGLES = {
    "A": _Triangle(_a_rows, sums=True),
    "B": _Triangle(_b_rows, sums=True),
    "D": _Triangle(_d_rows, first_row=2, offset=1, first_shown=2, sums=True),
    "sheared-catalan": _Triangle(_sheared_ballot_rows),
    "pascal": _Triangle(_pascal_rows),
    # lucas's corner value 2 is OEIS-only, so `pretty` shows it as a dot
    "lucas": _Triangle(_lucas_rows, first_shown=1, corner=2),
}

TRIANGLE_NAMES = tuple(_TRIANGLES)


def _triangle(name: str, rows: int) -> _Triangle:
    if rows < 1 or rows > MAX_ROWS:
        raise ValueError(f"row count must be within 1..{MAX_ROWS}")
    if name not in _TRIANGLES:
        raise ValueError(f"unknown triangle {name!r}; choose one of {', '.join(TRIANGLE_NAMES)}")
    return _TRIANGLES[name]


def triangle_doc(name: str, rows: int) -> TriangleDoc:
    """Build a TriangleDoc with `rows` rows of the named triangle."""
    triangle = _triangle(name, rows)
    data = tuple(islice(triangle.rows(), rows))
    return TriangleDoc(name, triangle.first_row, data, tuple(map(sum, data)), triangle.offset)


def triangle_lines(name: str, rows: int, fmt: str) -> Iterator[str]:
    """A triangle as pretty text, CSV, or a b-file, one string per row after
    any header lines; a plain function, so bad arguments raise ValueError
    before the first line.  The rows are generated as they are written, and
    pretty output generates them twice: once for the column widths, once
    to write them."""
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown format {fmt!r}; choose pretty, csv, or bfile")
    triangle = _triangle(name, rows)
    return _RENDERERS[fmt](name, lambda: islice(triangle.rows(), rows))


def render_triangle(name: str, rows: int, fmt: str) -> bytes:
    """The whole text of triangle_lines as bytes."""
    return "".join(triangle_lines(name, rows, fmt)).encode()


def _pretty_lines(name: str, rows: Callable[[], Iterator[Row]]) -> Iterator[str]:
    triangle = _TRIANGLES[name]
    first = triangle.first_shown
    skip = first - triangle.first_row
    # every cell and sum is a nonnegative integer, so the widest is the
    # largest; both are taken over every generated row, dots included
    biggest, biggest_sum = reduce(lambda a, b: tuple(map(max, a, b)), ((max(row), sum(row)) for row in rows()))
    width, sum_width = len(str(biggest)), len(str(biggest_sum))
    for n in range(first):
        yield f"{n:>3}  " + " ".join(["·".rjust(width)] * (n + 1)) + "\n"
    for n, row in zip(count(first), islice(rows(), skip, None)):
        body = " ".join(str(v).rjust(width) for v in row)
        tail = f"  | {str(sum(row)).rjust(sum_width)}" if triangle.sums else ""
        yield f"{n:>3}  {body}{tail}\n"


def _csv_lines(name: str, rows: Callable[[], Iterator[Row]]) -> Iterator[str]:
    for row in rows():
        yield ",".join(map(str, row)) + "\n"


def _bfile_lines(name: str, rows: Callable[[], Iterator[Row]]) -> Iterator[str]:
    triangle = _TRIANGLES[name]
    yield f"# {name} triangle read by rows, first row {triangle.first_row}\n"
    if triangle.corner is not None:
        yield f"# corner (0,0) uses the OEIS convention value {triangle.corner}\n"
    idx = triangle.offset
    for row in rows():
        # a whole row per string: one write per cell costs more than formatting
        yield "".join(f"{i} {v}\n" for i, v in enumerate(row, idx))
        idx += len(row)


_RENDERERS = {"pretty": _pretty_lines, "csv": _csv_lines, "bfile": _bfile_lines}

FORMATS = tuple(_RENDERERS)


# --- sequence generators for reconciliation ---------------------------------


def _flat(rows: Iterable[Row], terms: int, offset: int) -> list[tuple[int, int]]:
    # islice stops inside the row that completes the prefix
    return list(enumerate(islice(chain.from_iterable(rows), terms), offset))


# sequence id -> its rows: the five triangles read by rows, and two more
_SEQUENCES = {
    "A009766": _TRIANGLES["A"],
    "A059481": _TRIANGLES["B"],
    "A241188": _TRIANGLES["D"],
    # OEIS rows T(n,k) = C(n,k) - C(n,k-1), 0 <= k <= n//2: the sheared
    # triangle's row t = n-1, preceded by a lone 1
    "A008315": _Triangle(lambda: chain([(1,)], _sheared_ballot_rows())),
    "A007318": _TRIANGLES["pascal"],
    "A029635": _TRIANGLES["lucas"],
    "A129869": _Triangle(lambda: (row[-1:] for row in _d_rows())),
}

SEQUENCE_IDS = tuple(sorted(_SEQUENCES))


def _sequence(sequence_id: str, terms: int | None) -> _Triangle:
    if sequence_id not in _SEQUENCES:
        raise ValueError(f"unsupported sequence {sequence_id!r}; known: {', '.join(SEQUENCE_IDS)}")
    if terms is not None and terms < 1:
        raise ValueError("need at least one term")
    return _SEQUENCES[sequence_id]


# --- b-file parsing and fetching --------------------------------------------


def parse_bfile(sequence_id: str, text: str) -> BFile:
    """Parse b-file text; malformed lines report their line number."""
    entries: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip(" \t")
        if not line or line.startswith("#"):
            continue
        parts = [part for part in line.replace("\t", " ").split(" ") if part]
        if len(parts) != 2:
            raise BFileError(f"line {lineno}: expected 'index value', got {raw!r}")
        idx, val = _plain_int(parts[0]), _plain_int(parts[1].removeprefix("-"))
        if idx is None or val is None:
            raise BFileError(f"line {lineno}: non-integer field in {raw!r}")
        if parts[1].startswith("-"):
            raise BFileError(f"line {lineno}: negative value {parts[1]}")
        if entries and idx != entries[-1][0] + 1:
            raise BFileError(
                f"line {lineno}: index {idx} does not follow {entries[-1][0]}"
            )
        entries.append((idx, val))
    if not entries:
        raise BFileError("b-file contains no entries")
    return BFile(sequence_id, tuple(entries))


def fixture_dir() -> Path:
    env = os.environ.get(FIXTURE_ENV_VAR)
    return Path(env) if env else _FIXTURE_DIR


def fixture_path(sequence_id: str) -> Path:
    return fixture_dir() / f"b{sequence_id[1:]}.txt"


def fetch_bfile(sequence_id: str, online: bool = False) -> BFile:
    """Load a b-file from the fixture directory, or from oeis.org if asked.

    A failed live fetch warns on stderr and falls back to the fixture.
    """
    if online:
        import urllib.request  # here, not at module level: it was a third of importing the CLI

        url = f"https://oeis.org/{sequence_id}/b{sequence_id[1:]}.txt"
        try:
            with urllib.request.urlopen(url, timeout=_FETCH_TIMEOUT_S) as resp:
                return parse_bfile(sequence_id, resp.read().decode())
        except Exception as exc:  # noqa: BLE001 - any network failure falls back
            print(
                f"warning: fetching {url} failed ({exc}); falling back to fixture",
                file=sys.stderr,
            )
    path = fixture_path(sequence_id)
    if not path.exists():
        raise FileNotFoundError(
            f"no fixture for {sequence_id} at {path} (set ${FIXTURE_ENV_VAR} to override)"
        )
    return parse_bfile(sequence_id, path.read_text())


class ReconcileResult(NamedTuple):
    sequence_id: str
    terms: int
    passed: bool
    detail: str


def reconcile(sequence_id: str, terms: int | None = None, online: bool = False) -> ReconcileResult:
    """Compare the first `terms` generated values against the b-file, or
    every term it holds when `terms` is None.

    The b-file is loaded first, so no more terms are generated than it holds.
    """
    sequence = _sequence(sequence_id, terms)
    bfile = fetch_bfile(sequence_id, online=online)
    terms = len(bfile.entries) if terms is None else terms
    if len(bfile.entries) < terms:
        return ReconcileResult(
            sequence_id, terms, False, f"b-file has only {len(bfile.entries)} terms"
        )
    generated = _flat(sequence.rows(), terms, sequence.offset)
    note = "" if sequence.corner is None else f" (corner convention {sequence.corner})"
    for (gi, gv), (ri, rv) in zip(generated, bfile.entries):
        if (gi, gv) != (ri, rv):
            return ReconcileResult(
                sequence_id,
                terms,
                False,
                f"mismatch at index {ri}: generated ({gi},{gv}) vs b-file ({ri},{rv})",
            )
    return ReconcileResult(sequence_id, terms, True, f"{terms} terms agree{note}")
