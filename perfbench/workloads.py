"""Workload definitions: the commands of one pass, built from the seed, and
what each command's stdout must be.

Every expectation here is a literal kept in this file.  Count rows are
checked against known values (Catalan, Narayana, C(2n, n), C(n, k)^2, the
E8 row), never against the program's own ``formulas``; listings are
checked by line count against those totals; reports and triangles are
checked against sha256 digests pinned from the seed commit (e8afbc3).

A command's first argument tells ``child.py`` how to run it: ``cli``
drives ``dynkin_tilting.cli.main`` with the remaining arguments, ``sweep``
calls ``verify.verify_type`` in-process over every orientation of the
listed types.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

WORKLOADS = ("enum-count", "enum-list", "verify", "triangle", "sweep")


@dataclass(frozen=True)
class Command:
    """One child process of a pass and the check its stdout must pass."""

    argv: tuple[str, ...]
    sha256: str | None = None  # exact stdout digest
    lines: int | None = None  # stdout line count, for listings

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _text(*lines: str) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


# --- enum-count: literal count rows -----------------------------------------

_RANK_ROWS = {
    "A10": "1 10 54 208 637 1638 3640 7072 11934 16796 16796 | total 58786",
    "B10": "1 10 55 220 715 2002 5005 11440 24310 48620 92378 | total 184756",
    "D10": "1 10 54 210 660 1782 4290 9438 19305 37180 63206 | total 136136",
    "E8": "1 8 35 112 299 728 1771 4784 17342 | total 25080",
}
_SIZE_ROWS = {  # antichains by cardinality: Narayana, C(10,k)^2, type-D/E Narayana
    "A10": "1 55 825 4950 13860 19404 13860 4950 825 55 1 | total 58786",
    "B10": "1 100 2025 14400 44100 63504 44100 14400 2025 100 1 | total 184756",
    "D10": "1 90 1665 11040 32340 45864 32340 11040 1665 90 1 | total 136136",
    "E8": "1 120 1540 6120 9518 6120 1540 120 1 | total 25080",
}

# --- enum-list: result totals (Catalan(11), E8, [15 over 7], C(14, 7)) -------

_LISTINGS = (("E8", "tilting", 25080), ("A10", "antichain", 58786), ("D8", "tilting", 9438), ("B7", "tilting", 3432))

# --- verify, triangle, sweep: digests pinned from the seed commit ----------

_VERIFY = (
    (("--quick",), "ff2b37ebd08edf90f07053f135b712e9ec1b9c68db88ef99d449ded34a4c9d16"),
    (("--full", "--max-n", "80"), "21558e5818c77da168bab88d16a4893c86ebbc70a9afd73dafd89240f4e57cb3"),
    (("--slow", "--threads", "2"), "194a152cd6f66a6e4d5e2b0ee37eb61f6f677a2e543d29403373c02cb2fcbd52"),
)

TRIANGLE_ROWS = 400
_TRIANGLES = (
    ("A", "csv", "b48b8bc3bc13ceae95ef35c55c36d6d1338d031a8734b3d020f667ee975cfcdc"),
    ("B", "pretty", "dbe06956b0403a2b9b5c53b7c47315ba4ad21507ec0d2e889f32d984eaa2feda"),
    ("D", "bfile", "caa2d63dc5268ec83c242b2af2985d89d09fbef29c9de13daafcc13db083ed2a"),
    ("pascal", "csv", "bb69ac3072d7e60d5f9bd672c69e36e6f720918503a646913b991291dc69d1a5"),
    ("lucas", "pretty", "ac9fd0cbada44365cb3dfbd5e46e0da3bcd8a1f42bf5ce6f62fc8cb79ce5ea23"),
    ("sheared-catalan", "bfile", "5a6186debe88cd2152fc01ba7bcdd07512a342c1fc2896b1042e5f518752c31c"),
)

# full length of each shipped b-file fixture
_RECONCILE = (
    ("A009766", 136),
    ("A059481", 136),
    ("A241188", 102),
    ("A008315", 132),
    ("A007318", 136),
    ("A029635", 105),
    ("A129869", 20),
)

SWEEP_TYPES = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)]
    + ["D4", "D5", "D6", "E6", "F4", "G2"]
)
_SWEEP_SHA256 = "18efcafd3ffe3067a6ffdb9a7d5a4153bc6345059e8de254043f692de387228a"


def _edges(label: str) -> list[tuple[int, int]]:
    """Diagram edges in the program's vertex numbering (diagrams.canonical_shape):
    a chain from vertex 1, with the branch vertices of D and E at the high end."""
    series, n = label[0], int(label[1:])
    if series == "D":
        return [(i, i + 1) for i in range(1, n - 2)] + [(n - 2, n - 1), (n - 2, n)]
    if series == "E":
        return [(i, i + 1) for i in range(1, n - 3)] + [(n - 3, n - 2), (n - 3, n - 1), (n - 1, n)]
    return [(i, i + 1) for i in range(1, n)]


def orientation(rng: random.Random, label: str) -> str:
    """One acyclic orientation drawn uniformly: each tree edge gets a direction."""
    arrows = []
    for a, b in _edges(label):
        src, dst = (a, b) if rng.random() < 0.5 else (b, a)
        arrows.append(f"{src}>{dst}")
    return ",".join(arrows)


def _enumerate(label: str, spec: str, statistic: str, *extra: str) -> tuple[str, ...]:
    return ("cli", "enumerate", label[0], label[1:], "--orientation", spec, "--statistic", statistic, *extra)


def commands(workload: str, seed: int) -> list[Command]:
    """The commands of one pass of `workload`; `seed` picks the orientations."""
    rng = random.Random(seed)
    if workload == "enum-count":
        out = []
        for label in _RANK_ROWS:
            spec = orientation(rng, label)
            rank = "by-support-rank: " + _RANK_ROWS[label]
            size = "by-size:         " + _SIZE_ROWS[label]
            out.append(Command(_enumerate(label, spec, "tilting"), sha256=_text(rank)))
            out.append(Command(_enumerate(label, spec, "antichain"), sha256=_text(rank, size)))
        return out
    if workload == "enum-list":
        return [
            Command(_enumerate(label, orientation(rng, label), statistic, "--list"), lines=total)
            for label, statistic, total in _LISTINGS
        ]
    if workload == "verify":
        return [Command(("cli", "verify", *flags), sha256=digest) for flags, digest in _VERIFY]
    if workload == "triangle":
        out = [
            Command(("cli", "triangle", name, "--rows", str(TRIANGLE_ROWS), "--format", fmt), sha256=digest)
            for name, fmt, digest in _TRIANGLES
        ]
        for sid, terms in _RECONCILE:
            line = f"{sid}\tterms={terms}\t{terms} terms agree" + (" (corner convention 2)" if sid == "A029635" else "")
            out.append(Command(("cli", "reconcile", sid, "--terms", str(terms)), sha256=_text(line + "\tPASS")))
        return out
    if workload == "sweep":
        return [Command(("sweep", *SWEEP_TYPES), sha256=_SWEEP_SHA256)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
