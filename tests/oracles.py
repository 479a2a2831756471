"""Reference implementations that the tests compare the package against.

Each one decides its fact the slow, direct way: the dense reflection row
by row, tau-minus as a word of reflections, Hom and Ext pair by pair from
the orbit grid, the antichains of the positive-root poset without any
module at all, and the partial sums of the identity suite term by term.
The symmetrizer D of a Cartan matrix lives here too: the package never
reads it, and only the tests' finite-type oracle uses it.  So does the
probe of a CLI run's peak memory that the streaming tests share.
"""

import os
import subprocess
import sys
from math import gcd, lcm
from pathlib import Path

import pytest

import dynkin_tilting
from dynkin_tilting import formulas
from dynkin_tilting.diagrams import positive_roots, reflect_in_place, reflection_kernel

Key = tuple[int, int]


def symmetrizer(shape, cartan):
    """The least positive integer vector d with d_i A_ij = d_j A_ji."""
    # propagate d_j = d_i * A_ij / A_ji along edges of each component, each
    # d_j an exact fraction kept as a reduced (numerator, denominator) pair
    n = shape.vertex_count
    d: list[tuple[int, int] | None] = [None] * (n + 1)
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i, j, _, _ in shape.edges:
        adj[i].append(j)
        adj[j].append(i)
    for comp in shape.components():
        root = min(comp)
        d[root] = (1, 1)
        stack = [root]
        while stack:
            v = stack.pop()
            num, den = d[v]  # type: ignore[misc]
            for w in adj[v]:
                if d[w] is None:
                    # both entries are negative on an edge, so the ratio is positive
                    p = num * -cartan[v - 1][w - 1]
                    q = den * -cartan[w - 1][v - 1]
                    g = gcd(p, q)
                    d[w] = (p // g, q // g)
                    stack.append(w)
    pairs: list[tuple[int, int]] = d[1:]  # type: ignore[assignment]
    denoms = lcm(*(q for _, q in pairs))
    ints = [p * (denoms // q) for p, q in pairs]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def simple_reflection(datum, i, coords):
    """Reflect a root-lattice vector at vertex i (an involution), from the
    full row i of the Cartan matrix."""
    row = datum.cartan[i - 1]
    s = 0
    for j, x in enumerate(coords):
        s += row[j] * x
    out = list(coords)
    out[i - 1] -= s
    return tuple(out)


def is_positive(coords):
    """True for nonzero vectors with all coordinates >= 0."""
    return all(c >= 0 for c in coords) and any(c > 0 for c in coords)


def tau_minus(datum, order, coords):
    """Inverse Coxeter transformation on the root lattice, on the sparse kernel."""
    x = list(coords)
    reflect_in_place(reflection_kernel(datum.cartan), [v - 1 for v in reversed(order)], x)
    return tuple(x)


def indec(cat, i, u):
    """M(i, u); KeyError unless 1 <= i <= n and 0 <= u <= q(i)."""
    if not (1 <= i <= cat.n and 0 <= u <= cat.q[i - 1]):
        raise KeyError(f"no such indecomposable: {(i, u)}")
    return cat.indecs[sum(cat.q[: i - 1]) + i - 1 + u]


def hom_nonzero(cat, x: Key, y: Key) -> bool:
    """Hom(M(x), M(y)) != 0, decided pairwise: u <= v and i supports M(j, v - u)."""
    i, u = x
    j, v = y
    indec(cat, i, u), indec(cat, j, v)  # KeyError for an unknown key
    return u <= v and indec(cat, j, v - u).dim[i - 1] != 0


def ext_nonzero(cat, x: Key, y: Key) -> bool:
    """Ext^1(M(x), M(y)) != 0, decided pairwise: Hom(M(y), tau M(x)) != 0."""
    i, u = x
    indec(cat, i, u), indec(cat, *y)  # KeyError for an unknown key
    return u > 0 and hom_nonzero(cat, y, (i, u - 1))


def nonnesting_tables(datum):
    """The antichains of the positive-root poset, counted by size and by the
    size of the union of their roots' supports.

    beta <= gamma when gamma - beta >= 0 in every coordinate.  The walk adds
    roots in increasing position, each time keeping only the later roots
    comparable with none chosen so far, so it visits every antichain once.
    """
    roots = sorted(positive_roots(datum))
    supports = [sum(1 << i for i, c in enumerate(r) if c) for r in roots]
    comparable = [
        sum(
            1 << k
            for k, other in enumerate(roots)
            if all(a <= b for a, b in zip(root, other)) or all(a >= b for a, b in zip(root, other))
        )
        for root in roots
    ]
    by_size = [0] * (datum.n + 1)
    by_support = [0] * (datum.n + 1)

    def walk(size, support, candidates):
        by_size[size] += 1
        by_support[support.bit_count()] += 1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            k = low.bit_length() - 1
            walk(size + 1, support | supports[k], candidates & ~comparable[k])

    walk(0, 0, (1 << len(roots)) - 1)
    return tuple(by_size), tuple(by_support)


def partial_row_sum(series, n, s):
    """a_0(n) + ... + a_s(n), each term read from ``formulas.a_s`` when called."""
    return sum(formulas.a_s(series, n, i) for i in range(s + 1))


def partial_diagonal_sum(series, t, s):
    """z_0(t-s-1) + z_1(t-s) + ... + z_s(t-1), each term read from
    ``formulas.z_value`` when called."""
    return sum(formulas.z_value(series, t - s + i - 1, i) for i in range(s + 1))


_VMHWM_CHILD = """
import os, sys
import dynkin_tilting.cli as cli

def vmhwm_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

before = vmhwm_kb()
sys.stdout = open(os.devnull, "w")
assert cli.run(sys.argv[1:]) == 0
sys.stdout.close()
print(vmhwm_kb() - before, file=sys.__stdout__)
"""


def vmhwm_growth_kb(*argv):
    """How far a fresh CLI process running `argv`, with stdout to /dev/null,
    raises VmHWM above the CLI's import; skips where /proc has no VmHWM."""
    try:
        with open("/proc/self/status") as status:
            if not any(line.startswith("VmHWM:") for line in status):
                pytest.skip("no VmHWM in /proc/self/status")
    except OSError:
        pytest.skip("/proc/self/status is unreadable")
    env = {**os.environ, "PYTHONPATH": str(Path(dynkin_tilting.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _VMHWM_CHILD, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)
