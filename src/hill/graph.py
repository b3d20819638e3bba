"""Undirected unit-weight graphs and the volume/cut queries that structural
entropy is built from, plus two helpers of the input readers:
`prefix_errors` names a file in a ValueError, `read_lines` numbers lines.

Graphs are immutable after construction and safe to share across threads.
Edge-list text format: one "u v" pair per line, `#` comments ignored,
0-based vertex ids.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain


@dataclass(frozen=True)
class Graph:
    node_count: int
    edges: frozenset  # pairs (u, v) with u < v
    degree: tuple
    adjacency: tuple  # per-vertex frozenset of neighbors
    volume: int  # 2 * len(edges)


def build_graph(node_count: int, edge_pairs) -> Graph:
    """Validate and construct a Graph from (u, v) pairs.

    Duplicate edges collapse; self-loops and isolated vertices are rejected.
    """
    if node_count < 1:
        raise ValueError("graph must have at least one vertex")
    edges = set()
    for u, v in edge_pairs:
        if u == v:
            raise ValueError(f"self-loop on vertex {u}")
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise ValueError(f"edge ({u}, {v}) out of range for {node_count} vertices")
        edges.add((min(u, v), max(u, v)))
    # found from the endpoints, so a huge sparse id range allocates nothing
    touched = set(chain.from_iterable(edges))
    if len(touched) < node_count:
        v = next(v for v in range(node_count) if v not in touched)
        raise ValueError(f"vertex {v} is isolated (degree 0)")
    neighbors = [set() for _ in range(node_count)]
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    return Graph(
        node_count=node_count,
        edges=frozenset(edges),
        degree=tuple(len(n) for n in neighbors),
        adjacency=tuple(frozenset(n) for n in neighbors),
        volume=2 * len(edges),
    )


def load_graph(text: str) -> Graph:
    """Parse an edge-list text into a validated Graph; as in a text-mode
    read, lines end at CRLF, CR or LF only (not at a form feed or U+2028)."""
    pairs = []
    max_vertex = -1
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex id in {raw!r}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop on vertex {u}")
        pairs.append((u, v))
        max_vertex = max(max_vertex, u, v)
    if not pairs:
        raise ValueError("edge list is empty")
    return build_graph(max_vertex + 1, pairs)


def load_graph_file(path) -> Graph:
    with prefix_errors(path):
        return load_graph("".join(line for _, line in read_lines(path)))


@contextmanager
def prefix_errors(prefix):
    """Re-raise any ValueError from the body (undecodable text, bad JSON)
    or RecursionError (JSON nested too deeply) as ValueError(f"{prefix}:
    {message}"). Input readers wrap a file's parse in it to name the
    file, and a line in it to name the line."""
    try:
        yield
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{prefix}: {exc}") from None


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # surrogateescape reads byte b as U+DC00 + b


def read_lines(path):
    """Yield (line number, line) of a UTF-8 text file, split only where
    text-mode open() splits: at LF, CRLF and CR. A byte that is not UTF-8
    raises ValueError naming its line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if bad := _ESCAPED_BYTE.search(line):
                raise ValueError(f"line {lineno}: byte 0x{ord(bad[0]) - 0xDC00:02x} is not UTF-8")
            yield lineno, line


def _check_subset(g: Graph, subset) -> frozenset:
    s = frozenset(subset)
    for v in s:
        if not (0 <= v < g.node_count):
            raise ValueError(f"vertex {v} out of range for {g.node_count} vertices")
    return s


def cut_size(g: Graph, subset) -> int:
    """Number of edges with exactly one endpoint in `subset`."""
    s = _check_subset(g, subset)
    return sum(len(g.adjacency[u] - s) for u in s)


def subset_volume(g: Graph, subset) -> int:
    """Sum of degrees over the vertices in `subset`."""
    s = _check_subset(g, subset)
    return sum(g.degree[u] for u in s)


def cross_edges(g: Graph, a, b) -> int:
    """Number of edges with one endpoint in `a` and the other in `b`.

    `a` and `b` are assumed disjoint.
    """
    if len(a) > len(b):
        a, b = b, a
    bs = frozenset(b)
    return sum(len(g.adjacency[u] & bs) for u in a)
