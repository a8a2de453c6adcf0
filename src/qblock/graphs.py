"""Immutable finite simple graphs with distances, eccentricities and centre.

Vertices are dense integer ids ``0..n-1``; relabelings are carried through
explicit maps so that permutation application stays cheap for the canonical
form machinery built on top.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable, Sequence
from functools import cached_property
from operator import attrgetter


class GraphError(ValueError):
    """Invalid graph construction or operation argument."""


class NotConnectedError(ValueError):
    """Operation requires a connected graph (or vertices in one component)."""


class _Infinity:
    """Distance value for unreachable pairs.

    Supports comparisons against naturals (greater than every int, equal only
    to itself) but no arithmetic: ``INF + 1`` raises, by design.
    """

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is INF

    def __gt__(self, other):
        return other is not INF

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is INF

    def __hash__(self):
        return hash("qblock.INF")

    def __repr__(self):
        return "INF"

    def __reduce__(self):
        # pickle and copy hand back the module's one instance, so ``is INF`` holds
        return "INF"


#: Distinguished unreachable-distance value.
INF = _Infinity()


class Record:
    """Immutable record, compared and hashed by its fields like a frozen dataclass.

    A subclass's fields are its own annotations, in order, and a class
    attribute of the same name is a field's default. Each subclass gets an
    ``__init__`` with its fields as parameters, which calls ``__post_init__``
    if the class has one. Without ``__slots__``, ``cached_property`` works on
    subclasses.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(cls.__annotations__)
        defaults = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)
        if any(f in cls.__dict__ for f in fields[: len(fields) - len(defaults)]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        # Python binds the arguments, and raises TypeError on a missing, unknown
        # or repeated one, at a third of the cost of a generic *args/**kwargs
        # loop when fields are passed by name
        source = f"def __init__(self, {', '.join(fields)}):\n    self.__dict__.update("
        source += ", ".join(f"{f}={f}" for f in fields) + ")"
        if hasattr(cls, "__post_init__"):
            source += "\n    self.__post_init__()"
        namespace: dict = {}
        exec(source, namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__defaults__ = defaults or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        # the field values (a tuple from two fields on); a C getter, which does
        # not bind as a method, so it is read off the class: type(self)._values
        cls._values = attrgetter(*fields)

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = type(self)._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(type(self)._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(Record):
    """A finite simple graph: ``n`` vertices and a set of unordered edges.

    Edges are stored as ``(u, v)`` tuples with ``u < v``. Instances are
    immutable and hashable; all operations in this package are pure.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbour sets, indexed by vertex."""
        neigh: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            neigh[u].add(v)
            neigh[v].add(u)
        return tuple(frozenset(s) for s in neigh)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def build_graph(n: int, edge_list: Iterable[Sequence[int]]) -> Graph:
    """Build a graph on vertices ``0..n-1`` from an edge list.

    Duplicate edges (in either orientation) collapse to one; loops and
    out-of-range endpoints are rejected.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    edges = set()
    for e in edge_list:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint out of range 0..{n - 1}")
        if u == v:
            raise GraphError(f"loop edge at vertex {u} is not allowed")
        edges.add((u, v) if u < v else (v, u))
    return Graph(n, frozenset(edges))


def complement(g: Graph) -> Graph:
    """Complement graph: edge present iff absent in ``g``. An involution."""
    edges = {
        (u, v)
        for u, v in itertools.combinations(range(g.n), 2)
        if (u, v) not in g.edges
    }
    return Graph(g.n, frozenset(edges))


def disjoint_union(gs: Sequence[Graph]) -> tuple[Graph, tuple[int, ...]]:
    """Disjoint union of graphs; returns the union and per-part vertex offsets."""
    offsets = []
    total = 0
    edges = set()
    for g in gs:
        offsets.append(total)
        for u, v in g.edges:
            edges.add((u + total, v + total))
        total += g.n
    return Graph(total, frozenset(edges)), tuple(offsets)


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by vertex set ``s``.

    Returns ``(sub, vmap)`` where ``vmap[new] = old`` lists the kept vertices
    in increasing original order.
    """
    vmap = tuple(sorted(set(s)))
    for v in vmap:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range 0..{g.n - 1}")
    index = {old: new for new, old in enumerate(vmap)}
    edges = {
        (index[u], index[v])
        for u, v in g.edges
        if u in index and v in index
    }
    return Graph(len(vmap), frozenset(edges)), vmap


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a permutation (``perm[old] = new``) to the vertices of ``g``."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("relabeling is not a permutation of the vertex set")
    edges = set()
    for u, v in g.edges:
        a, b = perm[u], perm[v]
        edges.add((a, b) if a < b else (b, a))
    return Graph(g.n, frozenset(edges))


def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the connected components, each sorted, ordered by minimum."""
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        cell = [start]
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    cell.append(w)
                    queue.append(w)
        comps.append(tuple(sorted(cell)))
    return tuple(comps)


def is_connected(g: Graph) -> bool:
    """True iff the graph has exactly one connected component."""
    return len(connected_components(g)) == 1


def bfs_distances(g: Graph, source: int) -> list:
    """Distances from ``source`` to every vertex; ``INF`` where unreachable."""
    dist: list = [INF] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in g.adjacency[u]:
            if dist[w] is INF:
                dist[w] = du + 1
                queue.append(w)
    return dist


class ComponentProfile(Record):
    """Centre, radius and diameter of one connected component."""

    vertices: tuple[int, ...]
    radius: int
    diameter: int
    centre: tuple[int, ...]


class DistanceProfile(Record):
    """All-pairs distances plus derived eccentricity data.

    ``ecc``, ``radius``, ``diameter``, ``centre`` and ``eccentric_sets`` are
    the literal global quantities (``INF``-valued on disconnected input);
    ``components`` carries the per-component centre/radius/diameter so that
    reports on disconnected graphs stay total.
    """

    dist: tuple[tuple, ...]
    ecc: tuple
    radius: object
    diameter: object
    centre: tuple[int, ...]
    connected: bool
    components: tuple[ComponentProfile, ...]

    @cached_property
    def eccentric_sets(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the vertices at distance ``ecc[v]`` from it."""
        return tuple(
            tuple(u for u, d in enumerate(row) if d == e) for row, e in zip(self.dist, self.ecc)
        )


def distance_profile(g: Graph) -> DistanceProfile:
    """BFS-exact distance matrix with eccentricities, centre and radius."""
    rows = [bfs_distances(g, v) for v in range(g.n)]
    ecc = [max(row, default=0) for row in rows]
    comps = connected_components(g)
    connected = len(comps) == 1

    profiles = []
    for cell in comps:
        cell_ecc = {v: max(rows[v][u] for u in cell) for v in cell}
        radius = min(cell_ecc.values())
        diameter = max(cell_ecc.values())
        centre = tuple(v for v in cell if cell_ecc[v] == radius)
        profiles.append(ComponentProfile(cell, radius, diameter, centre))

    radius = min(ecc, default=INF)
    diameter = max(ecc, default=INF)
    centre = tuple(v for v in range(g.n) if ecc[v] == radius)
    return DistanceProfile(
        dist=tuple(tuple(row) for row in rows),
        ecc=tuple(ecc),
        radius=radius,
        diameter=diameter,
        centre=centre,
        connected=connected,
        components=tuple(profiles),
    )
