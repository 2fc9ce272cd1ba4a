"""Social-network measures used in paper §VI-A.

Each function implements exactly the quantity the paper reports for
Fig. 4a, with the same conventions:

* **density** — directed: ``m / (n (n-1))``,
* **compactness** — average shortest path length over unordered node
  pairs of the *undirected projection*: ``sum_{i>j} l(i,j) / (n(n-1)/2)``,
* **diameter / eccentricity / radius / center** — on the undirected
  projection (the paper's center nodes 6 and 7 have radius 1),
* **transitivity** — ``3 * triangles / connected triads`` on the
  undirected projection (the paper's T(G) = 0.80).

The distance measures share one level-synchronous multi-source BFS
(MS-BFS; Then et al., "The More the Merrier: Efficient Multi-Source Graph
Traversal", PVLDB 2014) that runs all N breadth-first searches at once.
Every node holds a Python-int bitset of the sources that have reached
it.  One level sets a node's frontier to the OR of its neighbours'
frontiers, minus the sources it has already seen.  Distances are
symmetric, so the popcount of a node's frontier at level ``L`` is the
number of nodes at distance ``L`` from it: the node's distance total
grows by ``L`` times that, and its eccentricity is the last level at
which it grew.  The cost is O(D·E·N/64) word operations for diameter D
and E undirected edges, and about 3·N²/8 bytes of bitsets (seen,
frontier and next frontier: ~37 MB at N=10k).  Transitivity counts
triangles with popcounts of neighbour-bitset intersections, O(E·N/64).
Totals are exact integers, so every ratio is the correctly rounded
float of the exact rational.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.social.digraph import SocialDigraph

Node = Hashable


def density_directed(graph: SocialDigraph) -> float:
    """Directed density m / (n(n-1)).  Paper value for Fig. 4a: 0.64."""
    n = graph.node_count
    if n < 2:
        return 0.0
    return graph.edge_count / (n * (n - 1))


def _indexed_adjacency(graph: SocialDigraph) -> Tuple[List[Node], List[List[int]]]:
    """The nodes in insertion order and, per node, the indices of its
    neighbours in the undirected projection."""
    adj = graph.undirected_adjacency()
    index = {node: i for i, node in enumerate(adj)}
    return list(adj), [[index[m] for m in neighbours] for neighbours in adj.values()]


def _distance_profile(graph: SocialDigraph) -> Tuple[List[Node], List[int], List[int]]:
    """Each node's undirected distance total and eccentricity, by MS-BFS.

    Raises ``ValueError`` if the undirected projection is disconnected.
    """
    nodes, neighbours = _indexed_adjacency(graph)
    n = len(nodes)
    full = (1 << n) - 1
    seen = [1 << i for i in range(n)]
    frontier = list(seen)
    totals = [0] * n
    ecc = [0] * n
    level = 0
    while any(frontier):
        level += 1
        grown = [0] * n
        for v in range(n):
            known = seen[v]
            if known == full:
                continue
            reach = 0
            for u in neighbours[v]:
                reach |= frontier[u]
            reach &= ~known
            if reach:
                seen[v] = known | reach
                totals[v] += level * reach.bit_count()
                ecc[v] = level
                grown[v] = reach
        frontier = grown
    for node, known in zip(nodes, seen):
        if known != full:
            raise ValueError(f"graph disconnected at {node!r}")
    return nodes, totals, ecc


def average_shortest_path_length(graph: SocialDigraph) -> float:
    """Mean undirected shortest-path length over unordered pairs.

    Paper: sum l(i,j) / (n(n-1)/2) = 1.3 for Fig. 4a.  Raises if the
    graph is disconnected (a pair would have infinite distance).
    """
    n = graph.node_count
    if n < 2:
        return 0.0
    _, totals, _ = _distance_profile(graph)
    # Every unordered pair is counted once from each end.
    return (sum(totals) // 2) / (n * (n - 1) // 2)


def eccentricities(graph: SocialDigraph) -> Dict[Node, int]:
    """Undirected eccentricity of each node: max distance to any other."""
    nodes, _, ecc = _distance_profile(graph)
    return dict(zip(nodes, ecc))


def diameter(graph: SocialDigraph) -> int:
    """Maximum eccentricity.  Paper value: d(G) = 2."""
    ecc = eccentricities(graph)
    return max(ecc.values()) if ecc else 0


def radius(graph: SocialDigraph) -> int:
    """Minimum eccentricity.  Paper value: 1."""
    ecc = eccentricities(graph)
    return min(ecc.values()) if ecc else 0


def center(graph: SocialDigraph) -> List[Node]:
    """Nodes whose eccentricity equals the radius.  Paper: nodes 6 and 7."""
    ecc = eccentricities(graph)
    if not ecc:
        return []
    r = min(ecc.values())
    return sorted((node for node, e in ecc.items() if e == r), key=repr)


def transitivity_undirected(graph: SocialDigraph) -> float:
    """3 * triangles / connected triads on the undirected projection.

    Paper: T(G) = 0.80 — "the extent that a friend k of a friend j is
    also a friend of i".
    """
    _, neighbours = _indexed_adjacency(graph)
    triads = sum(len(nbrs) * (len(nbrs) - 1) // 2 for nbrs in neighbours)
    if triads == 0:
        return 0.0
    bits = [sum(1 << u for u in nbrs) for nbrs in neighbours]
    # At each node, every adjacent pair of its neighbours is counted from
    # both ends, so ``corners // 2`` is 3 * triangles (one per corner).
    corners = sum(
        (bits[a] & mask).bit_count() for mask, nbrs in zip(bits, neighbours) for a in nbrs
    )
    return (corners // 2) / triads


def reciprocity(graph: SocialDigraph) -> float:
    """Fraction of directed edges whose reverse edge also exists."""
    m = graph.edge_count
    if m == 0:
        return 0.0
    mutual = sum(1 for i, j in graph.edges() if graph.has_edge(j, i))
    return mutual / m


def degree_histogram(graph: SocialDigraph, direction: str = "out") -> Dict[int, int]:
    """Map degree -> node count, for sweep sanity checks.

    ``direction`` is ``"out"`` (follows made), ``"in"`` (followers) or
    ``"total"`` (undirected-projection degree).
    """
    if direction == "out":
        degrees = (graph.out_degree(n) for n in graph.nodes)
    elif direction == "in":
        degrees = (graph.in_degree(n) for n in graph.nodes)
    elif direction == "total":
        adj = graph.undirected_adjacency()
        degrees = (len(adj[n]) for n in graph.nodes)
    else:
        raise ValueError(f"direction must be out/in/total, got {direction!r}")
    histogram: Dict[int, int] = {}
    for degree in degrees:
        histogram[degree] = histogram.get(degree, 0) + 1
    return dict(sorted(histogram.items()))


def degree_summary(graph: SocialDigraph) -> Dict[str, float]:
    """Min/mean/max of in- and out-degrees (used in reports)."""
    nodes = graph.nodes
    if not nodes:
        return {}
    in_degrees = [graph.in_degree(n) for n in nodes]
    out_degrees = [graph.out_degree(n) for n in nodes]
    return {
        "in_min": min(in_degrees),
        "in_mean": sum(in_degrees) / len(in_degrees),
        "in_max": max(in_degrees),
        "out_min": min(out_degrees),
        "out_mean": sum(out_degrees) / len(out_degrees),
        "out_max": max(out_degrees),
    }
