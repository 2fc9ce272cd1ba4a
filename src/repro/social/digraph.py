"""A small directed-graph implementation.

``networkx`` is available in this environment, but the social graph is a
core substrate of the reproduction, so it is implemented from scratch
(adjacency sets + BFS) and *cross-validated* against networkx in the test
suite.  Nodes are arbitrary hashables; in AlleyOop they are user ids.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, Iterator, List, Set, Tuple

Node = Hashable


class SocialDigraph:
    """Directed graph with O(1) edge queries and BFS utilities.

    An edge ``(i, j)`` means *i follows j* (paper §VI-A).
    """

    def __init__(self) -> None:
        self._succ: Dict[Node, Set[Node]] = {}
        self._pred: Dict[Node, Set[Node]] = {}

    # -- construction ---------------------------------------------------------
    def add_node(self, node: Node) -> None:
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()

    def add_edge(self, follower: Node, followee: Node) -> None:
        """Add *follower follows followee*; self-loops are rejected."""
        if follower == followee:
            raise ValueError(f"self-follow not allowed: {follower!r}")
        self.add_node(follower)
        self.add_node(followee)
        self._succ[follower].add(followee)
        self._pred[followee].add(follower)

    def remove_edge(self, follower: Node, followee: Node) -> None:
        self._succ.get(follower, set()).discard(followee)
        self._pred.get(followee, set()).discard(follower)

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[Node, Node]], nodes: Iterable[Node] = ()) -> "SocialDigraph":
        graph = cls()
        for node in nodes:
            graph.add_node(node)
        for follower, followee in edges:
            graph.add_edge(follower, followee)
        return graph

    # -- queries ----------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        return sorted(self._succ, key=repr)

    @property
    def node_count(self) -> int:
        return len(self._succ)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        for follower in self._succ:
            for followee in self._succ[follower]:
                yield (follower, followee)

    def has_edge(self, follower: Node, followee: Node) -> bool:
        return followee in self._succ.get(follower, ())

    def following(self, node: Node) -> Set[Node]:
        """Users that ``node`` follows (out-neighbours)."""
        return set(self._succ.get(node, ()))

    def followers(self, node: Node) -> Set[Node]:
        """Users following ``node`` (in-neighbours)."""
        return set(self._pred.get(node, ()))

    def out_degree(self, node: Node) -> int:
        return len(self._succ.get(node, ()))

    def in_degree(self, node: Node) -> int:
        return len(self._pred.get(node, ()))

    # -- undirected projection -----------------------------------------------------
    def undirected_adjacency(self) -> Dict[Node, Set[Node]]:
        """The undirected projection: i~j iff i follows j or j follows i.

        The paper uses this projection for compactness and transitivity
        ("if a two-way relationship did not already exist, it will exist
        in the undirectional graph", §VI-A).
        """
        adj: Dict[Node, Set[Node]] = {node: set() for node in self._succ}
        for follower, followees in self._succ.items():
            for followee in followees:
                adj[follower].add(followee)
                adj[followee].add(follower)
        return adj

    # -- traversal ---------------------------------------------------------------------
    @staticmethod
    def bfs_distances(adj: Dict[Node, Set[Node]], source: Node) -> Dict[Node, int]:
        """Unweighted shortest-path distances from ``source`` over ``adj``."""
        distances = {source: 0}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbour in adj[current]:
                if neighbour not in distances:
                    distances[neighbour] = distances[current] + 1
                    queue.append(neighbour)
        return distances

    def is_weakly_connected(self) -> bool:
        if not self._succ:
            return True
        adj = self.undirected_adjacency()
        start = next(iter(adj))
        return len(self.bfs_distances(adj, start)) == len(adj)

    def copy(self) -> "SocialDigraph":
        clone = SocialDigraph()
        for node in self._succ:
            clone.add_node(node)
        for follower, followee in self.edges():
            clone.add_edge(follower, followee)
        return clone

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SocialDigraph n={self.node_count} m={self.edge_count}>"
