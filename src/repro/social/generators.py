"""Social-graph generators for scaled experiments.

The paper closes by calling for "further investigations at higher
densities" (§VI-B).  These generators produce digraphs with the Fig. 4a
*shape* — a small set of highly connected centers, peripheral clusters,
partial reciprocity — at arbitrary node counts, so the benchmark harness
can sweep population size and density.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.social.digraph import SocialDigraph

#: Generator families selectable via ``ScenarioConfig.social_graph``.
#: ``"auto"`` preserves the historical dispatch: the exact Fig. 4a
#: reconstruction at N=10, ``hub_and_cluster`` otherwise.
SOCIAL_GRAPH_KINDS = (
    "auto",
    "figure4a",
    "hub_and_cluster",
    "degree_bounded",
    "powerlaw_cluster",
)

#: Back-edge probabilities: of a drawn Erdos-Renyi follow (human follow
#: graphs are strongly but not fully reciprocal; Fig. 4a's reciprocity
#: is 52/58 = 0.90), and of the clustered generators' follows.
RANDOM_RECIPROCITY = 0.7
CLUSTER_RECIPROCITY = 0.85
#: ``hub_and_cluster_digraph``'s pairwise follow probability in the periphery.
PERIPHERAL_DENSITY = 0.5


def random_digraph(nodes: Sequence, density: float, rng: random.Random) -> SocialDigraph:
    """Erdos-Renyi-style digraph with a target directed density; a drawn
    follow is reciprocated with probability ``RANDOM_RECIPROCITY``."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    graph = SocialDigraph()
    node_list = list(nodes)
    for node in node_list:
        graph.add_node(node)
    n = len(node_list)
    target_edges = round(density * n * (n - 1))
    pairs = [(a, b) for i, a in enumerate(node_list) for b in node_list[i + 1 :]]
    rng.shuffle(pairs)
    for a, b in pairs:
        if graph.edge_count >= target_edges:
            break
        first, second = (a, b) if rng.random() < 0.5 else (b, a)
        graph.add_edge(first, second)
        if graph.edge_count < target_edges and rng.random() < RANDOM_RECIPROCITY:
            graph.add_edge(second, first)
    return graph


def hub_and_cluster_digraph(
    nodes: Sequence,
    rng: random.Random,
    hub_count: int = 2,
) -> SocialDigraph:
    """Fig. 4a-shaped graph: ``hub_count`` centers adjacent to everyone,
    peripheral nodes wired at ``PERIPHERAL_DENSITY`` among themselves,
    each follow reciprocated with probability ``CLUSTER_RECIPROCITY``."""
    node_list = list(nodes)
    if hub_count >= len(node_list):
        raise ValueError("hub_count must be smaller than the population")
    graph = SocialDigraph()
    for node in node_list:
        graph.add_node(node)
    hubs = node_list[:hub_count]
    periphery = node_list[hub_count:]
    for hub in hubs:
        for other in node_list:
            if other == hub:
                continue
            graph.add_edge(hub, other)
            graph.add_edge(other, hub)
    for i, a in enumerate(periphery):
        for b in periphery[i + 1 :]:
            if rng.random() < PERIPHERAL_DENSITY:
                first, second = (a, b) if rng.random() < 0.5 else (b, a)
                graph.add_edge(first, second)
                if rng.random() < CLUSTER_RECIPROCITY:
                    graph.add_edge(second, first)
    return graph


def degree_bounded_digraph(
    nodes: Sequence,
    rng: random.Random,
    out_degree: int = 12,
    reciprocity: float = 0.7,
) -> SocialDigraph:
    """Sparse follow graph with a *hard* per-node out-degree bound.

    ``hub_and_cluster_digraph`` wires the periphery at a fixed pairwise
    density, so its edge count — and the day-0 bootstrap cost — grows
    O(N²).  Real follow graphs do not: people follow a roughly constant
    number of others no matter how large the network is.  Here every
    node follows its ring successor (a deterministic backbone that keeps
    the graph weakly connected at any N) plus uniformly drawn extras up
    to ``out_degree`` total, and a follow is reciprocated only while the
    target has out-degree budget left — so ``out_degree`` is a hard cap,
    not an expectation, and total edges are ≤ N * out_degree.
    """
    if out_degree < 1:
        raise ValueError(f"out_degree must be at least 1, got {out_degree}")
    if not 0.0 <= reciprocity <= 1.0:
        raise ValueError(f"reciprocity must be in [0, 1], got {reciprocity}")
    node_list = list(nodes)
    n = len(node_list)
    if n < 2:
        raise ValueError("need at least two nodes")
    graph = SocialDigraph()
    for node in node_list:
        graph.add_node(node)
    # Backbone ring: weak connectivity at any N without O(N²) wiring.
    for i, node in enumerate(node_list):
        graph.add_edge(node, node_list[(i + 1) % n])
    cap = min(out_degree, n - 1)
    for i, a in enumerate(node_list):
        attempts = 0
        while graph.out_degree(a) < cap and attempts < 4 * out_degree:
            attempts += 1
            b = node_list[rng.randrange(n)]
            if b == a or graph.has_edge(a, b):
                continue
            graph.add_edge(a, b)
            if graph.out_degree(b) < cap and rng.random() < reciprocity:
                graph.add_edge(b, a)
    return graph


#: ``powerlaw_cluster_digraph``'s shape (see its docstring).
CLUSTER_SIZE = 8
INTRA_DENSITY = 0.6
HUB_FRACTION = 0.01
MIN_HUBS = 2
HUB_FOLLOWS = 2
HUB_SKEW = 1.2


def powerlaw_cluster_digraph(nodes: Sequence, rng: random.Random) -> SocialDigraph:
    """Fig. 4a's *shape* at a density that survives large N.

    Keeps the two ingredients the paper's graph exhibits — a few highly
    connected centers plus clustered, partially reciprocal peripheral
    friendships — but bounds the expected peripheral degree by a
    constant instead of wiring the whole periphery at a fixed density:

    * hubs (``max(MIN_HUBS, HUB_FRACTION * N)``, mutually adjacent, as
      the Fig. 4a centers 6/7 are) attract follows with Zipf-weighted
      popularity (``1 / rank^HUB_SKEW``), so hub in-degree follows a
      power law in hub rank;
    * the periphery is partitioned into friend clusters of
      ``CLUSTER_SIZE``, wired internally at ``INTRA_DENSITY`` with
      ``CLUSTER_RECIPROCITY``-probable back-edges — expected peripheral
      degree ≈ ``INTRA_DENSITY * (CLUSTER_SIZE - 1) *
      (1 + CLUSTER_RECIPROCITY) / 2 + HUB_FOLLOWS``, independent of N;
    * every peripheral node follows ``HUB_FOLLOWS`` distinct hubs, which
      (with the mutually wired hub core) keeps the graph weakly
      connected at any N.
    """
    node_list = list(nodes)
    n = len(node_list)
    hub_count = max(MIN_HUBS, round(HUB_FRACTION * n))
    if hub_count >= n:
        raise ValueError("hub count must be smaller than the population")
    graph = SocialDigraph()
    for node in node_list:
        graph.add_node(node)
    hubs = node_list[:hub_count]
    periphery = node_list[hub_count:]
    for i, hub in enumerate(hubs):
        for other in hubs[i + 1 :]:
            graph.add_edge(hub, other)
            graph.add_edge(other, hub)
    # Peripheral friend clusters (consecutive slices keep it O(N)).
    for start in range(0, len(periphery), CLUSTER_SIZE):
        cluster = periphery[start : start + CLUSTER_SIZE]
        for i, a in enumerate(cluster):
            for b in cluster[i + 1 :]:
                if rng.random() < INTRA_DENSITY:
                    first, second = (a, b) if rng.random() < 0.5 else (b, a)
                    graph.add_edge(first, second)
                    if rng.random() < CLUSTER_RECIPROCITY:
                        graph.add_edge(second, first)
    # Zipf-weighted hub attachment.
    follows_per_node = min(HUB_FOLLOWS, hub_count)
    for a in periphery:
        available: List[int] = list(range(hub_count))
        for _ in range(follows_per_node):
            weights = [1.0 / (rank + 1) ** HUB_SKEW for rank in available]
            pick = rng.random() * sum(weights)
            acc = 0.0
            chosen = available[-1]
            for rank, weight in zip(available, weights):
                acc += weight
                if pick <= acc:
                    chosen = rank
                    break
            available.remove(chosen)
            hub = hubs[chosen]
            graph.add_edge(a, hub)
            if rng.random() < CLUSTER_RECIPROCITY:
                graph.add_edge(hub, a)
    return graph


def resolve_social_graph_kind(kind: str, num_users: int) -> str:
    """Resolve ``"auto"`` to the concrete generator for this population.

    The single validation point for the knob: unknown kinds, the
    figure4a/num_users constraint and populations too small for the hub
    generators are rejected here, so config
    construction (``ScenarioConfig``) and graph building
    (:func:`make_social_graph`) cannot drift apart.
    """
    if kind not in SOCIAL_GRAPH_KINDS:
        raise ValueError(
            f"social_graph must be one of {SOCIAL_GRAPH_KINDS}, got {kind!r}"
        )
    if kind == "auto":
        kind = "figure4a" if num_users == 10 else "hub_and_cluster"
    if kind == "figure4a" and num_users != 10:
        raise ValueError(
            f"social_graph 'figure4a' is the exact 10-node reconstruction; "
            f"it cannot be used with num_users={num_users}"
        )
    if kind in ("hub_and_cluster", "powerlaw_cluster") and num_users < 3:
        raise ValueError(
            f"social_graph {kind!r} needs two hubs and a follower: at least "
            f"3 users, got num_users={num_users}"
        )
    return kind


def make_social_graph(kind: str, num_users: int, rng: random.Random) -> SocialDigraph:
    """Factory behind ``ScenarioConfig.social_graph``.

    Nodes are the paper-style integer labels ``1..num_users``; pass the
    scenario's dedicated ``"social"`` random stream for reproducibility.
    """
    resolved = resolve_social_graph_kind(kind, num_users)
    if resolved == "figure4a":
        from repro.social.figure4a import figure_4a_graph

        return figure_4a_graph()
    node_range = range(1, num_users + 1)
    if resolved == "hub_and_cluster":
        return hub_and_cluster_digraph(node_range, rng)
    if resolved == "degree_bounded":
        return degree_bounded_digraph(node_range, rng)
    return powerlaw_cluster_digraph(node_range, rng)
