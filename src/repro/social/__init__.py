"""Directed social graphs and the Fig. 4a reconstruction.

The paper analyses the deployment's follow graph (§VI-A) with standard
social-network measures.  We implement the digraph and every reported
measure from scratch (validated against ``networkx`` in the test suite),
plus generators for scaled-up what-if studies, and the exact
reconstruction of the published Fig. 4a graph in
:mod:`repro.social.figure4a`.
"""

from repro.social.digraph import SocialDigraph
from repro.social.metrics import (
    average_shortest_path_length,
    center,
    density_directed,
    diameter,
    eccentricities,
    radius,
    reciprocity,
    transitivity_undirected,
)
from repro.social.generators import (
    SOCIAL_GRAPH_KINDS,
    degree_bounded_digraph,
    hub_and_cluster_digraph,
    make_social_graph,
    powerlaw_cluster_digraph,
    random_digraph,
    resolve_social_graph_kind,
)
from repro.social.figure4a import (
    FIGURE_4A_EDGES,
    INITIAL_SUBSCRIPTIONS,
    LATE_FOLLOWS,
    figure_4a_graph,
)

__all__ = [
    "SocialDigraph",
    "average_shortest_path_length",
    "center",
    "density_directed",
    "diameter",
    "eccentricities",
    "radius",
    "reciprocity",
    "transitivity_undirected",
    "SOCIAL_GRAPH_KINDS",
    "degree_bounded_digraph",
    "hub_and_cluster_digraph",
    "make_social_graph",
    "powerlaw_cluster_digraph",
    "random_digraph",
    "resolve_social_graph_kind",
    "FIGURE_4A_EDGES",
    "INITIAL_SUBSCRIPTIONS",
    "LATE_FOLLOWS",
    "figure_4a_graph",
]
