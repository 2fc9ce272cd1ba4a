"""Tests for the social digraph, metrics and the Fig. 4a reconstruction.

Every §VI-A statistic the paper publishes is asserted here, and our
from-scratch metric implementations are cross-validated against networkx.
The bit-parallel distance metrics are also held exactly equal to a
per-source BFS oracle kept below.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.randomness import RandomStreams
from repro.social import (
    FIGURE_4A_EDGES,
    INITIAL_SUBSCRIPTIONS,
    LATE_FOLLOWS,
    SocialDigraph,
    average_shortest_path_length,
    center,
    degree_bounded_digraph,
    density_directed,
    diameter,
    eccentricities,
    figure_4a_graph,
    hub_and_cluster_digraph,
    make_social_graph,
    powerlaw_cluster_digraph,
    radius,
    random_digraph,
    reciprocity,
    resolve_social_graph_kind,
    transitivity_undirected,
)
from repro.social.metrics import degree_histogram, degree_summary


# -- per-source BFS oracle -------------------------------------------------------
# The straightforward implementations the multi-source BFS in
# repro.social.metrics replaced: one BFS and one distance dict per source.


def _oracle_distances(graph):
    adj = graph.undirected_adjacency()
    return {node: SocialDigraph.bfs_distances(adj, node) for node in adj}


def oracle_average_shortest_path_length(graph):
    n = graph.node_count
    if n < 2:
        return 0.0
    distances = _oracle_distances(graph)
    total = 0
    count = 0
    nodes = graph.nodes
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if b not in distances[a]:
                raise ValueError(f"graph disconnected: no path {a!r} ~ {b!r}")
            total += distances[a][b]
            count += 1
    return total / count


def oracle_eccentricities(graph):
    distances = _oracle_distances(graph)
    n = graph.node_count
    out = {}
    for node, dist in distances.items():
        if len(dist) != n:
            raise ValueError(f"graph disconnected at {node!r}")
        out[node] = max(dist.values()) if n > 1 else 0
    return out


def oracle_diameter(graph):
    ecc = oracle_eccentricities(graph)
    return max(ecc.values()) if ecc else 0


def oracle_radius(graph):
    ecc = oracle_eccentricities(graph)
    return min(ecc.values()) if ecc else 0


def oracle_center(graph):
    ecc = oracle_eccentricities(graph)
    if not ecc:
        return []
    r = min(ecc.values())
    return sorted((node for node, e in ecc.items() if e == r), key=repr)


def oracle_transitivity(graph):
    adj = graph.undirected_adjacency()
    triangles = 0
    triads = 0
    for neighbours in adj.values():
        d = len(neighbours)
        triads += d * (d - 1) // 2
        ordered = sorted(neighbours, key=repr)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                if b in adj[a]:
                    triangles += 1
    if triads == 0:
        return 0.0
    return triangles / triads


#: (metric under test, its oracle).
ORACLE_PAIRS = [
    (average_shortest_path_length, oracle_average_shortest_path_length),
    (eccentricities, oracle_eccentricities),
    (diameter, oracle_diameter),
    (radius, oracle_radius),
    (center, oracle_center),
    (transitivity_undirected, oracle_transitivity),
]

#: Node-id families: the metrics take any hashable.
NODE_IDS = {
    "int": lambda i: i,
    "str": lambda i: f"user-{i}",
    "tuple": lambda i: ("u", i % 3, i),
}


def _outcome(metric, graph):
    """The metric's value, or ``ValueError`` if it raised one."""
    try:
        return metric(graph)
    except ValueError:
        return ValueError


@st.composite
def digraphs(draw, max_nodes=14):
    """Small digraphs of any shape: empty, sparse, dense, disconnected, or
    forced connected by a random spanning tree."""
    n = draw(st.integers(0, max_nodes))
    label = NODE_IDS[draw(st.sampled_from(sorted(NODE_IDS)))]
    edges = []
    if n >= 2:
        ends = st.integers(0, n - 1)
        edges += [
            (a, b) for a, b in draw(st.lists(st.tuples(ends, ends), max_size=3 * n)) if a != b
        ]
        if draw(st.booleans()):
            for i in range(1, n):
                parent = draw(st.integers(0, i - 1))
                edges.append((i, parent) if draw(st.booleans()) else (parent, i))
    return SocialDigraph.from_edges(
        [(label(a), label(b)) for a, b in edges], nodes=[label(i) for i in range(n)]
    )


class TestDigraphBasics:
    def test_add_edge_and_queries(self):
        g = SocialDigraph()
        g.add_edge("a", "b")
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")
        assert g.following("a") == {"b"}
        assert g.followers("b") == {"a"}
        assert g.out_degree("a") == 1 and g.in_degree("b") == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            SocialDigraph().add_edge("a", "a")

    def test_remove_edge(self):
        g = SocialDigraph.from_edges([("a", "b")])
        g.remove_edge("a", "b")
        assert not g.has_edge("a", "b")
        assert g.edge_count == 0

    def test_undirected_projection(self):
        g = SocialDigraph.from_edges([("a", "b"), ("b", "a"), ("b", "c")])
        adj = g.undirected_adjacency()
        assert adj["a"] == {"b"}
        assert adj["c"] == {"b"}

    def test_copy_is_independent(self):
        g = SocialDigraph.from_edges([("a", "b")])
        clone = g.copy()
        clone.add_edge("b", "a")
        assert not g.has_edge("b", "a")

    def test_weak_connectivity(self):
        connected = SocialDigraph.from_edges([("a", "b"), ("c", "b")])
        assert connected.is_weakly_connected()
        disconnected = SocialDigraph.from_edges([("a", "b")], nodes=["z"])
        assert not disconnected.is_weakly_connected()


class TestFigure4aReconstruction:
    """Every number §VI-A publishes, asserted against our reconstruction."""

    @pytest.fixture(scope="class")
    def graph(self):
        return figure_4a_graph()

    def test_ten_nodes(self, graph):
        assert graph.node_count == 10

    def test_density_is_0_64(self, graph):
        assert round(density_directed(graph), 2) == 0.64

    def test_average_shortest_path_is_1_3(self, graph):
        assert round(average_shortest_path_length(graph), 1) == 1.3

    def test_diameter_is_2(self, graph):
        assert diameter(graph) == 2

    def test_radius_is_1_with_centers_6_and_7(self, graph):
        assert radius(graph) == 1
        assert center(graph) == [6, 7]

    def test_transitivity_is_0_80(self, graph):
        assert round(transitivity_undirected(graph), 2) == 0.80

    def test_node1_follows_node3_unreciprocated(self, graph):
        """The one adjacency fact the paper states explicitly."""
        assert graph.has_edge(1, 3)
        assert not graph.has_edge(3, 1)

    def test_46_initial_subscriptions(self):
        assert len(INITIAL_SUBSCRIPTIONS) == 46

    def test_late_follows_complete_the_graph(self):
        assert len(LATE_FOLLOWS) == 12
        assert set(INITIAL_SUBSCRIPTIONS) | set(LATE_FOLLOWS) == set(FIGURE_4A_EDGES)
        assert not set(INITIAL_SUBSCRIPTIONS) & set(LATE_FOLLOWS)

    def test_day0_graph_has_46_edges(self):
        assert figure_4a_graph(include_late_follows=False).edge_count == 46

    def test_weakly_connected(self, graph):
        assert graph.is_weakly_connected()


class TestCrossValidationWithNetworkx:
    """Our from-scratch metrics must agree with networkx exactly."""

    def _nx_pair(self, graph):
        nx_graph = nx.DiGraph(list(graph.edges()))
        nx_graph.add_nodes_from(graph.nodes)
        return nx_graph, nx.Graph(nx_graph)

    @pytest.fixture(scope="class")
    def graphs(self):
        rng = random.Random(31)
        out = [figure_4a_graph()]
        for i in range(5):
            out.append(random_digraph(range(8 + i), density=0.4, rng=rng))
        # The sparse large-N families, at a size with several BFS levels.
        for kind in ("degree_bounded", "powerlaw_cluster"):
            out.append(make_social_graph(kind, 250, random.Random(41)))
        return out

    def test_density(self, graphs):
        for g in graphs:
            nx_dir, _ = self._nx_pair(g)
            assert density_directed(g) == pytest.approx(nx.density(nx_dir))

    def test_transitivity(self, graphs):
        for g in graphs:
            _, nx_und = self._nx_pair(g)
            assert transitivity_undirected(g) == pytest.approx(nx.transitivity(nx_und))

    def test_average_shortest_path(self, graphs):
        for g in graphs:
            _, nx_und = self._nx_pair(g)
            if not nx.is_connected(nx_und):
                continue
            assert average_shortest_path_length(g) == pytest.approx(
                nx.average_shortest_path_length(nx_und)
            )

    def test_eccentricity_diameter_radius_center(self, graphs):
        for g in graphs:
            _, nx_und = self._nx_pair(g)
            if not nx.is_connected(nx_und):
                continue
            assert eccentricities(g) == nx.eccentricity(nx_und)
            assert diameter(g) == nx.diameter(nx_und)
            assert radius(g) == nx.radius(nx_und)
            assert center(g) == sorted(nx.center(nx_und), key=repr)

    def test_reciprocity(self, graphs):
        for g in graphs:
            nx_dir, _ = self._nx_pair(g)
            if g.edge_count == 0:
                continue
            assert reciprocity(g) == pytest.approx(nx.reciprocity(nx_dir))


class TestMetricsEdgeCases:
    def test_empty_graph(self):
        g = SocialDigraph()
        assert density_directed(g) == 0.0
        assert transitivity_undirected(g) == 0.0
        assert reciprocity(g) == 0.0
        assert average_shortest_path_length(g) == 0.0
        assert eccentricities(g) == {}
        assert (diameter(g), radius(g), center(g)) == (0, 0, [])

    def test_single_node(self):
        g = SocialDigraph()
        g.add_node("only")
        assert average_shortest_path_length(g) == 0.0
        assert degree_summary(g)["in_max"] == 0
        assert eccentricities(g) == {"only": 0}
        assert (diameter(g), radius(g), center(g)) == (0, 0, ["only"])

    def test_disconnected_raises_for_path_metrics(self):
        for g in (
            SocialDigraph.from_edges([("a", "b")], nodes=["z"]),
            SocialDigraph.from_edges([], nodes=["a", "b"]),
        ):
            for metric in (average_shortest_path_length, eccentricities, diameter, radius, center):
                with pytest.raises(ValueError):
                    metric(g)

    def test_two_nodes(self):
        g = SocialDigraph.from_edges([("b", "a")])
        assert average_shortest_path_length(g) == 1.0
        assert eccentricities(g) == {"a": 1, "b": 1}
        assert (diameter(g), radius(g), center(g)) == (1, 1, ["a", "b"])

    @pytest.mark.parametrize("label", sorted(NODE_IDS))
    def test_path_metrics_on_any_hashable_ids(self, label):
        """A path 0-1-2 and a triangle 2-3-4: the same numbers whatever
        the node ids are."""
        ids = NODE_IDS[label]
        edges = [(0, 1), (2, 1), (2, 3), (3, 4), (4, 2)]
        g = SocialDigraph.from_edges([(ids(a), ids(b)) for a, b in edges])
        assert average_shortest_path_length(g) == 17 / 10
        assert eccentricities(g) == {ids(0): 3, ids(1): 2, ids(2): 2, ids(3): 3, ids(4): 3}
        assert (diameter(g), radius(g)) == (3, 2)
        assert center(g) == sorted([ids(1), ids(2)], key=repr)
        assert transitivity_undirected(g) == 3 / 6


class TestMultiSourceBfsOracle:
    """The bit-parallel metrics equal the per-source BFS oracle exactly:
    same floats, same dicts, and ``ValueError`` on the same graphs."""

    @given(digraphs())
    @settings(max_examples=300, deadline=None)
    def test_equal_to_per_source_bfs(self, graph):
        for metric, oracle in ORACLE_PAIRS:
            assert _outcome(metric, graph) == _outcome(oracle, graph), metric.__name__

    def test_equal_on_figure_4a_and_sparse_families(self):
        graphs = [figure_4a_graph(), figure_4a_graph(include_late_follows=False)]
        for kind in ("hub_and_cluster", "degree_bounded", "powerlaw_cluster"):
            graphs.append(make_social_graph(kind, 120, random.Random(9)))
        for graph in graphs:
            for metric, oracle in ORACLE_PAIRS:
                assert _outcome(metric, graph) == _outcome(oracle, graph), metric.__name__

    def test_graph_stats_n1000_pinned(self):
        """The follow graph of the N=1000 sparse study (seed 2017): the
        stats the per-source BFS computed, pinned to the last bit."""
        graph = make_social_graph("degree_bounded", 1000, RandomStreams(2017).get("social"))
        assert density_directed(graph) == 0.012012012012012012
        assert average_shortest_path_length(graph) == 2.7053113113113114
        assert diameter(graph) == 4
        assert radius(graph) == 3
        assert transitivity_undirected(graph) == 0.01711074508284081


class TestGenerators:
    def test_random_digraph_hits_target_density(self):
        rng = random.Random(11)
        g = random_digraph(range(20), density=0.3, rng=rng)
        assert density_directed(g) == pytest.approx(0.3, abs=0.05)

    def test_random_digraph_invalid_density(self):
        with pytest.raises(ValueError):
            random_digraph(range(5), density=1.5, rng=random.Random(1))

    def test_hub_and_cluster_centers(self):
        rng = random.Random(12)
        g = hub_and_cluster_digraph(range(1, 13), rng, hub_count=2)
        assert radius(g) == 1
        assert set(center(g)) >= {1, 2}

    def test_hub_count_bound(self):
        with pytest.raises(ValueError):
            hub_and_cluster_digraph(range(3), random.Random(1), hub_count=3)

    @given(st.integers(6, 16), st.floats(0.2, 0.8))
    @settings(max_examples=25, deadline=None)
    def test_random_digraph_properties(self, n, density):
        g = random_digraph(range(n), density=density, rng=random.Random(n))
        assert g.node_count == n
        assert g.edge_count <= n * (n - 1)
        for a, b in g.edges():
            assert a != b


class TestSparseGenerators:
    """The large-N generator family: hard degree bounds, reciprocity,
    determinism and connectivity, independent of population size."""

    @given(st.integers(6, 60), st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_degree_bound_is_hard(self, n, out_degree, seed):
        g = degree_bounded_digraph(range(n), random.Random(seed), out_degree=out_degree)
        cap = min(out_degree, n - 1)
        assert g.node_count == n
        assert all(g.out_degree(node) <= cap for node in g.nodes)
        assert all(g.out_degree(node) >= 1 for node in g.nodes)  # ring backbone
        assert g.edge_count <= n * cap

    @given(st.integers(6, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_degree_bounded_weakly_connected(self, n, seed):
        g = degree_bounded_digraph(range(n), random.Random(seed), out_degree=3)
        assert g.is_weakly_connected()

    def test_degree_bounded_deterministic_under_fixed_rng(self):
        a = degree_bounded_digraph(range(40), random.Random(99))
        b = degree_bounded_digraph(range(40), random.Random(99))
        c = degree_bounded_digraph(range(40), random.Random(100))
        assert sorted(a.edges()) == sorted(b.edges())
        assert sorted(a.edges()) != sorted(c.edges())

    def test_degree_bounded_reciprocity_tracks_knob(self):
        lo = degree_bounded_digraph(range(200), random.Random(5), reciprocity=0.0)
        hi = degree_bounded_digraph(range(200), random.Random(5), reciprocity=1.0)
        assert reciprocity(lo) < 0.2
        assert reciprocity(hi) > reciprocity(lo) + 0.2

    def test_powerlaw_cluster_degree_independent_of_n(self):
        """The whole point of the family: mean degree must not grow with
        N (hub degree does — hubs are the power-law tail — but hubs are
        a vanishing fraction)."""
        small = powerlaw_cluster_digraph(range(300), random.Random(7))
        large = powerlaw_cluster_digraph(range(1200), random.Random(7))
        mean_small = small.edge_count / small.node_count
        mean_large = large.edge_count / large.node_count
        assert mean_large < mean_small * 1.5
        # ...unlike hub_and_cluster, whose density is fixed per pair.
        dense = hub_and_cluster_digraph(range(300), random.Random(7))
        assert small.edge_count < dense.edge_count / 5

    @given(st.integers(8, 80), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_powerlaw_cluster_weakly_connected(self, n, seed):
        g = powerlaw_cluster_digraph(range(n), random.Random(seed))
        assert g.node_count == n
        assert g.is_weakly_connected()

    def test_powerlaw_cluster_reciprocity_in_field_study_band(self):
        g = powerlaw_cluster_digraph(range(500), random.Random(3))
        # Fig. 4a's reciprocity is 0.90; the generated family should sit
        # in the strongly-but-not-fully-reciprocal band.
        assert 0.6 < reciprocity(g) < 1.0

    def test_powerlaw_cluster_hubs_are_the_tail(self):
        g = powerlaw_cluster_digraph(range(1000), random.Random(13))
        in_degrees = sorted((g.in_degree(n) for n in g.nodes), reverse=True)
        # The top node dwarfs the median: a power-law popularity tail.
        median = in_degrees[len(in_degrees) // 2]
        assert in_degrees[0] > 10 * max(1, median)

    def test_powerlaw_cluster_deterministic_under_fixed_rng(self):
        a = powerlaw_cluster_digraph(range(100), random.Random(21))
        b = powerlaw_cluster_digraph(range(100), random.Random(21))
        assert sorted(a.edges()) == sorted(b.edges())


class TestSocialGraphFactory:
    def test_auto_resolves_to_figure4a_at_ten_users(self):
        assert resolve_social_graph_kind("auto", 10) == "figure4a"
        assert resolve_social_graph_kind("auto", 11) == "hub_and_cluster"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            resolve_social_graph_kind("smallworld", 10)

    def test_figure4a_requires_ten_users(self):
        with pytest.raises(ValueError):
            make_social_graph("figure4a", 12, random.Random(1))

    def test_hub_families_need_a_follower_beyond_two_hubs(self):
        for kind in ("auto", "hub_and_cluster", "powerlaw_cluster"):
            with pytest.raises(ValueError, match="at least 3 users"):
                resolve_social_graph_kind(kind, 2)
            assert make_social_graph(kind, 3, random.Random(1)).node_count == 3
        assert make_social_graph("degree_bounded", 2, random.Random(1)).edge_count == 2

    def test_factory_builds_each_family(self):
        rng = random.Random(2)
        assert make_social_graph("auto", 10, rng).edge_count == 58
        for kind in ("hub_and_cluster", "degree_bounded", "powerlaw_cluster"):
            g = make_social_graph(kind, 24, random.Random(2))
            assert g.node_count == 24
            assert g.is_weakly_connected()

    def test_degree_histogram_sums_to_population(self):
        g = make_social_graph("degree_bounded", 50, random.Random(4))
        for direction in ("out", "in", "total"):
            histogram = degree_histogram(g, direction=direction)
            assert sum(histogram.values()) == 50
        assert g.edge_count == sum(
            degree * count for degree, count in degree_histogram(g, "out").items()
        )
        with pytest.raises(ValueError):
            degree_histogram(g, direction="sideways")
