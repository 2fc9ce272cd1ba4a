"""Integration tests of the experiment harness (scaled-down runs)."""

import pytest

from repro.experiments import GainesvilleStudy, ProtocolComparison, ScenarioConfig
from repro.experiments.gainesville import PAPER_VALUES


def small_config(**overrides):
    defaults = dict(seed=11, duration_days=2, total_posts=30)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


@pytest.fixture(scope="module")
def small_result():
    return GainesvilleStudy(small_config()).run()


class TestGainesvilleStudy:
    def test_social_graph_statistics_match_paper_exactly(self, small_result):
        stats = small_result.social_stats
        assert round(stats["density_directed"], 2) == 0.64
        assert round(stats["avg_shortest_path"], 1) == 1.3
        assert stats["diameter"] == 2
        assert stats["radius"] == 1
        assert round(stats["transitivity"], 2) == 0.80

    def test_all_posts_created(self, small_result):
        assert small_result.unique_messages == 30

    def test_subscriptions_evaluated_is_46(self, small_result):
        assert len(small_result.evaluated_subscriptions) == 46

    def test_messages_disseminate(self, small_result):
        assert small_result.disseminations > 0
        assert small_result.delay.all_hops.n > 0

    def test_one_hop_dominates(self, small_result):
        assert small_result.one_hop_fraction and small_result.one_hop_fraction > 0.5

    def test_overlay_collects_both_kinds(self, small_result):
        overlay = small_result.overlay
        assert overlay.points("created")
        assert overlay.points("disseminated")
        assert overlay.coverage_km2("created") > 0

    def test_report_renders_every_paper_metric(self, small_result):
        report = small_result.report()
        for metric in PAPER_VALUES:
            assert metric in report

    def test_no_security_failures_among_honest_users(self, small_result):
        assert small_result.security_stats.get("security_failures", 0) == 0

    def test_cloud_off_after_signup(self):
        study = GainesvilleStudy(small_config())
        study.build()
        assert study.cloud.online is False
        assert study.cloud.stats["certificates_issued"] == 10

    def test_determinism_same_seed(self):
        a = GainesvilleStudy(small_config(seed=77)).run()
        b = GainesvilleStudy(small_config(seed=77)).run()
        assert a.disseminations == b.disseminations
        assert a.delay.paper_points() == b.delay.paper_points()
        assert a.delivery.paper_points() == b.delivery.paper_points()

    def test_different_seeds_differ(self):
        a = GainesvilleStudy(small_config(seed=77)).run()
        b = GainesvilleStudy(small_config(seed=78)).run()
        assert (
            a.disseminations != b.disseminations
            or a.delay.paper_points() != b.delay.paper_points()
        )

    def test_scaled_population(self):
        config = ScenarioConfig(seed=5, num_users=6, duration_days=1, total_posts=8)
        result = GainesvilleStudy(config).run()
        assert result.unique_messages == 8
        assert len(result.evaluated_subscriptions) > 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(num_users=1)
        with pytest.raises(ValueError):
            ScenarioConfig(duration_days=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"area": (float("nan"), 8_000.0)},
            {"area": (11_000.0, float("inf"))},
            {"area": (0.0, 8_000.0)},
            {"area": (11_000.0, -8_000.0)},
            {"medium_tick_s": float("nan")},
            {"medium_tick_s": float("inf")},
            {"meetups_per_day": float("nan")},
            {"meetups_per_day": -3.0},
            {"relay_request_grace": float("nan")},
            {"routing_protocol": "warp"},
            {"key_bits": 776},
            {"key_bits": 512},
            {"key_bits": 510, "require_encryption": False},
            {"key_bits": 513, "require_encryption": False},
        ],
        ids=[
            "area-nan", "area-inf", "area-zero", "area-negative", "tick-nan",
            "tick-inf", "meetups-nan", "meetups-negative", "grace-nan", "protocol",
            "keys-too-small-to-wrap", "keys-512-secured", "keys-below-floor", "keys-odd",
        ],
    )
    def test_bad_axis_rejected_when_the_config_is_built(self, overrides):
        # Accepted, each would fail mid-build, hang, or run a study with
        # no contacts or with NaN-timed deferrals.
        with pytest.raises(ValueError):
            ScenarioConfig(**overrides)

    @pytest.mark.parametrize("key_bits", [784, 782])
    def test_smallest_keys_that_wrap_a_session_key_are_valid(self, key_bits):
        assert ScenarioConfig(key_bits=key_bits).key_bits == key_bits

    def test_small_keys_are_valid_without_encryption(self):
        assert ScenarioConfig(key_bits=512, require_encryption=False).key_bits == 512

    def test_zero_meetups_is_valid(self):
        assert ScenarioConfig(meetups_per_day=0).meetups_per_day == 0

    @pytest.mark.parametrize("side", [1_000.0, 500.0])
    def test_area_without_room_for_homes_rejected(self, side):
        # Homes keep 750 m from the campus; at the default seed no point
        # of these squares does, so home placement cannot finish.
        study = GainesvilleStudy(
            ScenarioConfig(area=(side, side), duration_days=1, total_posts=0)
        )
        with pytest.raises(ValueError, match="no room for homes"):
            study.build()


class TestProtocolComparison:
    def test_compares_protocols_on_identical_world(self):
        comparison = ProtocolComparison(
            base_config=small_config(total_posts=20),
            protocols=("interest", "epidemic", "direct"),
        )
        outcomes = comparison.run()
        assert [o.protocol for o in outcomes] == ["interest", "epidemic", "direct"]
        by_name = comparison.outcomes
        # Epidemic replicates at least as much as IB; direct at most as much.
        assert by_name["epidemic"].disseminations >= by_name["interest"].disseminations
        assert by_name["direct"].disseminations <= by_name["interest"].disseminations
        # Direct delivery is 1-hop by construction.
        if by_name["direct"].one_hop_fraction is not None:
            assert by_name["direct"].one_hop_fraction == 1.0

    def test_report_renders(self):
        comparison = ProtocolComparison(
            base_config=small_config(total_posts=10),
            protocols=("interest", "epidemic"),
        )
        comparison.run()
        text = comparison.report()
        assert "interest" in text and "epidemic" in text


class TestBootstrapAndSocialGraphKnobs:
    """Bulk day-0 wiring against the per-edge oracle, and the
    generator-family knob."""

    def test_bulk_and_per_edge_wiring_equivalent(self):
        """Everything the analysis consumes must be identical across
        wiring modes: the delivery/delay traces byte-for-byte, the
        subscription windows the collector derives (bulk mode's
        aggregated follow_many events expand to the per-edge windows),
        and the follow lists recorded in the §V action logs (the bulk
        mode's compact FOLLOW_MANY records expand to the oracle's
        per-edge FOLLOW sequence)."""
        from tests.wiring_oracle import PerEdgeStudy
        from tests.worldutil import followed_sequences, subscription_windows, trace_lines

        traces, windows, followed = {}, {}, {}
        for bulk, study_cls in ((True, GainesvilleStudy), (False, PerEdgeStudy)):
            study = study_cls(
                small_config(num_users=12, duration_days=1, total_posts=12)
            )
            study.run()
            traces[bulk] = trace_lines(study.sim, exclude_category="social")
            windows[bulk] = subscription_windows(study.sim)
            followed[bulk] = followed_sequences(study.apps)
        assert any("|message|received|" in line for line in traces[True])
        assert traces[True] == traces[False]
        assert windows[True] and windows[True] == windows[False]
        assert followed[True] == followed[False]

    def test_bulk_wiring_costs_one_round_and_one_record_per_user(self):
        from repro.storage.actionlog import ActionKind

        study = GainesvilleStudy(
            small_config(num_users=12, duration_days=1, total_posts=0)
        )
        study.build()
        followers = {a for a, _ in study.social_graph.edges()}
        assert study.cloud.stats["syncs"] == len(followers)
        for node in followers:
            app = study.apps[node]
            batched = app.actions.of_kind(ActionKind.FOLLOW_MANY)
            assert len(batched) == 1
            assert set(batched[0].payload["targets"]) == {
                study.user_ids[b] for b in study.social_graph.following(node)
            }

    def test_social_graph_knob_selects_generator(self):
        study = GainesvilleStudy(
            small_config(num_users=16, duration_days=1, total_posts=0,
                         social_graph="degree_bounded")
        )
        study.build()
        assert study.social_graph_kind == "degree_bounded"
        assert all(
            study.social_graph.out_degree(n) <= 12 for n in study.social_graph.nodes
        )
        # Every graph edge became a day-0 follow.
        total_follows = sum(len(app.follows) for app in study.apps.values())
        assert total_follows == study.social_graph.edge_count

    def test_sparse_graph_study_runs_end_to_end(self):
        config = small_config(num_users=14, duration_days=1, total_posts=10,
                              social_graph="powerlaw_cluster")
        study = GainesvilleStudy(config)
        result = study.run()
        assert result.unique_messages == 10
        assert len(result.evaluated_subscriptions) == study.social_graph.edge_count

    def test_ten_user_default_still_uses_figure4a(self):
        study = GainesvilleStudy(small_config(duration_days=1, total_posts=0))
        study.build()
        assert study.social_graph_kind == "figure4a"
        assert study.social_graph.edge_count == 58

    def test_invalid_social_graph_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(social_graph="smallworld")
        with pytest.raises(ValueError):
            ScenarioConfig(social_graph="figure4a", num_users=12)
