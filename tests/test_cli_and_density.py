"""Tests for the CLI and the density sweep."""

from dataclasses import replace

import pytest

from repro.cli import build_parser, main
from repro.experiments import DensitySweep, ScenarioConfig


class TestCli:
    def test_protocols_command(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "interest" in out and "epidemic" in out and "bubble" in out

    def test_study_command_small(self, capsys):
        assert main(["study", "--days", "1", "--posts", "10", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "density_directed" in out
        assert "one_hop_fraction" in out

    def test_study_with_map_and_cdf(self, capsys):
        assert main([
            "study", "--days", "1", "--posts", "10", "--seed", "3",
            "--map", "--cdf",
        ]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4b overlay" in out
        assert "delay CDF" in out

    def test_compare_command_subset(self, capsys):
        assert main([
            "compare", "--days", "1", "--posts", "10", "--seed", "3",
            "--only", "interest,direct",
        ]) == 0
        out = capsys.readouterr().out
        assert "interest" in out and "direct" in out

    def test_density_command(self, capsys):
        assert main([
            "density", "--days", "1", "--posts", "10", "--seed", "3",
            "--populations", "6,10",
        ]) == 0
        out = capsys.readouterr().out
        assert "users/km^2" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_graph_stats_command(self, capsys):
        assert main([
            "graph-stats", "--users", "200", "--social-graph", "powerlaw_cluster",
            "--seed", "9",
        ]) == 0
        out = capsys.readouterr().out
        assert "powerlaw_cluster" in out
        assert "directed edges" in out
        assert "histogram" in out

    def test_graph_stats_default_is_figure4a(self, capsys):
        assert main(["graph-stats"]) == 0
        out = capsys.readouterr().out
        assert "figure4a" in out
        assert "| 58" in out  # the Fig. 4a edge count

    def test_social_graph_flag_threads_into_config(self, capsys):
        assert main([
            "study", "--days", "1", "--posts", "5", "--seed", "3",
            "--users", "12", "--social-graph", "degree_bounded",
        ]) == 0
        assert "density_directed" in capsys.readouterr().out

    def test_unknown_protocol_surfaces(self, capsys):
        for argv in (["study", "--protocol", "warp"], ["compare", "--only", "interest,warp"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert f"repro {argv[0]}: error:" in err
            assert "unknown routing protocol 'warp'; available: bubble, direct," in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["study", "--users", "1"], "need at least two users"),
            (["study", "--faults", "frame_drop_prob=1.5"], "frame_drop_prob"),
            (["density", "--workers", "0"], "--workers must be at least 1"),
            (["density", "--populations", "10,x"], "--populations"),
            (["density", "--populations", "1"], "need at least two users"),
            (["study", "--users", "2"], "at least 3 users"),
            (["graph-stats", "--users", "1"], "at least 3 users"),
            (["graph-stats", "--users", "0"], "at least 3 users"),
            (["graph-stats", "--social-graph", "figure4a", "--users", "12"], "figure4a"),
            (["study", "--faults", "mild,reboot_delay_s=5"], "reboot_delay_s must be LO:HI"),
            (["study", "--faults", "mild,frame_drop_prob"], "'frame_drop_prob' must be key=value"),
            (["study", "--faults", "frame_drop_prob=abc"], "frame_drop_prob must be a number"),
            (["study", "--faults", "cloud_rate_limit=2.5"], "cloud_rate_limit must be an integer"),
        ],
        ids=[
            "users", "faults", "workers", "populations", "population-below-two",
            "two-users-no-hub-follower", "graph-stats-one-user", "graph-stats-no-users",
            "graph-stats-figure4a-population", "faults-reboot-delay-not-a-range",
            "faults-override-without-value", "faults-probability-not-a-number",
            "faults-rate-limit-not-an-integer",
        ],
    )
    def test_rejected_value_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error:" in err and message in err

    @pytest.mark.parametrize("command", ["study", "compare"])
    def test_workers_is_a_density_option(self, command, capsys):
        """Only the density sweep fans out: ``--workers`` elsewhere is an
        unknown option, not a silently ignored one."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


class TestDensitySweep:
    def test_sweep_runs_and_reports(self):
        sweep = DensitySweep(
            base_config=ScenarioConfig(seed=5, duration_days=1, total_posts=12),
            populations=(6, 10),
        )
        points = sweep.run()
        assert [p.num_users for p in points] == [6, 10]
        assert all(p.area_km2 == 88.0 for p in points)
        assert points[0].density_per_km2 < points[1].density_per_km2
        report = sweep.report()
        assert "users/km^2" in report

    def test_contacts_scale_with_density(self):
        """More users in the same area -> more contact opportunities (the
        paper's hypothesis behind the 'higher densities' call)."""
        sweep = DensitySweep(
            base_config=ScenarioConfig(seed=6, duration_days=1, total_posts=10),
            populations=(6, 14),
        )
        points = sweep.run()
        assert points[1].contacts >= points[0].contacts

    def test_social_graph_and_bootstrap_overrides(self, tmp_path):
        """Scenario axes such as the generator family and the key
        provisioning ride base_config: a sweep point changes only the
        population and the meetup rate scaled with it."""
        base = ScenarioConfig(
            seed=8, duration_days=1, total_posts=5,
            social_graph="degree_bounded", provisioning="pooled",
            key_cache_dir=str(tmp_path),
        )
        config = DensitySweep(base_config=base, populations=(12,))._config_for(12)
        assert config.social_graph == "degree_bounded"
        assert config.provisioning == "pooled"
        assert config.key_cache_dir == str(tmp_path)
        assert config == replace(
            base, num_users=12, meetups_per_day=base.meetups_per_day * (12 / 10)
        )
