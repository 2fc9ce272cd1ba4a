"""Higher-density what-if studies (the paper's closing call).

§VI-B: "The results at such a low density provide promising insight into
delay tolerant social networks and suggest further investigations at
higher densities are needed."  This module performs those investigations
synthetically: it sweeps population size (at fixed area) or area (at fixed
population) and reports how delivery ratio, delay and overhead respond.

Node density is users per km²; the field study sat at 10 / 88 km² ≈ 0.11.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.experiments.gainesville import GainesvilleStudy
from repro.experiments.scenario import ScenarioConfig
from repro.metrics.report import format_table
from repro.sim.parallel import parallel_map


@dataclass(frozen=True)
class DensityPoint:
    """One sweep sample."""

    num_users: int
    area_km2: float
    density_per_km2: float
    delivery_ratio: Optional[float]
    median_delay_h: Optional[float]
    disseminations: int
    contacts: int
    #: Medium instrumentation: candidate distance checks performed in
    #: the spatial index — the contact-detection work the pair sweep
    #: compresses.
    distance_checks: int = 0

    @classmethod
    def from_study(cls, config: ScenarioConfig, result, medium=None) -> "DensityPoint":
        area_km2 = config.area[0] * config.area[1] / 1e6
        cdf = result.delay.all_hops
        return cls(
            num_users=config.num_users,
            area_km2=area_km2,
            density_per_km2=config.num_users / area_km2,
            delivery_ratio=result.delivery.overall_delivery_ratio(),
            median_delay_h=(cdf.median() / 3600.0) if cdf.n else None,
            disseminations=result.disseminations,
            contacts=result.contact_count,
            distance_checks=medium.distance_checks if medium is not None else 0,
        )


def _run_sweep_point(config: ScenarioConfig) -> DensityPoint:
    """Build + run + reduce one sweep sample (module-level so the
    parallel runner can ship it to ``multiprocessing`` workers; each
    point is a pure function of its config, so scheduling cannot change
    results)."""
    study = GainesvilleStudy(config)
    result = study.run()
    return DensityPoint.from_study(config, result, medium=study.medium)


class DensitySweep:
    """Run the deployment at several densities, all else equal.

    Each point is ``base_config`` at one swept population; every other
    scenario axis is set on ``base_config``.  ``workers > 1`` runs the
    sweep points in parallel processes, the package's one process
    fan-out (``repro density --workers``).  Every point derives all
    randomness from its own config seed and every worker provisions from
    per-user DRBGs, so a parallel sweep reports exactly what the serial
    sweep would — only sooner.  Set ``provisioning="pooled"`` and a
    shared ``key_cache_dir`` on ``base_config`` so the swept populations
    pay RSA keygen once across the whole sweep (and across repeated
    sweeps): each user's key pair and the CA's, which every point shares.
    The point configs are built, and so validated, on construction.
    """

    def __init__(
        self,
        base_config: Optional[ScenarioConfig] = None,
        populations: Sequence[int] = (10, 16, 24),
        workers: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.base_config = base_config or ScenarioConfig(duration_days=3, total_posts=110)
        self.populations = tuple(populations)
        self.workers = workers
        self.configs = [self._config_for(num_users) for num_users in self.populations]
        self.points: List[DensityPoint] = []

    def _config_for(self, num_users: int) -> ScenarioConfig:
        # Meetup opportunities scale with people, not with the map.
        factor = num_users / self.base_config.num_users
        return replace(
            self.base_config,
            num_users=num_users,
            meetups_per_day=self.base_config.meetups_per_day * factor,
        )

    def run(self) -> List[DensityPoint]:
        # parallel_map preserves population order, whatever finishes
        # first, and falls back to a serial run where forking is not
        # possible (each point is a pure function of its config).
        self.points = parallel_map(_run_sweep_point, self.configs, self.workers)
        return self.points

    def report(self) -> str:
        rows: List[Tuple] = []
        for point in self.points:
            rows.append(
                (
                    point.num_users,
                    f"{point.density_per_km2:.3f}",
                    "-" if point.delivery_ratio is None else f"{point.delivery_ratio:.3f}",
                    "-" if point.median_delay_h is None else f"{point.median_delay_h:.1f}",
                    point.disseminations,
                    point.contacts,
                    point.distance_checks,
                )
            )
        return format_table(
            "Density sweep (the paper's 'higher densities' call, §VI-B)",
            (
                "users",
                "users/km^2",
                "delivery",
                "median delay (h)",
                "transfers",
                "contacts",
                "pair checks",
            ),
            rows,
        )
