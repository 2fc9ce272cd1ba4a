"""Routing-protocol comparison on the reconstructed deployment.

The point of the SOS middleware is that schemes are swappable (§III-B);
this module swaps them over the *same* mobility, social graph and posting
schedule (identical seeds) and compares delivery ratio, delay and
overhead — the ablation the modular design exists to enable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.experiments.gainesville import GainesvilleStudy, StudyResult
from repro.experiments.scenario import ScenarioConfig
from repro.metrics.report import format_table


@dataclass(frozen=True)
class ProtocolOutcome:
    """Headline numbers for one protocol run."""

    protocol: str
    delivery_ratio: Optional[float]
    median_delay_h: Optional[float]
    disseminations: int
    one_hop_fraction: Optional[float]
    bytes_sent: int

    @classmethod
    def from_result(cls, protocol: str, result: StudyResult) -> "ProtocolOutcome":
        delay_cdf = result.delay.all_hops
        median = delay_cdf.median() / 3600.0 if delay_cdf.n else None
        return cls(
            protocol=protocol,
            delivery_ratio=result.delivery.overall_delivery_ratio(),
            median_delay_h=median,
            disseminations=result.disseminations,
            one_hop_fraction=result.one_hop_fraction,
            bytes_sent=result.security_stats.get("bytes_sent", 0),
        )


class ProtocolComparison:
    """Run the deployment once per protocol, identical everything else."""

    DEFAULT_PROTOCOLS = (
        "interest", "epidemic", "direct", "first_contact",
        "spray_wait", "prophet", "bubble",
    )

    def __init__(
        self,
        base_config: Optional[ScenarioConfig] = None,
        protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    ) -> None:
        self.base_config = base_config or ScenarioConfig()
        self.protocols = tuple(protocols)
        # Built up front, so an unknown protocol is rejected before any run.
        self._configs = {p: replace(self.base_config, routing_protocol=p) for p in self.protocols}
        self.outcomes: Dict[str, ProtocolOutcome] = {}
        self.results: Dict[str, StudyResult] = {}

    def run(self) -> List[ProtocolOutcome]:
        for protocol in self.protocols:
            result = GainesvilleStudy(self._configs[protocol]).run()
            self.results[protocol] = result
            self.outcomes[protocol] = ProtocolOutcome.from_result(protocol, result)
        return [self.outcomes[p] for p in self.protocols]

    def report(self) -> str:
        rows = []
        for protocol in self.protocols:
            outcome = self.outcomes[protocol]
            rows.append(
                (
                    outcome.protocol,
                    "-" if outcome.delivery_ratio is None else f"{outcome.delivery_ratio:.3f}",
                    "-" if outcome.median_delay_h is None else f"{outcome.median_delay_h:.1f}",
                    outcome.disseminations,
                    "-" if outcome.one_hop_fraction is None else f"{outcome.one_hop_fraction:.3f}",
                    outcome.bytes_sent,
                )
            )
        return format_table(
            "Routing protocol comparison (same deployment, same seed)",
            ("protocol", "delivery", "median delay (h)", "transfers", "1-hop frac", "bytes sent"),
            rows,
        )
