"""Declarative fault plans.

A :class:`FaultPlan` is a frozen description of every fault process a run
may inject: cloud connectivity windows, transient sync rejections, device
crash/reboot churn and link-layer frame faults.  The plan is *pure data*
— all randomness lives in the :class:`~repro.faults.injector.FaultInjector`,
which derives independent DRBG substreams from one fault seed, so two runs
of the same plan with the same seed produce byte-identical traces.

Plans come from three places:

* :meth:`FaultPlan.none` — the default; nothing is injected and the whole
  subsystem stays out of the run (oracle discipline: a ``faults="none"``
  run is byte-identical to a build of the repo without this subsystem),
* :meth:`FaultPlan.parse` — the CLI / :class:`ScenarioConfig` spec string:
  ``"none"``, a named preset (``"mild"``, ``"harsh"``), or a
  comma-separated ``key=value`` list overriding preset/default fields
  (``"mild,frame_drop_prob=0.2"``),
* :meth:`FaultPlan.sample` — a deterministic random plan for the chaos
  property tests (one integer seed -> one plan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Dict, Tuple

from repro.faults.retry import RetryPolicy


@dataclass(frozen=True)
class FaultPlan:
    """Every knob of one fault-injection run.

    Rates are expressed in natural units (events per day / per hour,
    probabilities per call or per frame); a value of zero disables the
    corresponding process entirely — the injector then never draws from
    that substream.
    """

    # -- cloud connectivity --------------------------------------------------------
    #: Mean online-window duration in seconds (exponential).  0 disables
    #: connectivity windowing: the cloud's ``online`` flag is left alone.
    cloud_mean_up_s: float = 0.0
    #: Mean offline-window duration in seconds (exponential).
    cloud_mean_down_s: float = 0.0
    #: Probability that a ``sync_batch`` call fails with a transient
    #: timeout even while the cloud is online.
    cloud_timeout_prob: float = 0.0
    #: Max ``sync_batch`` calls accepted per rate window (0 = unlimited).
    cloud_rate_limit: int = 0
    #: Rate-limit accounting window in seconds.
    cloud_rate_window_s: float = 60.0
    #: Probability that a batch is only partially durably accepted (a
    #: random prefix), exercising the at-least-once replay contract.
    cloud_partial_prob: float = 0.0

    # -- device churn ---------------------------------------------------------------
    #: Expected crashes per device per simulated day (Poisson).
    crash_rate_per_day: float = 0.0
    #: Reboot delay drawn uniformly from this window (seconds).
    reboot_delay_s: Tuple[float, float] = (30.0, 300.0)

    # -- link faults ----------------------------------------------------------------
    #: Probability a completed transfer's frame is silently dropped.
    frame_drop_prob: float = 0.0
    #: Probability a delivered frame has one byte corrupted (must surface
    #: as a decode/security diagnostic at the receiver, never a crash).
    frame_corrupt_prob: float = 0.0
    #: Expected forced link drops per hour across the whole population
    #: (the dropped pair re-forms on the next medium tick if still in
    #: range — a flap).
    link_flap_rate_per_hour: float = 0.0

    # -- resilience policy (what the apps do about all of the above) ---------------
    #: Exponential-backoff retry schedule for cloud sync; attached to
    #: every app whenever the plan is active.
    retry_base_s: float = 30.0
    retry_cap_s: float = 900.0
    retry_jitter: float = 0.25

    def __post_init__(self) -> None:
        # NaN passes the ``< 0`` checks below (every comparison with it is
        # False) and silently switches its process off; an infinite rate
        # fails mid-run.  Reject both here.
        for f in fields(self):
            value = getattr(self, f.name)
            parts = value if f.name == "reboot_delay_s" else (value,)
            if not all(math.isfinite(part) for part in parts):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name in ("cloud_timeout_prob", "cloud_partial_prob",
                     "frame_drop_prob", "frame_corrupt_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.frame_drop_prob + self.frame_corrupt_prob > 1.0:
            raise ValueError("frame_drop_prob + frame_corrupt_prob must not exceed 1")
        for name in ("cloud_mean_up_s", "cloud_mean_down_s", "cloud_rate_window_s",
                     "crash_rate_per_day", "link_flap_rate_per_hour",
                     "retry_base_s", "retry_cap_s", "retry_jitter"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.cloud_rate_limit < 0:
            raise ValueError("cloud_rate_limit must be non-negative")
        if (self.cloud_mean_up_s > 0) != (self.cloud_mean_down_s > 0):
            raise ValueError(
                "cloud_mean_up_s and cloud_mean_down_s must both be set "
                "(or both zero to disable connectivity windows)"
            )
        lo, hi = self.reboot_delay_s
        if not 0 <= lo <= hi:
            raise ValueError(f"invalid reboot_delay_s window {self.reboot_delay_s!r}")

    # -- activity queries ------------------------------------------------------------
    @property
    def has_cloud_outages(self) -> bool:
        return self.cloud_mean_up_s > 0

    @property
    def has_cloud_gate(self) -> bool:
        return (
            self.cloud_timeout_prob > 0
            or self.cloud_rate_limit > 0
            or self.cloud_partial_prob > 0
        )

    @property
    def has_device_faults(self) -> bool:
        return self.crash_rate_per_day > 0

    @property
    def has_frame_faults(self) -> bool:
        return self.frame_drop_prob > 0 or self.frame_corrupt_prob > 0

    @property
    def has_link_flaps(self) -> bool:
        return self.link_flap_rate_per_hour > 0

    @property
    def is_none(self) -> bool:
        """True when nothing would ever be injected."""
        return not (
            self.has_cloud_outages
            or self.has_cloud_gate
            or self.has_device_faults
            or self.has_frame_faults
            or self.has_link_flaps
        )

    def retry_policy(self) -> RetryPolicy:
        """The sync-retry policy apps run under this plan."""
        return RetryPolicy(
            base_s=self.retry_base_s, cap_s=self.retry_cap_s, jitter=self.retry_jitter
        )

    # -- construction ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        return cls()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a CLI spec string.

        ``"none"`` (or empty) is the inert plan; ``"mild"``/``"harsh"``
        are presets; any of these may be followed by comma-separated
        ``key=value`` overrides, and a bare override list starts from the
        inert plan: ``"frame_drop_prob=0.1,crash_rate_per_day=2"``.
        """
        text = (spec or "none").strip()
        parts = [p.strip() for p in text.split(",") if p.strip()]
        plan = cls.none()
        start = 0
        if parts and "=" not in parts[0]:
            name = parts[0]
            if name not in PRESETS:
                raise ValueError(
                    f"unknown fault preset {name!r} (known: {sorted(PRESETS)})"
                )
            plan = PRESETS[name]
            start = 1
        valid = {f.name: f for f in fields(cls)}
        overrides: Dict[str, object] = {}
        for part in parts[start:]:
            key, equals, raw = part.partition("=")
            key = key.strip()
            if key not in valid:
                raise ValueError(
                    f"unknown fault field {key!r} (known: {sorted(valid)})"
                )
            if not equals:
                raise ValueError(f"fault override {key!r} must be key=value")
            raw = raw.strip()
            try:
                if key == "cloud_rate_limit":
                    form = "an integer"
                    overrides[key] = int(raw)
                elif key == "reboot_delay_s":
                    form = "LO:HI seconds"
                    lo, _, hi = raw.partition(":")
                    overrides[key] = (float(lo), float(hi))
                else:
                    form = "a number"
                    overrides[key] = float(raw)
            except ValueError:
                raise ValueError(f"{key} must be {form}, got {raw!r}") from None
        return replace(plan, **overrides)

    @classmethod
    def sample(cls, seed: int) -> "FaultPlan":
        """A deterministic random plan for chaos property tests.

        One integer seed maps to one plan; the distribution covers every
        fault axis with at least a moderate rate so short chaos runs
        actually exercise the machinery.  Retry timing is kept short so
        miniature runs converge inside their quiet period.
        """
        import random

        rng = random.Random(0x5EED ^ (seed * 2654435761 % (1 << 32)))
        return cls(
            cloud_mean_up_s=rng.uniform(120.0, 900.0),
            cloud_mean_down_s=rng.uniform(60.0, 600.0),
            cloud_timeout_prob=rng.uniform(0.0, 0.3),
            cloud_rate_limit=rng.choice([0, 2, 4]),
            cloud_rate_window_s=60.0,
            cloud_partial_prob=rng.uniform(0.0, 0.4),
            crash_rate_per_day=rng.uniform(0.0, 24.0),
            reboot_delay_s=(10.0, 60.0),
            frame_drop_prob=rng.uniform(0.0, 0.2),
            frame_corrupt_prob=rng.uniform(0.0, 0.2),
            link_flap_rate_per_hour=rng.uniform(0.0, 30.0),
            retry_base_s=15.0,
            retry_cap_s=120.0,
            retry_jitter=0.25,
        )


#: Named presets for the CLI.  ``mild`` models a flaky-but-usable world
#: (short outages, light loss); ``harsh`` models paper-§V conditions —
#: infrastructure mostly absent, lossy links, frequent churn.
PRESETS: Dict[str, FaultPlan] = {
    "none": FaultPlan.none(),
    "mild": FaultPlan(
        cloud_mean_up_s=4 * 3600.0,
        cloud_mean_down_s=1800.0,
        cloud_timeout_prob=0.05,
        cloud_partial_prob=0.05,
        crash_rate_per_day=0.25,
        frame_drop_prob=0.02,
        frame_corrupt_prob=0.01,
        link_flap_rate_per_hour=2.0,
    ),
    "harsh": FaultPlan(
        cloud_mean_up_s=1800.0,
        cloud_mean_down_s=4 * 3600.0,
        cloud_timeout_prob=0.2,
        cloud_rate_limit=4,
        cloud_rate_window_s=60.0,
        cloud_partial_prob=0.25,
        crash_rate_per_day=2.0,
        frame_drop_prob=0.10,
        frame_corrupt_prob=0.05,
        link_flap_rate_per_hour=12.0,
    ),
}

#: Spec strings accepted without ``key=value`` parts (CLI help).
FAULT_PRESET_NAMES = tuple(sorted(PRESETS))
