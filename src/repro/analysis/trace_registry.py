"""The declared catalogue of every trace event the simulation emits.

Rule family 2 (``trace-unknown-event`` / ``trace-unemitted-event``)
checks the tree against this catalogue in both directions: an ``emit``
call whose ``(category, kind)`` literal is not listed here is a typo or
an undocumented event, and a catalogued event with no emitting site in
the scanned tree is drift (dead documentation, or a collector counter
that can never tick).  ``docs/TRACE_EVENTS.md`` is generated verbatim
from :func:`render_markdown` and verified by ``scripts/check_docs.py``,
so the human-readable catalogue cannot diverge from the one the linter
enforces.

Adding an event
===============

1. Add the :class:`EventSpec` here (module list = every file that emits
   it, ``consumer`` = the analysis-side reader, if any).
2. Regenerate the doc: ``python scripts/gen_trace_docs.py``.
3. Emit it.  ``repro lint --strict`` fails until all three agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class EventSpec:
    """One catalogued ``(category, kind)`` trace event."""

    category: str
    kind: str
    #: Modules (repo-relative) expected to emit the event.
    modules: Tuple[str, ...]
    #: What the event records (one line, for docs/TRACE_EVENTS.md).
    description: str
    #: Analysis-side reader, e.g. a TraceCollector record or counter.
    consumer: str = ""

    @property
    def key(self) -> Tuple[str, str]:
        return (self.category, self.kind)


def _spec(
    category: str,
    kind: str,
    modules: Tuple[str, ...],
    description: str,
    consumer: str = "",
) -> EventSpec:
    return EventSpec(category, kind, modules, description, consumer)


_MEDIUM = ("src/repro/net/medium.py",)
_APP = ("src/repro/alleyoop/app.py",)
_INJECTOR = ("src/repro/faults/injector.py",)
_CONNECTIVITY = ("src/repro/faults/connectivity.py",)

#: Every event the simulation may emit, keyed by (category, kind).
TRACE_EVENTS: Dict[Tuple[str, str], EventSpec] = {
    spec.key: spec
    for spec in (
        # -- contact: the physical layer's link diff --------------------------
        _spec(
            "contact", "up", _MEDIUM,
            "a device pair came within radio range (best common radio)",
            "ContactTracker / contact metrics",
        ),
        _spec(
            "contact", "down", _MEDIUM,
            "an active link dropped (range, power, crash or forced flap)",
            "ContactTracker / contact metrics",
        ),
        # -- message: creation and delivery -----------------------------------
        _spec(
            "message", "created", ("src/repro/core/middleware.py",),
            "a user authored a post (the paper's unique-message count)",
            "TraceCollector.messages",
        ),
        _spec(
            "message", "received", ("src/repro/core/message_manager.py",),
            "a device accepted a message copy (hops, created_at, interest)",
            "TraceCollector.deliveries",
        ),
        # -- social: the follow graph over time --------------------------------
        _spec(
            "social", "follow", _APP,
            "one user subscribed to another",
            "TraceCollector.subscription_windows",
        ),
        _spec(
            "social", "follow_many", _APP,
            "bulk day-0 subscription (expanded to per-pair windows)",
            "TraceCollector.subscription_windows",
        ),
        _spec(
            "social", "unfollow", _APP,
            "one user unsubscribed from another",
            "TraceCollector.subscription_windows",
        ),
        # -- app: feed-level outcomes ------------------------------------------
        _spec(
            "app", "feed", _APP,
            "a delivered post surfaced in a subscriber's feed",
        ),
        _spec(
            "app", "malformed_payload", _APP,
            "a received post body failed to parse (diagnostic, not silent)",
        ),
        # -- cloud: resilient sync under faults --------------------------------
        _spec(
            "cloud", "sync_failed", _APP,
            "a cloud sync round failed (error, attempt, pending backlog)",
            "TraceCollector.cloud_counts",
        ),
        _spec(
            "cloud", "sync_retry", _APP,
            "a backoff retry of a failed sync was scheduled",
            "TraceCollector.cloud_counts",
        ),
        # -- security / router: protocol diagnostics ---------------------------
        _spec(
            "security", "failure", ("src/repro/core/adhoc.py",),
            "peer authentication or frame verification failed",
        ),
        _spec(
            "router", "control_send_failed", ("src/repro/core/message_manager.py",),
            "a routing control message could not be signed/sent",
        ),
        # -- fault: injected hazards (all counted by fault_counts) -------------
        _spec(
            "fault", "crash", _INJECTOR,
            "a device crashed (volatile state lost)",
            "TraceCollector.fault_counts",
        ),
        _spec(
            "fault", "reboot", _INJECTOR,
            "a crashed device came back (durable state intact)",
            "TraceCollector.fault_counts",
        ),
        _spec(
            "fault", "link_flap", _INJECTOR,
            "an active link was force-dropped while still in range",
            "TraceCollector.fault_counts",
        ),
        _spec(
            "fault", "frame_drop", _INJECTOR,
            "a radio frame was silently dropped in flight",
            "TraceCollector.fault_counts",
        ),
        _spec(
            "fault", "frame_corrupt", _INJECTOR,
            "one byte of a radio frame was flipped in flight",
            "TraceCollector.fault_counts",
        ),
        _spec(
            "fault", "cloud_down", _CONNECTIVITY,
            "the cloud entered an outage window",
            "TraceCollector.fault_counts",
        ),
        _spec(
            "fault", "cloud_up", _CONNECTIVITY,
            "the cloud outage window ended",
            "TraceCollector.fault_counts",
        ),
        _spec(
            "fault", "cloud_rate_limited", _CONNECTIVITY,
            "a sync round was rejected by the rate limiter",
            "TraceCollector.fault_counts",
        ),
        _spec(
            "fault", "cloud_timeout", _CONNECTIVITY,
            "a sync round hit a transient timeout",
            "TraceCollector.fault_counts",
        ),
        _spec(
            "fault", "cloud_partial", _CONNECTIVITY,
            "the cloud accepted only a prefix of an offered batch",
            "TraceCollector.fault_counts",
        ),
    )
}


def render_markdown() -> str:
    """The generated body of ``docs/TRACE_EVENTS.md``.

    One line per catalogued event, grouped by category; regenerate with
    ``python scripts/gen_trace_docs.py`` whenever the catalogue changes
    (``scripts/check_docs.py`` fails on drift).
    """
    lines = [
        "# Trace events",
        "",
        "Generated from `src/repro/analysis/trace_registry.py` by",
        "`scripts/gen_trace_docs.py` — do not edit by hand",
        "(`scripts/check_docs.py` verifies this file matches the registry,",
        "and `repro lint` verifies the registry matches the code).",
        "",
        "Every analysis in the harness — delay CDFs, delivery ratios, the",
        "map overlay, fault accounting — is reconstructed from this event",
        "stream, never from protocol internals.  The *consumed by* column",
        "names the analysis-side reader where one exists.",
        "",
    ]
    by_category: Dict[str, list] = {}
    for spec in TRACE_EVENTS.values():
        by_category.setdefault(spec.category, []).append(spec)
    for category in sorted(by_category):
        lines.append(f"## `{category}`")
        lines.append("")
        lines.append("| kind | emitted by | consumed by | meaning |")
        lines.append("|---|---|---|---|")
        for spec in sorted(by_category[category], key=lambda s: s.kind):
            modules = ", ".join(f"`{m}`" for m in spec.modules)
            consumer = spec.consumer or "—"
            lines.append(
                f"| `{spec.kind}` | {modules} | {consumer} | {spec.description} |"
            )
        lines.append("")
    return "\n".join(lines)
