"""Per-layer CPU accounting for one traced study run.

The benchmark wraps the public entry points of every ``repro`` layer from
its own files; nothing under ``src/`` knows it is being measured.  Each
wrapped call records a span ``[layer, parent, start, end]`` in memory
(start/end in process CPU seconds, parent the index of the enclosing
span or -1).  A layer's self time is its spans' duration minus the part
their child spans cover, so a lazy ``generate_keypair`` under
``AlleyOopApp.post`` under ``Simulator.run`` is charged to ``pki.keygen``
alone.  Counters are taken at the same boundaries.

:func:`install` replaces module and class attributes and
:meth:`Tracer.restore` puts the originals back, checked by identity.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: A counter update: (counter name, amount).  ``amount`` is None for
#: "+1 per call", else ``amount(args, result)`` on calls that returned.
Count = Tuple[str, Optional[Callable[[tuple, Any], float]]]

_RAISED = object()

#: Span layers that report a ``<layer>.self_s`` metric.
LAYERS = (
    "pki.keygen",
    "pki.provision",
    "social.wiring",
    "social.metrics",
    "metrics.analysis",
    "sim.loop",
    "mobility",
    "geo.spatial",
    "net.medium",
    "mpc",
    "crypto.rsa",
    "crypto.session",
    "core.adhoc",
    "core.routing",
    "alleyoop.app",
    "alleyoop.cloud",
)

#: Layers that also report ``<layer>.calls``.
CALL_COUNTED = (
    "pki.keygen", "social.wiring", "social.metrics", "mobility", "geo.spatial", "core.routing",
)

#: Metrics read straight from the tracer's counters.
COUNTERS = (
    "sim.events",
    "mobility.positions",
    "geo.candidate_pairs",
    "net.medium.ticks",
    "mpc.transfers",
    "mpc.invites",
    "crypto.rsa.sign",
    "crypto.rsa.verify",
    "crypto.rsa.encrypt",
    "crypto.rsa.decrypt",
    "crypto.session.frames",
    "crypto.session.bytes",
    "core.adhoc.sent",
    "core.adhoc.received",
    "alleyoop.posts",
    "alleyoop.cloud.sync_rounds",
)

SOCIAL_METRICS = (
    "density_directed",
    "average_shortest_path_length",
    "diameter",
    "radius",
    "transitivity_undirected",
)

ROUTING_HOOKS = (
    "on_peer_discovered", "on_peer_secured", "on_peer_lost", "on_message_received", "on_control",
)


def _result_len(args: tuple, result: Any) -> int:
    return len(result)


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.process_time) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(int)
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------
    def wrap(self, layer: str, fn: Callable, counts: Sequence[Count] = ()) -> Callable:
        """``fn`` inside a span of ``layer``, updating ``counts`` per call."""
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            result = _RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                spans[index][3] = clock()
                for counter, amount in counts:
                    if amount is None:
                        counters[counter] += 1
                    elif result is not _RAISED:
                        counters[counter] += amount(args, result)

        return traced

    def counting(self, fn: Callable, counter: str) -> Callable:
        """``fn`` counted per call, without a span."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------------
    def patch(self, owner: Any, name: str, layer: Optional[str], counts: Sequence[Count] = ()) -> None:
        """Replace ``owner.name`` (a module function, method or classmethod)
        by a traced twin; with ``layer=None`` the twin only counts calls
        into ``counts[0]``."""
        if any(o is owner and n == name for o, n, _ in self._patches):
            return
        original = vars(owner)[name]
        fn = original.__func__ if isinstance(original, classmethod) else original
        if layer is None:
            replacement = self.counting(fn, counts[0][0])
        else:
            replacement = self.wrap(layer, fn, counts)
        if isinstance(original, classmethod):
            replacement = classmethod(replacement)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        """Put every patched attribute back; raises if one is not the
        original object afterwards."""
        patches, self._patches = self._patches, []
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in patches
            if vars(owner).get(name) is not original
        ]
        if wrong:
            raise RuntimeError(f"wrappers not removed: {', '.join(wrong)}")

    @property
    def patched(self) -> int:
        return len(self._patches)

    # -- output ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write the spans as JSON: layer names plus
        ``[layer index, parent, start, end]`` rows."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[layer], parent, start, end] for layer, parent, start, end in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"layers": names, "spans": rows}, separators=(",", ":")))


def self_times(spans: Iterable[Sequence]) -> Dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    spans = list(spans)
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[str, float] = defaultdict(float)
    for (layer, _, start, end), child in zip(spans, covered):
        out[layer] += end - start - child
    return dict(out)


def outer_calls(spans: Sequence[Sequence]) -> Dict[str, int]:
    """Per-layer entries from another layer (or from the top): a layer's
    calls into itself are not new calls into the layer."""
    out: Dict[str, int] = defaultdict(int)
    for layer, parent, _, _ in spans:
        if parent < 0 or spans[parent][0] != layer:
            out[layer] += 1
    return dict(out)


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        klass = todo.pop()
        found.append(klass)
        todo.extend(klass.__subclasses__())
    return found


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer."""
    import repro.mobility  # noqa: F401  (registers every MobilityModel subclass)
    from repro.alleyoop import signup
    from repro.alleyoop.app import AlleyOopApp
    from repro.alleyoop.cloud import CloudService
    from repro.core import adhoc
    from repro.core.adhoc import AdHocManager
    from repro.core.message_manager import MessageManager
    from repro.core.routing.base import RoutingProtocol
    from repro.core.routing.registry import RoutingRegistry
    from repro.crypto import rsa
    from repro.crypto.session import SecureChannel
    from repro.experiments import gainesville
    from repro.geo.spatial_index import SpatialHashIndex
    from repro.metrics.collector import TraceCollector
    from repro.metrics.delay import DelayAnalysis
    from repro.metrics.delivery import DeliveryAnalysis
    from repro.mobility.base import MobilityModel
    from repro.mpc.framework import MpcFramework
    from repro.net.medium import Medium
    from repro.pki import ca, provisioning
    from repro.sim.engine import Simulator
    from repro.social import metrics as social_metrics

    patch = tracer.patch
    patch(gainesville.GainesvilleStudy, "build", "setup")
    for module in (rsa, ca, provisioning, signup):
        patch(module, "generate_keypair", "pki.keygen")
    patch(gainesville, "provision_user", "pki.provision")
    patch(provisioning.KeypairPool, "get", "pki.provision")
    patch(provisioning.KeypairPool, "prefetch", "pki.provision")
    patch(gainesville, "make_social_graph", "social.wiring")
    patch(AlleyOopApp, "follow_many", "social.wiring")
    patch(AlleyOopApp, "follow", "social.wiring")
    for name in SOCIAL_METRICS:
        patch(social_metrics, name, "social.metrics")
    patch(TraceCollector, "__init__", "metrics.analysis")
    patch(DelayAnalysis, "from_collector", "metrics.analysis")
    patch(DeliveryAnalysis, "from_collector", "metrics.analysis")
    patch(Simulator, "run", "sim.loop", [("sim.events", lambda args, executed: executed)])
    for cls in _subclasses(MobilityModel):
        if "positions_at" in vars(cls):
            patch(cls, "positions_at", "mobility", [("mobility.positions", _result_len)])
    patch(SpatialHashIndex, "update_many", "geo.spatial")
    patch(SpatialHashIndex, "pairs_within", "geo.spatial", [("geo.candidate_pairs", _result_len)])
    patch(Medium, "tick", "net.medium", [("net.medium.ticks", None)])
    patch(MpcFramework, "invite", "mpc", [("mpc.invites", None)])
    patch(MpcFramework, "complete_invitation", "mpc")
    patch(MpcFramework, "transfer", "mpc", [("mpc.transfers", None)])
    patch(rsa.RsaPrivateKey, "sign", "crypto.rsa", [("crypto.rsa.sign", None)])
    patch(rsa.RsaPrivateKey, "decrypt", "crypto.rsa", [("crypto.rsa.decrypt", None)])
    patch(rsa.RsaPublicKey, "verify", "crypto.rsa", [("crypto.rsa.verify", None)])
    patch(rsa.RsaPublicKey, "encrypt", "crypto.rsa", [("crypto.rsa.encrypt", None)])
    patch(adhoc, "hybrid_encrypt", "crypto.rsa")
    patch(adhoc, "hybrid_decrypt", "crypto.rsa")
    frame_bytes_out: Count = ("crypto.session.bytes", _result_len)
    frame_bytes_in: Count = ("crypto.session.bytes", lambda args, result: len(args[1]))
    frames: Count = ("crypto.session.frames", None)
    patch(SecureChannel, "encrypt", "crypto.session", [frames, frame_bytes_out])
    patch(SecureChannel, "decrypt", "crypto.session", [frames, frame_bytes_in])
    patch(AdHocManager, "send_packet", "core.adhoc", [("core.adhoc.sent", None)])
    patch(AdHocManager, "session_received_data", "core.adhoc", [("core.adhoc.received", None)])
    patch(AdHocManager, "session_peer_connected", "core.adhoc")
    patch(AdHocManager, "session_peer_disconnected", "core.adhoc")
    registry = RoutingRegistry.with_builtins()
    for name in registry.names():
        for klass in type(registry.create(name)).__mro__:
            if issubclass(klass, RoutingProtocol):
                for hook in ROUTING_HOOKS:
                    if hook in vars(klass):
                        patch(klass, hook, "core.routing")
    patch(MessageManager, "send_message", None, [("core.routing.sends", None)])
    patch(AlleyOopApp, "post", "alleyoop.app", [("alleyoop.posts", None)])
    patch(AlleyOopApp, "sos_message_received", "alleyoop.app")
    patch(CloudService, "sync_batch", "alleyoop.cloud", [("alleyoop.cloud.sync_rounds", None)])


def layer_metrics(
    tracer: Tracer,
    study: Any,
    result: Any,
    traced_cpu_s: float,
    traced_wall_s: float,
    untraced_wall_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run (names as in BENCHMARK.json)."""
    self_s = self_times(tracer.spans)
    calls = outer_calls(tracer.spans)
    counters = tracer.counters
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer in CALL_COUNTED:
        out[f"{layer}.calls"] = calls.get(layer, 0)
    for name in COUNTERS:
        out[name] = counters[name]
    pool = study.keypair_pool.stats if study.keypair_pool is not None else {}
    out["pki.pool.generated"] = pool.get("generated", 0)
    out["pki.pool.disk_hits"] = pool.get("disk_hits", 0)
    out["pki.keystores_materialized"] = result.security_stats["keystores_materialized"]
    out["geo.distance_checks"] = study.medium.distance_checks
    out["net.contacts"] = study.medium.contacts.total_contacts()
    out["net.link_yield"] = _ratio(out["net.contacts"], counters["geo.candidate_pairs"])
    out["core.security_rejects"] = result.security_stats["security_failures"]
    out["core.routing.useful_ratio"] = _ratio(result.disseminations, counters["core.routing.sends"])
    out["alleyoop.cloud.sync_failures"] = sum(app.sync_failures for app in study.apps.values())
    out["setup.other_s"] = self_s.get("setup", 0.0)
    covered = sum(self_s.values())
    out["unattributed_s"] = traced_cpu_s - covered
    out["trace.coverage"] = _ratio(covered, traced_cpu_s)
    out["trace.overhead"] = traced_wall_s / untraced_wall_s - 1.0
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
