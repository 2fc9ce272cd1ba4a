"""World-building helpers for middleware/application tests.

Builds N AlleyOop apps on stationary (or scripted) devices, reusing the
session-scoped key pool so tests do not pay RSA key generation per case.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.alleyoop import AlleyOopApp, CloudService
from repro.bench import traceid
from repro.core.config import SosConfig
from repro.crypto.drbg import HmacDrbg
from repro.geo.point import Point
from repro.mobility.base import MobilityModel, StationaryModel
from repro.mpc.framework import MpcFramework
from repro.net.device import Device
from repro.net.medium import Medium
from repro.pki.csr import CertificateSigningRequest
from repro.pki.certificate import DistinguishedName
from repro.pki.keystore import KeyStore
from repro.sim.engine import Simulator


def trace_lines(sim: Simulator, exclude_category: Optional[str] = None) -> List[str]:
    """The canonical trace lines (:func:`repro.bench.traceid.trace_lines`,
    the byte-identity oracle of the equivalence tests and benches),
    optionally without the events of one category."""
    lines = traceid.trace_lines(sim)
    if exclude_category is None:
        return lines
    return [
        line for line, event in zip(lines, sim.trace) if event.category != exclude_category
    ]


def subscription_windows(sim: Simulator) -> List[tuple]:
    """The collector-derived subscription windows, as comparable tuples."""
    from repro.metrics.collector import TraceCollector

    return [
        (w.follower, w.followee, w.start, w.end)
        for w in TraceCollector(sim.trace).subscription_windows
    ]


def followed_sequences(apps) -> Dict[object, List[str]]:
    """Expand each app's logged follow actions (per-edge FOLLOW or the
    bulk path's compact FOLLOW_MANY) to the ordered followee sequence
    they record — the wiring-mode equivalence oracle for action logs."""
    from repro.storage.actionlog import ActionKind

    out: Dict[object, List[str]] = {}
    for key, app in apps.items():
        expanded: List[str] = []
        for action in app.actions:
            if action.kind is ActionKind.FOLLOW:
                expanded.append(action.payload["target"])
            elif action.kind is ActionKind.FOLLOW_MANY:
                expanded.extend(action.payload["targets"])
        out[key] = expanded
    return out


class World:
    """A small in-memory deployment for tests."""

    def __init__(
        self,
        ca,
        keypair_pool,
        tick: float = 10.0,
        seed: int = 1,
    ) -> None:
        self.sim = Simulator(seed=seed)
        self.medium = Medium(self.sim, tick_interval=tick)
        self.framework = MpcFramework(self.sim, self.medium)
        self.cloud = CloudService(ca=ca)
        self._keypair_pool = keypair_pool
        self.apps: Dict[str, AlleyOopApp] = {}
        self.devices: Dict[str, Device] = {}

    def add_user(
        self,
        name: str,
        position: Point = None,
        mobility: Optional[MobilityModel] = None,
        config: Optional[SosConfig] = None,
        start: bool = True,
        resilience=None,
    ) -> AlleyOopApp:
        index = len(self.apps)
        account = self.cloud.create_account(name, now=self.sim.now)
        keypair = self._keypair_pool[index % len(self._keypair_pool)]
        csr = CertificateSigningRequest.create(
            DistinguishedName(common_name=name), keypair.private, account.user_id
        )
        certificate = self.cloud.request_certificate(name, csr, now=self.sim.now)
        keystore = KeyStore()
        keystore.provision(keypair.private, certificate, self.cloud.root_certificate)
        model = mobility or StationaryModel(position or Point(100.0 + 20.0 * index, 100.0))
        device = Device(f"dev-{name}", model)
        self.medium.add_device(device)
        self.devices[name] = device
        app = AlleyOopApp(
            sim=self.sim,
            framework=self.framework,
            device_id=device.device_id,
            user_id=account.user_id,
            username=name,
            keystore=keystore,
            cloud=self.cloud,
            rng=HmacDrbg.from_int(9000 + index),
            config=config or SosConfig(routing_protocol="interest", relay_request_grace=0.0),
            resilience=resilience,
        )
        self.apps[name] = app
        if start:
            app.start()
        return app

    def start(self) -> None:
        self.medium.start()

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    def uid(self, name: str) -> str:
        return self.apps[name].user_id
