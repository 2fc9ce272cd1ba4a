"""The Gainesville field-study reconstruction (paper §VI).

Builds the complete deployment: a cloud + CA, ten users who complete the
one-time sign-up (Fig. 2a), working-day mobility across an 11 km x 8 km
synthetic Gainesville, the reconstructed Fig. 4a follow graph (46
subscriptions at day 0, 12 follow actions during the study), a 7-day
posting schedule totalling 259 messages, and interest-based routing —
then runs it and extracts every statistic Fig. 4 and §VI report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.alleyoop import AlleyOopApp, CloudService
from repro.core.config import SosConfig
from repro.crypto.drbg import HmacDrbg
from repro.faults import FaultInjector
from repro.pki.provisioning import CA_INDEX, KeypairPool, ca_drbg_seed, provision_user
from repro.experiments.scenario import ScenarioConfig
from repro.geo.region import Region
from repro.metrics.collector import TraceCollector
from repro.metrics.delay import DelayAnalysis
from repro.metrics.delivery import DeliveryAnalysis
from repro.metrics.report import comparison_row, format_table
from repro.metrics.spatial import MapOverlay
from repro.mobility.city import SyntheticCity
from repro.mobility.working_day import DailySchedule, WorkingDayMovement
from repro.net.device import Device
from repro.net.medium import Medium
from repro.mpc.framework import MpcFramework
from repro.sim.engine import Simulator
from repro.social import figure4a, metrics as social_metrics
from repro.social.digraph import SocialDigraph
from repro.social.generators import make_social_graph, resolve_social_graph_kind

_DAY = 86_400.0
_HOUR = 3_600.0

#: Fig. 4 values as published, used in the side-by-side report.
PAPER_VALUES = {
    "density_directed": 0.64,
    "avg_shortest_path": 1.3,
    "diameter": 2,
    "radius": 1,
    "transitivity": 0.80,
    "unique_messages": 259,
    "disseminations": 967,
    "subscriptions": 46,
    "one_hop_fraction": 0.826,
    "all_within_24h": 0.43,
    "all_within_94h": 0.90,
    "one_hop_within_24h": 0.44,
    "one_hop_within_94h": 0.92,
    "subs_above_0.80_all": 0.30,
    "subs_above_0.70_all": 0.50,
    "subs_at_least_0.80_one_hop": 0.25,
}

# -- calibration the paper does not publish (see EXPERIMENTS.md) -----------------
#: Social venues each user frequents: uniform(lo, hi), clipped to the
#: city's venue count.
VENUES_PER_USER = (2, 4)
#: Gathering size range: the host invites this many friends (clipped
#: to the host's friend count).  Gatherings covering most of a user's
#: follower cluster are what make posted-at-gathering deliveries
#: mostly 1-hop.
MEETUP_GROUP_SIZE = (2, 4)
#: Fraction of follow-graph edges that are also *physical* friendships
#: (people who actually hang out).  Following someone does not mean
#: meeting them — this gap is what produces the paper's partial
#: delivery ratios (median ~0.7) alongside 1-hop-dominated deliveries:
#: close pairs deliver directly and quickly, distant subscriptions
#: depend on occasional relays.
CLOSE_FRIEND_PROB = 0.6
#: Hour-of-day window in which meetups start.
MEETUP_HOURS = (10.5, 20.0)
#: Weekend meetup rate relative to weekdays (the participants
#: "typically interacted during the school week", §VI-A) — weekend
#: posts waiting for Monday are a large part of the delay tail.
WEEKEND_MEETUP_FACTOR = 0.54
#: Meetup duration in hours.
MEETUP_DURATION_HOURS = (0.75, 2.0)
#: Fraction of posts created while the author is at one of its own
#: meetups (people post about what they are doing, with friends
#: around) — the mechanism behind the study's 1-hop-dominated
#: deliveries.
POST_AT_MEETUP_PROB = 0.44
#: Duty cycle: each user opens the app for uniform(n - 1, n + 1)
#: foreground sessions a day, each lasting uniform(lo, hi) minutes.
FOREGROUND_SESSIONS_PER_DAY = 2
FOREGROUND_MINUTES = (10.0, 30.0)
#: Zipf-ish activity skew: weight of user k is 1 / (k + 1) ** skew.
POSTING_SKEW = 0.7
#: Posts happen during waking hours [start, end) local time.
POSTING_HOURS = (8.0, 23.0)


@dataclass
class StudyResult:
    """Everything a finished run reports."""

    config: ScenarioConfig
    collector: TraceCollector
    delay: DelayAnalysis
    delivery: DeliveryAnalysis
    overlay: MapOverlay
    social_stats: Dict[str, float]
    evaluated_subscriptions: List[Tuple[str, str]]
    contact_count: int
    security_stats: Dict[str, int] = field(default_factory=dict)

    # -- §VI-B totals -----------------------------------------------------------
    @property
    def unique_messages(self) -> int:
        return self.collector.unique_message_count

    @property
    def disseminations(self) -> int:
        return self.collector.dissemination_count

    @property
    def one_hop_fraction(self) -> Optional[float]:
        firsts = list(self.collector.first_deliveries().values())
        if not firsts:
            return None
        return sum(1 for d in firsts if d.hops == 1) / len(firsts)

    def summary(self) -> Dict[str, float]:
        out = dict(self.social_stats)
        out.update(
            {
                "unique_messages": self.unique_messages,
                "disseminations": self.disseminations,
                "subscriptions": len(self.evaluated_subscriptions),
                "one_hop_fraction": self.one_hop_fraction or 0.0,
            }
        )
        out.update(self.delay.paper_points())
        out.update(self.delivery.paper_points())
        return out

    def report(self) -> str:
        """The paper-vs-measured table for every Fig. 4 quantity."""
        summary = self.summary()
        rows = [
            comparison_row(name, PAPER_VALUES.get(name), summary.get(name))
            for name in PAPER_VALUES
        ]
        return format_table(
            "Gainesville field study reproduction (paper Fig. 4 / §VI)",
            ("metric", "paper", "measured", "delta"),
            rows,
        )


class GainesvilleStudy:
    """Constructs and runs one deployment reconstruction."""

    def __init__(self, config: Optional[ScenarioConfig] = None) -> None:
        self.config = config or ScenarioConfig()
        self.sim: Optional[Simulator] = None
        self.medium: Optional[Medium] = None
        self.apps: Dict[int, AlleyOopApp] = {}  # paper node label -> app
        self.devices: Dict[int, Device] = {}
        self.user_ids: Dict[int, str] = {}
        self.social_graph: Optional[SocialDigraph] = None
        #: The concrete generator "auto" resolved to (set by build()).
        self.social_graph_kind: Optional[str] = None
        self.keypair_pool = None  # set by build() for pooled/lazy modes
        #: The fault injector, or None when ``config.faults == "none"``.
        self.injector: Optional[FaultInjector] = None
        self._overlay: Optional[MapOverlay] = None
        self._built = False

    # -- construction -----------------------------------------------------------------
    def build(self) -> None:
        """Materialise the whole deployment (idempotent)."""
        if self._built:
            return
        cfg = self.config
        fault_plan = cfg.fault_plan()
        self.sim = Simulator(seed=cfg.seed)
        self.medium = Medium(self.sim, tick_interval=cfg.medium_tick_s)
        self.framework = MpcFramework(self.sim, self.medium)
        # Identity provisioning: the pool (shared by pooled *and* lazy
        # materialisation) lives on the study so benches can read its
        # stats.  It serves the CA's key pair as well, so a build over a
        # warm disk cache generates no key; eager keeps the paper's flow,
        # the CA generating its own.
        if cfg.provisioning in ("pooled", "lazy"):
            self.keypair_pool = KeypairPool(cfg.key_cache_dir)
            ca_keypair = self.keypair_pool.get(cfg.key_bits, cfg.seed, CA_INDEX)
        else:
            self.keypair_pool = ca_keypair = None
        self.cloud = CloudService(
            rng=HmacDrbg.from_int(ca_drbg_seed(cfg.seed)),
            now=0.0,
            key_bits=cfg.key_bits,
            keypair=ca_keypair,
        )
        region = Region(0.0, 0.0, cfg.area[0], cfg.area[1])
        city_rng = self.sim.streams.get("city")
        self.city = SyntheticCity.gainesville_like(
            region, city_rng, num_homes=cfg.num_users
        )
        self.social_graph = self._make_social_graph()
        if self.social_graph_kind is None:
            # Subclass overrode _make_social_graph without labelling it.
            self.social_graph_kind = resolve_social_graph_kind(
                cfg.social_graph, cfg.num_users
            )

        nodes = sorted(self.social_graph.nodes)
        sos_config = SosConfig(
            routing_protocol=cfg.routing_protocol,
            require_encryption=cfg.require_encryption,
            session_crypto=cfg.session_crypto,
            relay_request_grace=cfg.relay_request_grace,
        )
        for index, node in enumerate(nodes):
            username = f"user-{node:02d}" if isinstance(node, int) else str(node)
            signup = provision_user(
                self.cloud,
                username,
                seed=cfg.seed,
                index=index,
                now=0.0,
                key_bits=cfg.key_bits,
                mode=cfg.provisioning,
                pool=self.keypair_pool,
            )
            self.user_ids[node] = signup.user_id
            venue_rng = self.sim.streams.get(f"venues:{node}")
            lo, hi = VENUES_PER_USER
            count = min(len(self.city.social_venues), venue_rng.randint(lo, hi))
            venues = venue_rng.sample(self.city.social_venues, count) if count else []
            schedule = DailySchedule(
                home=self.city.homes[index % len(self.city.homes)],
                work=self.city.campus,
                social_places=venues,
            )
            mobility = WorkingDayMovement(schedule, self.sim.streams.get(f"mobility:{node}"))
            device = Device(f"device-{node}", mobility)
            self.devices[node] = device
            self.apps[node] = AlleyOopApp(
                sim=self.sim,
                framework=self.framework,
                device_id=device.device_id,
                user_id=signup.user_id,
                username=username,
                keystore=signup.keystore,
                cloud=self.cloud,
                rng=HmacDrbg.from_int(cfg.seed * 15485863 + index),
                config=sos_config,
                resilience=None if fault_plan.is_none else fault_plan.retry_policy(),
            )

        self._wire_day0_follows()
        self._schedule_late_follows()
        self._schedule_meetups()  # before any position query: appointments
        for node in sorted(self.devices):
            self.medium.add_device(self.devices[node])
        self._schedule_duty_cycle()
        self._schedule_posts()
        self._attach_overlay(region)
        if not fault_plan.has_cloud_outages:
            # The one-time infrastructure requirement: after sign-up the
            # cloud goes dark and everything below is D2D only.  When the
            # plan configures connectivity windows, the ConnectivityModel
            # owns the online flag instead.
            self.cloud.online = False
        if not fault_plan.is_none:
            self.injector = FaultInjector(
                self.sim, fault_plan, cfg.resolved_fault_seed()
            )
            self.injector.install(
                self.cloud, self.medium, self.framework, list(self.apps.values())
            )
        # repro: ignore[nondet-iter] -- order cannot reach the trace nondeterministically: apps is keyed by node name and populated in the seeded build's node order, so insertion-order iteration is identical for a fixed seed across runs and processes.
        for app in self.apps.values():
            app.start()
        self.medium.start()
        self._built = True

    def _make_social_graph(self) -> SocialDigraph:
        cfg = self.config
        self.social_graph_kind = resolve_social_graph_kind(cfg.social_graph, cfg.num_users)
        return make_social_graph(
            cfg.social_graph, cfg.num_users, self.sim.streams.get("social")
        )

    def _initial_subscriptions(self) -> Tuple[Tuple[int, int], ...]:
        """The day-0 follow edges, in wiring order.

        The figure4a reconstruction withholds its 12 late follows (they
        happen during the study); every generated graph is wired whole.
        Both sources arrive grouped by follower — INITIAL_SUBSCRIPTIONS
        is sorted, SocialDigraph.edges() yields per-follower runs — which
        is what lets the bulk wiring emit the same traces as the per-edge
        oracle, ``PerEdgeStudy`` in ``tests/wiring_oracle.py``.
        """
        if self.social_graph_kind == "figure4a":
            return figure4a.INITIAL_SUBSCRIPTIONS
        return tuple(self.social_graph.edges())

    def _wire_day0_follows(self) -> None:
        by_follower: Dict[int, List[str]] = {}
        for follower, followee in self._initial_subscriptions():
            by_follower.setdefault(follower, []).append(self.user_ids[followee])
        for follower, followees in by_follower.items():
            self.apps[follower].follow_many(followees)

    def _schedule_late_follows(self) -> None:
        if self.social_graph_kind != "figure4a":
            return
        rng = self.sim.streams.get("late-follows")
        horizon_days = max(1, min(5, self.config.duration_days - 1))
        for follower, followee in figure4a.LATE_FOLLOWS:
            day = rng.randint(1, horizon_days)
            hour = rng.uniform(9.0, 22.0)
            at = day * _DAY + hour * _HOUR
            self.sim.schedule_at(
                at,
                self.apps[follower].follow,
                self.user_ids[followee],
                name=f"follow:{follower}->{followee}",
            )

    def _schedule_meetups(self) -> None:
        """Arrange coordinated friend meetups (appointments) up front.

        Friends in the follow graph meet in pairs (sometimes with a
        mutual friend) at shared venues.  These deliberate co-locations —
        not incidental campus proximity — carry most D2D contacts, which
        is what produces the field study's author-dominated (1-hop)
        delivery pattern.
        """
        cfg = self.config
        self._meetup_windows: Dict[int, List[Tuple[float, float]]] = {
            node: [] for node in self.devices
        }
        if cfg.meetups_per_day <= 0 or not self.city.social_venues:
            return
        rng = self.sim.streams.get("meetups")
        full_adjacency = self.social_graph.undirected_adjacency()
        # The physical-friendship subgraph: only some follow edges come
        # with real-world hangouts.
        adjacency: Dict[object, set] = {n: set() for n in full_adjacency}
        for a in sorted(full_adjacency, key=repr):
            for b in sorted(full_adjacency[a], key=repr):
                if repr(a) < repr(b) and rng.random() < CLOSE_FRIEND_PROB:
                    adjacency[a].add(b)
                    adjacency[b].add(a)
        self.close_friend_graph = adjacency
        pairs = sorted(
            (a, b) for a in adjacency for b in adjacency[a] if repr(a) < repr(b)
        )
        if not pairs:
            return
        lo_h, hi_h = MEETUP_HOURS
        lo_d, hi_d = MEETUP_DURATION_HOURS
        lo_g, hi_g = MEETUP_GROUP_SIZE
        nodes = sorted(self.devices, key=repr)
        for day in range(cfg.duration_days):
            rate = cfg.meetups_per_day
            if day % 7 >= 5:  # weekend (study started on a Monday)
                rate *= WEEKEND_MEETUP_FACTOR
            count = rng.randint(
                max(0, int(rate * 0.5)), max(1, round(rate * 1.5))
            )
            day_busy: Dict[int, List[Tuple[float, float]]] = {n: [] for n in nodes}
            for _ in range(count):
                host = nodes[rng.randrange(len(nodes))]
                friends = sorted(adjacency[host], key=repr)
                if not friends:
                    continue
                size = rng.randint(lo_g, hi_g)
                invited = friends if len(friends) <= size else rng.sample(friends, size)
                start = day * _DAY + rng.uniform(lo_h, hi_h) * _HOUR
                duration = rng.uniform(lo_d, hi_d) * _HOUR
                venue = self.city.social_venues[rng.randrange(len(self.city.social_venues))]
                for node in [host] + list(invited):
                    # Skip double-booked participants.
                    if any(s < start + duration and start < e for s, e in day_busy[node]):
                        continue
                    day_busy[node].append((start, start + duration))
                    mobility = self.devices[node].mobility
                    # Stagger arrivals by a couple of minutes.
                    arrive = start + rng.uniform(0.0, 180.0)
                    mobility.add_appointment(arrive, venue, duration)
                    # Leave travel margin before counting it "attended".
                    self._meetup_windows[node].append(
                        (arrive + 900.0, arrive + duration - 300.0)
                    )

    def _schedule_duty_cycle(self) -> None:
        """Power radios only while the app is plausibly foregrounded:
        during the user's meetups and during short random daily sessions
        (checking the feed).  Apple's MPC gives SOS no background time, so
        the in-vivo system really did communicate only in these windows.
        """
        cfg = self.config
        if not cfg.duty_cycle:
            return
        rng = self.sim.streams.get("duty-cycle")
        lo_m, hi_m = FOREGROUND_MINUTES
        for node, device in self.devices.items():
            device.power_off()
            windows = list(self._meetup_windows.get(node, []))
            # Random feed-checking sessions.
            for day in range(cfg.duration_days):
                sessions = rng.randint(
                    max(0, FOREGROUND_SESSIONS_PER_DAY - 1),
                    FOREGROUND_SESSIONS_PER_DAY + 1,
                )
                for _ in range(sessions):
                    start = day * _DAY + rng.uniform(8.0, 23.0) * _HOUR
                    windows.append((start, start + rng.uniform(lo_m, hi_m) * 60.0))
            # Merge overlaps so a window's end never cuts another short.
            merged: List[Tuple[float, float]] = []
            for start, end in sorted((max(0.0, s - 60.0), e) for s, e in windows if e > s):
                if merged and start <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], end))
                else:
                    merged.append((start, end))
            for start, end in merged:
                # Radios up slightly before the window (session setup).
                self.sim.schedule_at(start, device.power_on, name=f"on:{node}")
                self.sim.schedule_at(end, device.power_off, name=f"off:{node}")

    def _schedule_posts(self) -> None:
        cfg = self.config
        rng = self.sim.streams.get("posting")
        nodes = sorted(self.apps)
        weights = [1.0 / (k + 1) ** POSTING_SKEW for k in range(len(nodes))]
        total_weight = sum(weights)
        lo_h, hi_h = POSTING_HOURS
        for post_index in range(cfg.total_posts):
            pick = rng.random() * total_weight
            acc = 0.0
            node = nodes[-1]
            for candidate, weight in zip(nodes, weights):
                acc += weight
                if pick <= acc:
                    node = candidate
                    break
            windows = self._meetup_windows.get(node, [])
            usable = [w for w in windows if w[1] > w[0]]
            if usable and rng.random() < POST_AT_MEETUP_PROB:
                # Post from a gathering: subscribers present get it 1-hop.
                start, end = usable[rng.randrange(len(usable))]
                at = rng.uniform(start, end)
            else:
                day = rng.randrange(cfg.duration_days)
                hour = rng.uniform(lo_h, hi_h)
                at = day * _DAY + hour * _HOUR
            app = self.apps[node]
            text = f"post {post_index} from node {node}"
            self.sim.schedule_at(at, app.post, text, name=f"post:{node}:{post_index}")

    def _attach_overlay(self, region: Region) -> None:
        overlay = MapOverlay(region)
        user_to_node = {uid: node for node, uid in self.user_ids.items()}

        def _on_trace(event) -> None:
            if event.category != "message":
                return
            if event.kind == "created":
                node = user_to_node.get(event.data["owner"])
                kind = MapOverlay.CREATED
            elif event.kind == "received":
                node = user_to_node.get(event.data["owner"])
                kind = MapOverlay.DISSEMINATED
            else:
                return
            if node is None:
                return
            device = self.devices[node]
            # Passive read: querying the mobility model here would advance
            # its integrator at extra intermediate times and perturb the
            # simulation; the up-to-a-tick-stale tick position is the
            # observation the real deployment logged anyway.
            position = device.last_position or device.position_at(self.sim.now)
            overlay.add(kind, event.time, position, event.data["owner"])

        self.sim.trace.subscribe(_on_trace)
        self._overlay = overlay

    # -- execution -----------------------------------------------------------------------
    def run(self) -> StudyResult:
        """Run to the end of the study window and analyse."""
        self.build()
        self.sim.run(until=self.config.duration_seconds)
        self.medium.stop()
        collector = TraceCollector(self.sim.trace)
        if self.social_graph_kind == "figure4a":
            evaluated = [
                (self.user_ids[a], self.user_ids[b])
                for a, b in figure4a.INITIAL_SUBSCRIPTIONS
            ]
        else:
            evaluated = [
                (self.user_ids[a], self.user_ids[b]) for a, b in self.social_graph.edges()
            ]
        delay = DelayAnalysis.from_collector(collector)
        delivery = DeliveryAnalysis.from_collector(
            collector, evaluated, window_end=self.config.duration_seconds
        )
        security: Dict[str, int] = {}
        # repro: ignore[nondet-iter] -- order cannot reach the trace: post-run commutative aggregation (integer += per key) of per-app counters; the sum is order-independent and nothing here emits.
        for app in self.apps.values():
            for key, value in app.sos.security_stats.items():
                security[key] = security.get(key, 0) + value
        # How many devices ever paid for their key material (== num_users
        # except under lazy provisioning, where idle devices never do).
        security["keystores_materialized"] = sum(
            1 for app in self.apps.values() if app.sos.adhoc.keystore.materialized
        )
        return StudyResult(
            config=self.config,
            collector=collector,
            delay=delay,
            delivery=delivery,
            overlay=self._overlay,
            social_stats=self._social_stats(),
            evaluated_subscriptions=evaluated,
            contact_count=self.medium.contacts.total_contacts(),
            security_stats=security,
        )

    def _social_stats(self) -> Dict[str, float]:
        graph = self.social_graph
        return {
            "density_directed": social_metrics.density_directed(graph),
            "avg_shortest_path": social_metrics.average_shortest_path_length(graph),
            "diameter": social_metrics.diameter(graph),
            "radius": social_metrics.radius(graph),
            "transitivity": social_metrics.transitivity_undirected(graph),
        }
