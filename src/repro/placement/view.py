"""The placement plane's shared fleet view.

Before Federation v2, every consumer of fleet state kept a private one:
the federation router probed ``FacilityStatusProvider`` generators per
request, the autoscaler sampled its own ``MetricsFeed``, the gateway kept
rolling latency windows, and the cluster scheduler accounted GPU-seconds —
four views of the same fleet that could not see one another.

:class:`TopologyView` aggregates all of those signals per
(model, endpoint, cluster) into :class:`PoolSignal` / :class:`ClusterSignal`
snapshots that routing policies, the federation-aware scaling policy and the
reservation admission stage all read.  Signals are refreshed *incrementally
on events*: every endpoint pool notifies the view when its state changes
(task arrival/completion, instance ready/retired, drain start/end), the
affected signal is marked dirty, and the next read recomputes just that one
snapshot.  Reads between events are plain dict lookups — nothing is rebuilt
per request.

The view also owns the federation's *public* cluster-status query
(:meth:`query_cluster`), preserving the paper's §4.5 semantics — a simulated
web-service round-trip against a periodically refreshed status page — so the
verbatim priority rule keeps its ablation timing bit-identically.

Per-tenant capacity reservations live here too: the view tracks reserved
slots and admitted in-flight requests per (model, tenant), and
:meth:`try_admit` implements the admission arithmetic the gateway's
reservation middleware enforces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..serving import InstanceState
from ..sim import Environment

__all__ = ["PoolSignal", "ClusterSignal", "TopologyView"]


@dataclass
class PoolSignal:
    """One (model, endpoint, cluster) snapshot of the fleet view."""

    model: str
    endpoint_id: str
    cluster: str
    ready_instances: int
    starting_instances: int
    draining_instances: int
    queued_jobs: int
    waiting_tasks: int
    in_flight_tasks: int
    slots_per_instance: int
    max_instances: int
    cold_start_estimate_s: float
    #: Gateway-observed rolling medians (None until traffic produced them).
    latency_p50_s: Optional[float] = None
    ttft_p50_s: Optional[float] = None
    itl_p50_s: Optional[float] = None
    #: Simulation time this snapshot was computed.
    computed_at: float = 0.0

    @property
    def state(self) -> str:
        """Aggregate state, matching ``ModelPoolStatus.state`` exactly."""
        if self.ready_instances > 0:
            return "running"
        if self.draining_instances > 0:
            return "draining"
        if self.starting_instances > 0:
            return "starting"
        if self.queued_jobs > 0:
            return "queued"
        return "cold"

    @property
    def active(self) -> bool:
        """The paper's rule-1 predicate: running, starting or queued."""
        return self.state in ("running", "starting", "queued")

    @property
    def ready_slots(self) -> int:
        return self.ready_instances * self.slots_per_instance

    @property
    def provisionable_slots(self) -> int:
        """Slot capacity the pool could reach at its instance ceiling."""
        return self.max_instances * self.slots_per_instance

    @property
    def busy_fraction(self) -> float:
        """Demand over ready slot capacity (> 1 when work queues)."""
        demand = self.in_flight_tasks + self.waiting_tasks
        if self.ready_slots <= 0:
            return 0.0 if demand == 0 else float("inf")
        return demand / self.ready_slots

    @property
    def queue_per_ready(self) -> float:
        if self.ready_instances <= 0:
            return float("inf") if self.waiting_tasks else 0.0
        return self.waiting_tasks / self.ready_instances


@dataclass
class ClusterSignal:
    """Scheduler-side snapshot of one cluster."""

    cluster: str
    total_nodes: int
    free_nodes: int
    queued_jobs: int
    running_jobs: int
    #: GPU-seconds consumed by every job this cluster's scheduler started —
    #: the cost axis federation benchmarks trade against latency.
    gpu_seconds: float
    computed_at: float = 0.0


class TopologyView:
    """Event-refreshed aggregate of routing/scaling/reservation signals.

    The view subscribes to a :class:`~repro.federation.FederationRegistry`:
    every registered endpoint's pools are hooked as observers (and unhooked
    on deregistration), and any pool policy exposing ``bind_topology`` —
    e.g. :class:`repro.autoscale.FederationScalingPolicy` — is bound to the
    shared view so cross-cluster scaling and routing read the same state.
    """

    def __init__(self, env: Optional[Environment], registry, gateway_metrics=None,
                 refresh_interval_s: float = 5.0):
        #: May start ``None`` for a view over an empty registry (legacy
        #: ``Router(registry)`` construction order); captured from the first
        #: registered endpoint.
        self.env = env
        self.registry = registry
        #: Set post-assembly by the deployment (the gateway is built after
        #: the view); signals work without it, just without latency medians.
        self.gateway_metrics = gateway_metrics
        #: Staleness bound for signals whose drift has no event (the gateway
        #: medians move with every completed request).
        self.refresh_interval_s = refresh_interval_s

        self._pools: Dict[Tuple[str, str], object] = {}
        self._signals: Dict[Tuple[str, str], PoolSignal] = {}
        self._dirty: set = set()
        self._cluster_cache: Dict[str, ClusterSignal] = {}
        self._providers: Dict[str, object] = {}

        # -- reservations: model -> tenant -> slots / admitted in flight ----
        self._reservations: Dict[str, Dict[str, int]] = {}
        self._admitted: Dict[str, Counter] = {}
        self.admissions = 0
        self.rejections = 0

        #: Observability: how many snapshots were actually recomputed (tests
        #: assert reads between events do not rebuild).
        self.rebuilds = 0
        self.reads = 0

        registry.subscribe(self)
        for entry in registry.entries:
            self.on_register(entry)

    # ------------------------------------------------------------- registry hooks
    @classmethod
    def over(cls, registry) -> "TopologyView":
        """Build a view over a registry (compat shim for legacy
        ``Router(registry)`` call sites; the deployment wires one properly).

        An empty registry is fine — the simulation environment is captured
        from the first endpoint that registers.
        """
        env = registry.entries[0].endpoint.env if registry.entries else None
        return cls(env, registry)

    def on_register(self, entry) -> None:
        """Registry hook: start observing a newly federated endpoint."""
        endpoint = entry.endpoint
        if self.env is None:
            self.env = endpoint.env
        self._providers[endpoint.endpoint_id] = entry.status_provider
        for pool in endpoint.pools.values():
            key = (endpoint.endpoint_id, pool.model)
            if key in self._pools:
                continue
            self._pools[key] = pool
            self._dirty.add(key)
            pool.add_observer(self._on_pool_event)
            policy = getattr(pool.replicas, "policy", None)
            if policy is not None and hasattr(policy, "bind_topology"):
                policy.bind_topology(
                    self,
                    endpoint_id=endpoint.endpoint_id,
                    cluster=endpoint.cluster_name,
                    model=pool.model,
                )

    def on_deregister(self, entry) -> None:
        """Registry hook: drop an endpoint's signals (facility going dark)."""
        endpoint_id = entry.endpoint.endpoint_id
        self._providers.pop(endpoint_id, None)
        for key in [k for k in self._pools if k[0] == endpoint_id]:
            pool = self._pools.pop(key)
            pool.remove_observer(self._on_pool_event)
            self._signals.pop(key, None)
            self._dirty.discard(key)
            # Unbind federation-aware policies: a dark endpoint must not keep
            # pre-warming replicas for siblings it can no longer serve.
            policy = getattr(pool.replicas, "policy", None)
            if policy is not None and hasattr(policy, "unbind_topology"):
                policy.unbind_topology()

    def _on_pool_event(self, pool) -> None:
        self._dirty.add((pool.endpoint.endpoint_id, pool.model))

    # ------------------------------------------------------------- pool signals
    def pool_signal(self, endpoint_id: str, model: str) -> Optional[PoolSignal]:
        """Current signal for one (endpoint, model) pool; ``None`` if the
        endpoint left the federation or never hosted the model."""
        key = (endpoint_id, model)
        pool = self._pools.get(key)
        if pool is None:
            return None
        self.reads += 1
        cached = self._signals.get(key)
        if (
            cached is not None
            and key not in self._dirty
            and self.env.now - cached.computed_at < self.refresh_interval_s
        ):
            return cached
        signal = self._compute(pool)
        self._signals[key] = signal
        self._dirty.discard(key)
        self.rebuilds += 1
        return signal

    def _compute(self, pool) -> PoolSignal:
        endpoint = pool.endpoint
        latency_p50 = ttft_p50 = itl_p50 = None
        if self.gateway_metrics is not None:
            # Per-endpoint windows: each pool is judged on the latency of
            # the requests *it* served, not the fleet-wide blend.
            recent = self.gateway_metrics.recent_timings(
                pool.model, endpoint.endpoint_id
            )
            if recent:
                latency_p50 = recent.get("latency_p50_s")
                ttft_p50 = recent.get("ttft_p50_s")
                itl_p50 = recent.get("itl_p50_s")
        return PoolSignal(
            model=pool.model,
            endpoint_id=endpoint.endpoint_id,
            cluster=endpoint.cluster_name,
            ready_instances=len(pool.ready_instances),
            starting_instances=sum(
                1 for i in pool.instances if i.state == InstanceState.STARTING
            ),
            draining_instances=len(pool.draining),
            queued_jobs=pool.queued_job_launches,
            waiting_tasks=pool.waiting_tasks,
            in_flight_tasks=pool.in_flight_tasks,
            slots_per_instance=pool.slots_per_instance,
            max_instances=pool.replicas.max_instances,
            cold_start_estimate_s=pool.cold_start_estimate_s,
            latency_p50_s=latency_p50,
            ttft_p50_s=ttft_p50,
            itl_p50_s=itl_p50,
            computed_at=self.env.now,
        )

    def candidates(self, model: str) -> List[Tuple[object, Optional[PoolSignal]]]:
        """(entry, signal) pairs for every endpoint hosting ``model``, in the
        registry's priority order."""
        return [
            (entry, self.pool_signal(entry.endpoint_id, model))
            for entry in self.registry.endpoints_for_model(model)
        ]

    def signals_for_model(self, model: str) -> List[PoolSignal]:
        return [sig for _entry, sig in self.candidates(model) if sig is not None]

    # ------------------------------------------------------------- cluster signals
    def cluster_signal(self, endpoint_id: str) -> Optional[ClusterSignal]:
        """Synchronous, event-fresh cluster snapshot (no query latency).

        Memoised per simulation timestamp: many routing decisions at the
        same instant share one free-node count.
        """
        provider = self._providers.get(endpoint_id)
        if provider is None:
            return None
        name = provider.cluster_name
        cached = self._cluster_cache.get(name)
        if cached is not None and cached.computed_at == self.env.now:
            return cached
        status = provider.snapshot()
        signal = ClusterSignal(
            cluster=name,
            total_nodes=status.total_nodes,
            free_nodes=status.free_nodes,
            queued_jobs=status.queued_jobs,
            running_jobs=status.running_jobs,
            gpu_seconds=provider.scheduler.gpu_seconds(),
            computed_at=self.env.now,
        )
        self._cluster_cache[name] = signal
        return signal

    def query_cluster(self, entry):
        """Simulation process: the federation's *public* status query.

        Delegates to the endpoint's :class:`FacilityStatusProvider`, keeping
        the paper's query latency and staleness window — the verbatim
        priority rule routes through here so its ablation numbers stay
        bit-identical.
        """
        provider = self._providers.get(entry.endpoint_id, entry.status_provider)
        status = yield from provider.query()
        return status

    # ------------------------------------------------------------- reservations
    def reserve(self, tenant: str, model: str, slots: int) -> None:
        """Reserve ``slots`` concurrent requests of ``model`` for ``tenant``."""
        if slots <= 0:
            raise ValueError("reserved slots must be > 0")
        self._reservations.setdefault(model, {})[tenant] = slots

    def release_reservation(self, tenant: str, model: str) -> None:
        self._reservations.get(model, {}).pop(tenant, None)

    def reservations_for(self, model: str) -> Dict[str, int]:
        return dict(self._reservations.get(model, {}))

    def admitted(self, model: str, tenant: str) -> int:
        return self._admitted.get(model, Counter())[tenant]

    def fleet_slot_capacity(self, model: str) -> int:
        """Slot capacity the federation can provision for ``model`` (sum of
        every hosting pool's instance ceiling x slots per instance)."""
        total = 0
        for entry in self.registry.endpoints_for_model(model):
            signal = self.pool_signal(entry.endpoint_id, model)
            if signal is not None:
                total += signal.provisionable_slots
        return total

    def reserved_headroom(self, model: str) -> int:
        """Reserved-but-unused slots that best-effort traffic must not eat."""
        admitted = self._admitted.get(model, Counter())
        return sum(
            max(0, slots - admitted[tenant])
            for tenant, slots in self._reservations.get(model, {}).items()
        )

    def try_admit(self, model: str, tenant: str) -> bool:
        """Admit one request against the model's reserved capacity.

        A tenant is always admitted inside its own reservation.  Anything
        beyond that (unreserved tenants, or a reserved tenant's overflow) is
        best-effort: admitted only while total in-flight plus the
        reserved-but-unused headroom fits the fleet's provisionable slots.
        The caller must pair a ``True`` return with :meth:`release_admission`.
        """
        admitted = self._admitted.setdefault(model, Counter())
        reserved = self._reservations.get(model, {}).get(tenant, 0)
        if admitted[tenant] < reserved:
            admitted[tenant] += 1
            self.admissions += 1
            return True
        total = sum(admitted.values())
        if total + self.reserved_headroom(model) < self.fleet_slot_capacity(model):
            admitted[tenant] += 1
            self.admissions += 1
            return True
        self.rejections += 1
        return False

    def release_admission(self, model: str, tenant: str) -> None:
        admitted = self._admitted.get(model)
        if admitted is not None and admitted[tenant] > 0:
            admitted[tenant] -= 1

    # ------------------------------------------------------------- observability
    def snapshot(self) -> dict:
        """Summary for dashboards/tests."""
        return {
            "pools": len(self._pools),
            "rebuilds": self.rebuilds,
            "reads": self.reads,
            "reservations": {
                model: dict(res) for model, res in self._reservations.items()
            },
            "admissions": self.admissions,
            "rejections": self.rejections,
        }
