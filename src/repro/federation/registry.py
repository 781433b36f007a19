"""Registry of federated endpoints.

The development (cluster-agnostic) API URL "queries the database to see
which clusters can host the inference" (§4.5).  The registry is that
database table: for each endpoint it stores the clusters and models it
serves plus the facility status provider used for node-availability
queries.  Priority is simply the order in which endpoints are registered,
matching the paper's "priority is determined simply by the order in which
endpoints are listed in the configuration registry".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..cluster import FacilityStatusProvider
from ..common import NotFoundError
from ..faas import ComputeEndpoint

__all__ = ["FederatedEndpoint", "FederationRegistry"]


@dataclass
class FederatedEndpoint:
    """One endpoint participating in the federation."""

    endpoint: ComputeEndpoint
    status_provider: FacilityStatusProvider
    #: Registration order; lower = higher priority for the fallback rule.
    priority: int = 0

    @property
    def endpoint_id(self) -> str:
        return self.endpoint.endpoint_id

    @property
    def cluster(self) -> str:
        return self.endpoint.cluster_name

    def hosts(self, model: str) -> bool:
        return self.endpoint.hosts_model(model)


class FederationRegistry:
    """Ordered collection of federated endpoints.

    Observers (the placement plane's :class:`~repro.placement.TopologyView`)
    can :meth:`subscribe` to be told when endpoints join or leave the
    federation, so their per-endpoint state attaches and detaches with the
    membership instead of being rebuilt per request.
    """

    def __init__(self):
        self._entries: List[FederatedEndpoint] = []
        self._observers: List[object] = []

    def subscribe(self, observer) -> None:
        """Register an observer with ``on_register``/``on_deregister`` hooks."""
        if observer not in self._observers:
            self._observers.append(observer)

    def unsubscribe(self, observer) -> None:
        if observer in self._observers:
            self._observers.remove(observer)

    def register(self, endpoint: ComputeEndpoint,
                 status_provider: FacilityStatusProvider) -> FederatedEndpoint:
        entry = FederatedEndpoint(
            endpoint=endpoint,
            status_provider=status_provider,
            priority=len(self._entries),
        )
        self._entries.append(entry)
        for observer in self._observers:
            observer.on_register(entry)
        return entry

    @property
    def entries(self) -> List[FederatedEndpoint]:
        return list(self._entries)

    def endpoints_for_model(self, model: str) -> List[FederatedEndpoint]:
        """Endpoints configured to host ``model``, in priority order."""
        matches = [e for e in self._entries if e.hosts(model)]
        return sorted(matches, key=lambda e: e.priority)

    def get(self, endpoint_id: str) -> FederatedEndpoint:
        for entry in self._entries:
            if entry.endpoint_id == endpoint_id:
                return entry
        raise NotFoundError(f"Unknown federated endpoint: {endpoint_id}")

    def deregister(self, endpoint_id: str) -> FederatedEndpoint:
        """Remove an endpoint from the federation (e.g. a facility going dark).

        Consumers holding stale references — such as the gateway's routing
        cache — must handle the resulting :class:`NotFoundError` from
        :meth:`get` and re-route.
        """
        entry = self.get(endpoint_id)
        self._entries.remove(entry)
        for observer in self._observers:
            observer.on_deregister(entry)
        return entry

    @property
    def clusters(self) -> List[str]:
        return [e.cluster for e in self._entries]

    def hosted_models(self) -> List[str]:
        models = []
        for entry in self._entries:
            for hosting in entry.endpoint.config.models:
                if hosting.model not in models:
                    models.append(hosting.model)
        return models
