"""Per-layer ledger: host cost and retained memory by ``repro.<package>``.

A layer is the package directly under ``repro`` that holds a function's (or
an allocation's) source file; everything outside ``repro`` is ``other``.
The probes run in separate passes so that neither distorts the other:
cProfile self time and call counts in one, a tracemalloc snapshot at
quiescence in another.  Counts read after the run come from public
attributes of the deployment, except for the engines of batch jobs, which
the deployment does not keep: the profile pass wraps the engine
constructor to find them.
"""

import cProfile
import gc
import os
import pstats
import tracemalloc

LAYERS = ("gateway", "auth", "faas", "federation", "placement", "serving", "cluster",
          "autoscale", "sim", "obs", "metrics", "workload")

_MARK = os.sep + "repro" + os.sep


def layer_of(filename):
    """``src/repro/faas/relay.py`` → ``faas``; anything else → ``other``."""
    at = filename.rfind(_MARK)
    if at < 0:
        return "other"
    package = filename[at + len(_MARK):].split(os.sep, 1)[0]
    return package if package in LAYERS else "other"


class Probe:
    """Attaches the instrument for one mode around the traffic phase."""

    def __init__(self, mode):
        self.mode = mode
        self.engines = []

    def start(self):
        if self.mode == "profile":
            self._watch_engines()
            self.profiler = cProfile.Profile()
            self.profiler.enable()
        elif self.mode == "memory":
            gc.collect()
            tracemalloc.start(2)  # the allocating frame and its caller

    def stop(self, deployment):
        """Detach and return ``{layer: {...}}`` for the mode (empty when timed)."""
        if self.mode == "profile":
            self.profiler.disable()
            for endpoint in deployment.endpoints.values():
                for pool in endpoint.pools.values():
                    self.engines.extend(i.engine for i in pool.instances
                                        if getattr(i, "engine", None) is not None)
            return self._profile_layers()
        if self.mode == "memory":
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
            tracemalloc.stop()
            return self._memory_layers(snapshot)
        return {}

    def _watch_engines(self):
        """Keep a reference to every engine built during traffic: the
        engines of finished batch jobs are otherwise gone when it ends."""
        from repro.serving import ContinuousBatchingEngine

        original = ContinuousBatchingEngine.__init__
        engines = self.engines

        def init(engine, *args, **kwargs):
            original(engine, *args, **kwargs)
            engines.append(engine)

        ContinuousBatchingEngine.__init__ = init

    def _profile_layers(self):
        stats = pstats.Stats(self.profiler).stats
        out = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS + ("other",)}
        steps = 0
        for (filename, _, func), (_, calls, self_s, _, _) in stats.items():
            entry = out[layer_of(filename)]
            entry["calls"] += calls
            entry["self_s"] += self_s
            if func == "step" and filename.endswith(os.path.join("sim", "environment.py")):
                steps += calls
        out["sim"]["events"] = steps
        engines = {id(e): e for e in self.engines}.values()
        out["serving"]["preempted"] = sum(e.stats.preempted for e in engines)
        out["serving"]["peak_batch_size"] = max(
            (e.stats.peak_batch_size for e in engines), default=0)
        return out

    @staticmethod
    def _memory_layers(snapshot):
        """Live bytes allocated during traffic, charged to the allocating
        file, or to its caller's when the allocating file is not in
        ``repro`` (generated ``__init__`` methods, the standard library)."""
        out = {name: {"retained_bytes": 0} for name in LAYERS + ("other",)}
        for stat in snapshot.statistics("traceback"):
            layer = "other"
            for frame in reversed(stat.traceback):  # innermost first
                found = layer_of(frame.filename)
                if found != "other":
                    layer = found
                    break
            out[layer]["retained_bytes"] += stat.size
        return out


def counts(deployment, requests):
    """Per-layer counters read from public attributes after the run."""
    gateway = deployment.gateway
    pools = [pool for ep in deployment.endpoints.values() for pool in ep.pools.values()]
    auth = gateway.auth_layer
    lookups = auth.cache_hits + auth.cache_misses
    waits = [job.queue_wait_s for s in deployment.schedulers.values()
             for job in s.all_jobs if job.queue_wait_s is not None]
    topology = deployment.topology
    return {
        "faas.relay_peak_queued": deployment.relay.stats.peak_queued,
        "auth.cache_hit_ratio": auth.cache_hits / lookups if lookups else 0.0,
        "autoscale.launches": sum(p.replicas.launches for p in pools),
        "cluster.job_wait_s_max": max(waits, default=0.0),
        "federation.route_selects_per_req":
            sum(deployment.router.decisions_by_endpoint.values()) / requests,
        "placement.rebuilds_per_req": topology.rebuilds / requests,
        "placement.reads_per_req": topology.reads / requests,
    }
