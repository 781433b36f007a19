"""DetSan runtime-sanitizer tests + the hash-seed comparison harness.

Covers: attach/detach restoring the plain ``Environment.step`` (the
zero-overhead-unattached contract), bit-identical results under
sanitization on a real engine scenario, hypothesis-driven detection of
injected past-event schedules and duplicate event keys, obs-layer RNG
attribution (with the dedicated-sampler exemption), and the
``compare_hashseeds`` subprocess harness passing on ``quickstart_config``
and on the two-cluster federated target while failing on a deliberately
``hash()``-keyed toy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import DetSan, DetSanError, compare_hashseeds
from repro.analysis.detsan import federated_run
from repro.sim import Environment

try:
    import numpy  # noqa: F401
    HAS_NUMPY = True
except ImportError:
    HAS_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="requires numpy")

TESTS_DIR = Path(__file__).resolve().parent


@pytest.fixture(autouse=True)
def _detach_leaked_sanitizers():
    # Env-var-attached sanitizers (REPRO_DETSAN=1) live as long as their
    # Environment; detach any still registered so the class-level draw
    # patching never leaks across tests.
    yield
    from repro.analysis.detsan import _ACTIVE

    for sanitizer in list(_ACTIVE):
        sanitizer.detach()


def drain(env, horizon=50.0):
    deadlines = []
    def ticker(env):
        for _ in range(10):
            yield env.timeout(1.0)
            deadlines.append(env.now)
    env.process(ticker(env))
    env.run()
    return deadlines


# ---------------------------------------------------------------- attach / detach
class TestAttachDetach:
    def test_detach_restores_plain_class_step(self):
        env = Environment(sanitize=True)
        assert env.sanitizer is not None
        assert "step" in env.__dict__  # shadow step while attached
        env.sanitizer.detach()
        assert env.sanitizer is None
        assert "step" not in env.__dict__  # zero overhead: plain class method
        assert env.step.__func__ is Environment.step
        drain(env)  # still fully functional

    def test_plain_environment_is_untouched(self):
        env = Environment()
        assert env.sanitizer is None
        assert "step" not in env.__dict__

    def test_composes_with_profiler_attached_after(self):
        # DetSan attached first, profiler second: the profiler's shadow step
        # replaces the sanitizer's *step* wrapper, but push checking (the
        # past-event / duplicate detection) stays active.
        env = Environment(sanitize=True)

        class NullProfiler:
            def on_event(self, now, event, depth):
                pass

        env.attach_profiler(NullProfiler())
        with pytest.raises(DetSanError):
            env.schedule(env.event(), delay=-1.0)
        env.detach_profiler()
        env.sanitizer.detach()
        assert "step" not in env.__dict__

    def test_env_var_attaches_in_subprocess(self):
        import subprocess

        code = ("from repro.sim import Environment; "
                "env = Environment(); "
                "assert env.sanitizer is not None; "
                "print('attached')")
        src = str(TESTS_DIR.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, REPRO_DETSAN="1", PYTHONPATH=src),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "attached" in proc.stdout

    def test_env_var_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_DETSAN", "0")
        assert Environment().sanitizer is None


# ---------------------------------------------------------------- bit-identity
class TestBitIdentity:
    def test_kernel_trace_identical_with_sanitizer(self):
        plain = drain(Environment())
        sanitized_env = Environment(sanitize=True)
        sanitized = drain(sanitized_env)
        assert sanitized == plain
        assert sanitized_env.sanitizer.violations == []

    @needs_numpy
    def test_engine_cell_fingerprint_identical_under_detsan(self, monkeypatch):
        """A real macro-stepped engine scenario, sanitized end to end: the
        sanitizer stays silent and the merged fingerprint is bit-identical."""
        from repro.sweep import ScenarioSpec

        spec = ScenarioSpec(key="detsan/engine", runner="engine",
                            model="Qwen/Qwen2.5-7B-Instruct", num_requests=20,
                            params={"rate": 4.0})
        monkeypatch.delenv("REPRO_DETSAN", raising=False)
        plain = spec.run()["mergeable"].fingerprint()
        monkeypatch.setenv("REPRO_DETSAN", "1")
        sanitized = spec.run()["mergeable"].fingerprint()
        assert sanitized == plain


# ---------------------------------------------------------------- detection
class TestDetection:
    @settings(max_examples=25, deadline=None)
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=50.0,
                                     allow_nan=False), min_size=1, max_size=10),
           bad_delay=st.floats(min_value=-100.0, max_value=-1e-6,
                               allow_nan=False))
    def test_flags_injected_past_event(self, delays, bad_delay):
        env = Environment(sanitize=True)
        for delay in delays:
            env.schedule(env.event(), delay=delay)
        with pytest.raises(DetSanError, match="scheduled in the past"):
            env.schedule(env.event(), delay=bad_delay)
        env.sanitizer.detach()

    @settings(max_examples=25, deadline=None)
    @given(time=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
           priority=st.integers(min_value=0, max_value=2),
           eid=st.integers(min_value=0, max_value=2**31))
    def test_flags_injected_duplicate_key(self, time, priority, eid):
        env = Environment()
        sanitizer = DetSan()
        sanitizer.attach(env)
        env._push(time, priority, eid, env.event())
        with pytest.raises(DetSanError, match="duplicate event key"):
            env._push(time, priority, eid, env.event())
        sanitizer.detach()

    def test_distinct_keys_are_fine(self):
        env = Environment()
        sanitizer = DetSan(strict=False)
        sanitizer.attach(env)
        for eid in range(100):
            env.schedule(env.event(), delay=float(eid % 7))
        assert sanitizer.violations == []
        sanitizer.detach()

    def test_nonstrict_records_instead_of_raising(self):
        env = Environment()
        sanitizer = DetSan(strict=False)
        sanitizer.attach(env)
        env.schedule(env.event(), delay=-1.0)
        assert len(sanitizer.violations) == 1
        assert "scheduled in the past" in sanitizer.violations[0]
        sanitizer.detach()


# ---------------------------------------------------------------- obs RNG draws
@needs_numpy
class TestObsDrawAttribution:
    def obs_draw(self, rng):
        """Execute a draw whose calling frame claims to be in repro/obs/."""
        code = compile("rng.uniform()", os.path.join("x", "repro", "obs",
                                                     "fake.py"), "eval")
        return eval(code, {"rng": rng})

    def test_flags_draw_from_obs_frame(self):
        from repro.common import RandomSource

        env = Environment(sanitize=True)
        rng = RandomSource(1)
        with pytest.raises(DetSanError, match="observe-only"):
            self.obs_draw(rng)
        env.sanitizer.detach()

    def test_sampler_only_stream_is_exempt(self):
        from repro.common import RandomSource

        env = Environment(sanitize=True)
        rng = RandomSource(1)
        rng.sampler_only = True
        self.obs_draw(rng)  # no raise
        assert env.sanitizer.violations == []
        env.sanitizer.detach()

    def test_tracer_sampler_rng_is_exempt_end_to_end(self):
        from repro.common import RandomSource
        from repro.obs import Tracer, TracerConfig

        env = Environment(sanitize=True)
        tracer = Tracer(env, TracerConfig(sample_rate=0.5),
                        rng=RandomSource(3))
        for i in range(20):
            ctx = tracer.begin(f"trace-{i}")
            tracer.finish(ctx)
        assert env.sanitizer.violations == []
        env.sanitizer.detach()

    def test_draws_unpatched_after_detach(self):
        from repro.common import RandomSource
        from repro.common.randomness import RandomSource as RS2

        env = Environment(sanitize=True)
        env.sanitizer.detach()
        assert "wrapper" not in RS2.uniform.__qualname__
        rng = RandomSource(1)
        self.obs_draw(rng)  # no sanitizer active: nothing to flag


# ---------------------------------------------------------------- hash seeds
@needs_numpy
class TestCompareHashseeds:
    def test_quickstart_config_is_hashseed_independent(self):
        report = compare_hashseeds(
            "repro.analysis.detsan:quickstart_fingerprint", seeds=(101, 202))
        assert report.ok, report.to_dict()
        assert len(set(report.fingerprints.values())) == 1

    def test_two_cluster_federation_is_hashseed_independent(self):
        report = compare_hashseeds(
            "repro.analysis.detsan:federated_fingerprint", seeds=(101, 202))
        assert report.ok, report.to_dict()
        # The in-process run (this interpreter's own hash seed) agrees, and
        # the fingerprinted run really did route to both clusters.
        summary = federated_run()
        assert summary.fingerprint() == report.fingerprints[101]
        assert summary.counters["tasks.ep-sophia"] > 0
        assert summary.counters["tasks.ep-polaris"] > 0

    def test_hash_keyed_toy_scenario_is_caught(self):
        report = compare_hashseeds(
            "detsan_toy:hash_keyed_fingerprint", seeds=(101, 202),
            extra_pythonpath=[str(TESTS_DIR)])
        assert not report.ok
        assert len(set(report.fingerprints.values())) == 2

    def test_rejects_identical_seeds(self):
        with pytest.raises(ValueError):
            compare_hashseeds("detsan_toy:hash_keyed_fingerprint",
                              seeds=(7, 7))
