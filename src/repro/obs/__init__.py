"""Deterministic observability: metrics, tracing and profiling hooks.

The layer every perf and robustness claim in this repository leans on: a
mergeable :class:`MetricsRegistry` recorded by shards wherever they execute
(driver or worker process), a span :class:`Tracer` over the
cluster's hot phases with a Chrome ``trace_event`` exporter, and cProfile
plumbing that samples per worker and merges driver-side.

The package-wide invariant — **telemetry never perturbs results** — holds by
construction (no instrument touches simulated time, event queues or seeded
RNG streams) and by regression (``tests/obs/test_telemetry_invariance.py``
asserts fingerprint equality with telemetry off / metrics-only / full
tracing across every execution backend, migrated runs included).

``TELEMETRY_MODES`` names the three levels :class:`ClusterSystem
<repro.cluster.system.ClusterSystem>` accepts: ``"off"`` records nothing,
``"metrics"`` (the default) keeps the O(1) registries on, ``"full"`` adds
span tracing.
"""

from repro.common.errors import ConfigurationError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    top_counters,
)
from repro.obs.profiling import (
    merge_profile_stats,
    profile_stats_dict,
    profile_summary,
)
from repro.obs.tracing import (
    TRACE_EVENT_REQUIRED_KEYS,
    Tracer,
    TraceSpan,
    validate_trace_file,
    write_trace_events,
)

#: The telemetry levels ClusterSystem accepts, cheapest first.
TELEMETRY_MODES = ("off", "metrics", "full")


def normalize_telemetry(value) -> str:
    """Map the ``telemetry=`` knob onto a mode name.

    Accepts a mode string, ``None`` (the default, metrics-only), or a bool
    (``False`` = off, ``True`` = full tracing) for ergonomic call sites.
    """
    if value is None:
        return "metrics"
    if value is False:
        return "off"
    if value is True:
        return "full"
    if value in TELEMETRY_MODES:
        return value
    raise ConfigurationError(
        f"unknown telemetry mode {value!r}; expected one of {TELEMETRY_MODES} "
        "(or a bool)"
    )


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TELEMETRY_MODES",
    "TRACE_EVENT_REQUIRED_KEYS",
    "Tracer",
    "TraceSpan",
    "merge_profile_stats",
    "merge_snapshots",
    "normalize_telemetry",
    "profile_stats_dict",
    "profile_summary",
    "top_counters",
    "validate_trace_file",
    "write_trace_events",
]
