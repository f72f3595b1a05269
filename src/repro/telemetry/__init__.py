"""repro.telemetry — unified tracing & metrics for the whole stack.

One observability layer replacing three fragmented mechanisms
(``op2.profiling``, ad-hoc coupler timers, bespoke bench reports):

* :mod:`~repro.telemetry.recorder` — per-rank span/counter recorder;
  a thread traces exactly when a tracing recorder is bound to it
  (:func:`tracing`, or every rank of a coupled run with ``trace=True``);
* :mod:`~repro.telemetry.timeline` — cross-rank merge, aggregation
  views (per-category, per-rank, compute/halo/coupler breakdown),
  structural fingerprint for determinism regressions;
* :mod:`~repro.telemetry.chrometrace` — ``chrome://tracing`` / Perfetto
  JSON export with schema validation;
* :mod:`~repro.telemetry.metrics` — versioned JSON run summaries and
  ``BENCH_*.json`` benchmark records.

Quick serial use::

    from repro import telemetry
    with telemetry.tracing() as rec:
        app.iterate(5)
    tl = telemetry.merge_timelines([rec])
    telemetry.write_chrome_trace("trace.json", tl)

Coupled runs: pass ``trace=True`` in ``CoupledRunConfig`` (or run
``python -m repro.cli trace``) and read ``result.timeline``; each rank
returns its own recorder, so this works on either smpi transport.
"""

from repro.telemetry.chrometrace import (chrome_trace, validate_chrome_trace,
                                         write_chrome_trace)
from repro.telemetry.metrics import (BENCH_SCHEMA, METRICS_SCHEMA,
                                     bench_summary, cache_summary,
                                     coupler_summary, metrics_summary,
                                     validate_bench, validate_metrics,
                                     write_bench_summary, write_metrics)
from repro.telemetry.recorder import (LoopStat, RankRecorder, SpanEvent,
                                      active_recorder, current_recorder,
                                      span, tracing, use_recorder)
from repro.telemetry.timeline import COUPLER_CATS, Timeline, merge_timelines

__all__ = [
    "BENCH_SCHEMA", "METRICS_SCHEMA", "COUPLER_CATS",
    "LoopStat", "RankRecorder", "SpanEvent", "Timeline",
    "active_recorder", "bench_summary", "chrome_trace", "current_recorder",
    "cache_summary", "coupler_summary", "merge_timelines",
    "metrics_summary", "span",
    "tracing", "use_recorder",
    "validate_bench", "validate_chrome_trace", "validate_metrics",
    "write_bench_summary", "write_chrome_trace", "write_metrics",
]
