"""repro.telemetry — unified tracing & metrics for the whole stack.

One observability layer; it replaced the ``op2.profiling`` loop
profile, the ``util.timing`` timers and bespoke bench reports:

* :mod:`~repro.telemetry.recorder` — per-rank span/counter recorder;
  a thread traces exactly when a recorder is bound to it
  (:func:`tracing`, or every rank of a coupled run with ``trace=True``).
  :func:`timed` feeds a run's reported phase totals and their spans
  from one clock reading; :func:`loop_stats` is the per-kernel table,
  computed from the par_loop spans;
* :mod:`~repro.telemetry.timeline` — cross-rank merge, aggregation
  views (per-category, per-rank, per-kernel, compute/halo/coupler
  breakdown), structural fingerprint for determinism regressions;
* :mod:`~repro.telemetry.chrometrace` — ``chrome://tracing`` / Perfetto
  JSON export with schema validation;
* :mod:`~repro.telemetry.metrics` — versioned JSON run summaries and
  ``BENCH_*.json`` benchmark records.

Quick serial use::

    from repro.telemetry import merge_timelines, tracing, write_chrome_trace
    with tracing() as rec:
        app.iterate(5)
    write_chrome_trace("trace.json", merge_timelines([rec]))

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
                                      active_recorder, loop_stats, span,
                                      timed, tracing, use_recorder)
from repro.telemetry.timeline import COUPLER_CATS, Timeline, merge_timelines

__all__ = [
    "BENCH_SCHEMA", "METRICS_SCHEMA", "COUPLER_CATS",
    "LoopStat", "RankRecorder", "SpanEvent", "Timeline",
    "active_recorder", "bench_summary", "chrome_trace",
    "cache_summary", "coupler_summary", "loop_stats", "merge_timelines",
    "metrics_summary", "span", "timed",
    "tracing", "use_recorder",
    "validate_bench", "validate_chrome_trace", "validate_metrics",
    "write_bench_summary", "write_chrome_trace", "write_metrics",
]
