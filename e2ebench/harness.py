"""Run one workload: inputs, repeated set-up, a timed pass, the result.

An untraced run reports the end-to-end metrics.  A traced run measures
the workload twice for half the time each, first untraced and then with
every layer wrapped, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced).  Metric names and units come from
``BENCHMARK.json``; a per-layer metric of a layer the workload never
calls reads 0.

Every compute time (a set-up, a flood replay, a training or fleet round)
is followed by one ``HostReference`` pass and corrected for the host's
speed at that moment; the paced serving latencies, mostly waiting on
arrivals and batch windows, are reported as measured.
"""

import os
from dataclasses import dataclass
from pathlib import Path

import fleetsim
import serving
import training
from common import (HostReference, host_fingerprint, median, peak_rss_mb,
                    repeat_setup)
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout: span dumps, fleet checkpoints.
WORKDIR = ROOT / ".e2ebench"
SETUP_REPEATS = 5       # set-ups per run, at least ...
SETUP_MIN_S = 1.0       # ... and until this much set-up time is spent


@dataclass(frozen=True)
class Workload:
    inputs: object         # (seed, tiny) -> inputs
    setup: object          # inputs -> system
    measure: object        # (system, inputs, seconds, reference, tracer)
    #                        -> Measurement
    instrument: object     # (system, tracer) -> None
    layer_metrics: object  # (system, Measurement, tracer) -> dict
    throughput: str        # end-to-end metric the overhead is taken on
    reference: str         # HostReference kind that resembles its work


def _fleet_inputs(seed, tiny):
    scratch = WORKDIR / "fleet-{}".format(os.getpid())
    return fleetsim.fleet_inputs(seed, tiny, str(scratch))


WORKLOADS = {
    "serve-mood": Workload(serving.mood_inputs, serving.mood_setup,
                           serving.measure, serving.instrument,
                           serving.layer_metrics, "capacity_rps",
                           "interpreter"),
    "serve-burst": Workload(serving.burst_inputs, serving.burst_setup,
                            serving.measure, serving.instrument,
                            serving.layer_metrics, "capacity_rps",
                            "interpreter"),
    "train-mood": Workload(training.train_inputs, training.train_setup,
                           training.measure, training.instrument,
                           training.layer_metrics, "steps_per_s",
                           "interpreter"),
    "fleet-1m": Workload(_fleet_inputs, fleetsim.fleet_setup,
                         fleetsim.measure, fleetsim.instrument,
                         fleetsim.layer_metrics, "rounds_per_s", "array"),
}


def _traced(workload, system, inputs, seconds, reference, spans_path):
    untraced = workload.measure(system, inputs, seconds / 2.0, reference)
    tracer = Tracer()
    workload.instrument(system, tracer)
    try:
        traced = workload.measure(system, inputs, seconds / 2.0, reference,
                                  tracer)
    finally:
        tracer.restore()
    values = workload.layer_metrics(system, traced, tracer)
    key = workload.throughput
    values["trace.overhead_share"] = \
        1.0 - traced.metrics[key] / untraced.metrics[key]
    values["trace.overhead_p99_ms"] = (traced.metrics["latency_p99_ms"]
                                       - untraced.metrics["latency_p99_ms"])
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans_path)
    return values, [untraced, traced]


def run(spec, name, seed, seconds, trace, tiny=False):
    """Returns (result line, report) for one run of workload ``name``."""
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, tiny)
    reference = HostReference(workload.reference)
    system, setup_raw, setup_times = repeat_setup(
        lambda: workload.setup(inputs), SETUP_REPEATS, SETUP_MIN_S, reference)
    if trace:
        spans = WORKDIR / "{}-seed{}.spans.json".format(name, seed)
        values, passes = _traced(workload, system, inputs, seconds,
                                 reference, spans)
        declared = spec["per_layer"]
    else:
        measurement = workload.measure(system, inputs, seconds, reference)
        values = dict(measurement.metrics, setup_s=median(setup_times),
                      peak_rss_mb=peak_rss_mb())
        passes = [measurement]
        declared = spec["end_to_end"]

    names = {metric["name"] for metric in declared}
    undeclared = sorted(set(values) - names)
    if undeclared:
        raise KeyError("metrics missing from BENCHMARK.json: {}".format(
            undeclared))
    metrics = {}
    for metric in declared:
        value = values.get(metric["name"], 0.0 if trace else None)
        if value is None:
            raise KeyError("{} did not measure {}".format(
                name, metric["name"]))
        metrics[metric["name"]] = {"value": float(value),
                                   "unit": metric["unit"]}

    checks = {}
    for measurement in passes:
        for check, wrong in measurement.checks.items():
            checks[check] = checks.get(check, 0) + wrong
    failed = sum(m.failed for m in passes)
    result = {
        "correct": failed == 0 and not any(checks.values()),
        "attempted": sum(m.attempted for m in passes),
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": bool(trace), "tiny": tiny,
        "not_measured": sorted(names - set(values)),
        "host": host_fingerprint(str(ROOT)),
        "setup_s_samples": setup_times,
        "setup_s_raw_samples": setup_raw,
        "host_reference": {"kind": reference.kind,
                           "nominal_s": reference.nominal_s,
                           "passes": len(reference.samples),
                           "factor": reference.factor()},
        "checks": checks,
        "info": [m.info for m in passes],
    }
    return result, report
