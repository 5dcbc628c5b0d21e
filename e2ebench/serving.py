"""serve-mood and serve-burst: open-loop serving through FleetServer.

Both workloads run the generator inline on one thread: it waits until
the next request is due, calls ``poll()``, then ``submit()``.  Every
latency is timed on a real clock, not simulated.  A run alternates
between two phases:

* **flood** — slices of the schedule, taken in turn, each with all its
  arrivals due at once, submitted back to back through a fresh server
  whose tenants keep their priorities but have no rate limit, queue cap
  or SLO, so the phase measures the capacity of full batches rather
  than admission or SLO-driven batch shrinking.  Each replay's time is
  corrected for host speed by the reference pass that follows it; each
  rate is the median over replays.
* **paced** — the schedule replayed as it comes due, at a fixed offered
  rate through the configured tenants.  Latency is timed from each
  request's due time, so a stalled generator shows up as latency.

A latency mixes waiting (arrival gaps, batch windows, token buckets)
with service, so it cannot be rescaled after the fact like a compute
time.  Instead the paced server and generator run on a
``NominalClock``: while the generator waits for the next arrival it
runs reference passes, and the clock runs slower by the factor they
measure.  Arrival gaps, batch windows, token rates and SLOs then stretch
with the host's speed as service does, and latencies are read in
nominal time.
"""

import bisect
import time
from dataclasses import dataclass, replace

import numpy as np

from repro import nn
from repro.core.model import MultiViewGRUClassifier
from repro.faults import FaultInjector, FaultSpec
from repro.inference.earlyexit import exit_gate
from repro.nn import losses
from repro.optim import Adam
from repro.serve import (FleetServer, ModelRegistry, OpenLoopTraffic,
                         TenantConfig, TenantLoad, TrafficSpec)
from repro.serve.server import MultiViewCollator, VectorCollator
from repro.synth import make_digits
from repro.synth.typing_dynamics import TypingDynamicsGenerator
from repro.tensor import Tensor, no_grad

from common import (Measurement, NominalClock, median, percentile_ms,
                    spin_until, windowed_p99_ms)

MAX_BATCH = 8
MAX_WAIT_MS = 2.0
IDLE_MARGIN_S = 0.0015  # nominal s before a due time the generator
#                        stops running ~1 ms reference passes and spins
FLOOD_SHARE = 0.3      # of a run's seconds; the rest is the paced phase
CYCLES = 10            # flood/paced alternations per run
FLOOD_REQUESTS = 512   # arrivals per flood replay, all due at once
CHECKED_ROWS = 48      # served rows per phase compared with eager forwards


@dataclass(frozen=True)
class Request:
    """One scheduled request: due offset (s), tenant, target, payload."""

    offset: float
    tenant: str
    route: str
    model: str
    payload: int


@dataclass
class ServeSystem:
    registry: ModelRegistry
    models: dict          # registry name -> eval-mode module
    collator: object
    tenants: tuple        # paced-phase TenantConfig list
    slo_tenant: str

    def flood_tenants(self):
        return [replace(t, rate=None, max_queue=None, slo_s=None)
                for t in self.tenants]


# ----------------------------------------------------------------------
# serve-mood: DeepMood GRU cascade, two tenants, Poisson arrivals
# ----------------------------------------------------------------------
VIEW_DIMS = (4, 6, 3)
VIEW_CAPS = (8, 8, 8)   # steps kept per view (alphanumeric, special, accel)
MIN_EVENTS = 3          # sessions with a shorter view are not requests
FAST_HIDDEN = 4
FULL_HIDDEN = 16
USERS = 16
REQUEST_SESSIONS = 16   # per user; the next ones calibrate the cascade
CALIBRATION_SESSIONS = 32
ESCALATION_TARGET = 0.3
MOOD_RATE = 300.0       # offered requests/s in the paced phase
MOOD_TENANTS = (
    TenantConfig("clinic", priority=0, slo_s=0.025),
    TenantConfig("research", priority=2, rate=400.0, burst=32),
)
MOOD_MIX = (("clinic", 0.6, "cascade", None),
            ("research", 0.4, None, "full"))


@dataclass
class ServeInputs:
    models: dict          # registry name -> eval-mode module
    payloads: list
    calibration: list     # cascade calibration payloads, not requests
    schedule: object      # seconds -> list of Request
    flood_size: int       # requests per flood replay
    tiny: bool


def _mood_payloads(sessions):
    """Views truncated to VIEW_CAPS, skipping sessions too short to serve.

    With these caps every payload lands in one of two per-view length
    buckets (a special-key view of 4 or 8 steps), whatever the seed, so
    the warm set and the set-up work do not vary from seed to seed.
    """
    return [[np.ascontiguousarray(view[:cap])
             for view, cap in zip(session.views(), VIEW_CAPS)]
            for session in sessions
            if min(len(view) for view in session.views()) >= MIN_EVENTS]


def mood_inputs(seed, tiny=False):
    requests = 4 if tiny else REQUEST_SESSIONS
    cohort = TypingDynamicsGenerator(seed=seed).generate_cohort(
        USERS, requests + CALIBRATION_SESSIONS)
    payloads, calibration = [], []
    for sessions in cohort.sessions.values():
        payloads.extend(_mood_payloads(sessions[:requests]))
        calibration.extend(_mood_payloads(sessions[requests:]))

    def schedule(seconds):
        rng = np.random.default_rng([seed, 0x5E7E])
        count = max(1, int(MOOD_RATE * seconds))
        offsets = np.cumsum(rng.exponential(1.0 / MOOD_RATE, size=count))
        weights = np.asarray([w for _, w, _, _ in MOOD_MIX])
        picks = rng.choice(len(MOOD_MIX), size=count, p=weights)
        chosen = rng.integers(0, len(payloads), size=count)
        return [Request(float(t), MOOD_MIX[k][0], MOOD_MIX[k][2],
                        MOOD_MIX[k][3], int(p))
                for t, k, p in zip(offsets, picks, chosen)]

    models = {name: MultiViewGRUClassifier(
        VIEW_DIMS, hidden_size=hidden, fusion="mvm", fusion_units=8,
        seed=model_seed).eval()
        for name, hidden, model_seed in (("fast", FAST_HIDDEN, 11),
                                         ("full", FULL_HIDDEN, 12))}
    return ServeInputs(models, payloads, calibration, schedule,
                       32 if tiny else FLOOD_REQUESTS, tiny)


def calibrate_threshold(model, collator, payloads, escalate):
    """Entropy threshold at which ``escalate`` of ``payloads`` escalate.

    Scores come from an eager forward of ``model`` on sessions that are
    not in the measured stream.
    """
    with no_grad():
        logits = model(collator.collate(payloads, len(payloads))).data
    scores = exit_gate(logits, np.inf).entropy
    return float(np.quantile(scores, 1.0 - escalate))


def mood_setup(inputs):
    collator = MultiViewCollator(VIEW_DIMS, max_length=max(VIEW_CAPS))
    models = inputs.models
    # One warm example per per-view length-bucket combination the
    # request pool produces, so no request meets an unwarmed signature.
    examples = {}
    for payload in inputs.payloads:
        examples.setdefault(collator.bucket_key(payload), payload)
    warm = [examples[key] for key in sorted(examples)]
    registry = ModelRegistry()
    for name, model in models.items():
        registry.register(name, model, collator, warm, max_batch=MAX_BATCH)
    threshold = calibrate_threshold(models["fast"], collator,
                                    inputs.calibration, ESCALATION_TARGET)
    registry.add_cascade("cascade", "fast", "full", threshold=threshold)
    registry.freeze()
    return ServeSystem(registry, models, collator, MOOD_TENANTS, "clinic")


# ----------------------------------------------------------------------
# serve-burst: three-tenant MLP mix with diurnal swing and bursts
# ----------------------------------------------------------------------
DIGIT_FEATURES = 64
DIGIT_CLASSES = 10
BURST_SCALE = 2.0       # the three-tenant mix's rates, times this
BURST_POOL = 2048
BURST_TENANTS = (
    TenantConfig("mobile", priority=0, rate=400.0 * BURST_SCALE,
                 burst=80 * BURST_SCALE, slo_s=0.020),
    TenantConfig("batch", priority=2, rate=250.0 * BURST_SCALE,
                 burst=40 * BURST_SCALE),
    TenantConfig("partner", priority=1, rate=None, max_queue=128),
)
BURST_TRAFFIC = TrafficSpec(
    base_rate=700.0 * BURST_SCALE, diurnal_amplitude=0.5, period_s=4.0,
    burst_rate=1.0, burst_size=10, slow_upload_s=0.001)
BURST_LOADS = (TenantLoad("mobile", 2.0, route="cascade"),
               TenantLoad("batch", 1.0, model="full"),
               TenantLoad("partner", 1.0, model="fast"))


def burst_inputs(seed, tiny=False):
    features, labels = make_digits(600, seed=3)
    models = {"fast": _train_mlp(16, 1, 3, features, labels),
              "full": _train_mlp(64, 2, 6, features, labels)}
    payloads = list(make_digits(64 if tiny else BURST_POOL, seed=seed)[0])

    def schedule(seconds):
        traffic = OpenLoopTraffic(
            BURST_TRAFFIC, BURST_LOADS, seed=seed,
            injector=FaultInjector(FaultSpec(straggler_rate=0.05),
                                   seed=seed + 1))
        arrivals = traffic.arrivals(seconds)
        rng = np.random.default_rng([seed, 0xB0057])
        chosen = rng.integers(0, len(payloads), size=len(arrivals))
        return [Request(a.time, a.tenant, a.route, a.model, int(p))
                for a, p in zip(arrivals, chosen)]

    return ServeInputs(models, payloads, [], schedule,
                       32 if tiny else FLOOD_REQUESTS, tiny)


def _train_mlp(hidden, seed, epochs, features, labels):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Linear(DIGIT_FEATURES, hidden, rng=rng), nn.Tanh(),
        nn.Linear(hidden, DIGIT_CLASSES, rng=rng))
    optimizer = Adam(model.parameters(), lr=0.02)
    for _ in range(epochs):
        order = rng.permutation(len(features))
        for start in range(0, len(features), 64):
            picks = order[start:start + 64]
            optimizer.zero_grad()
            losses.cross_entropy(model(Tensor(features[picks])),
                                 labels[picks]).backward()
            optimizer.step()
    return model.eval()


def burst_setup(inputs):
    models = inputs.models
    collator = VectorCollator()
    registry = ModelRegistry()
    for name, model in models.items():
        registry.register(name, model, collator, inputs.payloads[:1],
                          max_batch=MAX_BATCH)
    registry.add_cascade("cascade", "fast", "full", threshold=1.2)
    registry.freeze()
    return ServeSystem(registry, models, collator, BURST_TENANTS, "mobile")


# ----------------------------------------------------------------------
# The open-loop generator and the two phases
# ----------------------------------------------------------------------
def _direct(name, fn, *args, key=None, **kwargs):
    return fn(*args, **kwargs)


def replay(fleet, requests, payloads, clock, real_deadline, call=_direct):
    """Submit ``requests`` at their offsets on ``clock``, a NominalClock.

    Returns (tickets, dues, backlog).  While the next due time is more
    than ``IDLE_MARGIN_S`` away the generator runs one reference pass
    (``clock.idle``) and then ``poll()``s, so wait deadlines fire within
    about a millisecond; it spins through the rest.  Requests not yet
    due when ``time.perf_counter()`` reaches ``real_deadline`` are not
    sent.  ``backlog`` is the number of requests still queued after the
    last submit, before the final flush.
    """
    start = clock() + 0.002
    tickets, dues = [], []
    for index, request in enumerate(requests):
        if time.perf_counter() >= real_deadline:
            break
        due = start + request.offset
        while due - clock() > IDLE_MARGIN_S:
            call("serve.gen.wait", clock.idle)
            call("serve.fleet.poll", fleet.poll, key=index)
        call("serve.gen.wait", spin_until, due, clock)
        call("serve.fleet.poll", fleet.poll, key=index)
        tickets.append(call(
            "serve.fleet.submit", fleet.submit, request.tenant,
            payloads[request.payload], route=request.route,
            model=request.model, key=index))
        dues.append(due)
    backlog = fleet.pending
    call("serve.fleet.flush", fleet.flush)
    return tickets, dues, backlog


def flood(fleet, requests, payloads, call=_direct):
    """Submit every request at once, then flush; returns the tickets.

    With nothing to wait for, the generator never reaches a poll: every
    batch is dispatched by ``submit`` once it is full, or by the flush.
    """
    tickets = [call("serve.fleet.submit", fleet.submit, request.tenant,
                    payloads[request.payload], route=request.route,
                    model=request.model, key=index)
               for index, request in enumerate(requests)]
    call("serve.fleet.flush", fleet.flush)
    return tickets


def _eager_row(model, collator, payload):
    batch = collator.collate([payload], 1)
    with no_grad():
        out = model(batch if isinstance(batch, list) else Tensor(batch))
    return out.data[0]


def unresolved(fleet, tickets):
    """Tickets not resolved exactly once: ``submitted == served +
    rejected + failed`` and every ticket done."""
    metrics = fleet.metrics()
    resolved = sum(metrics["resolved"].values())
    return (sum(1 for t in tickets if not t.done)
            + abs(metrics["submitted"] - resolved)
            + abs(len(tickets) - metrics["submitted"]))


def mismatched_rows(system, tickets):
    """Sampled served rows that differ from an eager forward of the model
    that answered them."""
    served = [t for t in tickets if t.done and not t.failed]
    stride = max(1, len(served) // CHECKED_ROWS)
    wrong = 0
    for ticket in served[::stride][:CHECKED_ROWS]:
        reference = _eager_row(system.models[ticket.model],
                               system.collator, ticket.payload)
        wrong += not np.allclose(ticket.result(), reference, rtol=1e-6,
                                 atol=1e-9)
    return wrong


def _errored(tickets):
    """Tickets that failed for a reason other than admission policy."""
    return sum(1 for t in tickets if t.failed and not t.rejected)


def _counts(fleets):
    """Outcome and cascade counts summed over several servers."""
    totals = {"submitted": 0, "rejected": 0, "failed": 0, "cascade": 0,
              "escalated": 0}
    for fleet in fleets:
        metrics = fleet.metrics()
        resolved = metrics["resolved"]
        totals["submitted"] += metrics["submitted"]
        totals["rejected"] += resolved["rejected"]
        totals["failed"] += resolved["numeric_error"] + resolved["error"]
        for tenant in metrics["tenants"].values():
            totals["cascade"] += tenant["cascade_requests"]
            totals["escalated"] += tenant["cascade_escalated"]
    return totals


def measure(system, inputs, seconds, reference, tracer=None):
    """Alternate flood replays and paced segments over ``seconds``.

    The run is split into ``CYCLES`` cycles of one flood stretch and one
    paced segment each, so both phases sample the whole run.
    """
    call = tracer.call if tracer is not None else _direct
    mark = (lambda: len(tracer.spans)) if tracer is not None else int
    clock = time.perf_counter
    cycles = 1 if inputs.tiny else CYCLES
    paced_s = seconds * (1.0 - FLOOD_SHARE)
    schedule = inputs.schedule(paced_s)
    # Replays take the schedule's slices in turn, so the capacity covers
    # the mix of thousands of arrivals rather than that of one slice.
    size = inputs.flood_size
    bursts = [schedule[i:i + size]
              for i in range(0, max(1, len(schedule) - size + 1), size)]
    cut = paced_s / cycles
    segments = [[replace(r, offset=r.offset - k * cut) for r in schedule
                 if k * cut <= r.offset < (k + 1) * cut]
                for k in range(cycles)]

    def flood_once(burst):
        fleet = FleetServer(system.registry, system.flood_tenants(),
                            clock=clock, max_wait_ms=MAX_WAIT_MS)
        start = clock()
        tickets = flood(fleet, burst, inputs.payloads, call)
        return fleet, tickets, clock() - start

    flood_once(bursts[0])  # warm the caches
    # Flood tickets are checked as each replay ends and then dropped, so
    # memory does not grow with the number of replays a fast host fits in.
    rates, flood_ranges, flood_wall, sampled = [], [], 0.0, []
    served = 0
    paced, paced_ranges, backlogs, factors = [], [], [], []
    checks = {"tickets_resolved_once": 0, "rows_match_eager": 0}
    attempted = failed = 0
    paced_wall = 0.0
    for segment in segments:
        first = mark()
        passes = len(reference.samples)
        deadline = clock() + seconds * FLOOD_SHARE / cycles
        while clock() < deadline or not rates:
            fleet, tickets, wall = flood_once(bursts[len(rates) % len(bursts)])
            flood_wall += wall
            ok = sum(1 for t in tickets if t.done and not t.failed)
            served += ok
            corrected = reference.correct(wall)
            rates.append((ok / corrected,
                          fleet.metrics()["batches"] / corrected,
                          1.0 / corrected))
            checks["tickets_resolved_once"] += unresolved(fleet, tickets)
            attempted += len(tickets)
            failed += _errored(tickets)
            sampled.extend(tickets[::len(tickets) // 2 or 1][:2])
        flood_ranges.append((first, mark()))

        # The paced segment runs, and is traced, on a nominal clock that
        # starts from the flood stretch's passes.  It keeps its real
        # length: on a slow host it replays fewer of its arrivals.
        nominal = NominalClock(reference, reference.samples[passes:])
        fleet = FleetServer(system.registry, system.tenants, clock=nominal,
                            max_wait_ms=MAX_WAIT_MS)
        if tracer is not None:
            tracer.clock = nominal
        try:
            tickets, dues, backlog = replay(fleet, segment, inputs.payloads,
                                            nominal, clock() + cut, call)
        finally:
            if tracer is not None:
                tracer.clock = clock
        paced_wall += nominal()
        paced_ranges.append((flood_ranges[-1][1], mark()))
        paced.append((fleet, tickets, dues))
        factors.append(nominal.factor)
        backlogs.append(backlog)

    # Eager row checks run after the timed phases so their forwards stay
    # out of both the timings and the traced spans.
    for fleet, tickets, _ in paced:
        checks["tickets_resolved_once"] += unresolved(fleet, tickets)
        attempted += len(tickets)
        failed += _errored(tickets)
    checks["rows_match_eager"] = (
        mismatched_rows(system, sampled)
        + mismatched_rows(system, [t for _, tickets, _ in paced
                                   for t in tickets]))
    failed += checks["rows_match_eager"]

    slo = next(t.slo_s for t in system.tenants
               if t.name == system.slo_tenant)
    latencies, lateness, slo_total, slo_met = [], [], 0, 0
    for _, tickets, dues in paced:
        for ticket, due in zip(tickets, dues):
            lateness.append(ticket.submitted_at - due)
            ok = ticket.done and not ticket.failed
            latency = ticket.submitted_at + ticket.latency - due
            if ok:
                latencies.append(latency)
            if ticket.tenant == system.slo_tenant:
                slo_total += 1
                slo_met += ok and latency <= slo

    counts = _counts(fleet for fleet, _, _ in paced)
    return Measurement(
        metrics={
            "capacity_rps": median([r[0] for r in rates]),
            "steps_per_s": median([r[1] for r in rates]),
            "rounds_per_s": median([r[2] for r in rates]),
            "latency_p50_ms": percentile_ms(latencies, 50),
            "latency_p99_ms": windowed_p99_ms(latencies),
            "slo_attained_share": slo_met / max(1, slo_total),
        },
        attempted=attempted, failed=failed, checks=checks,
        info={
            "flood_replays": len(rates),
            "flood_capacity_rps_uncorrected": served / flood_wall,
            "flood_requests_per_replay": len(bursts[0]),
            "flood_slices": len(bursts),
            "paced_offered": counts["submitted"],
            "paced_latency_samples": len(latencies),
            "paced_end_factors": factors,
            "slo_tenant_requests": slo_total,
            "paced_rejected": counts["rejected"],
        },
        detail={
            "flood_ranges": flood_ranges,
            "flood_wall": flood_wall,
            "paced_ranges": paced_ranges,
            "paced_wall": paced_wall,
            "paced_tickets": [t for _, tickets, _ in paced for t in tickets],
            "lateness": lateness,
            "backlog": max(backlogs),
            "counts": counts,
        })


# ----------------------------------------------------------------------
# Traced run: layer wrappers and per-layer metrics
# ----------------------------------------------------------------------
def instrument(system, tracer):
    """Wrap each registry plan's run() and the collator's collate()."""
    for name, entry in system.registry.entries.items():
        tracer.patch(entry.plan, "run", "serve.plan.run." + name)
    # The span key records how many real rows each batch carries.
    tracer.patch(system.collator, "collate", "serve.server.collate",
                 key=lambda payloads, batch_size: len(payloads))


def _spans(tracer, ranges, prefix):
    return [span for start, stop in ranges
            for span in tracer.spans[start:stop] if span[0].startswith(prefix)]


def _median_us(durations):
    return float(np.median(durations)) * 1e6 if len(durations) else 0.0


def layer_metrics(system, measurement, tracer):
    detail = measurement.detail
    flood_ranges, paced_ranges = detail["flood_ranges"], detail["paced_ranges"]
    out = {}
    # Capacity-side layers: the flood replays.
    runs = _spans(tracer, flood_ranges, "serve.plan.run.")
    for name in system.registry.entries:
        out["serve.plan.run_us." + name] = _median_us(
            [e - s for n, s, e, _, _ in runs if n == "serve.plan.run." + name])
    out["serve.plan.busy_share"] = \
        sum(e - s for _, s, e, _, _ in runs) / detail["flood_wall"]
    out["serve.server.collate_us"] = _median_us(
        [e - s for _, s, e, _, _ in _spans(tracer, flood_ranges,
                                           "serve.server.collate")])
    own = {"serve.fleet.submit": [], "serve.fleet.poll": []}
    for start, stop in flood_ranges + paced_ranges:
        table = tracer.layer_table(start, stop)
        for name, times in own.items():
            if name in table:
                times.extend(table[name][1])
    for name, times in own.items():
        out[name + "_self_us"] = float(np.mean(times)) * 1e6

    # Queueing-side layers: the paced segments.  A ticket's queue wait
    # ends when the plan run that answered it starts: the last run that
    # ended before the ticket resolved.
    paced_runs = sorted((e, s) for _, s, e, _, _
                        in _spans(tracer, paced_ranges, "serve.plan.run."))
    collates = _spans(tracer, paced_ranges, "serve.server.collate")
    out["serve.plan.rows_per_run"] = \
        sum(c[4] for c in collates) / max(1, len(paced_runs))
    ends = [e for e, _ in paced_runs]
    waits = []
    for ticket in detail["paced_tickets"]:
        if ticket.done and not ticket.failed:
            resolved = ticket.submitted_at + ticket.latency
            index = bisect.bisect_right(ends, resolved) - 1
            waits.append(paced_runs[index][1] - ticket.submitted_at)
    out["serve.fleet.queue_wait_ms.p50"] = percentile_ms(waits, 50)
    out["serve.fleet.queue_wait_ms.p99"] = windowed_p99_ms(waits)
    counts = detail["counts"]
    submitted = max(1, counts["submitted"])
    out["serve.fleet.escalation_share"] = \
        counts["escalated"] / max(1, counts["cascade"])
    out["serve.fleet.rejected_share"] = counts["rejected"] / submitted
    out["serve.fleet.failed_share"] = counts["failed"] / submitted
    out["serve.gen.lateness_ms.p99"] = windowed_p99_ms(detail["lateness"])
    out["serve.gen.backlog_end"] = detail["backlog"]
    covered = sum(tracer.top_level_time(start, stop)
                  for start, stop in flood_ranges + paced_ranges)
    out["trace.unattributed_share"] = \
        1.0 - covered / (detail["flood_wall"] + detail["paced_wall"])
    return out
