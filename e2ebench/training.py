"""train-mood: closed-loop compiled DeepMood training through TrainPlan.

Minibatches are generator sessions grouped by their per-view length
bucket and padded through ``MultiViewCollator`` inside the timed loop,
then stepped with ``TrainPlan.step`` (SGD, cross-entropy).  A round is
one pass over the minibatch pool in a seeded order, like one local
epoch of on-device training; its time, corrected for host speed by
the reference pass that follows it, is the workload's latency.
"""

import time
from dataclasses import dataclass

import numpy as np

from repro.core.model import MultiViewGRUClassifier
from repro.nn import losses
from repro.optim import SGD
from repro.serve.server import MultiViewCollator
from repro.synth.typing_dynamics import TypingDynamicsGenerator
from repro.train import TrainPlan

from common import Measurement, median, percentile_ms, windowed_p99_ms

VIEW_DIMS = (4, 6, 3)
VIEW_CAP = 16
HIDDEN = 16
BATCH = 16
LEARNING_RATE = 0.05
USERS = 8
SESSIONS_PER_USER = 40
BATCHES_PER_BUCKET = 8
ROUND_DEADLINE_S = 0.5    # a round slower than this misses its budget


@dataclass
class TrainInputs:
    batches: list     # [(payloads, labels)], one length bucket each
    order: list       # batch indices of one round, seeded


@dataclass
class TrainSystem:
    model: MultiViewGRUClassifier
    plan: TrainPlan
    collator: MultiViewCollator
    first_steps: list     # [(batch index, loss)] run while compiling
    compile_s: float


def train_inputs(seed, tiny=False):
    """Minibatches from the two most common per-view length buckets.

    Every round holds ``BATCHES_PER_BUCKET`` batches of each bucket, so
    the mix of step shapes, and with it the step-time distribution, is
    the same for every seed.
    """
    cohort = TypingDynamicsGenerator(seed=seed).generate_cohort(
        USERS, 8 if tiny else SESSIONS_PER_USER)
    collator = MultiViewCollator(VIEW_DIMS, max_length=VIEW_CAP)
    buckets = {}
    for session in cohort.all_sessions():
        payload = [np.ascontiguousarray(v[:VIEW_CAP])
                   for v in session.views()]
        buckets.setdefault(collator.bucket_key(payload), []).append(
            (payload, session.mood_label))
    common = sorted(buckets, key=lambda k: (-len(buckets[k]), k))[:2]
    rng = np.random.default_rng([seed, 0x7EA1])
    size, per_bucket = (4, 2) if tiny else (BATCH, BATCHES_PER_BUCKET)
    batches = []
    for key in sorted(common):
        rows = buckets[key]
        for _ in range(per_bucket):
            picks = rng.choice(len(rows), size=size, replace=False)
            batches.append(([rows[i][0] for i in picks],
                            np.asarray([rows[i][1] for i in picks])))
    order = rng.permutation(len(batches))
    return TrainInputs(batches, [int(i) for i in order])


def _new_model():
    return MultiViewGRUClassifier(VIEW_DIMS, hidden_size=HIDDEN,
                                  fusion="mvm", fusion_units=8, seed=21)


def _first_of_each_bucket(inputs, collator):
    seen, picks = set(), []
    for index in inputs.order:
        key = collator.bucket_key(inputs.batches[index][0][0])
        if key not in seen:
            seen.add(key)
            picks.append(index)
    return picks


def train_setup(inputs):
    """Build the model and compile a verified step for every bucket.

    Each bucket compiles on its first step; those steps' losses are
    kept so the output check can replay them eagerly.
    """
    collator = MultiViewCollator(VIEW_DIMS, max_length=VIEW_CAP)
    model = _new_model()
    start = time.perf_counter()
    plan = TrainPlan(model, loss="cross_entropy", optimizer="sgd",
                     optimizer_args={"lr": LEARNING_RATE})
    first_steps = []
    for index in _first_of_each_bucket(inputs, collator):
        payloads, labels = inputs.batches[index]
        loss = plan.step(collator.collate(payloads, len(payloads)), labels)
        first_steps.append((index, loss))
    return TrainSystem(model, plan, collator, first_steps,
                       time.perf_counter() - start)


def check_first_steps(system, inputs):
    """Replay the compile-time steps eagerly; count losses that differ."""
    model = _new_model()
    model.train()
    optimizer = SGD(model.parameters(), lr=LEARNING_RATE)
    wrong = 0
    for index, plan_loss in system.first_steps:
        payloads, labels = inputs.batches[index]
        optimizer.zero_grad()
        loss = losses.cross_entropy(
            model(system.collator.collate(payloads, len(payloads))), labels)
        loss.backward()
        optimizer.step()
        if not np.isclose(plan_loss, float(loss.data), rtol=1e-6,
                          atol=1e-9):
            wrong += 1
    return wrong


def measure(system, inputs, seconds, reference, tracer=None):
    clock = time.perf_counter
    plan, collate = system.plan, system.collator.collate
    checked = len(system.first_steps)
    mismatched = check_first_steps(system, inputs) if checked else 0
    traces_before = plan.compile_count
    round_times, steps, nonfinite, wall = [], 0, 0, 0.0
    mark = len(tracer.spans) if tracer is not None else 0
    deadline = clock() + seconds
    while not round_times or clock() < deadline:
        round_start = clock()
        for index in inputs.order:
            payloads, labels = inputs.batches[index]
            loss = plan.step(collate(payloads, len(payloads)), labels)
            nonfinite += not np.isfinite(loss)
        elapsed = clock() - round_start
        wall += elapsed
        round_times.append(reference.correct(elapsed))
        steps += len(inputs.order)
    rows = np.mean([len(inputs.batches[i][0]) for i in inputs.order])
    steps_per_s = len(inputs.order) / median(round_times)
    return Measurement(
        metrics={
            "capacity_rps": steps_per_s * rows,
            "steps_per_s": steps_per_s,
            "rounds_per_s": steps_per_s / len(inputs.order),
            "latency_p50_ms": percentile_ms(round_times, 50),
            "latency_p99_ms": windowed_p99_ms(round_times),
            "slo_attained_share": float(np.mean(
                np.asarray(round_times) <= ROUND_DEADLINE_S)),
        },
        attempted=steps + checked,
        failed=nonfinite + mismatched,
        checks={"losses_finite": nonfinite,
                "first_steps_match_eager": mismatched},
        info={"steps": steps, "rounds": len(round_times),
              "steps_per_s_uncorrected": steps / wall,
              "batches_per_round": len(inputs.order),
              "buckets": len(system.first_steps)},
        detail={"wall": wall, "mark": mark,
                "traces_after_warmup": plan.compile_count - traces_before})


def instrument(system, tracer):
    tracer.patch(system.plan, "step", "train.plan.step")
    tracer.patch(system.collator, "collate", "serve.server.collate")


def layer_metrics(system, measurement, tracer):
    mark, wall = measurement.detail["mark"], measurement.detail["wall"]
    table = tracer.layer_table(mark)
    steps = table["train.plan.step"][0]
    collates = table["serve.server.collate"][0]
    return {
        "train.plan.step_us.p50": float(np.percentile(steps, 50)) * 1e6,
        "train.plan.step_us.p99": windowed_p99_ms(steps) * 1e3,
        "train.plan.step_share": float(steps.sum()) / wall,
        "train.plan.compile_s": system.compile_s,
        "train.plan.traces_after_warmup":
            measurement.detail["traces_after_warmup"],
        "train.plan.arena_bytes": system.plan.arena_nbytes,
        "serve.server.collate_us": float(np.median(collates)) * 1e6,
        "trace.unattributed_share":
            1.0 - tracer.top_level_time(mark) / wall,
    }
