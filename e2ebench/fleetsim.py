"""fleet-1m: FleetSimulator rounds over a million-client columnar fleet.

Chaos rounds under the fleet benchmark's fault spec and a two-tier edge
topology, with a streaming checkpoint written every
``CHECKPOINT_EVERY`` rounds.  Rounds go through
``FleetSimulator.run`` one at a time so each round's time, checkpoint
included and corrected for host speed by the reference pass that
follows it, is its latency.
"""

import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from repro.faults import FaultInjector, FaultSpec
from repro.federated import RobustnessPolicy
from repro.federated.comm import CommunicationLedger
from repro.federated.fleet import (EdgeTopology, FleetSimulator,
                                   FleetState, checkpoint, simulator)

from common import Measurement, median, percentile_ms

CLIENTS = 1_000_000
CLIENTS_PER_EDGE = 4096
CLIENT_FRACTION = 0.1
MODEL_BYTES = 40_000
CHECKPOINT_EVERY = 5
ROUND_DEADLINE_S = 1.0    # a round slower than this misses its budget
CHAOS = FaultSpec(dropout_rate=0.15, straggler_rate=0.25,
                  straggler_scale=5.0, upload_loss_rate=0.08,
                  corruption_rate=0.04, stale_rate=0.15,
                  max_injected_staleness=3)
ROUND_PHASES = ("fleet.sampling", "fleet.engine", "fleet.hierarchy",
                "fleet.comm", "fleet.state")


@dataclass
class FleetInputs:
    clients: int
    seed: int
    scratch: str      # directory the checkpoints are written to


@dataclass
class FleetSystem:
    sim: FleetSimulator
    build_s: float


def fleet_inputs(seed, tiny, scratch):
    return FleetInputs(20_000 if tiny else CLIENTS, seed, scratch)


def fleet_setup(inputs):
    edges = max(1, inputs.clients // CLIENTS_PER_EDGE)
    start = time.perf_counter()
    state = FleetState.build(inputs.clients, seed=inputs.seed,
                             num_edges=edges)
    build_s = time.perf_counter() - start
    sim = FleetSimulator(
        state, injector=FaultInjector(spec=CHAOS, seed=inputs.seed + 1),
        policy=RobustnessPolicy(max_retries=1, max_staleness=2,
                                min_quorum=2),
        topology=EdgeTopology(num_edges=edges, edge_quorum=1),
        model_bytes=MODEL_BYTES, client_fraction=CLIENT_FRACTION,
        seed=inputs.seed + 2)
    return FleetSystem(sim, build_s)


def check_round(sim):
    """Ledger bytes match the round's wire bytes; outcomes sum to selected."""
    record, traffic = sim.history[-1], sim.ledger.rounds[-1]
    books = traffic.delivered + traffic.wasted == record["sent_bytes"]
    outcomes = sum(record["outcomes"].values()) == record["selected"]
    return {"ledger_sent_is_delivered_plus_wasted": int(not books),
            "outcomes_sum_to_selected": int(not outcomes)}


def measure(system, inputs, seconds, reference, tracer=None):
    clock = time.perf_counter
    sim = system.sim
    os.makedirs(inputs.scratch, exist_ok=True)
    path = os.path.join(inputs.scratch, "fleet.ckpt")
    sim.run(sim.round_index + 1)  # first-touch of the columns, untimed
    mark = len(tracer.spans) if tracer is not None else 0
    checks, failed = {}, 0
    round_times, block_rates, block, wall = [], [], [], 0.0
    first = len(sim.history)
    deadline = clock() + seconds
    try:
        while True:
            due = (sim.round_index + 1) % CHECKPOINT_EVERY == 0
            t0 = clock()
            sim.run(sim.round_index + 1,
                    checkpoint_path=path if due else None)
            elapsed = clock() - t0
            wall += elapsed
            round_times.append(reference.correct(elapsed))
            found = check_round(sim)
            for name, bad in found.items():
                checks[name] = checks.get(name, 0) + bad
            failed += any(found.values())
            block.append(round_times[-1])
            if due:
                block_rates.append(len(block) / sum(block))
                block = []
                if clock() >= deadline:
                    break
    finally:
        shutil.rmtree(inputs.scratch, ignore_errors=True)
    history = sim.history[first:]
    selected = np.asarray([r["selected"] for r in history], dtype=float)
    rounds_per_s = median(block_rates)
    return Measurement(
        metrics={
            "capacity_rps": rounds_per_s * float(selected.mean()),
            "steps_per_s": rounds_per_s,
            "rounds_per_s": rounds_per_s,
            "latency_p50_ms": percentile_ms(round_times, 50),
            "latency_p99_ms": percentile_ms(round_times, 99),
            "slo_attained_share": float(np.mean(
                np.asarray(round_times) <= ROUND_DEADLINE_S)),
        },
        attempted=len(round_times),
        failed=failed,
        checks=checks,
        info={"clients": sim.state.num_clients, "rounds": len(round_times),
              "checkpoints": len(block_rates),
              "rounds_per_s_uncorrected": len(round_times) / wall,
              "checkpoint_every": CHECKPOINT_EVERY},
        detail={"wall": wall, "mark": mark, "history": history})


def instrument(system, tracer):
    """Wrap the round's phases where FleetSimulator looks them up."""
    sim = system.sim
    tracer.patch(sim, "run_round", "fleet.round")
    tracer.patch(simulator, "sample_clients", "fleet.sampling")
    tracer.patch(simulator, "decide_round", "fleet.engine")
    tracer.patch(simulator, "edge_partition", "fleet.hierarchy")
    tracer.patch(CommunicationLedger, "record_cohort_round", "fleet.comm")
    tracer.patch(FleetState, "apply_round", "fleet.state")
    tracer.patch(checkpoint, "save_fleet_checkpoint", "fleet.checkpoint")


def layer_metrics(system, measurement, tracer):
    detail = measurement.detail
    mark, wall, history = detail["mark"], detail["wall"], detail["history"]
    table = tracer.layer_table(mark)
    rounds = table["fleet.round"][0]
    out = {}
    for phase in ROUND_PHASES:
        out[phase + ".ms_per_round"] = \
            float(table[phase][0].sum()) / len(rounds) * 1e3
    phases = sum(float(table[p][0].sum()) for p in ROUND_PHASES)
    writes = table.get("fleet.checkpoint", (np.zeros(1),))[0]
    selected = sum(r["selected"] for r in history)
    out.update({
        "fleet.round.phase_share": phases / float(rounds.sum()),
        "fleet.state.build_s": system.build_s,
        "fleet.checkpoint.s": float(np.median(writes)),
        "fleet.selected_per_round": selected / len(history),
        "fleet.survived_share":
            sum(r["survived"] for r in history) / selected,
        "fleet.wasted_byte_share":
            sum(r["wasted_bytes"] for r in history)
            / sum(r["sent_bytes"] for r in history),
        "trace.unattributed_share":
            1.0 - tracer.top_level_time(mark) / wall,
    })
    return out
