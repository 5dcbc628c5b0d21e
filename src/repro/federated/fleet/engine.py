"""The fleet round decision engine: one chaos round as array ops.

This is the vectorized counterpart of
:meth:`repro.federated.FedAvg._robust_client_round` — the same attempt
loop (backoff, link windows, straggler cutoff, timeout, dropout,
staleness rejection, corruption, upload loss), the same decision
*order*, and the same keyed fault oracles, evaluated as array ops.  The
only Python loop is over attempts (``policy.max_retries + 1``
iterations); nothing iterates over clients.

Each attempt is compacted to the clients it still has to decide (those
pending, on an open link, with a feasible link), and the cascade is
lazy like the scalar loop: the straggler and staleness oracles answer
for every active client, dropout only for those neither cut nor timed
out, corruption only for those also neither dropped nor stale, upload
loss only for uncorrupted ones.  Results scatter back by index.  The
oracles are pure keyed functions, so skipping a draw changes nothing
but the time spent; every oracle sees exactly the (client, attempt)
pairs the scalar twin asks about, which is a tested invariant.

Two implementations share the entry point:

* :func:`decide_round` with ``vectorized=True`` (default) — whole-round
  arrays through the batch oracles of
  :class:`repro.faults.FaultInjector`;
* ``vectorized=False`` — a per-client scalar reference twin driving the
  scalar oracles, bit-identical to the vectorized path in every output
  (outcome codes, byte tallies, per-client timelines, staleness lags).
  The identity is a tested invariant on fleets up to 256; the scalar
  twin also serves as the "object path" baseline the fleet benchmark
  measures its speedup against.

Byte accounting is *disjoint*: every byte an attempt puts on the wire
is booked as either delivered (``up``/``down``, success only) or
``wasted`` (everything else), never both, and ``sent`` tallies the wire
total independently so ``sent == up + down + wasted`` is a checkable
conservation law rather than a definition.  Timelines are per-device:
each participant advances its own local clock from ``clock_start``
(devices retry in parallel), unlike the object loop's single sequential
server clock — the round's duration is the slowest participant's finish
time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RoundDecisions", "decide_round", "OUTCOME_NAMES",
           "OUT_SUCCESS", "OUT_BLOCKED", "OUT_INFEASIBLE", "OUT_CUT",
           "OUT_TIMEOUT", "OUT_DROPOUT", "OUT_STALE", "OUT_CORRUPT",
           "OUT_LOST"]

# Final per-participant outcome codes (index = code).
OUT_SUCCESS = 0     # update delivered and accepted
OUT_BLOCKED = 1     # link window closed on every attempt
OUT_INFEASIBLE = 2  # link cannot carry the model at all
OUT_CUT = 3         # straggler cut off after the download
OUT_TIMEOUT = 4     # download+compute+upload exceeded the budget
OUT_DROPOUT = 5     # device went dark after the download
OUT_STALE = 6       # delivered but rejected: trained on too-old state
OUT_CORRUPT = 7     # delivered but rejected: corrupted values
OUT_LOST = 8        # upload lost mid-transfer

OUTCOME_NAMES = ("success", "blocked", "infeasible", "straggler_cut",
                 "timeout", "dropout", "stale_rejected",
                 "corrupt_rejected", "upload_lost")


@dataclass
class RoundDecisions:
    """Everything one round decided, as arrays aligned with ``rows``."""

    rows: np.ndarray        # fleet row index of each participant
    client_ids: np.ndarray  # oracle coordinate of each participant
    outcome: np.ndarray     # final OUT_* code
    survived: np.ndarray    # outcome == OUT_SUCCESS
    lag: np.ndarray         # injected staleness of the last real attempt
    attempts: np.ndarray    # attempts consumed (including blocked probes)
    retries: np.ndarray     # retry count (attempts after the first)
    up: np.ndarray          # delivered uplink bytes
    down: np.ndarray        # delivered downlink bytes
    wasted: np.ndarray      # bytes that bought nothing
    sent: np.ndarray        # every byte on the wire (== up+down+wasted)
    finish_s: np.ndarray    # device-local completion time offset
    duration: float         # slowest participant's finish_s

    @property
    def num_selected(self):
        return int(self.rows.shape[0])

    @property
    def num_survived(self):
        return int(np.count_nonzero(self.survived))


def decide_round(state, injector, policy, round_index, rows,
                 client_ids=None, model_bytes=40_000, clock_start=0.0,
                 vectorized=True):
    """Decide one round for the participants in ``rows``.

    ``client_ids`` are the coordinates fed to the keyed fault oracles
    (defaults to ``rows``) — the adapter passes its object clients' ids
    here so a 64-client fleet replays the exact schedule the object
    stack would have drawn.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if client_ids is None:
        client_ids = rows
    client_ids = np.asarray(client_ids, dtype=np.int64)
    if client_ids.shape != rows.shape:
        raise ValueError("client_ids must align with rows")
    decide = _decide_vectorized if vectorized else _decide_scalar
    return decide(state, injector, policy, int(round_index), rows,
                  client_ids, int(model_bytes), float(clock_start))


def _empty_decisions(rows, client_ids):
    zeros = np.zeros(0, dtype=np.int64)
    return RoundDecisions(
        rows=rows, client_ids=client_ids, outcome=zeros.copy(),
        survived=np.zeros(0, dtype=bool), lag=zeros.copy(),
        attempts=zeros.copy(), retries=zeros.copy(), up=zeros.copy(),
        down=zeros.copy(), wasted=zeros.copy(), sent=zeros.copy(),
        finish_s=np.zeros(0), duration=0.0)


def _decide_vectorized(state, injector, policy, round_index, rows,
                       client_ids, model_bytes, clock_start):
    if rows.shape[0] == 0:
        return _empty_decisions(rows, client_ids)
    bandwidth = state.link_bw[rows]
    latency = state.link_latency[rows]
    slowdown = state.slowdown[rows]
    with np.errstate(divide="ignore"):
        down_s = latency + model_bytes / bandwidth
    feasible = (bandwidth > 0.0) & np.isfinite(down_s)
    outcome = np.where(feasible, OUT_BLOCKED, OUT_INFEASIBLE)
    count = rows.shape[0]
    t = np.zeros(count)
    lag = np.zeros(count, dtype=np.int64)
    attempts = np.zeros(count, dtype=np.int64)
    retries = np.zeros(count, dtype=np.int64)
    up = np.zeros(count, dtype=np.int64)
    down = np.zeros(count, dtype=np.int64)
    wasted = np.zeros(count, dtype=np.int64)
    sent = np.zeros(count, dtype=np.int64)
    pending = np.ones(count, dtype=bool)
    probe_wait = max(policy.backoff_base_s, 1.0)
    for attempt in range(policy.max_retries + 1):
        attempts += pending
        if attempt > 0:
            retries += pending
            t += np.where(pending, policy.backoff_s(attempt), 0.0)
        available = injector.link_available_array(clock_start + t)
        t += np.where(pending & ~available, probe_wait, 0.0)
        idx = np.flatnonzero(pending & available & feasible)
        if idx.size == 0:
            continue
        # The cascade runs on the attempt's active clients only, and each
        # oracle is asked exactly where the scalar loop would ask it: a
        # check further down is drawn only for the clients that passed
        # every check above it.  Positions left undrawn are False, and
        # np.select picks the first true condition, so they never decide.
        cids = client_ids[idx]
        factor = injector.straggler_factor_array(round_index, cids, attempt)
        lag_now = injector.staleness_array(round_index, cids, attempt)
        down_a = down_s[idx]
        compute_s = policy.base_compute_s * slowdown[idx] * factor
        attempt_s = down_a + compute_s + down_a  # upload mirrors download
        cut = compute_s > policy.straggler_cutoff_s
        timed_out = attempt_s > policy.timeout_s
        dropped = _draw_where(injector.drops_out_array, ~(cut | timed_out),
                              round_index, cids, attempt)
        stale = lag_now > policy.max_staleness
        passed = ~(cut | timed_out | dropped | stale)
        corrupt = _draw_where(injector.corrupts_array, passed,
                              round_index, cids, attempt)
        lost = _draw_where(injector.upload_lost_array, passed & ~corrupt,
                           round_index, cids, attempt)
        code = np.select(
            [cut, timed_out, dropped, stale, corrupt, lost],
            [OUT_CUT, OUT_TIMEOUT, OUT_DROPOUT, OUT_STALE, OUT_CORRUPT,
             OUT_LOST],
            default=OUT_SUCCESS)
        t[idx] += np.select(
            [cut, timed_out | dropped],
            [down_a, policy.timeout_s],
            default=attempt_s)
        waste_now = np.select(
            [cut | timed_out | dropped, stale | corrupt | lost],
            [model_bytes, 2 * model_bytes],
            default=0)
        wasted[idx] += waste_now
        ok = code == OUT_SUCCESS
        sent[idx] += np.where(ok, 2 * model_bytes, waste_now)
        succeeded = idx[ok]
        up[succeeded] += model_bytes
        down[succeeded] += model_bytes
        outcome[idx] = code
        lag[idx] = lag_now
        pending[succeeded] = False
    survived = outcome == OUT_SUCCESS
    return RoundDecisions(
        rows=rows, client_ids=client_ids, outcome=outcome,
        survived=survived, lag=lag, attempts=attempts, retries=retries,
        up=up, down=down, wasted=wasted, sent=sent, finish_s=t,
        duration=float(t.max()))


def _draw_where(oracle, mask, round_index, client_ids, attempt):
    """``oracle`` answered only where ``mask`` holds; False elsewhere."""
    hit = np.zeros(mask.shape, dtype=bool)
    sub = np.flatnonzero(mask)
    hit[sub] = oracle(round_index, client_ids[sub], attempt)
    return hit


def _decide_scalar(state, injector, policy, round_index, rows, client_ids,
                   model_bytes, clock_start):
    """Per-client reference twin: the object path's decision loop.

    Spelled out with the exact same float expressions, element by
    element, as :func:`_decide_vectorized`, so the two paths agree
    bit-for-bit (the scalar oracles are bit-identical to the batch
    oracles by the keystream property tests).
    """
    if rows.shape[0] == 0:
        return _empty_decisions(rows, client_ids)
    probe_wait = max(policy.backoff_base_s, 1.0)
    outcomes, lags, attempts_out, retries_out = [], [], [], []
    ups, downs, wasteds, sents, finishes = [], [], [], [], []
    with np.errstate(divide="ignore"):
        # Deliberate per-client loop: this is the reference twin, not
        # the hot path.
        for row, cid in zip(rows.tolist(), client_ids.tolist()):
            bandwidth = state.link_bw[row]
            down_s = state.link_latency[row] + model_bytes / bandwidth
            up_s = down_s
            feasible = bool(bandwidth > 0.0) and bool(np.isfinite(down_s))
            outcome = OUT_BLOCKED if feasible else OUT_INFEASIBLE
            t = 0.0
            lag = 0
            attempts = retries = up = down = wasted = sent = 0
            for attempt in range(policy.max_retries + 1):
                attempts += 1
                if attempt > 0:
                    retries += 1
                    t = t + policy.backoff_s(attempt)
                if not injector.link_available(clock_start + t):
                    t = t + probe_wait
                    continue
                if not feasible:
                    continue
                factor = injector.straggler_factor(round_index, cid, attempt)
                compute_s = policy.base_compute_s * state.slowdown[row] \
                    * factor
                attempt_s = down_s + compute_s + up_s
                lag = injector.staleness(round_index, cid, attempt)
                if compute_s > policy.straggler_cutoff_s:
                    outcome = OUT_CUT
                    t = t + down_s
                    wasted += model_bytes
                    sent += model_bytes
                    continue
                if attempt_s > policy.timeout_s:
                    outcome = OUT_TIMEOUT
                    t = t + policy.timeout_s
                    wasted += model_bytes
                    sent += model_bytes
                    continue
                if injector.drops_out(round_index, cid, attempt):
                    outcome = OUT_DROPOUT
                    t = t + policy.timeout_s
                    wasted += model_bytes
                    sent += model_bytes
                    continue
                if lag > policy.max_staleness:
                    outcome = OUT_STALE
                    t = t + attempt_s
                    wasted += 2 * model_bytes
                    sent += 2 * model_bytes
                    continue
                if injector.corrupts(round_index, cid, attempt):
                    outcome = OUT_CORRUPT
                    t = t + attempt_s
                    wasted += 2 * model_bytes
                    sent += 2 * model_bytes
                    continue
                if injector.upload_lost(round_index, cid, attempt):
                    outcome = OUT_LOST
                    t = t + attempt_s
                    wasted += 2 * model_bytes
                    sent += 2 * model_bytes
                    continue
                outcome = OUT_SUCCESS
                t = t + attempt_s
                up += model_bytes
                down += model_bytes
                sent += 2 * model_bytes
                break
            outcomes.append(outcome)
            lags.append(lag)
            attempts_out.append(attempts)
            retries_out.append(retries)
            ups.append(up)
            downs.append(down)
            wasteds.append(wasted)
            sents.append(sent)
            finishes.append(t)
    outcome = np.asarray(outcomes, dtype=np.int64)
    finish_s = np.asarray(finishes)
    return RoundDecisions(
        rows=rows, client_ids=client_ids, outcome=outcome,
        survived=outcome == OUT_SUCCESS,
        lag=np.asarray(lags, dtype=np.int64),
        attempts=np.asarray(attempts_out, dtype=np.int64),
        retries=np.asarray(retries_out, dtype=np.int64),
        up=np.asarray(ups, dtype=np.int64),
        down=np.asarray(downs, dtype=np.int64),
        wasted=np.asarray(wasteds, dtype=np.int64),
        sent=np.asarray(sents, dtype=np.int64),
        finish_s=finish_s, duration=float(finish_s.max()))
