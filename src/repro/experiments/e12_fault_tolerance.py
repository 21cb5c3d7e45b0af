"""E12 — Fault tolerance: broadcasting under crashes, jamming, loss and
adversarial wake-up delays.

The paper's model is pristine — its only adversary is the topology (and,
in Section 3, the jamming adversary *inside* the lower-bound proof).
This experiment turns the fault layer of :mod:`repro.sim.faults` on the
paper's algorithms and checks the semantics end to end:

* an empty plan is exactly the pristine execution;
* a crash on the unique source-to-node path leaves the far side
  uninformed forever (the run settles incomplete);
* message loss degrades broadcasting time monotonically;
* a jam window on a receiver delays its wake past the window, and an
  adversarial wake-up delay acts as a completion-time floor;
* all three engines (reference, macro, batched) produce bit-identical
  faulty executions — wake times and fault counters alike.
"""

from __future__ import annotations

from ..analysis import render_table, summarize
from ..baselines import BGIBroadcast, RoundRobinBroadcast
from ..sim import FaultPlan, repeat_broadcast, run_broadcast
from ..sim.fast import run_broadcast_batch
from ..topology import gnp_connected, path
from .base import ExperimentReport, register


def _mean_time(net, algorithm, faults, runs: int, max_steps: int) -> float:
    results = repeat_broadcast(
        net,
        algorithm,
        runs=runs,
        max_steps=max_steps,
        require_completion=False,
        faults=faults,
    )
    return summarize([r.time for r in results]).mean


@register("e12")
def run(quick: bool = False) -> ExperimentReport:
    report = ExperimentReport(
        "e12", "Fault injection: crashes, jamming, loss, wake delays"
    )
    n = 16 if quick else 32
    runs = 10 if quick else 25
    line = path(n)
    max_steps = 64 * n * n

    # --- Empty plan is inert ------------------------------------------
    rr = RoundRobinBroadcast(line.r)
    pristine = run_broadcast(line, rr, seed=1, max_steps=max_steps)
    inert = run_broadcast(
        line, rr, seed=1, max_steps=max_steps, faults=FaultPlan()
    )
    report.check(
        "an empty fault plan reproduces the pristine execution exactly",
        pristine.wake_times == inert.wake_times
        and pristine.time == inert.time
        and inert.fault_counters is not None
        and inert.fault_counters.to_dict()
        == {"crashed_nodes": 0, "jammed_slots": 0,
            "lost_messages": 0, "delayed_wakes": 0},
        f"time {pristine.time} vs {inert.time}",
    )

    # --- A crash on the unique path partitions the broadcast ----------
    cut = n // 2
    crashed = run_broadcast(
        line, rr, seed=1, max_steps=max_steps,
        faults=FaultPlan(crashes=((cut, 0),)),
    )
    report.check(
        "crashing a path node at slot 0 leaves every node behind it uninformed",
        (not crashed.completed)
        and crashed.informed == cut
        and crashed.fault_counters.crashed_nodes == 1,
        f"informed {crashed.informed}/{n} with node {cut} crashed",
    )

    # --- Loss probability degrades time monotonically -----------------
    loss_rows = []
    means = []
    for p in (0.0, 0.3, 0.6):
        plan = FaultPlan(loss_probability=p, seed=5) if p else None
        mean = _mean_time(line, rr, plan, runs, max_steps)
        means.append(mean)
        loss_rows.append([f"{p:.1f}", f"{mean:.1f}"])
    report.add_table(
        render_table(
            ["loss probability", f"mean time over {runs} trials (path n={n})"],
            loss_rows,
        )
    )
    report.check(
        "broadcasting time grows monotonically with message-loss probability",
        means[0] <= means[1] <= means[2] and means[0] < means[2],
        " -> ".join(f"{m:.1f}" for m in means),
    )

    # --- Jam window and wake-delay floors -----------------------------
    window = 4 * n
    jam_plan = FaultPlan(jams=tuple((slot, 1) for slot in range(window)))
    jammed = run_broadcast(line, rr, seed=1, max_steps=max_steps, faults=jam_plan)
    delay_plan = FaultPlan(wake_delays=((1, window),))
    delayed = run_broadcast(line, rr, seed=1, max_steps=max_steps, faults=delay_plan)
    report.check(
        "jamming a receiver for a window delays its wake past the window",
        jammed.completed and jammed.wake_times[1] >= window,
        f"node 1 woke at slot {jammed.wake_times.get(1)} (window {window})",
    )
    report.check(
        "an adversarial wake-up delay is a floor on the node's wake slot",
        delayed.completed
        and delayed.wake_times[1] >= window
        and delayed.time >= window,
        f"node 1 woke at slot {delayed.wake_times.get(1)}, time {delayed.time}",
    )

    # --- Three-engine parity under a nontrivial plan ------------------
    net = gnp_connected(24 if quick else 40, 0.2, seed=4)
    bgi = BGIBroadcast(net.r)
    plan = FaultPlan(
        crashes=((3, 6), (7, 2)),
        jams=tuple((slot, 5) for slot in range(8)),
        loss_probability=0.25,
        wake_delays=((9, 10),),
        seed=17,
    )
    parity = True
    details = []
    batch = run_broadcast_batch(
        net, bgi, trials=3, base_seed=0, max_steps=max_steps, faults=plan
    )
    for trial, seed in enumerate((0, 1, 2)):
        ref = run_broadcast(net, bgi, seed=seed, max_steps=max_steps, faults=plan)
        macro = run_broadcast(
            net, bgi, seed=seed, max_steps=max_steps, faults=plan, engine="macro"
        )
        same = (
            ref.wake_times == macro.wake_times == batch[trial].wake_times
            and ref.time == macro.time == batch[trial].time
            and ref.fault_counters
            == macro.fault_counters
            == batch[trial].fault_counters
        )
        parity &= same
        details.append(f"seed {seed}: {'ok' if same else 'MISMATCH'}")
    report.check(
        "reference, macro, and batched engines agree bit-for-bit under faults",
        parity,
        "; ".join(details),
    )
    return report
