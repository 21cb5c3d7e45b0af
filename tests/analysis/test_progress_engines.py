"""Progress analytics agree across all three engines (S3).

The analytics in :mod:`repro.analysis.progress` consume only
``wake_times`` / ``layer_times`` from a result, and the engines are
bit-identical on those — so curves, milestones, and front speeds must be
indistinguishable whether a run came from the reference engine, the
vectorised single-run engine, or a :class:`BatchedFastEngine` batch.
"""

from __future__ import annotations

import pytest

from repro.analysis.progress import (
    front_speed,
    initially_informed,
    milestones,
    progress_curve,
)
from repro.baselines import BGIBroadcast, RoundRobinBroadcast
from repro.core import KnownRadiusKP
from repro.sim import run_broadcast
from repro.sim.fast import run_broadcast_batch
from repro.topology import gnp_connected, path, uniform_complete_layered


def _algorithms(net):
    return [
        RoundRobinBroadcast(net.r),
        BGIBroadcast(net.r),
        KnownRadiusKP(net.r, max(1, net.radius)),
    ]


TOPOLOGIES = [
    pytest.param(lambda: path(17), id="path"),
    pytest.param(lambda: uniform_complete_layered(36, 4), id="layered"),
    pytest.param(lambda: gnp_connected(40, 0.15, seed=5), id="gnp"),
]


@pytest.mark.parametrize("make_net", TOPOLOGIES)
def test_progress_curves_identical_across_engines(make_net):
    net = make_net()
    for algorithm in _algorithms(net):
        reference = run_broadcast(net, algorithm, seed=11)
        macro = run_broadcast(net, algorithm, seed=11, engine="macro")
        batched = run_broadcast_batch(net, algorithm, seeds=[11])[0]
        curve = progress_curve(reference)
        assert progress_curve(macro) == curve
        assert progress_curve(batched) == curve
        assert curve[-1] == net.n


@pytest.mark.parametrize("make_net", TOPOLOGIES)
def test_milestones_and_front_speed_identical_across_engines(make_net):
    net = make_net()
    for algorithm in _algorithms(net):
        reference = run_broadcast(net, algorithm, seed=3)
        macro = run_broadcast(net, algorithm, seed=3, engine="macro")
        batched = run_broadcast_batch(net, algorithm, seeds=[3])[0]
        marks = milestones(reference)
        assert milestones(macro) == marks
        assert milestones(batched) == marks
        assert marks.full == reference.time
        speed = front_speed(reference)
        assert front_speed(macro) == speed
        assert front_speed(batched) == speed


def test_batched_trials_each_carry_their_own_curve():
    # Every trial of one batch is an independent run; its analytics must
    # match the corresponding single-run execution trial by trial.
    net = gnp_connected(30, 0.2, seed=2)
    algorithm = BGIBroadcast(net.r)
    seeds = [5, 6, 7, 8]
    batch = run_broadcast_batch(net, algorithm, seeds=seeds)
    for seed, batched in zip(seeds, batch):
        single = run_broadcast(net, algorithm, seed=seed, engine="macro")
        assert progress_curve(batched) == progress_curve(single)
        assert milestones(batched) == milestones(single)
        assert initially_informed(batched) == 1


def test_batched_single_node_degenerate_curve():
    # S1 regression through the batched path: a 1-node network completes
    # in zero slots on every engine, with empty curves and 0-slot
    # milestones.
    net = path(1)
    algorithm = RoundRobinBroadcast(net.r)
    batched = run_broadcast_batch(net, algorithm, seeds=[0, 1])
    for result in batched:
        assert result.completed and result.time == 0
        assert progress_curve(result) == []
        marks = milestones(result)
        assert (marks.half, marks.ninety, marks.full) == (0, 0, 0)
