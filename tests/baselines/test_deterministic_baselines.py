"""Round-robin, selective-family, interleaved, known-neighbour DFS and
centralized baselines."""

from __future__ import annotations

import math

import pytest

from repro.baselines.centralized import CentralizedGreedySchedule, greedy_broadcast_schedule
from repro.baselines.interleaved import InterleavedBroadcast
from repro.baselines.known_neighbors import KnownNeighborsDFS
from repro.baselines.round_robin import RoundRobinBroadcast
from repro.baselines.selective_schedule import SelectiveFamilyBroadcast
from repro.core.select_and_send import SelectAndSend
from repro.sim import run_broadcast
from repro.sim.errors import ConfigurationError
from repro.topology import gnp_connected, grid, path, random_tree, star, uniform_complete_layered


class TestRoundRobin:
    def test_sorted_path_pipelines_one_hop_per_slot(self):
        net = path(10)
        result = run_broadcast(net, RoundRobinBroadcast(net.r))
        assert result.time == 9  # labels in BFS order: perfect pipeline

    def test_nd_bound(self):
        for net in [path(20, relabel="shuffled", seed=2), grid(5, 5), star(15)]:
            result = run_broadcast(net, RoundRobinBroadcast(net.r))
            assert result.completed
            assert result.time <= (net.r + 1) * net.radius + net.r + 1

    def test_completes_on_zoo(self, topology_zoo):
        for name, net in topology_zoo.items():
            assert run_broadcast(net, RoundRobinBroadcast(net.r)).completed, name


class TestSelectiveFamily:
    def test_random_variant_completes(self, topology_zoo):
        for name, net in topology_zoo.items():
            algo = SelectiveFamilyBroadcast(net.r, "random", seed=1)
            assert run_broadcast(net, algo).completed, name

    def test_kautz_singleton_variant_completes(self):
        net = gnp_connected(25, 0.25, seed=2)
        algo = SelectiveFamilyBroadcast(net.r, "kautz-singleton", max_scale=8)
        assert run_broadcast(net, algo).completed

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            SelectiveFamilyBroadcast(31, "magic")

    def test_cycle_contains_full_set(self):
        algo = SelectiveFamilyBroadcast(15, "random", seed=0)
        bounds = algo._offsets.tolist()
        rows = [algo._members[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
        assert list(range(16)) in rows

    def test_fast_and_reference_agree(self):
        net = grid(4, 4)
        algo = SelectiveFamilyBroadcast(net.r, "random", seed=3)
        assert run_broadcast(net, algo).time == run_broadcast(net, algo, engine="macro").time


class TestInterleaved:
    def test_completes_both_orders(self):
        net = grid(5, 5)
        rr = RoundRobinBroadcast(net.r)
        ss = SelectAndSend()
        for algo in [InterleavedBroadcast(rr, ss), InterleavedBroadcast(ss, rr)]:
            result = run_broadcast(net, algo, require_completion=True)
            assert result.completed

    def test_time_about_twice_the_faster(self):
        """Interleaving costs at most ~2x the faster component."""
        for net in [path(24), star(24), random_tree(40, seed=2)]:
            rr_time = run_broadcast(net, RoundRobinBroadcast(net.r)).time
            ss_time = run_broadcast(net, SelectAndSend()).time
            both = run_broadcast(
                net, InterleavedBroadcast(RoundRobinBroadcast(net.r), SelectAndSend())
            ).time
            assert both <= 2 * min(rr_time, ss_time) + 2

    def test_deterministic_flag_propagates(self):
        from repro.baselines.bgi import BGIBroadcast

        det = InterleavedBroadcast(RoundRobinBroadcast(7), SelectAndSend())
        assert det.deterministic
        mixed = InterleavedBroadcast(RoundRobinBroadcast(7), BGIBroadcast(7))
        assert not mixed.deterministic

    def test_min_d_log_n_bound(self):
        """The paper's O(n min(D, log n)) claim, with a generous constant."""
        for net in [path(40), star(40), grid(6, 6)]:
            algo = InterleavedBroadcast(RoundRobinBroadcast(net.r), SelectAndSend())
            time = run_broadcast(net, algo, require_completion=True).time
            bound = 14 * net.n * min(net.radius, math.log2(net.n))
            assert time <= bound, (net.describe(), time, bound)


class TestKnownNeighborsDFS:
    def test_completes_in_linear_steps(self, topology_zoo):
        for name, net in topology_zoo.items():
            result = run_broadcast(net, KnownNeighborsDFS(net))
            assert result.completed, name
            assert result.time <= 2 * net.n + 2, name

    def test_token_carries_dfs(self):
        net = path(12)
        result = run_broadcast(net, KnownNeighborsDFS(net))
        assert result.time == 11  # straight descent down the path


class TestCentralized:
    def test_schedule_informs_everyone_when_replayed(self, topology_zoo):
        for name, net in topology_zoo.items():
            algo = CentralizedGreedySchedule(net)
            result = run_broadcast(net, algo)
            assert result.completed, name
            assert result.time <= algo.schedule_length

    def test_schedule_shorter_than_n(self, topology_zoo):
        for name, net in topology_zoo.items():
            schedule = greedy_broadcast_schedule(net)
            assert len(schedule) <= net.n, name

    def test_fast_and_reference_agree(self):
        net = uniform_complete_layered(50, 5)
        algo = CentralizedGreedySchedule(net)
        assert run_broadcast(net, algo).time == run_broadcast(net, algo, engine="macro").time

    def test_near_optimal_on_star(self):
        net = star(30)
        algo = CentralizedGreedySchedule(net)
        assert algo.schedule_length == 1
