"""repro — Broadcasting in undirected ad hoc radio networks.

A complete, executable reproduction of Kowalski & Pelc (PODC 2003 /
Distributed Computing 2005):

* :mod:`repro.sim` — the synchronous radio model (collision = silence, no
  collision detection, no spontaneous transmissions) with six
  bit-identical engines behind one driver, :func:`~repro.sim.simulate`;
* :mod:`repro.core` — the paper's algorithms: the optimal randomized
  broadcast of Theorem 1, Echo/Binary-Selection, Select-and-Send
  (Theorem 3), and Complete-Layered (Theorem 4);
* :mod:`repro.adversary` — the Section 3 lower bound as an executable
  construction: build ``G_A`` against any deterministic algorithm and
  verify the abstract/real history equivalence of Lemma 9;
* :mod:`repro.baselines` — BGI Decay, round-robin, selective-family
  schedules, interleaving, known-neighbourhood DFS and a centralized
  scheduler;
* :mod:`repro.topology`, :mod:`repro.combinatorics`,
  :mod:`repro.analysis` — generators, universal sequences and selective
  families, and measurement utilities.

Quickstart::

    from repro import run_broadcast, topology
    from repro.core import OptimalRandomizedBroadcasting

    net = topology.random_geometric(200, seed=7)
    result = run_broadcast(net, OptimalRandomizedBroadcasting(net.r), seed=1)
    print(result.time, result.completed)
"""

from . import analysis, baselines, combinatorics, core, sim, topology
from .sim import (
    BroadcastAlgorithm,
    BroadcastResult,
    FaultPlan,
    Message,
    Protocol,
    RadioNetwork,
    SynchronousEngine,
    TraceLevel,
    repeat_broadcast,
    run_broadcast,
    simulate,
)

__version__ = "1.0.0"

__all__ = [
    "BroadcastAlgorithm",
    "BroadcastResult",
    "FaultPlan",
    "Message",
    "Protocol",
    "RadioNetwork",
    "SynchronousEngine",
    "TraceLevel",
    "__version__",
    "analysis",
    "baselines",
    "combinatorics",
    "core",
    "repeat_broadcast",
    "run_broadcast",
    "simulate",
    "sim",
    "topology",
]
