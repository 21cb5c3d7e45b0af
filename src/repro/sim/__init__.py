"""Radio-network simulation substrate.

Implements the synchronous radio model of Kowalski & Pelc (Section 1.3):
collision-as-silence, half-duplex nodes, no collision detection, no
spontaneous transmissions, labels in ``{0..r}`` with only the own label and
``r`` known a priori.
"""

from .batched_event import BatchedEventEngine
from .channel import ChannelKernel
from .coins import CoinSource, NodeRandom, coin_uniform
from .driver import ENGINES, EngineSpec, simulate
from .engine import SynchronousEngine
from .event import EventDrivenEngine
from .errors import (
    BroadcastIncompleteError,
    ConfigurationError,
    NetworkError,
    ProtocolViolationError,
    SimulationError,
)
from .fast import (
    ASLEEP,
    BatchedFastEngine,
    VectorizedAlgorithm,
    run_broadcast_batch,
)
from .faults import FaultCounters, FaultPlan, derive_fault_seed
from .guard import check_memory_budget
from .macro import (
    MacroPlan,
    MacroStepEngine,
    resolve_macro_backend,
    run_broadcast_macro,
)
from .messages import Message, SOURCE_PAYLOAD, source_message
from .network import RadioNetwork
from .protocol import BroadcastAlgorithm, ObliviousTransmitter, Protocol, QUIET_FOREVER
from .run import (
    BroadcastResult,
    default_max_steps,
    derive_node_rng,
    derive_trial_seeds,
    repeat_broadcast,
    run_broadcast,
)
from .serialization import (
    load_network,
    load_result,
    save_network,
    save_result,
)
from .trace import StepRecord, Trace, TraceLevel

__all__ = [
    "ASLEEP",
    "BatchedEventEngine",
    "BatchedFastEngine",
    "BroadcastAlgorithm",
    "BroadcastIncompleteError",
    "BroadcastResult",
    "ChannelKernel",
    "CoinSource",
    "ConfigurationError",
    "ENGINES",
    "EngineSpec",
    "EventDrivenEngine",
    "FaultCounters",
    "FaultPlan",
    "MacroPlan",
    "MacroStepEngine",
    "NodeRandom",
    "Message",
    "NetworkError",
    "ObliviousTransmitter",
    "Protocol",
    "ProtocolViolationError",
    "QUIET_FOREVER",
    "RadioNetwork",
    "SOURCE_PAYLOAD",
    "SimulationError",
    "StepRecord",
    "SynchronousEngine",
    "Trace",
    "load_network",
    "load_result",
    "save_network",
    "save_result",
    "TraceLevel",
    "VectorizedAlgorithm",
    "check_memory_budget",
    "coin_uniform",
    "default_max_steps",
    "derive_fault_seed",
    "derive_node_rng",
    "derive_trial_seeds",
    "repeat_broadcast",
    "resolve_macro_backend",
    "run_broadcast",
    "run_broadcast_batch",
    "run_broadcast_macro",
    "simulate",
    "source_message",
]
