"""The paper's algorithms: optimal randomized broadcasting (Section 2),
Echo/Binary-Selection (Section 4.1), Select-and-Send (Section 4.2) and
Complete-Layered (Section 4.3)."""

from .complete_layered import CompleteLayeredBroadcast
from .echo import (
    EchoOutcome,
    Probe,
    Selected,
    SelectionDriver,
    classify_echo,
    simulate_selection,
)
from .randomized import (
    KnownRadiusKP,
    OptimalRandomizedBroadcasting,
    StageTimetable,
    next_power_of_two,
)
from .select_and_send import SelectAndSend

__all__ = [
    "CompleteLayeredBroadcast",
    "EchoOutcome",
    "KnownRadiusKP",
    "OptimalRandomizedBroadcasting",
    "Probe",
    "Selected",
    "SelectionDriver",
    "SelectAndSend",
    "StageTimetable",
    "classify_echo",
    "next_power_of_two",
    "simulate_selection",
]
