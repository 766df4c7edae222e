"""Non-access-driven attack variants from the paper's taxonomy
(Section I): trace-driven and time-driven realisations of GRINCH.

Both read one encryption's S-box window through
:meth:`~repro.channel.ObservationChannel.window` — its hit/miss
sequence (trace-driven) or total latency (time-driven) — which
:func:`observe_window` computes; :class:`WindowObservation` carries
both signals.
"""

from ..channel.observer import WindowObservation, observe_window
from .time_driven import (
    CandidateScore,
    TimeDrivenAttack,
    TimingSegmentRecovery,
)
from .trace_driven import TraceDrivenAttack, TraceSegmentRecovery

__all__ = [
    "WindowObservation",
    "observe_window",
    "CandidateScore",
    "TimeDrivenAttack",
    "TimingSegmentRecovery",
    "TraceDrivenAttack",
    "TraceSegmentRecovery",
]
