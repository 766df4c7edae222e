"""The layered observation-channel stack.

Every way this reproduction *observes* the victim — same-core
Flush+Reload/Prime+Probe/Flush+Flush, the cross-core shared-L2 path,
lossy/jittered channels, and the trace-/time-driven signals — is built
from four layers:

* **L1 primitive** (:mod:`repro.channel.primitive`) — how residency is
  read out: :class:`FlushReload`, :class:`PrimeProbe`,
  :class:`FlushFlush`;
* **L2 transport** (:mod:`repro.channel.transport`) — which substrate
  the probe and the victim meet on: :class:`SingleLevelTransport`,
  :class:`SharedL2Transport`;
* **L3 degradation** (:mod:`repro.channel.degradation`) — composable
  loss/jitter/noise decorators: :class:`LossyChannel`,
  :class:`ProbeJitter`, :class:`NoiseModel`;
* **L4 observer** (:mod:`repro.channel.observer`) — the single API the
  attack, the variants and the engine consume:
  :class:`ObservationChannel`;
* **L4 defender** (:mod:`repro.channel.defender`) — the *other*
  first-class consumer of the stack: a performance-counter-style
  :class:`DefenderObserver` fed role-attributed counter deltas, read
  at role switches, through an :class:`ObservedTransport` tap (it sits
  just below the observer in the import order, since the observer
  composes it in).

Lower layers never import higher ones, and nothing in this package
imports :mod:`repro.core` or :mod:`repro.engine` — enforced by
``python -m repro.staticcheck.layering`` in CI.  See
``docs/architecture.md`` for the diagram and migration map.
"""

from .defender import (
    CounterDelta,
    DefenderObserver,
    DefenderReport,
    DetectionPolicy,
    ObservedTransport,
    WindowCounters,
    read_counters,
)
from .degradation import (
    LOSSLESS,
    NO_JITTER,
    NO_NOISE,
    LossyChannel,
    NoiseModel,
    ProbeJitter,
    jitter_from_platform,
)
from .monitor import SboxMonitor
from .observer import (
    ObservationChannel,
    WindowObservation,
    observe_window,
)
from .primitive import (
    PRIMITIVE_NAMES,
    FlushFlush,
    FlushReload,
    PrimeProbe,
    ProbePrimitive,
    ProbeSurface,
    make_primitive,
)
from .transport import (
    ATTACKER_CORE,
    VICTIM_CORE,
    CacheTransport,
    SharedL2Transport,
    SingleLevelTransport,
)

__all__ = [
    "CounterDelta",
    "DefenderObserver",
    "DefenderReport",
    "DetectionPolicy",
    "ObservedTransport",
    "WindowCounters",
    "read_counters",
    "LOSSLESS",
    "NO_JITTER",
    "NO_NOISE",
    "LossyChannel",
    "NoiseModel",
    "ProbeJitter",
    "jitter_from_platform",
    "SboxMonitor",
    "ObservationChannel",
    "WindowObservation",
    "observe_window",
    "PRIMITIVE_NAMES",
    "FlushFlush",
    "FlushReload",
    "PrimeProbe",
    "ProbePrimitive",
    "ProbeSurface",
    "make_primitive",
    "ATTACKER_CORE",
    "VICTIM_CORE",
    "CacheTransport",
    "SharedL2Transport",
    "SingleLevelTransport",
]
