"""Self-healing control plane over a :class:`~repro.serve.fleet.
ShardedFleet`: backoff-scheduled health probes with permanent-loss
decommissioning, and per-tick SLO gauges.

The fleet is mechanism — eject, probe, re-admit, decommission, route.
This package is the policy loop that calls those primitives so ejected
shards come back (or are replaced) without an operator.  The prober
exposes a deterministic ``tick(now)`` core for forged-clock unit tests;
the :class:`ControlPlane` facade runs it, optionally on a real
background thread.
"""

from .plane import ControlConfig, ControlPlane, ControlStats
from .prober import HealthProber

__all__ = ["HealthProber", "ControlConfig", "ControlPlane", "ControlStats"]
