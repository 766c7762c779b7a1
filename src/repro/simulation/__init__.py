"""Discrete-event simulation substrate: event loop and message network.

The network has one flat latency model.  The WAN latency of a geo
cluster is not the network's: ``ClusterConfig.regions`` and
``wan_seconds`` declare it, and the engine adds it to digest delivery.
"""

from repro.simulation.events import EventHandle, EventLoop
from repro.simulation.network import LatencyModel, SimNetwork

__all__ = ["EventHandle", "EventLoop", "LatencyModel", "SimNetwork"]
