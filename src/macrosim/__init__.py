"""Macroscopic road-network traffic simulation with signal-timing optimization."""

from .fundamental import FdParams, fit_fd, ideal_speed, invert_speed
from .metrics import CongestionMetrics, congestion_weight
from .network import RoadNetwork, load_network, save_network, turn_angle, turn_speed_factor, validate
from .signals import IntersectionSignal, decode, encode, sample_config
from .solver import SimParams, SimState, check_cfl, initialize, run, step, virtual_boundaries

__all__ = [
    "FdParams",
    "fit_fd",
    "ideal_speed",
    "invert_speed",
    "CongestionMetrics",
    "congestion_weight",
    "RoadNetwork",
    "load_network",
    "save_network",
    "turn_angle",
    "turn_speed_factor",
    "validate",
    "IntersectionSignal",
    "decode",
    "encode",
    "sample_config",
    "SimParams",
    "SimState",
    "check_cfl",
    "initialize",
    "run",
    "step",
    "virtual_boundaries",
]

__version__ = "0.1.0"
