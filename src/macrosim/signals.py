"""Traffic signal schedules and their encoding for optimization.

Each signalized intersection runs two complementary groups. Group A starts
RED, stays red for ``offset`` seconds, then alternates green for ``green``
seconds and red for ``red`` seconds forever; group B is always the opposite
of group A. Timings are integer seconds: red and green in [20, 54], offset
in [0, red + green - 1]. ``red_schedule`` states which stop lines are red when.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._files import Fields, naming, read_json, write_json

RED_GREEN_MIN = 20
RED_GREEN_MAX = 54


@dataclass(frozen=True)
class IntersectionSignal:
    """Signal timing of one intersection: red/green durations and group A's initial red offset."""

    red: int
    green: int
    offset: int

    def __post_init__(self):
        for name in ("red", "green", "offset"):
            if not isinstance(getattr(self, name), int):
                raise ValueError(f"IntersectionSignal.{name} must be an integer")
        for name in ("red", "green"):
            if not (RED_GREEN_MIN <= getattr(self, name) <= RED_GREEN_MAX):
                raise ValueError(f"{name} must be in [{RED_GREEN_MIN}, {RED_GREEN_MAX}], got {getattr(self, name)}")
        if not (0 <= self.offset <= self.red + self.green - 1):
            raise ValueError(
                f"offset must be in [0, {self.red + self.green - 1}], got {self.offset}"
            )

    @property
    def cycle(self) -> int:
        return self.red + self.green


def group_a_red(signal: IntersectionSignal, t):
    """Whether group A is red at time t seconds; t may be a scalar or an array of finite times >= 0."""
    t = np.asarray(t, dtype=float)
    bad = t[~((0 <= t) & (t < np.inf))]  # nan fails both comparisons
    if bad.size:
        raise ValueError(f"time must be finite and >= 0, got {bad[0]}")
    return (t < signal.offset) | ((t - signal.offset) % signal.cycle >= signal.green)


def signal_groups(net, config: dict | None) -> list[tuple[IntersectionSignal, tuple, tuple]]:
    """(signal, group A edges, group B edges) per signalized intersection, in sorted-id order.

    Checks config against net first: an unsignalized network accepts config
    None or {} (and yields nothing), a signalized one needs a configuration
    covering exactly its signalized intersections; a mismatch names the
    missing and unexpected ids.
    """
    ids = net.signalized_ids()
    if not ids:
        if config:
            raise ValueError("network has no signalized intersections but a configuration was given")
        return []
    if config is None:
        raise ValueError("network has signalized intersections; a signal configuration is required")
    missing, extra = sorted(set(ids) - set(config)), sorted(set(config) - set(ids))
    if missing or extra:
        parts = [f"{word} {names}" for word, names in (("missing", missing), ("unexpected", extra)) if names]
        raise ValueError("signal configuration does not match network: " + ", ".join(parts))
    return [(config[iid], net.intersections[iid].group_a, net.intersections[iid].group_b) for iid in ids]


def red_schedule(net, config: dict | None, times) -> np.ndarray:
    """Red stop lines at each clock of ``times``: a (len(times), len(net.edge_order)) bool array in net.edge_order.

    Group A is red as group_a_red says, group B is its complement, and an edge without a signal is never red;
    config is checked as in signal_groups.
    """
    index = {eid: i for i, eid in enumerate(net.edge_order)}
    red = np.zeros((len(times), len(index)), dtype=bool)
    for signal, group_a, group_b in signal_groups(net, config):
        a_red = group_a_red(signal, times)[:, None]
        red[:, [index[eid] for eid in group_a]] = a_red
        red[:, [index[eid] for eid in group_b]] = ~a_red
    return red


def edge_phases(net, config: dict | None, t: float) -> frozenset[str]:
    """The ids of the stop lines that are red at time t: the row of red_schedule at that clock."""
    return frozenset(eid for eid, red in zip(net.edge_order, red_schedule(net, config, [t])[0].tolist()) if red)


def varied_ids(net) -> tuple[str, ...]:
    """The signalized intersection ids, in sorted order, whose timings a configuration varies; none is refused."""
    ids = net.signalized_ids()
    if not ids:
        raise ValueError("network has no signalized intersections; nothing to vary")
    return ids


def sample_config(net, rng: np.random.Generator) -> dict:
    """Draw a uniform random configuration for every signalized intersection.

    Iterates intersections in sorted-id order and draws red, green, offset in
    that order, so a seeded generator gives a reproducible configuration.
    """
    config = {}
    for iid in varied_ids(net):
        red = int(rng.integers(RED_GREEN_MIN, RED_GREEN_MAX + 1))
        green = int(rng.integers(RED_GREEN_MIN, RED_GREEN_MAX + 1))
        offset = int(rng.integers(0, red + green))
        config[iid] = IntersectionSignal(red=red, green=green, offset=offset)
    return config


def encode_values(config: dict, ids) -> np.ndarray:
    """Encode a configuration as one [0, 1] triple (red, green, offset) per id."""
    span = RED_GREEN_MAX - RED_GREEN_MIN
    out = np.empty(3 * len(ids))
    for j, iid in enumerate(ids):
        sig = config[iid]
        out[3 * j] = (sig.red - RED_GREEN_MIN) / span
        out[3 * j + 1] = (sig.green - RED_GREEN_MIN) / span
        out[3 * j + 2] = sig.offset / (sig.cycle - 1)
    return out


def decode_values(vector: np.ndarray, ids) -> dict:
    """Inverse of encode_values, rounding to the integer timing lattice.

    Red and green are decoded first; the offset coordinate is then scaled by
    the decoded cycle, so its admissible range follows the decoded durations.
    A coordinate outside [0, 1], NaN among them, is refused by index and value.
    """
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (3 * len(ids),):
        raise ValueError(f"expected vector of length {3 * len(ids)}, got shape {vector.shape}")
    outside = np.flatnonzero(~((0 <= vector) & (vector <= 1)))  # nan fails both comparisons
    if outside.size:
        raise ValueError(f"encoded coordinate {outside[0]} must be in [0, 1], got {vector[outside[0]]}")
    span = RED_GREEN_MAX - RED_GREEN_MIN
    config = {}
    for j, iid in enumerate(ids):
        red = int(round(RED_GREEN_MIN + vector[3 * j] * span))
        green = int(round(RED_GREEN_MIN + vector[3 * j + 1] * span))
        offset = int(round(vector[3 * j + 2] * (red + green - 1)))
        config[iid] = IntersectionSignal(red=red, green=green, offset=offset)
    return config


def encode(config: dict, net) -> np.ndarray:
    """Encode over the network's signalized intersections in sorted-id order; config is checked as in signal_groups."""
    signal_groups(net, config)
    return encode_values(config, net.signalized_ids())


def decode(vector: np.ndarray, net) -> dict:
    """Decode a [0, 1] vector over the network's signalized intersections."""
    return decode_values(vector, net.signalized_ids())


def save_config(config: dict, path) -> None:
    doc = {iid: {"red": sig.red, "green": sig.green, "offset": sig.offset} for iid, sig in sorted(config.items())}
    write_json(doc, path)


def load_config(path) -> dict:
    """Read a configuration as written by save_config; timings must be integers (30.0 reads as 30).

    A malformed document or entry raises ValueError naming the file and the intersection.
    """
    doc = read_json(path)
    fields = Fields(path)
    config = {}
    for iid in doc:
        values = [fields(fields(doc, iid, dict), key, int, iid) for key in ("red", "green", "offset")]
        with naming(f"{path}: intersection {iid}"):
            config[iid] = IntersectionSignal(*values)
    return config
