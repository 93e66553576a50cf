"""The pipeline's outputs equal those recorded in tests/pinned_outputs.json.

``scripts/pin_outputs.py`` runs a fixed command set and records what it
prints and writes; this test reruns it and compares every pinned value under
one rule: a float to rel 1e-12 of its recorded value, the bound of
``test_solver.PINNED_METRICS``, and an int, bool or string exactly. Bytes are
not compared, because solver-side floats drift in the last bits between CPUs'
code paths. Only rerunning the script changes the manifest.
"""
import copy
import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "pin_outputs.py"
REL = 1e-12


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("pin_outputs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.fixture(scope="module")
def recorded(script):
    return json.loads(script.MANIFEST.read_text())


@pytest.fixture(scope="module")
def fresh(script):
    return script.record()


def _differences(recorded, got, at=""):
    """(key path, recorded value, value got, relative error or None) of every pinned value that moved."""
    if isinstance(recorded, dict) and isinstance(got, dict):
        for key in [*recorded, *(k for k in got if k not in recorded)]:
            yield from _differences(recorded.get(key), got.get(key), f"{at}.{key}" if at else key)
    elif isinstance(recorded, list) and isinstance(got, list) and len(recorded) == len(got):
        for i, (a, b) in enumerate(zip(recorded, got)):
            yield from _differences(a, b, f"{at}[{i}]")
    elif float in (type(recorded), type(got)) and {type(recorded), type(got)} <= {int, float}:
        rel = abs(got - recorded) / abs(recorded) if recorded else (0.0 if got == 0 else float("inf"))
        if not rel <= REL:
            yield at, recorded, got, rel
    elif type(recorded) is not type(got) or recorded != got:
        yield at, recorded, got, None


def _failures(recorded, fresh) -> list[str]:
    """One message per moved value: the command, the key path, both values, their relative error, both provenances."""
    messages = []
    for label in [*recorded["commands"], *(k for k in fresh["commands"] if k not in recorded["commands"])]:
        entry = recorded["commands"].get(label) or fresh["commands"][label]
        for at, a, b, rel in _differences(recorded["commands"].get(label), fresh["commands"].get(label)):
            error = "" if rel is None else f" (rel error {rel:.3g} > {REL:g})"
            messages.append(f"{label} [macrosim {' '.join(entry['argv'])}]: {at}: recorded {a!r}, got {b!r}{error}")
    if messages:
        messages.append(f"recorded on {recorded['provenance']}; running on {fresh['provenance']}")
    return messages


def test_outputs_equal_the_pinned_manifest(recorded, fresh):
    failures = _failures(recorded, fresh)
    assert not failures, "\n".join(failures)


def test_a_moved_number_is_named_with_its_command_path_values_error_and_provenances(recorded, fresh):
    moved = copy.deepcopy(recorded)
    sim = moved["commands"]["simulate cross"]["files"]["sim_cross.json"]
    sim["queue_length"] *= 1 + 1e-9
    got = fresh["commands"]["simulate cross"]["files"]["sim_cross.json"]["queue_length"]
    message, provenances = _failures(moved, fresh)
    assert message.startswith("simulate cross [macrosim simulate --network fixtures/cross.json ")
    assert message.endswith(f": files.sim_cross.json.queue_length: recorded {sim['queue_length']!r}, got {got!r} "
                            "(rel error 1e-09 > 1e-12)")
    assert provenances == f"recorded on {recorded['provenance']}; running on {fresh['provenance']}"

