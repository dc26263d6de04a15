"""The benchmark's seed-1 outputs, byte for byte (``snapshot.py``)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import snapshot

PINNED = json.loads(snapshot.SNAPSHOT.read_text(encoding="utf-8"))


def _flat(value, path=""):
    """{key path: repr of the leaf} of a parsed envelope."""
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            out.update(_flat(v, f"{path}.{k}" if path else k))
        return out
    if isinstance(value, list):
        out = {f"{path}[]": f"{len(value)} items"}
        for k, v in enumerate(value):
            out.update(_flat(v, f"{path}[{k}]"))
        return out
    return {path: repr(value)}


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    if np.__version__ != PINNED["numpy"]:
        pytest.skip(f"pinned under numpy {PINNED['numpy']}, running "
                    f"{np.__version__}")
    path = tmp_path_factory.mktemp("snapshot") / "current.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: "1" for var in snapshot.THREAD_VARS})
    subprocess.run([sys.executable, str(snapshot.HERE / "snapshot.py"),
                    "--out", str(path)], env=env, check=True)
    return json.loads(path.read_text(encoding="utf-8"))


def test_pins_the_six_commands():
    assert sorted(PINNED["commands"]) == sorted(
        label for label, *_ in snapshot.COMMANDS)


@pytest.mark.parametrize("label", [label for label, *_ in snapshot.COMMANDS])
def test_envelope_matches_snapshot(current, label):
    want, got = PINNED["commands"][label], current["commands"][label]
    assert got["config"] == want["config"]
    assert got["exit_code"] == want["exit_code"]
    w, g = _flat(want["envelope"]), _flat(got["envelope"])
    moved = [f"{key}: {w.get(key, '(absent)')} -> {g.get(key, '(absent)')}"
             for key in sorted(set(w) | set(g)) if w.get(key) != g.get(key)]
    assert not moved, f"{label}: {len(moved)} keys differ:\n" + \
        "\n".join(moved)
    # equal values, equal bytes: the text layout has not moved either
    assert got["envelope_sha256"] == want["envelope_sha256"]


@pytest.mark.parametrize("label", [label for label, _, _, csv
                                   in snapshot.COMMANDS if csv])
def test_csv_matches_snapshot(current, label):
    assert current["commands"][label]["csv_sha256"] == \
        PINNED["commands"][label]["csv_sha256"]
