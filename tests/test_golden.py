"""Tracker output against outputs recorded before the Kalman filter was
batched over tracks.

`golden_tracks.json` holds `finalize` output of two seeded scenarios: an
oscillating camera with many reconnections and fills, and a short
reconnection cap so tracks expire. Batched float order may differ from
the per-track arithmetic at ULP level, so ids, frames and confidences
must match exactly and boxes within 1e-6 px.

Re-record (only when a change is meant to alter output):
    PYTHONPATH=src python tests/test_golden.py
"""

import json
import logging
from pathlib import Path

import pytest

from motrack.config import TrackerConfig
from motrack.pipeline import Tracker
from motrack.synth import generate, random_scenario

FIXTURE = Path(__file__).with_name("golden_tracks.json")

# name -> (seed, n_targets, frame_count, config)
SCENARIOS = {
    "reconnect-warp": (5, 6, 60, TrackerConfig()),
    "expiry": (12, 8, 60, TrackerConfig(l_max=6.0)),
}


def run_scenario(name: str) -> dict[str, list[list[float]]]:
    """{track id: [[frame, x1, y1, x2, y2, confidence], ...]}."""
    seed, n_targets, frame_count, config = SCENARIOS[name]
    scenario = generate(random_scenario(seed, n_targets, frame_count), seed)
    tracker = Tracker(config=config, frame_size=scenario.frame_size)
    for packet in scenario.packets():
        tracker.step(packet)
    return {
        str(t.track_id): [
            [f, b.x1, b.y1, b.x2, b.y2, t.confidences[f]] for f, b in t.history.items()
        ]
        for t in tracker.finalize()
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_output_matches_recorded(name):
    expected = json.loads(FIXTURE.read_text())[name]
    got = run_scenario(name)
    assert list(got) == list(expected)
    for tid, rows in expected.items():
        assert [r[0] for r in got[tid]] == [r[0] for r in rows], tid
        assert [r[5] for r in got[tid]] == [r[5] for r in rows], tid
        for g, e in zip(got[tid], rows):
            assert max(abs(a - b) for a, b in zip(g[1:5], e[1:5])) <= 1e-6, (tid, g[0])


if __name__ == "__main__":
    logging.disable(logging.WARNING)
    record = {name: run_scenario(name) for name in sorted(SCENARIOS)}
    with FIXTURE.open("w") as fh:
        fh.write("{\n")
        for i, (name, tracks) in enumerate(record.items()):
            fh.write(f'"{name}": {{\n')
            lines = [f'"{tid}": {json.dumps(rows)}' for tid, rows in tracks.items()]
            fh.write(",\n".join(lines))
            fh.write("\n}" + (",\n" if i + 1 < len(record) else "\n"))
        fh.write("}\n")
    print(f"wrote {FIXTURE}")
