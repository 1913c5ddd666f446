"""ECC warps against warps recorded before the alignment hot path was
rewritten (sliced integer-shift search, one bilinear gather per level
iteration).

`golden_warps.json` holds the `ecc_align` warp and correlation of the
consecutive frame pairs of a small rendered scenario with a moving
camera, of a few `textured_pair` seeds, and of a flat pair that raises.
The rewrite keeps the algorithm, so the warps must agree within 1e-9 px
at the frame corners and the correlations within 1e-12; a pair that
raised must raise the same error.

Re-record (only when a change is meant to alter the warps):
    PYTHONPATH=src python tests/test_golden_warps.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from motrack.alignment import AffineWarp, EccError, apply_points, ecc_align
from motrack.synth import generate, random_scenario, render_frames, textured_pair

FIXTURE = Path(__file__).with_name("golden_warps.json")

SCENARIO_SEED = 4
TEXTURED_SEEDS = (0, 3, 7, 21)


def frame_pairs() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    scenario = generate(
        random_scenario(SCENARIO_SEED, n_targets=3, frame_count=9, width=320.0, height=240.0),
        SCENARIO_SEED,
    )
    frames = render_frames(scenario, SCENARIO_SEED)
    pairs = {f"render-{f}": (frames[f - 1], frames[f]) for f in range(2, len(frames) + 1)}
    for seed in TEXTURED_SEEDS:
        prev, cur, _ = textured_pair(seed)
        pairs[f"textured-{seed}"] = (prev, cur)
    flat = np.full((64, 64), 128.0)
    pairs["flat"] = (flat, flat)
    return pairs


def align(prev: np.ndarray, cur: np.ndarray) -> dict:
    try:
        warp, corr = ecc_align(prev, cur)
    except EccError as exc:
        return {"error": type(exc).__name__}
    return {"warp": warp.matrix.tolist(), "correlation": corr}


def corners(shape: tuple[int, int]) -> np.ndarray:
    h, w = shape
    return np.array([[0.0, 0.0], [w - 1.0, 0.0], [0.0, h - 1.0], [w - 1.0, h - 1.0]])


PAIRS = frame_pairs()


@pytest.mark.parametrize("name", list(PAIRS))
def test_warp_matches_recorded(name):
    expected = json.loads(FIXTURE.read_text())[name]
    prev, cur = PAIRS[name]
    got = align(prev, cur)
    if "error" in expected:
        assert got == expected
        return
    assert "warp" in got, got
    pts = corners(prev.shape)
    diff = apply_points(AffineWarp(np.array(got["warp"])), pts) - apply_points(
        AffineWarp(np.array(expected["warp"])), pts
    )
    assert np.abs(diff).max() <= 1e-9
    assert abs(got["correlation"] - expected["correlation"]) <= 1e-12


if __name__ == "__main__":
    record = {name: align(prev, cur) for name, (prev, cur) in PAIRS.items()}
    lines = [f"{json.dumps(name)}: {json.dumps(value)}" for name, value in record.items()]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {FIXTURE}")
