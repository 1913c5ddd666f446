import argparse
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import motrack
from motrack.bench import FillRow, GatingRow, bench_filling, fill_means, write_csv
from motrack.cli import _add_config_flags, _config_from_args, build_parser, main
from motrack.config import TrackerConfig
from motrack.evaluation import (
    evaluate,
    evaluate_many,
    trajectories_from_tracks,
)
from motrack.geometry import BoundingBox, Detection
from motrack.mot_files import (
    read_detections,
    read_tracks,
    write_detections,
    write_tracks,
    write_trajectories,
)
from motrack.pipeline import FramePacket, Tracker
from motrack.synth import (
    CameraSpec,
    ScenarioSpec,
    TargetSpec,
    generate,
    occlusion_scenario,
    random_scenario,
    render_frames,
)
from motrack.tracks import TrackRecord


def box(x, y, w=50.0, h=100.0):
    return BoundingBox(x, y, x + w, y + h)


def test_every_export_resolves_once():
    # `import motrack` still succeeds with a stale __all__ entry; only a
    # star import fails on it.
    exported = motrack.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(motrack, name)] == []


# ------------------------------------------------------------------ MOT files


FIXTURE = """1,1,100.00,200.00,50.00,100.00,1.00,-1,-1,-1
1,2,400.00,180.00,60.00,110.00,0.90,-1,-1,-1
2,1,104.00,200.00,50.00,100.00,1.00,-1,-1,-1
2,2,395.00,180.00,60.00,110.00,0.90,-1,-1,-1
3,1,108.00,200.00,50.00,100.00,-1.00,-1,-1,-1
"""

ALL_READERS = (read_detections, read_tracks)


def test_read_mot_fixture(tmp_path):
    path = tmp_path / "gt.txt"
    path.write_text(FIXTURE)
    tracks = read_tracks(path)
    assert {tid: sorted(history) for tid, history in tracks.items()} == {
        1: [1, 2, 3],
        2: [1, 2],
    }
    assert tracks[1][1] == box(100.0, 200.0, 50.0, 100.0)
    assert tracks[2][1] == box(400.0, 180.0, 60.0, 110.0)
    packets = read_detections(path)
    assert [[d.confidence for d in p.detections] for p in packets] == [
        [1.0, 0.9],
        [1.0, 0.9],
        [0.0],  # the fill marker, conf = -1, clamped into [0, 1]
    ]


def test_read_mot_skips_blank_lines(tmp_path):
    path = tmp_path / "gt.txt"
    path.write_text("1,1,10,10,5,5,1\n\n  \n2,1,11,10,5,5,1\n")
    assert sorted(read_tracks(path)[1]) == [1, 2]
    assert [len(p.detections) for p in read_detections(path)] == [1, 1]


def test_read_mot_seven_field_minimum(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1,1,10,10,5,5,1\n1,2,3\n")
    for reader in ALL_READERS:
        with pytest.raises(ValueError, match="bad.txt:2"):
            reader(path)


def test_read_mot_non_numeric_field(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1,1,10,10,5,5,1\n2,1,x,10,5,5,1\n")
    for reader in ALL_READERS:
        with pytest.raises(ValueError, match=":2:"):
            reader(path)


def test_read_mot_rejects_non_positive_size(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1,1,10,10,0,5,1\n")
    for reader in ALL_READERS:
        with pytest.raises(ValueError, match=":1:"):
            reader(path)


def test_read_detections_gap_frames_come_back_empty(tmp_path):
    path = tmp_path / "det.txt"
    path.write_text("1,-1,10,10,5,5,0.9\n4,-1,12,10,5,5,0.8\n")
    packets = read_detections(path)
    assert [p.frame for p in packets] == [1, 2, 3, 4]
    assert [len(p.detections) for p in packets] == [1, 0, 0, 1]


def test_read_detections_clamps_confidence(tmp_path):
    path = tmp_path / "det.txt"
    path.write_text("1,-1,10,10,5,5,3.7\n1,-1,30,10,5,5,-0.4\n")
    confs = [d.confidence for d in read_detections(path)[0].detections]
    assert confs == [1.0, 0.0]


@pytest.mark.parametrize("field", ["inf", "-inf", "nan"])
def test_read_detections_rejects_non_finite_boxes(tmp_path, field):
    path = tmp_path / "det.txt"
    path.write_text(f"1,-1,10,10,5,5,0.9\n2,-1,100,100,{field},100,0.9\n")
    with pytest.raises(ValueError, match=":2: non-finite box"):
        read_detections(path)


def test_read_detections_refuses_a_box_beyond_the_limit(tmp_path):
    path = tmp_path / "det.txt"
    path.write_text("1,-1,10,10,5,5,0.9\n2,-1,0,0,10,1e160,0.9\n")
    with pytest.raises(ValueError, match=r"det\.txt:2: .*reaches beyond"):
        read_detections(path)


def test_read_detections_empty_file(tmp_path):
    path = tmp_path / "det.txt"
    path.write_text("")
    assert read_detections(path) == []


def test_tracker_output_file_marks_fills(tmp_path):
    packets = []
    for f in range(1, 21):
        dets = []
        if not 8 <= f <= 12:
            b = box(100.0 + 4.0 * f, 200.0)
            dets.append(Detection(b, 0.9, f))
        packets.append(FramePacket(frame=f, detections=dets))
    tracker = Tracker(frame_size=(960.0, 540.0))
    for p in packets:
        tracker.step(p)
    path = tmp_path / "res.txt"
    write_tracks(tracker.finalize(), path)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert len(rows) == 20
    assert {int(row[0]) for row in rows if float(row[6]) == -1.0} == {8, 9, 10, 11, 12}


# Each bad line follows a good one, "1,1,10,10,5,5,1", so every refusal
# must name line 2 of its file.
REFUSED_LINES = [
    ("few-fields", "1,2,3", ALL_READERS),
    ("non-numeric", "2,1,x,10,5,5,1", ALL_READERS),
    ("frame-zero", "0,1,10,10,5,5,1", ALL_READERS),
    ("frame-inf", "inf,1,10,10,5,5,1", ALL_READERS),
    ("frame-overflow", "1e400,1,10,10,5,5,1", ALL_READERS),
    ("frame-nan", "nan,1,10,10,5,5,1", ALL_READERS),
    ("id-inf", "2,-inf,10,10,5,5,1", ALL_READERS),
    ("id-nan", "2,nan,10,10,5,5,1", ALL_READERS),
    ("x-inf", "2,1,inf,10,5,5,1", ALL_READERS),
    ("h-nan", "2,1,10,10,5,nan,1", ALL_READERS),
    ("width-zero", "2,1,10,10,0,5,1", ALL_READERS),
    ("height-negative", "2,1,10,10,5,-5,1", ALL_READERS),
    # x + w rounds back to x: no box to build, though each field passes.
    ("box-collapses", "2,1,1e20,10,5,5,1", (read_detections, read_tracks)),
    ("confidence-nan", "2,-1,10,10,5,5,nan", (read_detections,)),
    ("duplicate-id-frame", "1,1,90,10,5,5,1", (read_tracks,)),
]


@pytest.mark.parametrize(
    "reader, line",
    [
        pytest.param(reader, line, id=f"{reader.__name__}-{name}")
        for name, line, readers in REFUSED_LINES
        for reader in readers
    ],
)
def test_readers_refuse_bad_lines_naming_path_and_line(tmp_path, reader, line):
    path = tmp_path / "bad.txt"
    path.write_text(f"1,1,10,10,5,5,1\n{line}\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2: "):
        reader(path)


def test_detection_files_may_repeat_their_id(tmp_path):
    path = tmp_path / "det.txt"
    path.write_text("1,-1,10,10,5,5,0.9\n1,-1,10,10,5,5,0.9\n")
    assert len(read_detections(path)[0].detections) == 2


mot_boxes = st.builds(
    box, st.floats(-1e4, 1e4), st.floats(-1e4, 1e4), st.floats(0.5, 1e3), st.floats(0.5, 1e3)
)


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.integers(1, 10**6),
        st.dictionaries(st.integers(1, 10**5), mot_boxes, min_size=1, max_size=5),
        max_size=5,
    )
)
def test_write_read_round_trip_within_rounding(tmp_path_factory, trajectories):
    path = tmp_path_factory.mktemp("mot") / "gt.txt"
    write_trajectories(trajectories, path)
    back = read_tracks(path)
    assert {tid: set(h) for tid, h in back.items()} == {
        tid: set(h) for tid, h in trajectories.items()
    }
    for tid, history in trajectories.items():
        for f, b in history.items():
            got = back[tid][f]
            # Rounding to 2 decimals, plus the float error of x + w - x.
            assert abs(got.x1 - b.x1) <= 0.005 + 1e-9
            assert abs(got.y1 - b.y1) <= 0.005 + 1e-9
            assert abs(got.width - b.width) <= 0.005 + 1e-9
            assert abs(got.height - b.height) <= 0.005 + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.tuples(mot_boxes, st.floats(0.0, 1.0)), max_size=4), max_size=8))
def test_detections_round_trip_keeps_frames_counts_and_confidences(
    tmp_path_factory, frames
):
    packets = [
        FramePacket(f, [Detection(b, conf, f) for b, conf in dets])
        for f, dets in enumerate(frames, start=1)
    ]
    path = tmp_path_factory.mktemp("mot") / "det.txt"
    write_detections(packets, path)
    back = read_detections(path)
    # Frames after the last detection are not in the file.
    last = max((p.frame for p in packets if p.detections), default=0)
    assert [p.frame for p in back] == list(range(1, last + 1))
    assert [len(p.detections) for p in back] == [len(p.detections) for p in packets[:last]]
    for read_back, written in zip(back, packets):
        for got, det in zip(read_back.detections, written.detections):
            assert got.frame == det.frame
            assert 0.0 <= got.confidence <= 1.0
            assert abs(got.confidence - det.confidence) <= 0.005 + 1e-12


def pinned_tracks():
    a = TrackRecord(track_id=7, start_frame=2)
    a.commit(3, box(-12.345, -0.004, 50.125, 100.675), 0.905)
    a.commit(2, box(1234567.891, 987654.3215, 60.0, 120.5), 1.0)
    a.commit_fill(4, box(-0.001, 2.675, 0.015, 0.005))
    b = TrackRecord(track_id=2, start_frame=3)
    b.commit(3, box(0.125, 0.375, 33.3333, 44.4444), 0.5)
    b.commit(5, box(-1e6, -2e6, 3e5, 4e5), 0.004)
    return [a, b]


PINNED_TRAJECTORIES = {
    9: {2: box(-3.14159, 2.005, 10.0, 20.0), 1: box(1e6 + 0.125, -0.0049, 7.775, 8.885)},
    4: {2: box(0.0, 0.0, 1.0, 1.0), 3: box(-999999.995, 5.5, 0.01, 0.02)},
}

PINNED_PACKETS = [
    FramePacket(
        1,
        [
            Detection(box(-5.5, 10.125, 40.0, 80.0), 0.905, 1),
            Detection(box(1e6, 2e6, 12.345, 67.895), 0.0, 1),
        ],
    ),
    FramePacket(2, []),
    FramePacket(3, [Detection(box(-0.003, -0.005, 0.015, 0.025), 1.0, 3)]),
]


def test_writers_keep_their_bytes(tmp_path):
    """Negative and -0.00 values, .xx5 ties, 1e6-scale coordinates, fill
    confidence -1 and confidence 0.905, written byte for byte as before."""
    path = tmp_path / "out.txt"
    write_tracks(pinned_tracks(), path)
    assert path.read_text() == (
        "2,7,1234567.89,987654.32,60.00,120.50,1.00,-1,-1,-1\n"
        "3,2,0.12,0.38,33.33,44.44,0.50,-1,-1,-1\n"
        "3,7,-12.35,-0.00,50.12,100.67,0.91,-1,-1,-1\n"
        "4,7,-0.00,2.67,0.01,0.00,-1.00,-1,-1,-1\n"
        "5,2,-1000000.00,-2000000.00,300000.00,400000.00,0.00,-1,-1,-1\n"
    )
    write_trajectories(PINNED_TRAJECTORIES, path)
    assert path.read_text() == (
        "1,9,1000000.12,-0.00,7.78,8.88,1.00,-1,-1,-1\n"
        "2,4,0.00,0.00,1.00,1.00,1.00,-1,-1,-1\n"
        "2,9,-3.14,2.00,10.00,20.00,1.00,-1,-1,-1\n"
        "3,4,-999999.99,5.50,0.01,0.02,1.00,-1,-1,-1\n"
    )
    write_trajectories(PINNED_TRAJECTORIES, path, confidence=-1.0)
    assert path.read_text() == (
        "1,9,1000000.12,-0.00,7.78,8.88,-1.00,-1,-1,-1\n"
        "2,4,0.00,0.00,1.00,1.00,-1.00,-1,-1,-1\n"
        "2,9,-3.14,2.00,10.00,20.00,-1.00,-1,-1,-1\n"
        "3,4,-999999.99,5.50,0.01,0.02,-1.00,-1,-1,-1\n"
    )
    write_detections(PINNED_PACKETS, path)
    assert path.read_text() == (
        "1,-1,-5.50,10.12,40.00,80.00,0.91,-1,-1,-1\n"
        "1,-1,1000000.00,2000000.00,12.34,67.90,0.00,-1,-1,-1\n"
        "3,-1,-0.00,-0.01,0.01,0.03,1.00,-1,-1,-1\n"
    )


def test_writers_refuse_frame_zero(tmp_path):
    b = BoundingBox(0.0, 0.0, 1.0, 1.0)
    track = TrackRecord(track_id=1, start_frame=0)
    track.commit(0, b, 1.0)
    path = tmp_path / "out.txt"
    with pytest.raises(ValueError, match="frame must be >= 1"):
        write_tracks([track], path)
    with pytest.raises(ValueError, match="frame must be >= 1"):
        write_trajectories({1: {0: b}}, path)
    with pytest.raises(ValueError, match="frame must be >= 1"):
        write_detections([FramePacket(0, [Detection(b, 0.5, 0)])], path)


# ----------------------------------------------------------------- evaluation


def test_perfect_hypotheses_score_one():
    gt = {1: {f: box(10.0 * f, 50.0) for f in range(1, 11)}}
    report = evaluate(gt, gt)
    assert report.mota == 1.0 and report.idf1 == 1.0
    assert (report.fp, report.fn, report.ids) == (0, 0, 0)
    assert report.total_gt == 10


def test_id_split_costs_one_switch_and_half_idf1():
    gt = {1: {f: box(10.0 * f, 50.0) for f in range(1, 11)}}
    hyp = {
        7: {f: box(10.0 * f, 50.0) for f in range(1, 6)},
        8: {f: box(10.0 * f, 50.0) for f in range(6, 11)},
    }
    report = evaluate(hyp, gt)
    assert report.ids == 1
    assert (report.fp, report.fn) == (0, 0)
    assert report.mota == pytest.approx(0.9)
    assert report.idf1 == pytest.approx(0.5)


def test_hypothesis_ids_are_arbitrary_labels():
    gt = {
        1: {f: box(10.0 * f, 50.0) for f in range(1, 11)},
        2: {f: box(10.0 * f, 300.0) for f in range(1, 11)},
    }
    hyp_a = {5: gt[1], 9: gt[2]}
    hyp_b = {9: gt[1], 5: gt[2]}
    ra, rb = evaluate(hyp_a, gt), evaluate(hyp_b, gt)
    assert (ra.mota, ra.idf1) == (rb.mota, rb.idf1) == (1.0, 1.0)


def test_disjoint_boxes_count_both_ways():
    gt = {1: {f: box(100.0, 100.0) for f in range(1, 6)}}
    hyp = {1: {f: box(700.0, 400.0) for f in range(1, 6)}}
    report = evaluate(hyp, gt)
    assert report.fp == 5 and report.fn == 5 and report.ids == 0
    assert report.mota == pytest.approx(-1.0)
    assert report.idf1 == 0.0


def test_low_overlap_does_not_match():
    # Half-width shift: IoU 1/3, below the 0.5 default threshold.
    gt = {1: {1: BoundingBox(0, 0, 10, 20)}}
    hyp = {1: {1: BoundingBox(5, 0, 15, 20)}}
    report = evaluate(hyp, gt)
    assert report.fn == 1 and report.fp == 1


def test_empty_ground_truth_rejected():
    with pytest.raises(ValueError):
        evaluate({}, {})


def test_evaluate_many_micro_average():
    gt = {1: {f: box(10.0 * f, 50.0) for f in range(1, 11)}}
    bad_hyp = {1: {f: box(700.0, 400.0) for f in range(1, 11)}}
    report = evaluate_many({"clean": (gt, gt), "junk": (bad_hyp, gt)})
    assert set(report.sequences) == {"clean", "junk"}
    assert report.total_gt == 20
    assert report.mota == pytest.approx(1.0 - 20 / 20)
    assert report.sequences["clean"].mota == 1.0

    # IDF1 sums IDTP and box counts over sequences before dividing. With
    # three 10-box hypotheses on 10 GT boxes, one of them on target,
    # "spam" scores 2*10/40 = 0.5, so a GT-weighted mean would give 0.75;
    # the counts give 2*(10 + 10)/(20 + 40).
    spam = {i: {f: box(10.0 * f + 300.0 * i, 50.0) for f in range(1, 11)} for i in range(3)}
    report = evaluate_many({"clean": (gt, gt), "spam": (spam, gt)})
    assert report.sequences["spam"].idf1 == 0.5
    assert (report.idtp, report.hyp_boxes, report.total_gt) == (20, 40, 20)
    assert report.idf1 == 2 * 20 / 60
    assert (report.idp, report.idr) == (0.5, 1.0)


@pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan"), float("inf")])
def test_evaluate_rejects_threshold_outside_unit_interval(threshold):
    gt = {1: {1: box(0.0, 0.0)}}
    with pytest.raises(ValueError, match="iou_match_threshold"):
        evaluate(gt, gt, threshold)
    with pytest.raises(ValueError, match="iou_match_threshold"):
        evaluate_many({"a": (gt, gt)}, threshold)


# ---------------------------------------------------------------------- synth


def test_generate_is_deterministic():
    spec = random_scenario(31)
    a, b = generate(spec, 5), generate(spec, 5)
    assert a.ground_truth == b.ground_truth
    assert {f: [d.box for d in ds] for f, ds in a.detections.items()} == {
        f: [d.box for d in ds] for f, ds in b.detections.items()
    }


def test_generated_detections_stay_in_frame():
    for seed in range(4):
        spec = random_scenario(seed)
        scenario = generate(spec, seed)
        for dets in scenario.detections.values():
            for d in dets:
                assert d.box.x1 >= 0 and d.box.y1 >= 0
                assert d.box.x2 <= spec.width and d.box.y2 <= spec.height


def test_random_scenario_fits_long_occlusions_in_short_lives():
    # Seed 4869 draws a 21-frame window for a target that lives 31
    # frames, which leaves no room between the margins.
    spec = random_scenario(4869)
    windows = [(t, w) for t in spec.targets for w in t.occlusions]
    assert windows
    for t, (a, b) in windows:
        assert t.start_frame < a <= b < t.end_frame
    generate(spec, 4869)


def test_occlusion_windows_hide_detections_not_truth():
    spec = ScenarioSpec(
        frame_count=30,
        targets=[
            TargetSpec(
                start_frame=1,
                end_frame=30,
                x=200.0,
                y=200.0,
                vx=3.0,
                vy=0.0,
                width=50.0,
                height=100.0,
                occlusions=[(10, 19)],
            )
        ],
    )
    scenario = generate(spec, 0)
    assert sorted(scenario.ground_truth[1]) == list(range(1, 31))
    assert scenario.hidden[1] == set(range(10, 20))
    for f in range(10, 20):
        assert scenario.detections[f] == []


def test_zero_targets_is_a_valid_scenario():
    scenario = generate(ScenarioSpec(frame_count=10, targets=[]), 0)
    assert scenario.total_gt_boxes() == 0
    assert all(p.detections == [] for p in scenario.packets())


def test_camera_pan_produces_matching_warps():
    spec = ScenarioSpec(
        frame_count=5,
        targets=[],
        camera=CameraSpec(kind="pan", vx=3.0, vy=-1.0),
    )
    scenario = generate(spec, 0)
    for f in range(2, 6):
        # Scenery moves opposite to the camera in image coordinates.
        assert scenario.warps[f].matrix[0, 2] == -3.0
        assert scenario.warps[f].matrix[1, 2] == 1.0
    assert scenario.offsets[5] == (12.0, -4.0)


def test_oscillating_camera_flips_sign():
    cam = CameraSpec(kind="oscillate", vx=2.0, period=10)
    assert cam.delta(5) == (2.0, 0.0)
    assert cam.delta(15) == (-2.0, 0.0)
    with pytest.raises(ValueError):
        CameraSpec(kind="zoom").delta(1)


def test_spec_validation():
    with pytest.raises(ValueError):
        generate(ScenarioSpec(frame_count=0), 0)
    huge = TargetSpec(1, 10, 100, 100, 0, 0, width=2000.0, height=50.0)
    with pytest.raises(ValueError):
        generate(ScenarioSpec(frame_count=10, targets=[huge]), 0)


def test_spec_json_round_trip():
    spec = random_scenario(13)
    restored = ScenarioSpec.from_json(spec.to_json())
    assert restored == spec
    assert json.loads(spec.to_json())["name"] == spec.name


# ----------------------------------------------------------------- bench rows


def test_write_csv_schema(tmp_path):
    rows = [GatingRow(100, 0.001, 0.002, 2.0), GatingRow(200, 0.002, 0.006, 3.0)]
    path = tmp_path / "g.csv"
    write_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,gated_seconds,full_seconds,ratio"
    assert lines[1].startswith("100,")
    with pytest.raises(ValueError):
        write_csv([], tmp_path / "empty.csv")


def test_fill_means_groups_by_scenario():
    rows = [
        FillRow(0, 1, 0.8, 0.5),
        FillRow(0, 2, 0.6, 0.3),
        FillRow(1, 1, 1.0, 1.0),
    ]
    means = fill_means(rows)
    assert means[0] == (0, pytest.approx(0.7), pytest.approx(0.4))
    assert means[1] == (1, 1.0, 1.0)


def test_bench_filling_rows_cover_each_gap():
    rows = bench_filling(n_scenarios=2, seed=3)
    scenarios = {r.scenario for r in rows}
    assert scenarios == {0, 1}
    for r in rows:
        assert 0.0 <= r.fill_iou <= 1.0 and 0.0 <= r.inertia_iou <= 1.0
        assert r.frame_offset >= 1


# ------------------------------------------------------------------------ CLI


def test_cli_synth_track_eval_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "scene"
    assert main(["synth", "--preset", "occlusion", "--output-dir", str(out_dir)]) == 0
    assert (out_dir / "spec.json").exists()
    assert (out_dir / "gt.txt").exists()
    assert (out_dir / "det.txt").exists()
    spec = ScenarioSpec.from_json((out_dir / "spec.json").read_text())
    assert spec == occlusion_scenario()

    result = tmp_path / "res.txt"
    code = main(
        [
            "track",
            "--detections",
            str(out_dir / "det.txt"),
            "--output",
            str(result),
            "--frame-width",
            str(spec.width),
            "--frame-height",
            str(spec.height),
        ]
    )
    assert code == 0
    assert result.exists()

    capsys.readouterr()
    code = main(
        [
            "eval",
            "--hypotheses",
            str(result),
            "--ground-truth",
            str(out_dir / "gt.txt"),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out
    assert "MOTA 1.0000" in line


def test_cli_tracks_rendered_frames_as_an_in_process_tracker_does(tmp_path, capsys):
    seed = 3
    spec = random_scenario(seed, n_targets=4, frame_count=20, width=320.0, height=240.0)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    out_dir = tmp_path / "scene"
    args = ["synth", "--spec", str(spec_path), "--seed", str(seed), "--render"]
    assert main(args + ["--output-dir", str(out_dir)]) == 0
    result = tmp_path / "res.txt"
    args = ["track", "--detections", str(out_dir / "det.txt"), "--output", str(result)]
    args += ["--images", str(out_dir / "frames")]
    args += ["--frame-width", str(spec.width), "--frame-height", str(spec.height)]
    assert main(args) == 0

    frames = render_frames(generate(spec, seed), seed)
    tracker = Tracker(frame_size=(spec.width, spec.height))
    for packet in read_detections(out_dir / "det.txt"):
        packet.image = frames[packet.frame]
        tracker.step(packet)
    # The camera moves, so the frames reached the alignment.
    warps = tracker.store.motion_log.warps.values()
    assert sum(not warp.is_identity() for warp in warps) > 10
    expected = tmp_path / "expected.txt"
    write_tracks(tracker.finalize(), expected)
    assert result.read_bytes() == expected.read_bytes()


def test_cli_eval_result_against_itself(tmp_path, capsys):
    path = tmp_path / "r.txt"
    write_trajectories({1: {f: box(10.0 * f, 50.0) for f in range(1, 8)}}, path)
    assert main(["eval", "--hypotheses", str(path), "--ground-truth", str(path)]) == 0
    assert "MOTA 1.0000" in capsys.readouterr().out


def test_cli_eval_rejects_zero_threshold(tmp_path, capsys):
    path = tmp_path / "r.txt"
    write_trajectories({1: {f: box(10.0 * f, 50.0) for f in range(1, 8)}}, path)
    args = ["eval", "--hypotheses", str(path), "--ground-truth", str(path)]
    assert main(args + ["--iou-threshold", "0"]) == 1
    assert "iou_match_threshold must be in (0, 1]" in capsys.readouterr().err


def test_cli_missing_required_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["track"])
    assert excinfo.value.code == 2


TRACK_REQUIRED = ["track", "--detections", "det.txt", "--output", "res.txt"]


def track_config(*flags):
    return _config_from_args(build_parser().parse_args(TRACK_REQUIRED + list(flags)))


def test_cli_track_defaults_are_the_config_defaults():
    assert track_config() == TrackerConfig()


def test_cli_sets_each_config_field_with_exactly_one_flag():
    flags = argparse.ArgumentParser()
    _add_config_flags(flags)
    default = TrackerConfig()
    field_of_flag = {}
    for action in flags._actions[1:]:  # [0] is --help
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv = [flag]
        else:
            # A valid value off the default: half a float (0.5 for a zero
            # default), one more than an int.
            value = (action.default or 1.0) / 2 if action.type is float else action.default + 1
            argv = [flag, str(value)]
        config = track_config(*argv)
        changed = [
            f.name
            for f in dataclasses.fields(TrackerConfig)
            if getattr(config, f.name) != getattr(default, f.name)
        ]
        assert len(changed) == 1, (flag, changed)
        field_of_flag[flag] = changed[0]
    names = sorted(f.name for f in dataclasses.fields(TrackerConfig))
    assert sorted(field_of_flag.values()) == names


@pytest.mark.parametrize("flags", [["--grid-m", "4"], ["--box-extension", "2"]])
def test_cli_removed_gating_flags_are_usage_errors(flags):
    with pytest.raises(SystemExit) as excinfo:
        main(TRACK_REQUIRED + flags)
    assert excinfo.value.code == 2


def test_cli_unknown_preset_rejected():
    with pytest.raises(SystemExit):
        main(["synth", "--preset", "nonesuch", "--output-dir", "/tmp/x"])


def test_cli_reports_bad_input_path(tmp_path, capsys):
    code = main(
        ["track", "--detections", str(tmp_path / "missing.txt"), "--output", "o.txt"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_track_rejects_non_finite_detection(tmp_path, capsys):
    det = tmp_path / "det.txt"
    det.write_text("1,-1,100,100,50,100,0.9\n2,-1,100,100,inf,100,0.9\n")
    out = tmp_path / "res.txt"
    code = main(["track", "--detections", str(det), "--output", str(out)])
    assert code == 1
    assert "non-finite box" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bench_gating_writes_csv(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench-gating", "--counts", "20,40", "--seed", "1", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,gated_seconds,full_seconds,ratio"
    assert len(lines) == 3


def test_cli_bench_filling_stdout(capsys):
    assert main(["bench-filling", "--scenarios", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario,frame_offset,fill_iou,inertia_iou")
