import json

import numpy as np
import pytest

from motrack.bench import FillRow, GatingRow, bench_filling, fill_means, write_csv
from motrack.cli import main
from motrack.config import TrackerConfig
from motrack.evaluation import (
    evaluate,
    evaluate_many,
    trajectories_from_tracks,
)
from motrack.geometry import BoundingBox
from motrack.mot_files import (
    MotRecord,
    read_detections,
    read_mot,
    read_tracks,
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
)


def box(x, y, w=50.0, h=100.0):
    return BoundingBox(x, y, x + w, y + h)


# ------------------------------------------------------------------ MOT files


FIXTURE = """1,1,100.00,200.00,50.00,100.00,1.00,-1,-1,-1
1,2,400.00,180.00,60.00,110.00,0.90,-1,-1,-1
2,1,104.00,200.00,50.00,100.00,1.00,-1,-1,-1
2,2,395.00,180.00,60.00,110.00,0.90,-1,-1,-1
3,1,108.00,200.00,50.00,100.00,-1.00,-1,-1,-1
"""


def test_read_mot_fixture(tmp_path):
    path = tmp_path / "gt.txt"
    path.write_text(FIXTURE)
    records = read_mot(path)
    assert len(records) == 5
    assert records[0] == MotRecord(1, 1, 100.0, 200.0, 50.0, 100.0, 1.0)
    assert records[4].confidence == -1.0
    assert records[1].box() == BoundingBox(400.0, 180.0, 460.0, 290.0)


def test_read_mot_skips_blank_lines(tmp_path):
    path = tmp_path / "gt.txt"
    path.write_text("1,1,10,10,5,5,1\n\n  \n2,1,11,10,5,5,1\n")
    assert len(read_mot(path)) == 2


def test_read_mot_seven_field_minimum(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1,1,10,10,5,5,1\n1,2,3\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        read_mot(path)


def test_read_mot_non_numeric_field(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1,1,10,10,5,5,1\n2,1,x,10,5,5,1\n")
    with pytest.raises(ValueError, match=":2:"):
        read_mot(path)


def test_read_mot_rejects_non_positive_size(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1,1,10,10,0,5,1\n")
    with pytest.raises(ValueError, match=":1:"):
        read_mot(path)


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


def test_read_detections_empty_file(tmp_path):
    path = tmp_path / "det.txt"
    path.write_text("")
    assert read_detections(path) == []


def test_write_read_round_trip_within_rounding(tmp_path):
    trajectories = {
        1: {f: box(100.0 + 3.333 * f, 200.0 + 0.777 * f) for f in range(1, 6)},
        2: {f: box(400.0 - 2.115 * f, 180.0, 61.3, 111.7) for f in range(1, 6)},
    }
    path = tmp_path / "out.txt"
    write_trajectories(trajectories, path)
    back = read_tracks(path)
    assert set(back) == {1, 2}
    for tid, history in trajectories.items():
        for f, b in history.items():
            got = back[tid][f]
            assert abs(got.x1 - b.x1) <= 0.01
            assert abs(got.y1 - b.y1) <= 0.01
            assert abs(got.width - b.width) <= 0.011
            assert abs(got.height - b.height) <= 0.011


def test_tracker_output_file_marks_fills(tmp_path):
    packets = []
    for f in range(1, 21):
        dets = []
        if not 8 <= f <= 12:
            b = box(100.0 + 4.0 * f, 200.0)
            from motrack.geometry import Detection

            dets.append(Detection(b, 0.9, f))
        packets.append(FramePacket(frame=f, detections=dets))
    tracker = Tracker(frame_size=(960.0, 540.0))
    for p in packets:
        tracker.step(p)
    from motrack.mot_files import write_tracks

    path = tmp_path / "res.txt"
    write_tracks(tracker.finalize(), path)
    records = read_mot(path)
    assert len(records) == 20
    fill_confs = {r.frame: r.confidence for r in records if r.confidence == -1.0}
    assert set(fill_confs) == {8, 9, 10, 11, 12}


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
