import pytest

from motrack.geometry import BoundingBox, Detection
from motrack.kalman import MotionParams, km_init
from motrack.pipeline import FramePacket, Tracker
from motrack.tracks import FILL_CONFIDENCE, TrackRecord, TrackStatus

BOX = BoundingBox(100, 100, 160, 220)


def make_track(track_id=1, start=5):
    t = TrackRecord(track_id=track_id, start_frame=start)
    t.commit(start, BOX, 0.9)
    return t


def snapshot():
    return km_init(BOX, MotionParams())


def test_track_ids_are_positive():
    with pytest.raises(ValueError):
        TrackRecord(track_id=0, start_frame=1)


def test_commit_and_last_frame():
    t = make_track(start=5)
    t.commit(6, BoundingBox(101, 100, 161, 220), 0.8)
    assert t.last_frame == 6
    # A late fill lands before the last frame and leaves it.
    t.commit(9, BoundingBox(104, 100, 164, 220), 0.8)
    t.commit_fill(7, BoundingBox(102, 100, 162, 220))
    assert t.last_frame == 9
    assert t.committed_length() == 4
    assert t.confidences[6] == 0.8


def test_double_commit_rejected():
    t = make_track(start=5)
    with pytest.raises(ValueError):
        t.commit(5, BoundingBox(0, 0, 10, 10), 0.5)


def test_commit_fill_marks_frame_and_confidence():
    t = make_track(start=5)
    t.commit_fill(6, BoundingBox(102, 100, 162, 220))
    assert 6 in t.history
    assert t.confidences[6] == FILL_CONFIDENCE


def test_lifecycle_transitions():
    t = make_track()
    assert t.status is TrackStatus.ACTIVE
    t.deactivate(snapshot())
    assert t.status is TrackStatus.DEACTIVATED
    assert t.snapshot is not None
    t.reactivate()
    assert t.status is TrackStatus.ACTIVE
    assert t.snapshot is None
    t.finish()
    assert t.status is TrackStatus.FINISHED


def test_illegal_transitions_raise():
    t = make_track()
    with pytest.raises(ValueError):
        t.reactivate()  # never deactivated
    t.deactivate(snapshot())
    with pytest.raises(ValueError):
        t.deactivate(snapshot())


def test_finished_history_is_frozen():
    t = make_track()
    t.finish()
    with pytest.raises(ValueError):
        t.commit(9, BoundingBox(0, 0, 10, 10), 0.5)


def step_one_target(n_frames, skip):
    """Step a tracker over one static target that goes undetected on the
    frames in `skip`; yield each frame and the target's track after it."""
    tracker = Tracker(frame_size=(960.0, 540.0))
    for f in range(1, n_frames + 1):
        dets = [] if f in skip else [Detection(box=BOX, confidence=0.9, frame=f)]
        tracker.step(FramePacket(frame=f, detections=dets))
        yield f, tracker.store.tracks[1]


def test_hold_buffer_tracks_miss_count():
    # Coasting commits nothing, so the gap starts at the last committed
    # frame and the miss count derived from it grows by one per frame.
    for f, t in step_one_target(12, skip=range(6, 13)):
        assert f - t.last_frame == max(f - 5, 0)
        assert t.status is (TrackStatus.ACTIVE if f < 6 else TrackStatus.DEACTIVATED)
    assert sorted(t.history) == [1, 2, 3, 4, 5]


def test_miss_count_resets_on_reactivate():
    for f, t in step_one_target(9, skip={6, 7}):
        pass
    assert t.status is TrackStatus.ACTIVE and t.snapshot is None
    assert t.last_frame == 9


def test_normalize_order_sorts_late_fills():
    t = make_track(start=5)
    t.commit(8, BoundingBox(106, 100, 166, 220), 0.9)
    t.commit_fill(6, BoundingBox(102, 100, 162, 220))
    t.commit_fill(7, BoundingBox(104, 100, 164, 220))
    assert list(t.history) != sorted(t.history)
    t.normalize_order()
    assert list(t.history) == [5, 6, 7, 8]
    assert list(t.confidences) == [5, 6, 7, 8]


def test_empty_history_edge():
    t = TrackRecord(track_id=3, start_frame=7)
    assert t.last_frame == 6
    assert sorted(t.history) == []
