import pytest

from motrack.geometry import BoundingBox
from motrack.kalman import MotionParams, km_init
from motrack.tracks import FILL_CONFIDENCE, TrackRecord, TrackStatus


def make_track(track_id=1, start=5):
    box = BoundingBox(100, 100, 160, 220)
    state = km_init(box, MotionParams())
    t = TrackRecord(track_id=track_id, state=state, start_frame=start)
    t.commit(start, box, 0.9)
    return t


def test_track_ids_are_positive():
    with pytest.raises(ValueError):
        TrackRecord(track_id=0, state=km_init(BoundingBox(0, 0, 1, 1), MotionParams()), start_frame=1)


def test_commit_and_last_frame():
    t = make_track(start=5)
    t.commit(6, BoundingBox(101, 100, 161, 220), 0.8)
    assert t.last_frame == 6
    assert t.committed_length() == 2
    assert t.confidences[6] == 0.8


def test_double_commit_rejected():
    t = make_track(start=5)
    with pytest.raises(ValueError):
        t.commit(5, BoundingBox(0, 0, 10, 10), 0.5)


def test_commit_fill_marks_frame_and_confidence():
    t = make_track(start=5)
    t.commit_fill(6, BoundingBox(102, 100, 162, 220))
    assert 6 in t.filled_frames
    assert t.confidences[6] == FILL_CONFIDENCE


def test_lifecycle_transitions():
    t = make_track()
    assert t.status is TrackStatus.ACTIVE
    t.deactivate(5, t.state.copy())
    assert t.status is TrackStatus.DEACTIVATED
    assert t.deactivation_frame == 5
    assert t.snapshot is not None
    t.reactivate()
    assert t.status is TrackStatus.ACTIVE
    assert t.snapshot is None and t.deactivation_frame is None
    t.finish()
    assert t.status is TrackStatus.FINISHED


def test_illegal_transitions_raise():
    t = make_track()
    with pytest.raises(ValueError):
        t.reactivate()  # never deactivated
    t.deactivate(5, t.state.copy())
    with pytest.raises(ValueError):
        t.deactivate(6, t.state.copy())


def test_finished_history_is_frozen():
    t = make_track()
    t.finish()
    with pytest.raises(ValueError):
        t.commit(9, BoundingBox(0, 0, 10, 10), 0.5)


def test_hold_requires_deactivation():
    t = make_track()
    with pytest.raises(ValueError):
        t.hold()


def test_hold_buffer_tracks_miss_count():
    t = make_track()
    t.deactivate(5, t.state.copy())
    for held in range(1, 9):
        t.hold()
        assert t.deactivated_len == held
    # Holding commits nothing.
    assert sorted(t.history) == [5]


def test_miss_count_resets_on_reactivate():
    t = make_track()
    t.deactivate(5, t.state.copy())
    t.hold()
    t.reactivate()
    assert t.deactivated_len == 0


def test_normalize_order_sorts_late_fills():
    t = make_track(start=5)
    t.commit(8, BoundingBox(106, 100, 166, 220), 0.9)
    t.commit_fill(6, BoundingBox(102, 100, 162, 220))
    t.commit_fill(7, BoundingBox(104, 100, 164, 220))
    assert list(t.history) != sorted(t.history)
    t.normalize_order()
    assert list(t.history) == [5, 6, 7, 8]
    assert list(t.confidences) == [5, 6, 7, 8]


def test_is_contiguous():
    t = make_track(start=5)
    t.commit(6, BoundingBox(101, 100, 161, 220), 0.9)
    assert t.is_contiguous()
    t.commit(9, BoundingBox(104, 100, 164, 220), 0.9)
    assert not t.is_contiguous()
    t.commit_fill(7, BoundingBox(102, 100, 162, 220))
    t.commit_fill(8, BoundingBox(103, 100, 163, 220))
    assert t.is_contiguous()


def test_empty_history_edge():
    state = km_init(BoundingBox(0, 0, 10, 10), MotionParams())
    t = TrackRecord(track_id=3, state=state, start_frame=7)
    assert t.last_frame == 6
    assert t.is_contiguous()
