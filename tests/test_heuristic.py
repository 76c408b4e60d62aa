from __future__ import annotations

from anchorkit.core import Attributes, Percept
from anchorkit.heuristic import HeuristicTracker


def make_percept(pid, kind, pos, size=(20.0, 20.0)):
    return Percept(pid, Attributes(kind, pos, size))


def test_visible_target_is_predicted_and_recorded():
    tracker = HeuristicTracker()
    box = tracker.step([make_percept(0, "snitch", (50.0, 50.0), (18.0, 18.0))])
    assert box == ((50.0, 50.0), (18.0, 18.0))
    assert tracker.last_center == (50.0, 50.0)


def test_absent_target_switches_to_nearest_object():
    tracker = HeuristicTracker()
    tracker.step([make_percept(0, "snitch", (50.0, 50.0), (18.0, 18.0))])
    box = tracker.step([
        make_percept(0, "cube", (52.0, 51.0)),
        make_percept(1, "cone", (200.0, 10.0)),
    ])
    assert box[0] == (52.0, 51.0)
    # ... and keeps following that object as it moves.
    box = tracker.step([
        make_percept(0, "cube", (60.0, 55.0)),
        make_percept(1, "cone", (200.0, 10.0)),
    ])
    assert box[0] == (60.0, 55.0)


def test_empty_frame_repeats_previous_prediction():
    tracker = HeuristicTracker()
    first = tracker.step([make_percept(0, "snitch", (50.0, 50.0), (18.0, 18.0))])
    assert tracker.step([]) == first
    assert tracker.step([]) == first


def test_no_prediction_before_target_ever_seen():
    tracker = HeuristicTracker()
    assert tracker.step([]) is None
    assert tracker.step([make_percept(0, "cube", (10.0, 10.0))]) is None


def test_distance_ties_break_toward_lowest_percept_id():
    tracker = HeuristicTracker()
    tracker.step([make_percept(0, "snitch", (0.0, 0.0), (18.0, 18.0))])
    box = tracker.step([
        make_percept(2, "cube", (10.0, 0.0)),
        make_percept(1, "cone", (-10.0, 0.0)),
    ])
    assert box[0] == (-10.0, 0.0)


def test_target_reappearance_wins_over_locked_object():
    tracker = HeuristicTracker()
    tracker.step([make_percept(0, "snitch", (50.0, 50.0), (18.0, 18.0))])
    tracker.step([make_percept(0, "cube", (55.0, 50.0))])
    box = tracker.step([
        make_percept(0, "cube", (55.0, 50.0)),
        make_percept(1, "snitch", (300.0, 200.0), (18.0, 18.0)),
    ])
    assert box[0] == (300.0, 200.0)


def test_multiple_targets_pick_nearest_to_last_known():
    tracker = HeuristicTracker()
    tracker.step([make_percept(0, "snitch", (50.0, 50.0), (18.0, 18.0))])
    box = tracker.step([
        make_percept(0, "snitch", (200.0, 200.0), (18.0, 18.0)),
        make_percept(1, "snitch", (52.0, 50.0), (18.0, 18.0)),
    ])
    assert box[0] == (52.0, 50.0)
