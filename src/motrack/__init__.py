"""Detector-agnostic multi-object tracking engine and toolkit.

Feed per-frame detections (plus, optionally, grayscale frames or
precomputed camera warps) into a Tracker; read back identity-consistent
trajectories with occlusion gaps filled in. The toolkit side adds MOT
text I/O, CLEAR-MOT evaluation, synthetic scenario generation, and
benchmark harnesses behind the `motrack` CLI.
"""

from .alignment import (
    AffineWarp,
    CameraMotionLog,
    EccError,
    EccParams,
    EccWorkspace,
    camera_intensity,
    compose_warps,
    ecc_align,
    invert_warp,
    warp_box,
    warp_image,
)
from .assignment import Assignment, km_solve
from .config import TrackerConfig
from .evaluation import EvalReport, evaluate, evaluate_many, trajectories_from_tracks
from .gating import (
    CellGrid,
    EncodingMaps,
    GatedCost,
    IntegralImage3D,
    build_integral,
    build_maps,
    fully_connected_cost,
    gated_cost,
    query,
)
from .geometry import (
    BoundingBox,
    Detection,
    from_center_form,
    iou,
    iou_matrix,
    to_center_form,
)
from .kalman import (
    KalmanState,
    MotionParams,
    iml_predict,
    km_init,
    km_predict,
    km_update,
    velocity_norm,
)
from .mot_files import (
    MotRecord,
    read_detections,
    read_mot,
    read_tracks,
    write_detections,
    write_tracks,
    write_trajectories,
)
from .pgm import GrayImage, read_pgm, write_pgm
from .pipeline import FramePacket, FrameEvents, Tracker, TrackStore
from .reconnect import (
    FillRequest,
    ReconnectionPolicy,
    fill_fragment,
    inertia_fragment,
    reconnection_window,
)
from .synth import (
    ScenarioSpec,
    SyntheticScenario,
    TargetSpec,
    generate,
    random_scenario,
)
from .tracks import TrackRecord, TrackStatus

__version__ = "0.1.0"

__all__ = [
    "AffineWarp",
    "Assignment",
    "BoundingBox",
    "CameraMotionLog",
    "CellGrid",
    "Detection",
    "EccError",
    "EccParams",
    "EccWorkspace",
    "EncodingMaps",
    "EvalReport",
    "FillRequest",
    "FramePacket",
    "FrameEvents",
    "GatedCost",
    "GrayImage",
    "IntegralImage3D",
    "KalmanState",
    "MotRecord",
    "MotionParams",
    "ReconnectionPolicy",
    "ScenarioSpec",
    "SyntheticScenario",
    "TargetSpec",
    "Tracker",
    "TrackRecord",
    "TrackStatus",
    "TrackStore",
    "TrackerConfig",
    "build_integral",
    "build_maps",
    "camera_intensity",
    "compose_warps",
    "ecc_align",
    "evaluate",
    "evaluate_many",
    "fill_fragment",
    "from_center_form",
    "fully_connected_cost",
    "gated_cost",
    "generate",
    "inertia_fragment",
    "iml_predict",
    "invert_warp",
    "iou",
    "iou_matrix",
    "km_init",
    "km_predict",
    "km_solve",
    "km_update",
    "query",
    "random_scenario",
    "read_detections",
    "read_mot",
    "read_pgm",
    "read_tracks",
    "reconnection_window",
    "to_center_form",
    "trajectories_from_tracks",
    "velocity_norm",
    "warp_box",
    "warp_image",
    "write_detections",
    "write_pgm",
    "write_tracks",
    "write_trajectories",
]
