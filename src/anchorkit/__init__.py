"""anchorkit: persistent object anchoring from detections and action events."""

from .core import (
    ATTACHED,
    LOST,
    OCCLUDED,
    OUT_OF_VIEW,
    VISIBLE,
    CONTAIN,
    UNCONTAIN,
    ActionEvent,
    Anchor,
    Attributes,
    ConfigError,
    EngineConfig,
    EngineError,
    FrameInput,
    Percept,
    WorldModel,
    validate_world_model,
)
from .alignment import (
    AlignmentResult,
    CostMatrix,
    align,
    build_cost_matrix,
    compensate_camera_motion,
    solve_assignment,
)
from .hypothesis import (
    ActionError,
    apply_action,
    boxes_overlap,
    classify_unmatched,
    propagate_attachments,
    update_confidence,
)
from .tracker import (
    AnchoringEngine,
    HypothesisOutcome,
    predict_target,
    query,
    step,
)
from .heuristic import HeuristicTracker
from .metrics import Scenario, aggregate, iou, l2_center, score_stream
from .simulate import (
    NoiseConfig,
    ObjectSpec,
    EventSpec,
    ScenarioConfig,
    ScenarioRecord,
    SimulationError,
    build_template,
    corrupt,
    generate,
    h1_violations,
    scenario_config_from_json,
)
from .io_jsonl import load_engine_config, load_scenario

__version__ = "0.1.0"
