"""Desk-scale lab for traffic signal control under partial vehicle detection."""

from trafficlab.adapt import (
    DeploymentConfig,
    DeploymentResult,
    DetectionSchedule,
    TimelinePoint,
    detect_instability,
    run_deployment,
)
from trafficlab.agents import (
    Agent,
    AgentConfig,
    Transition,
    load_agent,
    make_agent,
    save_agent,
)
from trafficlab.env import (
    Action,
    EnvConfig,
    RewardBreakdown,
    TrafficSignalEnv,
    build_observation,
    compute_reward,
)
from trafficlab.harness import (
    EvalStats,
    ExperimentSpec,
    SweepRecord,
    cmd_adapt,
    cmd_eval,
    cmd_sweep,
    cmd_train,
    evaluate_agent,
    train_agent,
)
from trafficlab.sim import (
    APPROACHES,
    Approach,
    Axis,
    Command,
    Metrics,
    Phase,
    SignalState,
    SimConfig,
    SimState,
    Vehicle,
    kinematics_step,
    metrics_snapshot,
    scenario_preset,
    signal_step,
    spawn_step,
)

__version__ = "0.1.0"
