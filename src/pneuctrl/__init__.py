"""Simulation, control, and identification toolkit for switched
bipolar-pressure pneumatic channels."""

from .control import (
    ControllerState,
    PidGains,
    PidState,
    SmcGains,
    SupervisorConfig,
    pid_update,
    select_mode,
    smc_update,
)
from .experiment import (
    DmSmcLoop,
    MetricsReport,
    MinmpcLoop,
    NmpcLoop,
    PidLoop,
    Reference,
    Tick,
    TimingConfig,
    Trajectory,
    compute_metrics,
    reference_at,
    run_scenario,
)
from .mpc import MpcConfig, MpcSolution, minmpc_solve, nmpc_solve, rollout_cost
from .plant import (
    BranchFlows,
    Conductances,
    LoadModel,
    Mode,
    PlantParams,
    PlantState,
    branch_flows,
    drift,
    gain,
    net_outlet_flow,
    shape_factor,
    step,
)
from .sysid import (
    ChannelIdResult,
    IdResult,
    StepTrace,
    fit_cubic,
    fit_decay_conductance,
    fit_source_conductance,
    fit_spool_segments,
    identify_channel,
    simulate_segment,
    synthesize_protocol,
)
from .valvemap import SpoolMap, eval_spool, invert_spool

__version__ = "0.1.0"
