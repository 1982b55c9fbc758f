"""Two-timescale network-slice admission sandbox.

Closed-form VNF chain sizing on the planning timescale; a slot-structured
admission/placement MDP with a from-scratch PPO agent, a black-box
state/reward forgery adversary, and a model-shuffling defense on the
operational timescale.
"""
from importlib import resources

from .adversary import AttackConfig, ForgeryAdversary, PoisonedEnv
from .baselines import myopic_exhaustive_decision, random_policy_decision
from .config import (ConfigParseError, ConfigValidationError, ScenarioConfig,
                     load_config, parse_config)
from .dimensioning import (DimensioningResult, InfeasibleBudgetError,
                           TrafficProfile, UnstableQueueError,
                           estimate_vnf_count, mean_sojourn_time,
                           overprovision_power_ratio,
                           overprovision_study_scenario)
from .ensemble import (EnsembleManifestError, EnsembleSpec,
                       MemberQualityError, default_member_configs,
                       evaluate_policy, evaluate_under_attack, load_ensemble,
                       save_ensemble, select_model, train_ensemble)
from .env import (REJECT, Chain, ClusterState, DataCenterSpec,
                  InvalidDecisionError, NoPendingRequestError, ResourceVector,
                  SliceEnv, SliceSpec, StepOutcome)
from .harness import (SCENARIO_NAMES, MissingCheckpointError, ScenarioResult,
                      compare, run_scenario, sweep, train_defense_ensemble,
                      train_single_models, write_results)
from .metrics import (METRICS_HEADER, EpisodeRecord, RunMetrics, aggregate,
                      power_scale, write_metrics)
from .policy import (CheckpointFormatError, DimensionMismatchError,
                     MlpParameters, init_parameters,
                     load_checkpoint, policy_forward, sample_action,
                     save_checkpoint)
from .ppo import (NonFiniteLossError, PpoConfig, Trajectory,
                  compute_advantages, train)

__version__ = "0.1.0"


def paper_config_path() -> str:
    """Filesystem path of the bundled two-slice scenario config."""
    return str(resources.files(__package__).joinpath("paper.cfg"))
