"""Golden digests of seeded runs.

The first covers a one-hour fixed-time rollout on the dense road: every
observation's bytes, every reward and the full reward beside it, the two
speed deficits, the metrics snapshot and the census's queue lengths after
every step, and the final counters and road. It was recorded before the
kinematics loop and the road census were rewritten, so any change to a
seeded number of the env step shows up here. Its constant is unchanged
since vehicles lost their ids and the step's info its reward breakdown:
the digest reads the detected deficit from the census, takes each
vehicle's id as its spawn number (``sim_oracle.SpawnOrder``, which counts
as the ids did), and hashes ``spawned_count`` where the next vehicle id,
always equal to it, stood. Since the census keeps only what a controller
reads and the road's one queue count, the undetected deficit (and with
it the full reward) comes from ``sim_oracle.reward_deficits`` and the
per-lane queue lengths from ``sim_oracle.queue_lengths``, both taken on
the post-step road, where the census took them before it dropped them.

The second covers briefly trained dql, ppo, a2c and acktr agents: their
config, net parameters, optimizer state, counters and RNG state, hashed
without the checkpoint byte layout. They were recorded before the checkpoint
format and the ACKTR update were rewritten, and must hold both for the
live agents and for agents reloaded from a checkpoint. The acktr entry
was recorded again when K-FAC began caching its damped factor inverses:
explicit inverses round differently from the LU solves they replaced
(the parameters moved by under 1e-16 relative; the solve-based
preconditioner in ``kfac_oracle.py`` still gives the earlier digest).
All four were recorded again when ``AgentConfig`` lost its ``optimizer``,
``kfac_augment_bias`` and ``explore_floor_init`` fields and Adam's
constants left its meta: the digest hashes the config dict and each
optimizer's meta. The digests of the parent code, taken with those keys
left out of the hashed dicts, equal the new ones: every parameter,
optimizer array, counter and random state stayed bit-identical. All four
were recorded again when the optimizers lost their meta and the nets
their seed, and ``DqlAgent.updates`` gave way to Adam's step count: the
digest now hashes the config, the payload arrays with their shapes, the
counters (``train_steps`` and each Adam step count ``t``) and the RNG.
Computed on the code before that change, with the counters read from
the same attributes, this definition gives the same four strings. All
four were recorded again when ``AgentConfig``'s defaults became the
values the commands run and ``center_advantages`` went: the hashed
config lost that key, and the dql, ppo and a2c configs, which never read
them, hold ``kfac_decay`` 0.99 and ``kl_budget`` 1e-2 where they held
0.95 and None. The digests of the code before, taken with its config
dict mapped the same way, equal the new ones: every parameter, optimizer
array, counter and random state stayed bit-identical. All four were
recorded again when the nets became float32: their parameters, Adam
moments and every update's arithmetic round differently, so every
learned value moved, and the digest now hashes each array in its own
dtype, with the dtype's name beside its shape (the K-FAC factors stayed
float64). The counters and the RNG states are as before. The acktr entry
alone was recorded again when the K-FAC factors, their inverses and the
preconditioned directions became float32 and the KL quad and the step
norm became flat dot products: every ACKTR update rounds differently.
The dql, ppo and a2c entries were left as they were, and pass. All four
were recorded again when the learners stopped reading the done flag:
every episode end is a time limit, so the last transition of each of
the three 300-s episodes these agents train on now bootstraps from its
next observation where it took the raw reward alone. The code before,
with every transition's done flag held False, gives the new four
strings, so nothing else moved.

The third pins the checkpoint bytes of those four agents, header and
payload, at the format version they were recorded in. A change of the
checkpoint format bumps ``_FORMAT_VERSION`` and records these digests
again in the same change; a change of any other kind must leave them as
they are, unless it moves the second digest too. They were recorded
again at format 6, whose header named the nets' dtype and whose payload
held the float32 nets and Adam moments as float32 (the K-FAC factors as
float64), and again at format 7, whose header has no dtype field and
whose every payload array is float32. At format 7 the dql, ppo and a2c
files differ from their format-6 ones only in the version and the
header's dropped ``"dtype"`` field: the payload bytes are the same. All
four were recorded again, still at format 7, when the learners stopped
reading the done flag: the layout is the same, and the learned values
moved as the second digest's did.

The first digest is unchanged by the float32 nets: no net is on the
fixed-time controller's path, and it reads the env's float64
observations as they are. So is ``GOLDEN_FIVE_CONTROLLER_GRID`` in
``test_harness.py``: its brief training flipped no greedy or sampled
decision, and its files hold only waits, which the float64 sim computes.
Neither moved when the learners stopped reading the done flag.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from trafficlab import agents
from trafficlab.agents import (
    AgentConfig,
    agent_from_bytes,
    agent_to_bytes,
    make_agent,
)
from trafficlab.env import EnvConfig, TrafficSignalEnv
from trafficlab.harness import build_env_config, default_agent_config, train_agent
from trafficlab.sim import APPROACHES, metrics_snapshot, scenario_preset
from sim_oracle import SpawnOrder, queue_lengths, reward_deficits

GOLDEN_DENSE_FIXED_TIME = (
    "6adbc1866269f387f98e0eb9fc07802265c19a897632c06d440081ddc9f63f93"
)


def rollout_digest(steps: int = 3600, seed: int = 20) -> str:
    cfg = EnvConfig(sim=scenario_preset("dense", detection_rate=0.5))
    env = TrafficSignalEnv(cfg, seed=seed)
    agent = make_agent(AgentConfig(algorithm="fixed_time"), cfg.observation_size)
    order = SpawnOrder()
    h = hashlib.sha256()
    obs = env.reset()
    h.update(obs.tobytes())
    for _ in range(steps):
        obs, reward, done, info = env.step(agent.act(obs))
        order.update(env.state)
        det = info["census"].detected_deficit
        _, undet = reward_deficits(env.state, cfg.sim)
        m = metrics_snapshot(env.state)
        h.update(obs.tobytes())
        # the full and partial rewards, then the two deficits
        h.update(repr((reward, done, -(det + undet), -det, det, undet,
                       m.wait_all, m.wait_detected, m.wait_undetected,
                       m.exited_all, m.exited_detected, m.exited_undetected,
                       queue_lengths(env.state, cfg.sim))).encode())
    s = env.state
    for a in APPROACHES:  # settle frozen lanes' held steps into the counts
        s.thaw(a)
    # spawned_count stands where the next vehicle id stood: they were equal
    h.update(repr((s.clock, s.spawned_count, s.spawned_detected_count,
                   s.exited_count, s.exited_wait_detected, s.exited_n_detected,
                   s.exited_wait_undetected, s.exited_n_undetected,
                   s.spawned_count, [s.pending[a] for a in APPROACHES],
                   [[(order[v], v.position, v.speed,
                      v.cumulative_wait * s.time_step, v.detected)
                     for v in s.lanes[a]]
                    for a in APPROACHES])).encode())
    return h.hexdigest()


def test_dense_fixed_time_rollout_matches_golden_digest():
    assert rollout_digest() == GOLDEN_DENSE_FIXED_TIME


# -- trained agent state -------------------------------------------------------

GOLDEN_TRAINED_AGENT_STATE = {
    "dql": "fac1539d5cf06d820faa39e5566712311b08a01adb9cbdff234f75d4564af78e",
    "ppo": "aec0a8fb725c8ae32e1bb7670a9ae785632b348ce713c21f146b84e73a749701",
    "a2c": "0105745ac81d66abd1dd271e094716e0f67735b9cf6f39d31765e28503ebcf3b",
    "acktr": "ababacf78a6073c9ea74e25fc609768892b0af85597afb6cfd32c198cf0a27de",
}

# the format version the checkpoint digests below were recorded at
GOLDEN_CHECKPOINT_FORMAT = 7
GOLDEN_CHECKPOINT_BYTES = {
    "dql": "ed955fcdef908d54c107ae363d0ff4e30df2b80aa9e4a3ff8d14c9cb2df1d88b",
    "ppo": "650cca50afe97d61b4ff4a73d91f6e32bb2358d2cf296c15578eb001297cdab6",
    "a2c": "b049b6e78937192e69838d755c8dffba84bb86f17b46c269cafb44d5e77d4612",
    "acktr": "fe2d5a038bc86ba9d3073ba79a3a8bd149c3d4fcb6b1e926e6058f35a3ab9c8c",
}

_STATE_OVERRIDES = dict(hidden_sizes=[16, 16], rollout_length=64,
                        ppo_minibatch=16, critic_epochs=2, warmup=64,
                        batch_size=16, target_sync_period=50,
                        train_steps_budget=2000)


def trained_agent(algorithm: str, steps: int = 900):
    overrides = dict(_STATE_OVERRIDES)
    if algorithm == "acktr":
        overrides["kl_budget"] = 1e-3
    cfg = build_env_config("sparse", 0.5, 5, episode_length=300.0)
    agent = make_agent(default_agent_config(algorithm, seed=2,
                                            overrides=overrides),
                       cfg.observation_size)
    train_agent(agent, TrafficSignalEnv(cfg, seed=5), steps)
    return agent


def agent_state_digest(agent) -> str:
    """SHA-256 over an agent's learned and resumable state, independent of
    the checkpoint byte layout: the config, each payload array (each net's
    parameters, then each optimizer's state arrays) with its dtype and
    shape, the counters and the RNG."""
    h = hashlib.sha256()
    h.update(json.dumps(asdict(agent.config), sort_keys=True).encode())
    arrays = [net.params for net in agent._nets().values()]
    for opt in agent._optimizers().values():
        arrays += opt.state_arrays()
    for arr in arrays:
        h.update(repr((arr.dtype.name, arr.shape)).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    counters = {key: getattr(owner, attr)
                for key, owner, attr in agent._counter_slots()}
    h.update(json.dumps(counters, sort_keys=True).encode())
    h.update(json.dumps(agent._rng.bit_generator.state, sort_keys=True,
                        default=int).encode())
    return h.hexdigest()


@pytest.mark.parametrize("algorithm", ["dql", "ppo", "a2c", "acktr"])
def test_trained_agent_state_matches_golden_digest(algorithm):
    agent = trained_agent(algorithm)
    assert agent_state_digest(agent) == GOLDEN_TRAINED_AGENT_STATE[algorithm]
    reloaded = agent_from_bytes(agent_to_bytes(agent))
    assert agent_state_digest(reloaded) == GOLDEN_TRAINED_AGENT_STATE[algorithm]


@pytest.mark.parametrize("algorithm", ["dql", "ppo", "a2c", "acktr"])
def test_trained_agent_checkpoint_bytes_match_golden_digest(algorithm):
    """The file bytes of each trained agent, pinned across builds. A
    format change bumps ``_FORMAT_VERSION`` and records these again in the
    same change, with the version they were recorded at."""
    assert agents._FORMAT_VERSION == GOLDEN_CHECKPOINT_FORMAT
    blob = agent_to_bytes(trained_agent(algorithm))
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_CHECKPOINT_BYTES[algorithm]
