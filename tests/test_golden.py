"""Golden digests of seeded runs.

The first covers a one-hour fixed-time rollout on the dense road: every
observation's bytes, every reward breakdown, the metrics snapshot and the
census's queue lengths after every step, and the final counters and road.
It was recorded before the kinematics loop and the road census were
rewritten, so any change to a seeded number of the env step shows up
here.

The second covers briefly trained dql, ppo, a2c and acktr agents: their
net parameters, optimizer state, counters and RNG state, hashed without
the checkpoint byte layout. They were recorded before the checkpoint
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
optimizer array, counter and random state stayed bit-identical.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from trafficlab.agents import (
    AgentConfig,
    agent_from_bytes,
    agent_to_bytes,
    make_agent,
)
from trafficlab.env import EnvConfig, TrafficSignalEnv
from trafficlab.harness import build_env_config, default_agent_config, train_agent
from trafficlab.sim import APPROACHES, metrics_snapshot, scenario_preset

GOLDEN_DENSE_FIXED_TIME = (
    "6adbc1866269f387f98e0eb9fc07802265c19a897632c06d440081ddc9f63f93"
)


def rollout_digest(steps: int = 3600, seed: int = 20) -> str:
    cfg = EnvConfig(sim=scenario_preset("dense", detection_rate=0.5))
    env = TrafficSignalEnv(cfg, seed=seed)
    agent = make_agent(AgentConfig(algorithm="fixed_time"), cfg.observation_size)
    h = hashlib.sha256()
    obs = env.reset()
    h.update(obs.tobytes())
    for _ in range(steps):
        obs, reward, done, info = env.step(agent.act(obs))
        bd = info["reward_breakdown"]
        m = metrics_snapshot(env.state)
        h.update(obs.tobytes())
        h.update(repr((reward, done, bd.full, bd.partial, bd.detected_deficit,
                       bd.undetected_deficit, m.wait_all, m.wait_detected,
                       m.wait_undetected, m.exited_all, m.exited_detected,
                       m.exited_undetected,
                       info["census"].queue_lengths)).encode())
    s = env.state
    h.update(repr((s.clock, s.spawned_count, s.spawned_detected_count,
                   s.exited_count, s.exited_wait_detected, s.exited_n_detected,
                   s.exited_wait_undetected, s.exited_n_undetected,
                   s.next_vehicle_id, [s.pending[a] for a in APPROACHES],
                   [[(v.id, v.position, v.speed, v.cumulative_wait, v.detected)
                     for v in s.lanes[a]] for a in APPROACHES])).encode())
    return h.hexdigest()


def test_dense_fixed_time_rollout_matches_golden_digest():
    assert rollout_digest() == GOLDEN_DENSE_FIXED_TIME


# -- trained agent state -------------------------------------------------------

GOLDEN_TRAINED_AGENT_STATE = {
    "dql": "a05dd6dd0fe2b0df92de795f1d5004f43269039fc276b37c4dfc8899409ef724",
    "ppo": "269e52715f1beddee0f86ac4f247cb151b7749aa6c374b1ce33fd1dce159d04c",
    "a2c": "59a1600c2ad784e74d24d556bd353e2a5cafc09924b1a455933430c3d16eafd6",
    "acktr": "437aed4497a77910a1346baab666ceaea4364525f2285389ace106feb85207ac",
}

_STATE_OVERRIDES = dict(hidden_sizes=[16, 16], rollout_length=64,
                        ppo_minibatch=16, critic_epochs=2, warmup=64,
                        batch_size=16, target_sync_period=50,
                        train_steps_budget=2000, explore_floor=0.05)


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
    the checkpoint byte layout: each net's topology, seed and parameters,
    each optimizer's meta and state arrays, the counters and the RNG."""
    h = hashlib.sha256()
    h.update(json.dumps(asdict(agent.config), sort_keys=True).encode())
    for name, net in agent._nets().items():
        h.update(repr((name, net.sizes, net.activations, net.seed)).encode())
        h.update(net.params.tobytes())
    for name, opt in agent._optimizers().items():
        h.update(name.encode())
        h.update(json.dumps(opt.state_meta(), sort_keys=True).encode())
        for arr in opt.state_arrays():
            h.update(repr(arr.shape).encode())
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(json.dumps(agent._extra_state(), sort_keys=True).encode())
    h.update(json.dumps(agent._rng.bit_generator.state, sort_keys=True,
                        default=int).encode())
    return h.hexdigest()


@pytest.mark.parametrize("algorithm", ["dql", "ppo", "a2c", "acktr"])
def test_trained_agent_state_matches_golden_digest(algorithm):
    agent = trained_agent(algorithm)
    assert agent_state_digest(agent) == GOLDEN_TRAINED_AGENT_STATE[algorithm]
    reloaded = agent_from_bytes(agent_to_bytes(agent))
    assert agent_state_digest(reloaded) == GOLDEN_TRAINED_AGENT_STATE[algorithm]
