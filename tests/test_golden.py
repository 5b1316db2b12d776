"""Golden digest of a seeded one-hour fixed-time rollout on the dense road.

The digest covers every observation's bytes, every reward breakdown,
every metrics snapshot and the final counters and road. It was recorded
before the kinematics loop and the road census were rewritten, so any
change to a seeded number of the env step shows up here.
"""

import hashlib

from trafficlab.agents import AgentConfig, make_agent
from trafficlab.env import EnvConfig, TrafficSignalEnv
from trafficlab.sim import APPROACHES, scenario_preset

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
        bd, m = info["reward_breakdown"], info["metrics"]
        h.update(obs.tobytes())
        h.update(repr((reward, done, bd.full, bd.partial, bd.detected_deficit,
                       bd.undetected_deficit, m.wait_all, m.wait_detected,
                       m.wait_undetected, m.exited_all, m.exited_detected,
                       m.exited_undetected,
                       [m.queue_lengths[a] for a in APPROACHES])).encode())
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
