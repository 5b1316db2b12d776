"""The solve-based K-FAC preconditioner.

This is how ``KfacStats.precondition`` worked before it kept one damped
inverse per Kronecker factor: every call builds ``factor + damping I``
afresh and runs ``np.linalg.solve`` on it, once per factor and right-hand
side. Tests hold the cached-inverse preconditioner to it.

``gradients_of`` builds ``Gradients`` from per-layer arrays, as the
concatenating constructor that the flat one replaced did.
"""

import functools

import numpy as np

from trafficlab.nn import Gradients, KfacStats, SingularCurvatureError


def gradients_of(dw, db) -> Gradients:
    """Gradients over a fresh flat vector of the layers' ``dw`` and ``db``
    in the ``Mlp.params`` layout, in their float dtype (as ``Mlp`` takes
    its layers': float64 for ints)."""
    flat = np.concatenate([part for w, b in zip(dw, db)
                           for part in (np.ravel(w), np.ravel(b))])
    return Gradients(flat.astype(np.result_type(np.float32, flat), copy=False),
                     [np.shape(w) for w in dw])


def _solve(stats: KfacStats, factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    mat = factor
    if stats.damping > 0:
        mat = factor + stats.damping * np.eye(factor.shape[0])
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularCurvatureError(
            "curvature factor is singular and damping is zero") from exc


def solve_precondition(stats: KfacStats, grads: Gradients) -> Gradients:
    """(S + damping I)^-1 G (A + damping I)^-1 per layer, by solves."""
    out = Gradients(np.empty_like(grads.flat), grads.shapes)
    for idx, (dw, db) in enumerate(zip(grads.dw, grads.db)):
        a_fac = stats.a_factors[idx]
        s_fac = stats.s_factors[idx]
        left = _solve(stats, s_fac, dw)
        out.dw[idx][...] = _solve(stats, a_fac, left.T).T
        out.db[idx][...] = _solve(stats, s_fac, db)
    return out


def use_solve_preconditioner(agent):
    """Make an ACKTR agent precondition both nets through the solves."""
    for stats in (agent.actor_stats, agent.critic_stats):
        stats.precondition = functools.partial(solve_precondition, stats)
    return agent
