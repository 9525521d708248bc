"""The penalized loss of Eq. 6.

    f(x; ξ) = Σ_d w_ξ(d) f(x; d) + λ1 ||x|| + λ2 σ(x)

The L2 term bounds the parameter-space ball (structural risk), keeping
the problem continuous-and-bounded so the coreset guarantees apply and
the coreset stays compact.  σ(x) is the problem-dependent penalty; for
the BEV driving model the paper uses the entropy of the losses observed
across driving commands so the model "effectively addresses all driving
commands without introducing any bias".  Concretely we penalize the
*imbalance* of per-command losses — the KL divergence of the normalized
per-command loss distribution from uniform, i.e. ``log K − H(q)`` — so
minimizing the penalty equalizes losses across commands (a literally
added raw entropy would reward concentrating all loss on one command,
the opposite of the stated intent).
"""

from __future__ import annotations

import numpy as np

from repro.nn.model import N_COMMANDS
from repro.nn.params import get_flat_params

__all__ = [
    "LAMBDA_ENTROPY",
    "LAMBDA_L2",
    "command_loss_entropy",
    "penalized_loss",
    "penalized_losses",
]

#: Eq. 6's coefficients (§III-B): ``λ1`` on the L2 norm and ``λ2`` on
#: the command-loss imbalance.
LAMBDA_L2 = 1e-4
LAMBDA_ENTROPY = 0.05

#: Where each command's group starts in a sorted command array (and the last ends).
_COMMAND_CUTS = np.arange(N_COMMANDS + 1)


def command_loss_entropy(
    per_sample_losses: np.ndarray, commands: np.ndarray
) -> float | np.ndarray:
    """Imbalance of mean losses across commands: ``log K - H(q)``.

    ``q`` is the normalized vector of per-command mean losses over the
    commands present; the value is 0 when losses are perfectly balanced
    and grows as loss concentrates on few commands.  Commands absent
    from the batch are excluded (their loss is unobserved, not zero).

    ``per_sample_losses`` is one model's ``(n,)`` losses, or ``(rows, n)``
    for several models over the same samples (one value per row then).
    """
    losses = np.asarray(per_sample_losses, dtype=float)
    commands = np.asarray(commands)
    # Samples grouped by command, each group contiguous and in sample
    # order, so every row's mean is summed pairwise the way a lone row's is.
    order = np.argsort(commands, kind="stable")
    cuts = np.searchsorted(commands[order], _COMMAND_CUTS).tolist()
    grouped = losses.take(order, axis=-1)
    means = [
        np.add.reduce(grouped[..., lo:hi], axis=-1) / (hi - lo)
        for lo, hi in zip(cuts, cuts[1:])
        if hi > lo
    ]
    # ``[()]`` below: one model's value is a scalar, not a 0-d array.
    if len(means) <= 1:
        return np.zeros(losses.shape[:-1])[()]
    q = np.ascontiguousarray(np.array(means).T)  # (..., commands present)
    total = q.sum(axis=-1)
    lossless = total <= 0  # nothing to normalize: balanced
    q = q / np.where(lossless, 1.0, total)[..., None]
    entropy = -(q * np.log(np.maximum(q, 1e-12))).sum(axis=-1)
    return np.where(lossless, 0.0, np.log(len(means)) - entropy)[()]


def penalized_losses(
    params: np.ndarray | None,
    per_sample_losses: np.ndarray,
    commands: np.ndarray,
    weights: np.ndarray,
    norms: np.ndarray | None = None,
) -> np.ndarray:
    """Eq. 6 for each of several models over the same weighted samples.

    ``params`` is ``(rows, n_params)`` flat parameter vectors (read for
    the L2 term only) and ``per_sample_losses`` ``(rows, n)``.  A caller
    that knows the rows' L2 norms without holding the rows (the psi
    probe reads them off its sorted magnitudes) passes them as ``norms``
    and ``params=None``.  The normalised weights and the
    command groups are derived once; each row's empirical term is its own
    dot product and each L2 term its own norm (a matrix product would
    sum in another order).
    """
    losses = np.asarray(per_sample_losses)
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must have positive sum")
    norm = weights / total
    values = np.array([float(row @ norm) for row in losses.astype(norm.dtype, copy=False)])
    if norms is None:
        norms = np.array([float(np.linalg.norm(row)) for row in params])
    values += LAMBDA_L2 * norms
    values += LAMBDA_ENTROPY * command_loss_entropy(losses, commands)
    return values


def penalized_loss(
    params,
    per_sample_losses: np.ndarray,
    commands: np.ndarray,
    weights: np.ndarray,
) -> float:
    """Eq. 6: weighted empirical loss plus L2 and command-entropy terms.

    The one-row case of :func:`penalized_losses`.  ``params`` is the
    model, or its flat parameter vector when the caller already holds
    one (a bank row view), saving the concatenation.
    """
    if not isinstance(params, np.ndarray):
        params = get_flat_params(params)
    losses = np.asarray(per_sample_losses)
    return float(penalized_losses([params], losses[None], commands, weights)[0])
