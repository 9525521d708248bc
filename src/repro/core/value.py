"""Model value assessment via coresets (§III-B).

A vehicle measures its own model's loss on the peer's coreset and
compares it with the peer model's loss on that same coreset.  The
*value* of the peer's model is the truncated gap

    value_i(x_j) = relu( f(x_i; C_j) − f(x_j; C_j) ):

if the peer's model beats mine on the peer's own data by a wide margin,
that model was trained on data I lack and is worth spending contact
time on; if my model already matches it, there is little to gain.

Note on Eq. 7's printed form: the paper's prose (§III-B and the Eq. 7
discussion) consistently describes the gain as "how much *lower* the
peer model's loss is," while the printed equation subtracts in the
opposite order; we implement the prose semantics, with the compressed
loss ``phi(psi)`` standing in for the sender's loss so that less
compression (higher psi) yields more gain.  DESIGN.md records this.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ModelValue", "assess_value", "truncated_gain"]


def truncated_gain(receiver_loss: float, sender_compressed_loss: float) -> float:
    """relu(receiver's loss − sender's compressed-model loss)."""
    return max(receiver_loss - sender_compressed_loss, 0.0)


@dataclass(frozen=True)
class ModelValue:
    """Both directions of value from one coreset exchange.

    ``loss_i_on_cj`` is vehicle i's model evaluated on coreset C_j, etc.;
    Eq. 7 reads them through :func:`truncated_gain`.
    """

    loss_i_on_ci: float
    loss_i_on_cj: float
    loss_j_on_cj: float
    loss_j_on_ci: float


def assess_value(
    loss_i_on_ci: float,
    loss_i_on_cj: float,
    loss_j_on_cj: float,
    loss_j_on_ci: float,
) -> ModelValue:
    """Bundle the four cross-evaluations into a :class:`ModelValue`."""
    for name, value in (
        ("loss_i_on_ci", loss_i_on_ci),
        ("loss_i_on_cj", loss_i_on_cj),
        ("loss_j_on_cj", loss_j_on_cj),
        ("loss_j_on_ci", loss_j_on_ci),
    ):
        if value < 0:
            raise ValueError(f"{name} must be non-negative: {value}")
    return ModelValue(loss_i_on_ci, loss_i_on_cj, loss_j_on_cj, loss_j_on_ci)
