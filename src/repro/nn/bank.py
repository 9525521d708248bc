"""Per-layer parameter banks: the network every run executes.

Every run trains N identical :class:`~repro.nn.model.WaypointNet`
models in lock-step — one per vehicle (N = 1 included).  This module
stacks all vehicles' parameters into per-layer ``(n_nodes, ...)`` banks
so one batched tensor op per layer trains or evaluates the whole fleet;
it is the only forward and the only gradient step a run has:

* :class:`ParamBank` owns one C-contiguous ``(n_nodes, n_params)``
  float32 matrix of parameters, laid out after a template model.  A
  vehicle's parameters are a bank row from birth and nowhere else:
  :class:`~repro.core.fleet.FleetEngine` writes the template into every
  row and hands each :class:`~repro.core.node.VehicleNode` its row, so
  chat aggregation, compression and checkpoints read and write the bank
  itself — there is nothing to copy.  Gradients have no bank: a net is
  built over :meth:`ParamBank.slice_rows`, which takes the gradient
  scratch of those rows — a step shard's one row block of it, reused
  block after block (:mod:`repro.parallel.stepshard`).
* :class:`FleetWaypointNet` mirrors the per-node network with batched
  layers: stacked GEMMs (``np.matmul`` over a leading node axis) for
  :class:`FleetLinear` and command-masked head dispatch.  One vehicle
  evaluating alone (its cache misses, the score of a received model) is
  a one-row net over ``bank.slice_rows(r, r + 1, grad)``, whose
  gradient row a forward never writes.
* :class:`FleetAdam` keeps ``(n_nodes, n_params)`` moment matrices with a
  per-node step counter, so staggered restores (one vehicle resuming
  from an older snapshot) bias-correct each row independently.  It owns
  every row's optimizer state; a checkpoint reaches one row through
  :meth:`FleetAdam.node_snapshot` / :meth:`FleetAdam.node_restore`.

Bit-identity note, against the single-vehicle reference
(``WaypointNet.forward`` and ``VehicleNode.train_step``, which runs on a
detached copy of the row; ``tests/test_nn_bank.py`` holds the bank to
both): stacked ``matmul`` runs the *same-shaped* GEMM per node, so a
one-row forward equals ``WaypointNet.forward`` to the bit at any batch
size, and trunk forward/backward/Adam match the reference step
bit-for-bit.  Head gradients batch over a different matrix extent (all
rows instead of the command-selected subset), which changes BLAS
accumulation order — those match within float tolerance only.
"""

from __future__ import annotations

import numpy as np

from repro.nn._fused import fused_adam_step
from repro.nn.layers import Flatten, Linear, ReLU
from repro.nn.model import WaypointNet

__all__ = [
    "ParamBank",
    "FleetLinear",
    "FleetReLU",
    "FleetFlatten",
    "FleetWaypointNet",
    "FleetAdam",
]


class ParamBank:
    """All nodes' parameters as one ``(n_nodes, n_params)`` float32 bank.

    The layout is ``template``'s and matches :func:`~repro.nn.params.
    get_flat_params`: within a row, parameters appear in
    ``template.parameters()`` order, each raveled C-style, so a row
    written from (or into) a model of that layout is the model.  The
    bank starts zeroed; ``views[k]`` exposes parameter ``k`` of every
    node as a ``(n_nodes, *shape)`` view into the bank.  A slice
    (:meth:`slice_rows`) also has ``grad_flat`` and ``grad_views``, the
    same layout over the gradient scratch it was given.
    """

    def __init__(self, template, n_nodes: int):
        if n_nodes <= 0:
            raise ValueError(f"bank needs at least one node: {n_nodes}")
        params = template.parameters()
        self.n_nodes = n_nodes
        self.specs: list[tuple[str, tuple[int, ...]]] = [
            (p.name, p.data.shape) for p in params
        ]
        sizes = [int(np.prod(shape)) if shape else 1 for _, shape in self.specs]
        self.n_params = int(sum(sizes))
        self.flat = np.zeros((n_nodes, self.n_params), dtype=np.float32)
        self.views = self._views(self.flat)

    def _views(self, matrix: np.ndarray) -> list[np.ndarray]:
        """Each parameter's ``(rows, *shape)`` view into ``matrix``."""
        views = []
        offset = 0
        for _, shape in self.specs:
            size = int(np.prod(shape)) if shape else 1
            views.append(matrix[:, offset : offset + size].reshape((len(matrix), *shape)))
            offset += size
        return views

    def __getstate__(self):
        # Pickled, a view is a copy: the views are taken again on arrival.
        state = self.__dict__.copy()
        state.pop("views")
        state.pop("grad_views", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.views = self._views(self.flat)
        if "grad_flat" in state:
            self.grad_views = self._views(self.grad_flat)

    def slice_rows(self, lo: int, hi: int, grad: np.ndarray) -> "ParamBank":
        """A zero-copy bank over rows ``[lo, hi)``, its gradients in ``grad``.

        The parameters are views of this bank's, so a
        :class:`FleetWaypointNet` built over the slice trains those rows
        in place; ``grad``, a C-contiguous float32 ``(hi - lo,
        n_params)`` scratch the caller owns, is where that net's backward
        writes and :class:`FleetAdam` reads.  Row ranges are the
        step-sharding unit: every batched op in this module is
        independent per leading (node) index, so partitioning rows
        across shards and blocks cannot reorder any float op.
        """
        if not (0 <= lo < hi <= self.n_nodes):
            raise ValueError(f"invalid row range [{lo}, {hi}) for {self.n_nodes} rows")
        bank = ParamBank.__new__(ParamBank)
        bank.n_nodes = hi - lo
        bank.n_params = self.n_params
        bank.specs = self.specs
        bank.flat = self.flat[lo:hi]
        bank.views = self._views(bank.flat)
        bank.grad_flat = grad
        bank.grad_views = self._views(grad)
        return bank

    def row_view(self, row: int) -> np.ndarray:
        """Read-only flat view of one node's parameters (zero-copy)."""
        view = self.flat[row].view()
        view.flags.writeable = False
        return view


# -- batched layers ----------------------------------------------------------
#
# Each fleet layer mirrors one per-node layer over a leading node axis.
# ``forward(x, shared)`` returns ``(out, shared)``: ``shared`` means the
# input is one batch broadcast to every node (validation evaluation);
# any parameterized layer produces per-node output, flipping it False.
# Backward supports per-node mode only — training always is.


class FleetLinear:
    """Stacked affine layer: ``(n, b, i) @ (n, i, o) + (n, 1, o)``.

    ``backward`` *assigns* the parameter gradients (it does not
    accumulate), writing straight into the bank views — the engine never
    needs a gradient-bank memset between steps.  When
    ``compute_input_grad`` is False (set on the trunk's first
    parameterized layer, where nothing below needs gradients) the input
    gradient GEMM is skipped entirely and ``backward`` returns None.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray,
                 grad_w: np.ndarray, grad_b: np.ndarray):
        self.weight = weight  # (n, in, out) bank view
        self.bias = bias  # (n, out) bank view
        self.grad_w = grad_w
        self.grad_b = grad_b
        self.compute_input_grad = True
        self._input: np.ndarray | None = None
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, shared: bool) -> tuple[np.ndarray, bool]:
        # Owned inputs only ever come from the engine's own buffers, so
        # no defensive copy is needed here (unlike per-node Linear).
        self._input = x
        self._shared = shared
        n, _, o = self.weight.shape
        shape = (n, x.shape[-2], o)
        # Persistent output buffer: multi-MB allocations are returned to
        # the OS by the allocator, so a fresh buffer per step would pay
        # page-fault costs on the training hot path.
        if self._out is None or self._out.shape != shape:
            self._out = np.empty(shape, dtype=np.float32)
        # A shared (b, i) input broadcasts against the (n, i, o) stack;
        # either way each node runs the same-shaped GEMM as the per-node
        # layer, keeping the MLP trunk bit-identical to it.
        out = np.matmul(x, self.weight, out=self._out)
        out += self.bias[:, None, :]
        return out, False

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        if self._input is None:
            raise RuntimeError("backward before forward")
        if self._shared:
            raise RuntimeError("fleet backward requires per-node inputs")
        x = self._input
        np.matmul(x.transpose(0, 2, 1), grad_out, out=self.grad_w)
        np.sum(grad_out, axis=1, out=self.grad_b)
        if not self.compute_input_grad:
            return None
        return np.matmul(grad_out, self.weight.transpose(0, 2, 1))


class FleetReLU:
    """Elementwise ``max(x, 0)`` — mode-agnostic."""

    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, shared: bool) -> tuple[np.ndarray, bool]:
        self._mask = x > 0
        return x * self._mask, shared

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward before forward")
        return grad_out * self._mask


class FleetFlatten:
    """Flattens trailing feature axes, keeping node/batch axes intact."""

    def forward(self, x: np.ndarray, shared: bool) -> tuple[np.ndarray, bool]:
        lead = 1 if shared else 2
        return x.reshape((*x.shape[:lead], -1)), shared


class FleetWaypointNet:
    """Batched mirror of a fleet of identical :class:`WaypointNet`\\ s.

    Built over a :meth:`ParamBank.slice_rows` slice, whose rows hold the
    nodes' parameters and whose gradient scratch the backward writes;
    forward/backward touch every node with one batched op
    per layer.  Inputs are either per-node stacks (``bev`` of shape
    ``(n, b, C, H, W)``, ``commands`` of ``(n, b)``) or one shared batch
    (``(b, C, H, W)`` / ``(b,)``) broadcast to all nodes — the
    validation-evaluation fast path.
    """

    def __init__(self, bank: ParamBank, template: WaypointNet):
        self.bank = bank
        self.n_waypoints = template.n_waypoints
        views = iter(zip(bank.views, bank.grad_views))

        def take() -> tuple[np.ndarray, np.ndarray]:
            return next(views)

        self.trunk: list = []
        for module in template.trunk.modules:
            if isinstance(module, Linear):
                (w, gw), (b, gb) = take(), take()
                self.trunk.append(FleetLinear(w, b, gw, gb))
            elif isinstance(module, ReLU):
                self.trunk.append(FleetReLU())
            elif isinstance(module, Flatten):
                self.trunk.append(FleetFlatten())
            else:
                raise ValueError(
                    f"cannot batch trunk module {type(module).__name__}"
                )
        self.heads: list[FleetLinear] = []
        for _ in template.heads:
            (w, gw), (b, gb) = take(), take()
            self.heads.append(FleetLinear(w, b, gw, gb))
        if next(views, None) is not None:
            raise ValueError("bank has more parameters than the template model")
        # Nothing below the first parameterized trunk layer needs
        # gradients, so its (large) input-gradient GEMM is pure waste.
        for module in self.trunk:
            if isinstance(module, FleetLinear):
                module.compute_input_grad = False
                break
        self._features: np.ndarray | None = None
        self._masks: list[np.ndarray] | None = None

    def forward(self, bev: np.ndarray, commands: np.ndarray) -> np.ndarray:
        """Predict waypoints for every node; output ``(n, b, 2 * w)``."""
        commands = np.asarray(commands)
        shared = bev.ndim == 4
        if shared and commands.ndim != 1:
            raise ValueError("shared bev needs a shared (batch,) command vector")
        if not shared and commands.ndim != 2:
            raise ValueError("per-node bev needs (n_nodes, batch) commands")
        x = bev.astype(np.float32, copy=False)
        for module in self.trunk:
            x, shared = module.forward(x, shared)
        features = x  # (n, b, hidden)
        n, batch = features.shape[:2]
        out = np.zeros((n, batch, 2 * self.n_waypoints), dtype=np.float32)
        masks = []
        for cmd, head in enumerate(self.heads):
            mask = commands == cmd
            if mask.ndim == 1:
                # One batch for every node: run the head on its own
                # command's rows only — the per-node model's exact GEMM
                # shape (a one-row group takes BLAS's GEMV path, which
                # rounds differently from a row of a larger GEMM).
                if mask.any():
                    out[:, mask] = (
                        np.matmul(features[:, mask], head.weight) + head.bias[:, None, :]
                    )
                continue
            masks.append(mask)
            if mask.any():
                vals, _ = head.forward(features, False)
                out = np.where(mask[:, :, None], vals, out)
        self._features = features
        # A shared batch has no backward (the trunk refuses one), so no
        # command masks are kept for it.
        self._masks = masks if commands.ndim == 2 else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        """Route head gradients per command, then back through the trunk.

        Parameter gradients are *assigned* into the bank (every layer and
        head writes its full gradient each call), so no ``zero_grad``
        between steps is needed; the return value is the input gradient,
        or None because the first parameterized trunk layer skips it.
        """
        if self._features is None or self._masks is None:
            raise RuntimeError("backward needs a per-node forward before it")
        features = self._features
        grad_features: np.ndarray | None = None
        for head, mask in zip(self.heads, self._masks):
            masked = np.where(mask[:, :, None], grad_out, np.float32(0.0))
            np.matmul(features.transpose(0, 2, 1), masked, out=head.grad_w)
            np.sum(masked, axis=1, out=head.grad_b)
            if grad_features is None:
                grad_features = np.matmul(masked, head.weight.transpose(0, 2, 1))
            else:
                grad_features += np.matmul(masked, head.weight.transpose(0, 2, 1))
        grad = grad_features
        for module in reversed(self.trunk):
            grad = module.backward(grad)
            if grad is None:
                break
        return grad


# -- batched Adam ------------------------------------------------------------


class FleetAdam:
    """Vectorized Adam over a :class:`ParamBank` with per-node steps.

    The update applies the exact formula sequence of
    :class:`~repro.nn.optim.Adam` row-wise, with per-node bias
    corrections cast to float32 columns, so a node trained through the
    bank is bitwise
    indistinguishable from one trained by its own Adam instance.  It
    reads the gradients of its bank's :meth:`~ParamBank.slice_rows`
    scratch, so the fleet's optimizer, over the whole bank, holds the
    moments and steps through its row slices (:meth:`slice_rows`).
    """

    def __init__(
        self,
        bank: ParamBank,
        lr: float = 1e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive: {lr}")
        self.bank = bank
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.steps = np.zeros(bank.n_nodes, dtype=np.int64)
        self.m = np.zeros((bank.n_nodes, bank.n_params), dtype=np.float32)
        self.v = np.zeros((bank.n_nodes, bank.n_params), dtype=np.float32)
        self._scratch: np.ndarray | None = None

    def slice_rows(self, lo: int, hi: int, bank_slice: ParamBank) -> "FleetAdam":
        """A zero-copy optimizer over rows ``[lo, hi)`` of this optimizer.

        ``bank_slice`` must be ``self.bank.slice_rows(lo, hi, grad)``;
        :meth:`step` reads ``grad``.  The slice shares moment matrices and
        step counters with the parent (views), so a block advancing its
        rows is indistinguishable from the whole optimizer advancing them.
        """
        other = FleetAdam.__new__(FleetAdam)
        other.bank = bank_slice
        other.lr = self.lr
        other.beta1, other.beta2 = self.beta1, self.beta2
        other.eps = self.eps
        other.steps = self.steps[lo:hi]
        other.m = self.m[lo:hi]
        other.v = self.v[lo:hi]
        other._scratch = None
        return other

    def step(self) -> None:
        """One Adam update for every row from its gradient scratch.

        Every row is bias-corrected by its own step count (rows diverge
        after a staggered restore), through float32 casts of the same
        Python-float expressions :class:`~repro.nn.optim.Adam` uses, so
        lock-step and staggered updates are one code path and each row
        matches the per-node optimizer bit-for-bit.  The fused kernel
        does it in one pass; without a compiler the chunked numpy
        statement of the same formula runs instead.
        """
        self.steps += 1
        steps = self.steps.tolist()
        bc1 = np.array([1.0 - self.beta1**t for t in steps], dtype=np.float32)
        bc2 = np.array([1.0 - self.beta2**t for t in steps], dtype=np.float32)
        kernel = fused_adam_step()
        if kernel is None:
            self._step_chunked(bc1[:, None], bc2[:, None])
            return
        p = self.bank.flat
        kernel(
            p, self.bank.grad_flat, self.m, self.v, *p.shape, bc1, bc2,
            self.beta1, 1.0 - self.beta1,
            self.beta2, 1.0 - self.beta2,
            self.lr, self.eps,
        )

    #: Elements per block of the numpy fallback — sized so the live
    #: slices of g/m/v/p plus three scratch rows stay cache-resident
    #: (full-width passes stream every array through DRAM ~10 times).
    _CHUNK = 131072

    def _step_chunked(self, bc1, bc2) -> None:
        """The no-compiler fallback: the update over column blocks.

        The state is ``(n, n_params)`` matrices and the corrections
        float32 ``(n, 1)`` columns; a float32 array divided by a float32
        column stays float32 (NEP 50), matching the per-node scalar
        arithmetic bit-for-bit.
        """
        n, total = self.bank.grad_flat.shape
        chunk = min(max(1, self._CHUNK // n), total)
        if self._scratch is None or self._scratch.shape[1:] != (n, chunk):
            self._scratch = np.empty((3, n, chunk), dtype=np.float32)
        one_m_b1 = 1.0 - self.beta1
        one_m_b2 = 1.0 - self.beta2
        for a in range(0, total, chunk):
            b = min(a + chunk, total)
            width = b - a
            t0 = self._scratch[0, ..., :width]
            t1 = self._scratch[1, ..., :width]
            t2 = self._scratch[2, ..., :width]
            g = self.bank.grad_flat[..., a:b]
            m = self.m[..., a:b]
            v = self.v[..., a:b]
            p = self.bank.flat[..., a:b]
            m *= self.beta1
            np.multiply(g, one_m_b1, out=t0)
            m += t0
            v *= self.beta2
            np.multiply(g, g, out=t0)
            t0 *= one_m_b2
            v += t0
            np.divide(m, bc1, out=t1)  # m_hat
            t1 *= self.lr
            np.divide(v, bc2, out=t2)  # v_hat
            np.sqrt(t2, out=t2)
            t2 += self.eps
            t1 /= t2
            p -= t1

    # -- per-node checkpoint bridge ------------------------------------------

    def node_snapshot(self, row: int) -> dict:
        """One node's optimizer state, in :class:`Adam`'s snapshot format.

        ``m`` and ``v`` are views of the row, valid until the next step.
        """
        return {"step": int(self.steps[row]), "m": self.m[row], "v": self.v[row]}

    def node_restore(self, row: int, state: dict) -> None:
        """Load one node's state; other rows keep their own step counts."""
        m = np.asarray(state["m"], dtype=np.float32).ravel()
        v = np.asarray(state["v"], dtype=np.float32).ravel()
        if m.size != self.bank.n_params or v.size != self.bank.n_params:
            raise ValueError(
                f"optimizer state has {m.size} entries, bank rows hold "
                f"{self.bank.n_params}"
            )
        self.steps[row] = int(state["step"])
        self.m[row] = m
        self.v[row] = v
