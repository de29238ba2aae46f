"""Minimal dense networks: tanh MLPs with hand-derived backprop and Adam.

Everything is plain numpy.  The public functions are pure: parameters and
optimizer states are immutable values, and updates return fresh copies.
That keeps training runs trivially reproducible and lets tests compare whole
parameter sets bit-for-bit.  :class:`TrainingWorkspace` steps the heads of
a training run in buffers allocated once, through the same forward, backward
and Adam kernels that the public functions call with fresh buffers, and
updates all of them with one Adam pass.

A training step is one forward pass and one backward pass through the
activations that forward pass stored.  Parameters, gradients and Adam moments
each live in one flat float64 buffer (every weight matrix, then every bias
vector) with the per-layer arrays as reshaped views, so gradients come back
as an :class:`MlpParams` and :func:`adam_step` updates a whole net with one
set of elementwise operations instead of one set per array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


def _shapes(layer_dims) -> list[tuple[int, ...]]:
    """Shapes of the weights, then the biases, in their order in the flat buffer."""
    pairs = list(zip(layer_dims[:-1], layer_dims[1:]))
    return [(fan_out, fan_in) for fan_in, fan_out in pairs] + [(fan_out,) for _, fan_out in pairs]


def _split(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Reshaped views of consecutive runs of ``flat``."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


@dataclass(frozen=True)
class MlpParams:
    """Fully connected net: tanh on hidden layers, identity on the output.

    ``weights[l]`` has shape (layer_dims[l+1], layer_dims[l]); ``biases[l]``
    has shape (layer_dims[l+1],).  Both are views into ``flat``.  Built from
    separate arrays (``flat`` left out), the arrays are copied into a fresh
    buffer; pass ``flat`` only with weights and biases that are its views.
    """

    layer_dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    flat: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.flat is None:
            shapes = _shapes(self.layer_dims)
            got = [np.shape(a) for a in (*self.weights, *self.biases)]
            if len(self.weights) != len(self.biases) or got != shapes:
                raise ShapeError(f"weight and bias shapes {got} do not fit layer_dims {tuple(self.layer_dims)}")
            # copy the arrays into one fresh buffer and point the fields at views of it
            arrays = (*self.weights, *self.biases)
            flat = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
            views = _split(flat, shapes)
            n = len(self.weights)
            object.__setattr__(self, "flat", flat)
            object.__setattr__(self, "weights", tuple(views[:n]))
            object.__setattr__(self, "biases", tuple(views[n:]))


def _params_from_flat(layer_dims: tuple[int, ...], flat: np.ndarray) -> MlpParams:
    views = _split(flat, _shapes(layer_dims))
    n = len(layer_dims) - 1
    return MlpParams(layer_dims, tuple(views[:n]), tuple(views[n:]), flat)


def mlp_init(layer_dims, seed) -> MlpParams:
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases.

    ``seed`` may be an int, a SeedSequence, or a Generator.
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"layer_dims needs >= 2 positive entries, got {layer_dims!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return MlpParams(layer_dims=dims, weights=tuple(weights), biases=tuple(biases))


def _check_input(params: MlpParams, x: np.ndarray) -> None:
    if x.ndim < 1 or x.shape[-1] != params.layer_dims[0]:
        raise ShapeError(
            f"input trailing dim {x.shape[-1] if x.ndim else '()'} != layer_dims[0] = {params.layer_dims[0]}"
        )


def _forward(weights, biases, acts: list, out: np.ndarray | None = None) -> np.ndarray:
    """Forward pass from the (B, d0) input block ``acts[0]``; returns the output, written into ``out``.

    ``acts[l]`` (l >= 1) is the buffer for the input to layer l, or None for a
    fresh one; ``acts`` is left holding the activations written.
    """
    for l in range(1, len(acts)):
        z = acts[l] = np.matmul(acts[l - 1], weights[l - 1].T, out=acts[l])
        z += biases[l - 1]
        np.tanh(z, out=z)
    out = np.matmul(acts[-1], weights[-1].T, out=out)
    out += biases[-1]
    return out


def _backward(weights, acts, grad_out, grad_w, grad_b, deltas, grad_input=None) -> None:
    """Backpropagate dLoss/dOut through the activations of a forward pass into
    ``grad_w``/``grad_b`` (summed over rows), ``deltas`` (buffers or None) and, if
    given, ``grad_input``.  Overwrites each hidden activation with its tanh slope once it is used."""
    g = grad_out
    for l in range(len(weights) - 1, -1, -1):
        np.matmul(g.T, acts[l], out=grad_w[l])
        np.add.reduce(g, axis=0, out=grad_b[l])
        if l > 0:
            g = np.matmul(g, weights[l], out=deltas[l - 1])
            slope = np.square(acts[l], out=acts[l])  # tanh' = 1 - tanh^2
            np.subtract(1.0, slope, out=slope)
            g *= slope
        elif grad_input is not None:
            np.matmul(g, weights[0], out=grad_input)


def mlp_forward(params: MlpParams, x) -> np.ndarray:
    """Evaluate the net; accepts (d0,) or any (..., d0) batch."""
    x = np.asarray(x, dtype=np.float64)
    _check_input(params, x)
    acts = [x.reshape(-1, x.shape[-1])] + [None] * (len(params.weights) - 1)
    out = _forward(params.weights, params.biases, acts)
    return out.reshape(*x.shape[:-1], params.layer_dims[-1])


def mlp_backward(params: MlpParams, x, grad_output) -> tuple[MlpParams, np.ndarray]:
    """Backpropagate ``grad_output`` (dLoss/dOutput, with ``x``'s leading shape) through the net.

    Runs the forward pass for its activations, then the backward pass.
    Returns (parameter gradients, laid out like ``params``, and dLoss/dInput).
    Gradients are summed over the batch, matching a loss that sums (not
    averages) over batch rows; put any 1/B factor into ``grad_output``.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_input(params, x)
    x2d = x.reshape(-1, x.shape[-1])
    g = np.asarray(grad_output, dtype=np.float64).reshape(-1, params.layer_dims[-1])
    if g.shape[0] != x2d.shape[0]:
        raise ShapeError(f"grad_output batch {g.shape[0]} != input batch {x2d.shape[0]}")
    n_layers = len(params.weights)
    acts = [x2d] + [None] * (n_layers - 1)
    _forward(params.weights, params.biases, acts)
    grads = _params_from_flat(params.layer_dims, np.empty_like(params.flat))
    grad_input = np.empty(x2d.shape)
    _backward(params.weights, acts, g, grads.weights, grads.biases, [None] * (n_layers - 1), grad_input)
    return grads, grad_input.reshape(*x.shape[:-1], params.layer_dims[0])


# Adam's decay rates and denominator offset: the usual values, which every run uses.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class AdamState:
    """Adam moments, learning rate and step count for one parameter set.

    ``m`` and ``v`` are laid out like the parameters' ``flat`` buffer.
    """

    m: np.ndarray
    v: np.ndarray
    lr: float = 1e-3
    step: int = 0


def adam_init(params: MlpParams, lr: float = 1e-3) -> AdamState:
    if not lr > 0.0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), lr=lr)


def _adam(lr: float, t: int, g: np.ndarray, src, dst, scratch: np.ndarray, step: np.ndarray) -> None:
    """Adam update ``t`` from ``src = (p, m, v)`` into ``dst`` (which may be ``src``; its p' may be ``step``):
    ``m' = b1 m + (1 - b1) g``, ``v' = b2 v + (1 - b2) g g`` and
    ``p' = p - lr (m' / bc1) / (sqrt(v' / bc2) + eps)``, elementwise in that order."""
    p, m, v = src
    new_p, new_m, new_v = dst
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    np.multiply(m, ADAM_BETA1, out=new_m)
    np.multiply(g, 1.0 - ADAM_BETA1, out=scratch)
    new_m += scratch
    np.multiply(v, ADAM_BETA2, out=new_v)
    np.multiply(g, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= g
    new_v += scratch
    np.divide(new_v, bc2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    np.divide(new_m, bc1, out=step)
    step *= lr
    step /= scratch
    np.subtract(p, step, out=new_p)


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update over the whole flat buffer; returns fresh (params, state)."""
    if not params.flat.shape == grads.flat.shape == state.m.shape:
        raise ShapeError(
            f"{grads.flat.size} gradients and {state.m.size} moments for {params.flat.size} parameters"
        )
    t = state.step + 1
    p, m, v, scratch = (np.empty_like(params.flat) for _ in range(4))
    _adam(state.lr, t, grads.flat, (params.flat, state.m, state.v), (p, m, v), scratch, p)
    new_state = AdamState(m=m, v=v, lr=state.lr, step=t)
    return _params_from_flat(params.layer_dims, p), new_state


class _Head:
    """One head of a :class:`TrainingWorkspace`: views of its runs of the shared buffers,
    and the activations, deltas and gradients of its steps."""

    def __init__(self, dims: tuple[int, ...], flat: np.ndarray, grad: np.ndarray, rows: int, grad_input: bool) -> None:
        n = len(dims) - 1
        shapes = _shapes(dims)
        self.layer_dims, self.flat = dims, flat
        views, grads = _split(flat, shapes), _split(grad, shapes)
        self.weights, self.biases = views[:n], views[n:]
        self.grad_w, self.grad_b = grads[:n], grads[n:]
        self.acts = [None] + [np.empty((rows, d)) for d in dims[1:-1]]  # acts[0] is the input block forward was given
        self.deltas = [np.empty((rows, d)) for d in dims[1:-1]]
        self.out, self.grad_out = np.empty((rows, dims[-1])), np.empty((rows, dims[-1]))
        self.grad_input = np.empty((rows, dims[0])) if grad_input else None

    def forward(self, inp: np.ndarray) -> np.ndarray:
        """The net's output on the ``(rows, d0)`` block ``inp``, in the ``out`` buffer; ``inp`` must
        stay as it is until :meth:`backward`."""
        self.acts[0] = inp
        return _forward(self.weights, self.biases, self.acts, self.out)

    def backward(self) -> None:
        """Backpropagate ``grad_out`` through the last forward pass into the head's gradients."""
        _backward(self.weights, self.acts, self.grad_out, self.grad_w, self.grad_b, self.deltas, self.grad_input)

    def params(self) -> MlpParams:
        """A fresh copy of the current parameters."""
        return _params_from_flat(self.layer_dims, self.flat.copy())


class TrainingWorkspace:
    """The training state of one method's heads and every buffer their steps write, allocated once.

    The parameters of all heads, their gradients and their Adam moments each
    live in one flat buffer, head after head in the order of ``params``; each
    head's per-layer arrays are views of its run.  ``heads[name]`` holds that
    head's activations, deltas and gradient buffers for ``rows`` rows.  A step
    calls each head's ``forward`` on an input block, writes dLoss/dOut into
    its ``grad_out``, runs each head's ``backward``, then :meth:`update`: one
    Adam step over every head's parameters at once, with the kernels of
    :func:`mlp_backward` and :func:`adam_step`.  Adam is elementwise, so one
    pass over the joined buffers gives each head the bits of its own pass.  A
    head named in ``grad_input`` also leaves dLoss/dInput in its ``grad_input``.
    """

    def __init__(self, params: dict[str, MlpParams], lr: float, rows: int, grad_input=()) -> None:
        self.lr, self.t = lr, 0
        self.flat = np.concatenate([p.flat for p in params.values()])
        self.grad = np.empty_like(self.flat)
        self.m, self.v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        self.scratch, self.step_buf = np.empty_like(self.flat), np.empty_like(self.flat)
        self.heads, start = {}, 0
        for name, p in params.items():
            run = slice(start, start + p.flat.size)
            self.heads[name] = _Head(p.layer_dims, self.flat[run], self.grad[run], rows, name in grad_input)
            start = run.stop

    def update(self) -> None:
        """One Adam step for every head, from the gradients of their last ``backward``."""
        self.t += 1
        state = (self.flat, self.m, self.v)
        _adam(self.lr, self.t, self.grad, state, state, self.scratch, self.step_buf)

    def params(self) -> dict[str, MlpParams]:
        """A fresh copy of each head's current parameters."""
        return {name: head.params() for name, head in self.heads.items()}
