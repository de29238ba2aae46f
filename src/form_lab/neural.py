"""Minimal dense networks: tanh MLPs with hand-derived backprop and Adam.

Everything is plain numpy and purely functional: parameters and optimizer
states are immutable values, updates return fresh copies.  That keeps
training runs trivially reproducible and lets tests compare whole parameter
sets bit-for-bit.

A training step is one forward pass and one backward pass:
:func:`mlp_value_and_grad` keeps the activations of its forward pass, asks
the caller's loss for dLoss/dOutput, and backpropagates through the stored
activations.  Parameters, gradients and Adam moments each live in one flat
float64 buffer (every weight matrix, then every bias vector) with the per-layer
arrays as reshaped views, so :func:`adam_step` updates a whole net with one
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


def _pack(obj, shapes) -> None:
    """Copy ``obj``'s weights and biases into one fresh buffer and point ``obj`` at views of it."""
    arrays = (*obj.weights, *obj.biases)
    flat = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
    views = _split(flat, shapes)
    n = len(obj.weights)
    object.__setattr__(obj, "flat", flat)
    object.__setattr__(obj, "weights", tuple(views[:n]))
    object.__setattr__(obj, "biases", tuple(views[n:]))


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
            _pack(self, shapes)


@dataclass(frozen=True)
class MlpGrads:
    """Gradients laid out like :class:`MlpParams`, in one ``flat`` buffer."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    flat: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.flat is None:
            _pack(self, [np.shape(a) for a in (*self.weights, *self.biases)])


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


def _forward_activations(params: MlpParams, x2d: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass on a (B, d0) batch; returns (output, activations).

    activations[l] is the input to layer l: activations[0] = x, then the
    tanh outputs of each hidden layer.
    """
    acts = [x2d]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = acts[-1] @ w.T
        z += b
        acts.append(np.tanh(z, out=z))
    out = acts[-1] @ params.weights[-1].T
    out += params.biases[-1]
    return out, acts


def mlp_forward(params: MlpParams, x) -> np.ndarray:
    """Evaluate the net; accepts (d0,) or any (..., d0) batch."""
    x = np.asarray(x, dtype=np.float64)
    _check_input(params, x)
    out, _ = _forward_activations(params, x.reshape(-1, x.shape[-1]))
    return out.reshape(*x.shape[:-1], params.layer_dims[-1])


def mlp_value_and_grad(params: MlpParams, x, grad_fn) -> tuple[object, MlpGrads, np.ndarray]:
    """One forward pass, then backpropagation of the loss ``grad_fn`` puts on its output.

    ``grad_fn(out) -> (loss, dLoss/dOut)`` sees the output with ``x``'s
    leading shape, as :func:`mlp_forward` returns it.  Returns (loss,
    parameter gradients, dLoss/dInput).  Gradients are summed over the batch,
    matching a loss that sums (not averages) over batch rows; put any 1/B
    factor into dLoss/dOut.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_input(params, x)
    lead = x.shape[:-1]
    x2d = x.reshape(-1, x.shape[-1])
    out, acts = _forward_activations(params, x2d)
    loss, grad_output = grad_fn(out.reshape(*lead, params.layer_dims[-1]))
    g = np.asarray(grad_output, dtype=np.float64).reshape(-1, params.layer_dims[-1])
    if g.shape[0] != x2d.shape[0]:
        raise ShapeError(f"grad_output batch {g.shape[0]} != input batch {x2d.shape[0]}")

    flat = np.empty_like(params.flat)
    views = _split(flat, _shapes(params.layer_dims))
    n_layers = len(params.weights)
    for l in range(n_layers - 1, -1, -1):
        np.matmul(g.T, acts[l], out=views[l])
        np.sum(g, axis=0, out=views[n_layers + l])
        g = g @ params.weights[l]
        if l > 0:  # tanh' = 1 - tanh^2, using the stored activation
            slope = acts[l] ** 2
            np.subtract(1.0, slope, out=slope)
            g *= slope
    grads = MlpGrads(tuple(views[:n_layers]), tuple(views[n_layers:]), flat)
    return loss, grads, g.reshape(*lead, params.layer_dims[0])


def mlp_backward(params: MlpParams, x, grad_output) -> tuple[MlpGrads, np.ndarray]:
    """Backpropagate ``grad_output`` (dLoss/dOutput) through the net.

    Returns (parameter gradients, dLoss/dInput), as :func:`mlp_value_and_grad`.
    """
    _, grads, grad_input = mlp_value_and_grad(params, x, lambda out: (None, grad_output))
    return grads, grad_input


@dataclass(frozen=True)
class AdamState:
    """Adam moments and hyperparameters for one parameter set.

    ``m`` and ``v`` are laid out like the parameters' ``flat`` buffer.
    """

    m: np.ndarray
    v: np.ndarray
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0


def adam_init(params: MlpParams, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    if not lr > 0.0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(params: MlpParams, grads: MlpGrads, state: AdamState) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update over the whole flat buffer; returns fresh (params, state).

    The elementwise operations are those of
    ``m' = b1 m + (1 - b1) g``, ``v' = b2 v + (1 - b2) g g`` and
    ``p' = p - lr (m' / bc1) / (sqrt(v' / bc2) + eps)``, in that order,
    written in place into fresh temporaries.
    """
    if not params.flat.shape == grads.flat.shape == state.m.shape:
        raise ShapeError(
            f"{grads.flat.size} gradients and {state.m.size} moments for {params.flat.size} parameters"
        )
    t = state.step + 1
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    g = grads.flat

    m = state.m * state.beta1
    m += (1.0 - state.beta1) * g
    v = state.v * state.beta2
    scratch = (1.0 - state.beta2) * g
    scratch *= g
    v += scratch
    np.divide(v, bc2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += state.eps
    p = m / bc1
    p *= state.lr
    p /= scratch
    np.subtract(params.flat, p, out=p)

    new_state = AdamState(m=m, v=v, lr=state.lr, beta1=state.beta1, beta2=state.beta2, eps=state.eps, step=t)
    return _params_from_flat(params.layer_dims, p), new_state
