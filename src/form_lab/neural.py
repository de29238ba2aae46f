"""Minimal dense networks: tanh MLPs with hand-derived backprop and Adam.

Everything is plain numpy and purely functional: parameters and optimizer
states are immutable values, updates return fresh copies.  That keeps
training runs trivially reproducible and lets tests compare whole parameter
sets bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class MlpParams:
    """Fully connected net: tanh on hidden layers, identity on the output.

    ``weights[l]`` has shape (layer_dims[l+1], layer_dims[l]); ``biases[l]``
    has shape (layer_dims[l+1],).
    """

    layer_dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class MlpGrads:
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]


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
    a = x2d
    n_layers = len(params.weights)
    for l in range(n_layers - 1):
        a = np.tanh(a @ params.weights[l].T + params.biases[l])
        acts.append(a)
    out = a @ params.weights[-1].T + params.biases[-1]
    return out, acts


def mlp_forward(params: MlpParams, x) -> np.ndarray:
    """Evaluate the net; accepts (d0,) or any (..., d0) batch."""
    x = np.asarray(x, dtype=np.float64)
    _check_input(params, x)
    lead = x.shape[:-1]
    out, _ = _forward_activations(params, x.reshape(-1, x.shape[-1]))
    return out.reshape(*lead, params.layer_dims[-1])


def mlp_backward(params: MlpParams, x, grad_output) -> tuple[MlpGrads, np.ndarray]:
    """Backpropagate ``grad_output`` (dLoss/dOutput) through the net.

    Returns (parameter gradients, dLoss/dInput).  Gradients are summed over
    the batch, matching a loss that sums (not averages) over batch rows;
    put any 1/B factor into ``grad_output``.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_input(params, x)
    lead = x.shape[:-1]
    x2d = x.reshape(-1, x.shape[-1])
    g = np.asarray(grad_output, dtype=np.float64).reshape(-1, params.layer_dims[-1])
    if g.shape[0] != x2d.shape[0]:
        raise ShapeError(f"grad_output batch {g.shape[0]} != input batch {x2d.shape[0]}")

    _, acts = _forward_activations(params, x2d)
    n_layers = len(params.weights)
    d_weights: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
    d_biases: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
    for l in range(n_layers - 1, -1, -1):
        d_weights[l] = g.T @ acts[l]
        d_biases[l] = g.sum(axis=0)
        g = g @ params.weights[l]
        if l > 0:  # tanh' = 1 - tanh^2, using the stored activation
            g = g * (1.0 - acts[l] ** 2)
    return MlpGrads(weights=tuple(d_weights), biases=tuple(d_biases)), g.reshape(*lead, params.layer_dims[0])


@dataclass(frozen=True)
class AdamState:
    """Adam moments and hyperparameters for one parameter set."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m_weights: tuple[np.ndarray, ...] = field(default_factory=tuple)
    v_weights: tuple[np.ndarray, ...] = field(default_factory=tuple)
    m_biases: tuple[np.ndarray, ...] = field(default_factory=tuple)
    v_biases: tuple[np.ndarray, ...] = field(default_factory=tuple)


def adam_init(params: MlpParams, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    if not lr > 0.0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    zeros_like = lambda arrs: tuple(np.zeros_like(a) for a in arrs)
    return AdamState(
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        step=0,
        m_weights=zeros_like(params.weights),
        v_weights=zeros_like(params.weights),
        m_biases=zeros_like(params.biases),
        v_biases=zeros_like(params.biases),
    )


def adam_step(params: MlpParams, grads: MlpGrads, state: AdamState) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update; returns fresh (params, state)."""
    t = state.step + 1
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t

    def update(p, g, m, v):
        m_new = state.beta1 * m + (1.0 - state.beta1) * g
        v_new = state.beta2 * v + (1.0 - state.beta2) * g * g
        p_new = p - state.lr * (m_new / bc1) / (np.sqrt(v_new / bc2) + state.eps)
        return p_new, m_new, v_new

    new_w, new_mw, new_vw = [], [], []
    for p, g, m, v in zip(params.weights, grads.weights, state.m_weights, state.v_weights):
        pn, mn, vn = update(p, g, m, v)
        new_w.append(pn), new_mw.append(mn), new_vw.append(vn)
    new_b, new_mb, new_vb = [], [], []
    for p, g, m, v in zip(params.biases, grads.biases, state.m_biases, state.v_biases):
        pn, mn, vn = update(p, g, m, v)
        new_b.append(pn), new_mb.append(mn), new_vb.append(vn)

    new_params = MlpParams(params.layer_dims, tuple(new_w), tuple(new_b))
    new_state = AdamState(
        lr=state.lr,
        beta1=state.beta1,
        beta2=state.beta2,
        eps=state.eps,
        step=t,
        m_weights=tuple(new_mw),
        v_weights=tuple(new_vw),
        m_biases=tuple(new_mb),
        v_biases=tuple(new_vb),
    )
    return new_params, new_state
