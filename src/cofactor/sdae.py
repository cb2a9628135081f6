"""Stacked denoising autoencoder over bag-of-words rows.

The layer stack is symmetric: input → hidden… → latent → mirrored hidden… →
input, built by stack_widths from the input width, the hidden widths and the
latent width. Sigmoid activations on every layer. The encoder is the first
half of the stack and its output, the middle layer, is the latent vector; the
reconstruction is the full stack. Gradients cover the three joint-loss terms
that touch the net: the item-anchor pull toward the middle layer, the
clean-row reconstruction error, and weight decay.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sparse import CsrMatrix


@dataclass
class SdaeConfig:
    """Architecture and training knobs.

    hidden_widths are the encoder's layers between the input and the latent
    layer, outermost first; the decoder mirrors them. The input width (the
    vocabulary size) and the latent width (the factor model's K) come from
    the data and the model, so stack_widths derives the full stack and checks
    that every width is positive.
    """

    hidden_widths: list[int]
    noise_rate: float = 0.3
    pretrain_epochs: int = 20
    learning_rate: float = 0.01

    def validate(self) -> None:
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValidationError("noise_rate must be in [0, 1)")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError("learning_rate must be positive and finite")
        if self.pretrain_epochs < 0:
            raise ValidationError("pretrain_epochs must be nonnegative")


def stack_widths(n_inputs: int, hidden_widths, latent: int) -> list[int]:
    """The symmetric layer stack input → hidden → latent → mirrored hidden →
    input, whose middle layer is the latent vector."""
    widths = [n_inputs, *hidden_widths, latent, *reversed(hidden_widths), n_inputs]
    if min(widths) < 1:
        raise ValidationError(f"layer widths must be positive, got {widths}")
    return widths


@dataclass
class SdaeParams:
    """Per-layer weight matrices (fan_in × fan_out) and bias vectors."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def layer_widths(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def copy(self) -> "SdaeParams":
        return SdaeParams([w.copy() for w in self.weights],
                          [b.copy() for b in self.biases])

    def squared_norm(self) -> float:
        return float(sum((w * w).sum() for w in self.weights)
                     + sum((b * b).sum() for b in self.biases))


def init_params(layer_widths: list[int], rng: np.random.Generator) -> SdaeParams:
    """Zero biases; weights uniform in ±sqrt(6 / (fan_in + fan_out))."""
    weights, biases = [], []
    for d_in, d_out in zip(layer_widths[:-1], layer_widths[1:]):
        limit = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-limit, limit, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return SdaeParams(weights=weights, biases=biases)


def corrupt(x_clean, noise_rate: float, rng_seed):
    """Masking noise: zero each stored coordinate independently with the given rate."""
    if not 0.0 <= noise_rate < 1.0:
        raise ValidationError("noise_rate must be in [0, 1)")
    rng = np.random.default_rng(rng_seed)
    if isinstance(x_clean, CsrMatrix):
        masked = x_clean.data * (rng.random(x_clean.data.shape) >= noise_rate)
        return dataclasses.replace(x_clean, data=masked).select(masked != 0)
    x = np.asarray(x_clean, dtype=np.float64)
    return x * (rng.random(x.shape) >= noise_rate)


def _check_input_width(x, params: SdaeParams) -> None:
    width = x.shape[-1] if x.shape else 0
    expected = params.weights[0].shape[0]
    if width != expected:
        raise ValidationError(f"input width {width} != first layer fan-in {expected}")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^−x), as scipy.special.expit computes it but on numpy's exp:
    within 2 ulps of expit. Below x ≈ −709 e^−x overflows to inf and the
    result is exactly 0, as it should be."""
    with np.errstate(over="ignore"):
        out = np.negative(x)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def _dense(x) -> np.ndarray:
    return x.toarray() if isinstance(x, CsrMatrix) else np.asarray(x, dtype=np.float64)


def _forward(x, params: SdaeParams, n_layers: int):
    """Activations [h_0 … h_n]; h_0 is the (possibly sparse) input."""
    acts = [x]
    h = x
    for layer in range(n_layers):
        h = _sigmoid(h @ params.weights[layer] + params.biases[layer])
        acts.append(h)
    return acts

def encode(x0, params: SdaeParams) -> np.ndarray:
    """Middle-layer activation: the latent representation of x0."""
    _check_input_width(x0, params)
    if params.n_layers % 2 != 0:
        raise ValidationError("encode needs an even layer count to locate the middle layer")
    return _forward(x0, params, params.n_layers // 2)[-1]


def reconstruct(x0, params: SdaeParams) -> np.ndarray:
    """Output-layer activation: the reconstruction of x0 through all layers."""
    return forward_activations(x0, params)[-1]


def forward_activations(x0, params: SdaeParams) -> list:
    """All layer activations, exposed so the encode/reconstruct split is checkable."""
    _check_input_width(x0, params)
    return _forward(x0, params, params.n_layers)


def sdae_forward(params: SdaeParams, x0, xc) -> tuple[np.ndarray, float]:
    """One full forward pass: (encode(x0), Σ‖xc − reconstruct(x0)‖²)."""
    acts = forward_activations(x0, params)
    recon = _dense(xc) - acts[-1]
    return acts[params.n_layers // 2], float((recon * recon).sum())


def sdae_gradients(params: SdaeParams, x0, xc, beta: np.ndarray, *,
                   lambda_anchor: float, lambda_recon: float,
                   lambda_decay: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of the minimized joint-loss terms w.r.t. every weight and bias.

    Covers (λ_anchor/2)·Σ‖β − encode(x0)‖² + (λ_recon/2)·Σ‖xc − reconstruct(x0)‖²
    + (λ_decay/2)·(‖W‖² + ‖b‖²), backpropagated through the sigmoid stack with
    the anchor residual injected at the middle layer.
    """
    n_layers = params.n_layers
    if n_layers % 2 != 0:
        raise ValidationError("gradients need an even layer count")
    mid = n_layers // 2
    beta = np.atleast_2d(np.asarray(beta, dtype=np.float64))
    xc_dense = np.atleast_2d(_dense(xc))
    if not (np.isfinite(beta).all() and np.isfinite(xc_dense).all()):
        raise ValidationError("non-finite values in gradient inputs")
    acts = forward_activations(x0, params)
    grads_w: list[np.ndarray | None] = [None] * n_layers
    grads_b: list[np.ndarray | None] = [None] * n_layers
    out = acts[-1]
    delta = lambda_recon * (out - xc_dense) * out * (1.0 - out)
    for layer in range(n_layers - 1, -1, -1):
        h_prev = acts[layer]
        grad = (h_prev.transpose_matmul(delta) if isinstance(h_prev, CsrMatrix)
                else h_prev.T @ delta)
        grads_w[layer] = grad + lambda_decay * params.weights[layer]
        grads_b[layer] = delta.sum(axis=0) + lambda_decay * params.biases[layer]
        if layer == 0:
            break
        back = delta @ params.weights[layer].T
        if layer == mid:
            back = back + lambda_anchor * (acts[mid] - beta)
        h = acts[layer]
        delta = back * h * (1.0 - h)
    return grads_w, grads_b


def pretrain(clean_rows, config: SdaeConfig, latent: int, seed: int) -> SdaeParams:
    """Greedy layer-wise denoising pretraining of the full symmetric stack,
    stack_widths(width of the rows, config.hidden_widths, latent).

    Each encoder depth trains a one-hidden-layer denoising autoencoder on the
    clean propagation of the rows so far; its decoder initializes the mirror
    layer. pretrain_epochs=0 returns the random initialization untouched.
    """
    config.validate()
    if not isinstance(clean_rows, CsrMatrix):
        clean_rows = np.asarray(clean_rows, dtype=np.float64)
    rng = np.random.default_rng(seed)
    params = init_params(stack_widths(clean_rows.shape[1], config.hidden_widths, latent), rng)
    if config.pretrain_epochs == 0:
        return params
    n_layers = params.n_layers
    n_rows = clean_rows.shape[0]
    h = clean_rows
    for depth in range(n_layers // 2):
        enc, dec = depth, n_layers - 1 - depth
        pair = SdaeParams([params.weights[enc], params.weights[dec]],
                          [params.biases[enc], params.biases[dec]])
        for _ in range(config.pretrain_epochs):
            noisy = corrupt(h, config.noise_rate, rng)
            grads_w, grads_b = sdae_gradients(pair, noisy, h, 0.0, lambda_anchor=0.0,
                                              lambda_recon=1.0 / n_rows, lambda_decay=0.0)
            for layer in range(2):
                pair.weights[layer] -= config.learning_rate * grads_w[layer]
                pair.biases[layer] -= config.learning_rate * grads_b[layer]
        h = _sigmoid(h @ params.weights[enc] + params.biases[enc])
    return params
