"""Stacked denoising autoencoder over bag-of-words rows.

The layer stack is symmetric: input → hidden… → latent → mirrored hidden… →
input, built by stack_widths from the input width, the hidden widths and the
latent width. Sigmoid activations on every layer. The encoder is the first
half of the stack and its output, the middle layer, is the latent vector; the
reconstruction is the full stack. sdae_pass runs both in row chunks; its
gradients cover the three joint-loss terms that touch the net: the item-anchor
pull toward the middle layer, the clean-row reconstruction error, and weight decay.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sparse import CHUNK_ROWS, CsrMatrix


@dataclass(frozen=True)
class SdaeConfig:
    """Architecture and training knobs.

    hidden_widths are the encoder's layers between the input and the latent
    layer, outermost first, each a positive integer; the decoder mirrors them.
    The input width (the vocabulary size) and the latent width (the factor
    model's K) come from the data and the model, so stack_widths derives the
    full stack and checks that every width is positive.
    """

    hidden_widths: list[int]
    noise_rate: float = 0.3
    pretrain_epochs: int = 20
    learning_rate: float = 0.01

    def __post_init__(self):
        if not positive_widths(self.hidden_widths):
            raise ValidationError(f"hidden_widths must be positive integers, "
                                  f"got {self.hidden_widths!r}")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValidationError("noise_rate must be in [0, 1)")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError("learning_rate must be positive and finite")
        if self.pretrain_epochs < 0:
            raise ValidationError("pretrain_epochs must be nonnegative")


def is_int(value) -> bool:
    """An integer, a numpy one included, that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def positive_widths(widths) -> bool:
    """The one rule for layer widths: a list or tuple of positive integers."""
    return isinstance(widths, (list, tuple)) and all(is_int(w) and w >= 1 for w in widths)


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


def _check_stack(x, params: SdaeParams) -> None:
    """The rows x fit the first layer, and the stack has a middle layer."""
    width, expected = (x.shape[-1] if x.shape else 0), params.weights[0].shape[0]
    if width != expected:
        raise ValidationError(f"input width {width} != first layer fan-in {expected}")
    if params.n_layers % 2 != 0:
        raise ValidationError("an odd layer count leaves the stack no middle layer")


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + e^−x), as scipy.special.expit computes it but on numpy's exp:
    within 2 ulps of expit. Below x ≈ −709 e^−x overflows to inf and the
    result is exactly 0, as it should be."""
    with np.errstate(over="ignore"):
        out = np.negative(x, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def _forward(x, params: SdaeParams, n_layers: int):
    """Activations [h_0 … h_n]; h_0 is the (possibly sparse) input."""
    acts = [x]
    for w, b in zip(params.weights[:n_layers], params.biases[:n_layers]):
        h = acts[-1] @ w
        h += b
        acts.append(_sigmoid(h, out=h))     # in place: fresh arrays cost page faults
    return acts


def encode(x0, params: SdaeParams) -> np.ndarray:
    """Middle-layer activation: the latent representation of x0."""
    _check_stack(x0, params)
    return _forward(x0, params, params.n_layers // 2)[-1]


def sdae_pass(params: SdaeParams, x0, xc, beta=None, *, lambda_anchor: float = 0.0,
              lambda_recon: float = 0.0, lambda_decay: float = 0.0):
    """(encode(x0), Σ‖xc − reconstruct(x0)‖², grads) for corrupted rows x0 and
    clean rows xc, CHUNK_ROWS rows at a time: no array is taller than a chunk
    and wider than a layer. grads is None without `beta`, else the weight and
    bias gradient lists of (λ_anchor/2)·Σ‖β − encode(x0)‖² + (λ_recon/2)·Σ‖xc −
    reconstruct(x0)‖² + (λ_decay/2)·(‖W‖² + ‖b‖²), with the anchor residual
    injected at the middle layer. β broadcasts to the encoding.
    """
    _check_stack(x0, params)
    n_layers, n_rows, mid = params.n_layers, x0.shape[0], params.n_layers // 2
    if xc.shape != (n_rows, params.layer_widths[-1]):
        raise ValidationError(f"clean rows of shape {xc.shape} do not fit the pass")
    encoding = np.empty((n_rows, params.layer_widths[mid]))
    recon_sq, grads = 0.0, None
    if beta is not None:
        beta = np.broadcast_to(beta, encoding.shape)
        if not (np.isfinite(beta).all()
                and np.isfinite(xc.data if isinstance(xc, CsrMatrix) else xc).all()):
            raise ValidationError("non-finite values in gradient inputs")
        grads = ([np.zeros_like(w) for w in params.weights],
                 [np.zeros_like(b) for b in params.biases])
    for start in range(0, n_rows, CHUNK_ROWS):
        rows = slice(start, min(start + CHUNK_ROWS, n_rows))
        acts = _forward(x0[rows], params, n_layers)
        encoding[rows] = acts[mid]
        out, clean = acts[-1], xc[rows]
        # xc − out in a new array; sparse clean rows are added into −out
        resid = clean.toarray(np.negative(out)) if isinstance(clean, CsrMatrix) else clean - out
        recon_sq += float(np.vdot(resid, resid))
        if grads is None:
            continue
        delta = np.multiply(resid, -lambda_recon, out=resid)  # λ_recon·(out − xc)·out·(1 − out)
        delta *= out
        delta *= np.subtract(1.0, out, out=out)
        for layer in range(n_layers - 1, -1, -1):
            h = acts[layer]
            grads[0][layer] += (h.transpose_matmul(delta) if isinstance(h, CsrMatrix)
                                else h.T @ delta)
            grads[1][layer] += delta.sum(axis=0)
            if layer == 0:
                break
            delta = delta @ params.weights[layer].T
            if layer == mid:
                delta += lambda_anchor * (h - beta[rows])
            delta *= h
            delta *= 1.0 - h
    if grads is not None:
        for grad, value in zip(grads[0] + grads[1], params.weights + params.biases):
            grad += lambda_decay * value
    return encoding, recon_sq, grads


def pretrain(clean_rows, config: SdaeConfig, latent: int, seed: int) -> SdaeParams:
    """Greedy layer-wise denoising pretraining of the full symmetric stack,
    stack_widths(width of the rows, config.hidden_widths, latent).

    Each encoder depth trains a one-hidden-layer denoising autoencoder on the
    clean propagation of the rows so far; its decoder initializes the mirror
    layer. pretrain_epochs=0 returns the random initialization untouched.
    """
    if not isinstance(clean_rows, CsrMatrix):
        clean_rows = np.asarray(clean_rows, dtype=np.float64)
    rng = np.random.default_rng(seed)
    params = init_params(stack_widths(clean_rows.shape[1], config.hidden_widths, latent), rng)
    if config.pretrain_epochs == 0:
        return params
    n_layers, n_rows = params.n_layers, clean_rows.shape[0]
    h = clean_rows
    for depth in range(n_layers // 2):
        enc, dec = depth, n_layers - 1 - depth
        pair = SdaeParams([params.weights[enc], params.weights[dec]],
                          [params.biases[enc], params.biases[dec]])
        for _ in range(config.pretrain_epochs):
            noisy = corrupt(h, config.noise_rate, rng)
            grads_w, grads_b = sdae_pass(pair, noisy, h, 0.0, lambda_recon=1.0 / n_rows)[2]
            for value, grad in zip(pair.weights + pair.biases, grads_w + grads_b):
                value -= config.learning_rate * grad    # in place
        h = _sigmoid(h @ params.weights[enc] + params.biases[enc])
    return params
