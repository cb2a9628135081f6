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

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .scratch import Scratch
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
        if not is_int(self.pretrain_epochs):
            raise ValidationError(f"pretrain_epochs must be an integer, "
                                  f"got {self.pretrain_epochs!r}")
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
        keep = rng.random(x_clean.data.shape) >= noise_rate
        return x_clean.select(keep & (x_clean.data != 0))
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


def _forward(x, params: SdaeParams, n_layers: int, outs=None):
    """Activations [h_0 … h_n]; h_0 is the (possibly sparse) input. With `outs`,
    each dense layer's product is written into outs[layer], a view of its shape;
    a sparse input's product is a fresh array (written into the view instead,
    it raised the paper-scale peak RSS by 10 MB)."""
    acts = [x]
    for layer, (w, b) in enumerate(zip(params.weights[:n_layers], params.biases[:n_layers])):
        prev = acts[-1]
        h = (prev @ w if outs is None or isinstance(prev, CsrMatrix)
             else np.matmul(prev, w, out=outs[layer]))
        h += b
        acts.append(_sigmoid(h, out=h))     # in place: fresh arrays cost page faults
    return acts


def encode(x0, params: SdaeParams) -> np.ndarray:
    """Middle-layer activation: the latent representation of x0."""
    _check_stack(x0, params)
    return _forward(x0, params, params.n_layers // 2)[-1]


def _rows(buffer: np.ndarray, n: int, width: int) -> np.ndarray:
    """The first n·width floats of a flat buffer, as n rows of `width`."""
    return buffer[:n * width].reshape(n, width)


def sdae_pass(params: SdaeParams, x0, xc, beta=None, *, lambda_anchor: float = 0.0,
              lambda_recon: float = 0.0, lambda_decay: float = 0.0,
              scratch: Scratch | None = None):
    """(encode(x0), Σ‖xc − reconstruct(x0)‖², grads) for corrupted rows x0 and
    clean rows xc, CHUNK_ROWS rows at a time. grads is None without `beta`, else
    the weight and bias gradient lists of (λ_anchor/2)·Σ‖β − encode(x0)‖² +
    (λ_recon/2)·Σ‖xc − reconstruct(x0)‖² + (λ_decay/2)·(‖W‖² + ‖b‖²), with the
    anchor residual injected at the middle layer. β broadcasts to the encoding.

    The encoding and the gradients are new arrays. Every chunk temporary is a
    view of `scratch` (a Scratch of this call's own when None), taken once per
    call: each layer's activations, the residual xc − reconstruction, the
    back-propagated deltas (in two buffers, each chunk × widest layer, which
    take turns) and the anchor residual. Each layer's weight-gradient product
    goes into the buffer of the activations it computed, which the backward
    pass has spent by then, so that buffer is as tall as the layer's fan-in
    when that exceeds a chunk. Per chunk only the products with sparse rows
    are new arrays: the first layer's activations and its weight gradient.
    """
    _check_stack(x0, params)
    n_layers, n_rows, mid = params.n_layers, x0.shape[0], params.n_layers // 2
    widths = params.layer_widths
    if xc.shape != (n_rows, widths[-1]):
        raise ValidationError(f"clean rows of shape {xc.shape} do not fit the pass")
    encoding = np.empty((n_rows, widths[mid]))
    recon_sq, grads = 0.0, None
    if beta is not None:
        beta = np.broadcast_to(beta, encoding.shape)
        if not (np.isfinite(beta).all()
                and np.isfinite(xc.data if isinstance(xc, CsrMatrix) else xc).all()):
            raise ValidationError("non-finite values in gradient inputs")
        grads = ([np.zeros_like(w) for w in params.weights],
                 [np.zeros_like(b) for b in params.biases])
    height, widest = min(CHUNK_ROWS, n_rows), max(widths)
    scratch = Scratch() if scratch is None else scratch
    with scratch.frame():
        # layer l's activations, in a buffer that can take its weight-gradient
        # product once the backward pass has spent them; two delta buffers
        *layer_bufs, delta_buf, spare_buf = scratch.take(
            *[(max(height, w.shape[0]) * w.shape[1],) for w in params.weights],
            (height * widest,), (height * widest,))
        for start in range(0, n_rows, CHUNK_ROWS):
            rows = slice(start, min(start + CHUNK_ROWS, n_rows))
            n = rows.stop - start
            outs = [_rows(buf, n, w.shape[1]) for buf, w in zip(layer_bufs, params.weights)]
            acts = _forward(x0[rows], params, n_layers, outs)
            encoding[rows] = acts[mid]
            out, clean = acts[-1], xc[rows]
            resid = _rows(delta_buf, n, out.shape[1])       # xc − out
            if isinstance(clean, CsrMatrix):
                clean.toarray(np.negative(out, out=resid))  # added into −out
            else:
                np.subtract(clean, out, out=resid)
            recon_sq += float(np.vdot(resid, resid))
            if grads is None:
                continue
            delta = np.multiply(resid, -lambda_recon, out=resid)  # λ_recon·(out − xc)·out·(1 − out)
            delta *= out
            delta *= np.subtract(1.0, out, out=out)
            bufs = [delta_buf, spare_buf]     # delta is in bufs[0], bufs[1] is free
            for layer in range(n_layers - 1, -1, -1):
                h, w = acts[layer], params.weights[layer]
                grads[0][layer] += (h.transpose_matmul(delta) if isinstance(h, CsrMatrix)
                                    else np.matmul(h.T, delta, out=_rows(layer_bufs[layer],
                                                                         *w.shape)))
                grads[1][layer] += delta.sum(axis=0)
                if layer == 0:
                    break
                delta = np.matmul(delta, w.T, out=_rows(bufs[1], *h.shape))
                bufs.reverse()
                if layer == mid:
                    anchor = np.subtract(h, beta[rows], out=_rows(bufs[1], *h.shape))
                    anchor *= lambda_anchor
                    delta += anchor
                delta *= h
                delta *= np.subtract(1.0, h, out=h)   # h is spent
    if grads is not None:
        for grad, value in zip(grads[0] + grads[1], params.weights + params.biases):
            grad += lambda_decay * value
    return encoding, recon_sq, grads


def pretrain(clean_rows, config: SdaeConfig, latent: int, seed: int,
             scratch: Scratch | None = None) -> tuple[SdaeParams, np.ndarray]:
    """Greedy layer-wise denoising pretraining of the full symmetric stack,
    stack_widths(width of the rows, config.hidden_widths, latent). Returns the
    stack and the rows' encoding, bit for bit encode(clean_rows, stack).

    Each encoder depth trains a one-hidden-layer denoising autoencoder on the
    clean propagation of the rows so far; its decoder initializes the mirror
    layer. The propagation through the last depth is the encoding. With
    pretrain_epochs=0 the stack is the random initialization. Every pass
    writes its chunk temporaries into `scratch` (see sdae_pass), one Scratch
    for all depths and epochs.
    """
    if not isinstance(clean_rows, CsrMatrix):
        clean_rows = np.asarray(clean_rows, dtype=np.float64)
    rng = np.random.default_rng(seed)
    params = init_params(stack_widths(clean_rows.shape[1], config.hidden_widths, latent), rng)
    n_layers, n_rows = params.n_layers, clean_rows.shape[0]
    scratch = Scratch() if scratch is None else scratch
    h = clean_rows
    for depth in range(n_layers // 2):
        enc, dec = depth, n_layers - 1 - depth
        pair = SdaeParams([params.weights[enc], params.weights[dec]],
                          [params.biases[enc], params.biases[dec]])
        for _ in range(config.pretrain_epochs):
            noisy = corrupt(h, config.noise_rate, rng)
            grads_w, grads_b = sdae_pass(pair, noisy, h, 0.0, lambda_recon=1.0 / n_rows,
                                         scratch=scratch)[2]
            for value, grad in zip(pair.weights + pair.biases, grads_w + grads_b):
                grad *= config.learning_rate
                value -= grad   # in place
        h = _forward(h, pair, 1)[-1]
    return params, h
