"""Synthetic worlds for the tests: ratings, clicks and item text drawn from
known factors, so that a test can check what training recovers.

The package reads only files; `perfbench/gen.py` writes its benchmark worlds
as such files. The worlds here are built in memory, and the same config and
seed always draw the same world.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cofactor.corpus import DocTermMatrix, RatingDataset
from cofactor.errors import ValidationError
from cofactor.factor import ModelState
from cofactor.sdae import SdaeParams, encode, stack_widths
from cofactor.sparse import from_coo

SIGMA_THETA = 1.0        # spread of the user factors
SIGMA_ALPHA = 1.0        # spread of the context factors
DOC_TERMS_PER_ITEM = 8   # distinct terms in each item's document, at most the vocabulary


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the world generator.

    Ratings are drawn around user-item factor products shifted by
    `rating_offset`; clicks are each user's top items under a noisy copy of
    the same preference scores, so the click channel correlates with ratings
    without duplicating them. Item text rows feed a randomly drawn encoder
    whose middle layer is the mean of the item feature vectors, making text
    genuinely predictive of the factors.
    """

    n_users: int
    n_items: int
    n_factors: int
    vocab_size: int = 40
    rating_density: float = 0.05
    sigma_beta: float = 0.3
    sigma_rating: float = 0.1
    rating_offset: float = 6.0
    click_density: float = 0.2
    click_noise: float = 0.5
    clicks_include_rated: bool = True
    encoder_hidden: tuple[int, ...] = (16,)

    def __post_init__(self):
        if min(self.n_users, self.n_items, self.n_factors, self.vocab_size) < 1:
            raise ValidationError("synthetic dimensions must be positive")
        if not 0.0 < self.rating_density <= 1.0:
            raise ValidationError("rating_density must be in (0, 1]")
        if not 0.0 <= self.click_density <= 1.0:
            raise ValidationError("click_density must be in [0, 1]")
        for name in ("sigma_beta", "sigma_rating", "click_noise"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative")


def generate_synthetic(config: SyntheticConfig, seed: int):
    """Draw a full synthetic world; returns (ratings, clicks, docs, true state).

    The returned model state holds the generating factors and encoder, for
    recovery experiments. With rating_offset=0 and sigma_rating=0 the observed
    ratings equal the factor products exactly (such configs can produce
    non-positive values; real-scale configs keep the offset well above zero).
    """
    rng = np.random.default_rng(seed)
    n, m, k, v = config.n_users, config.n_items, config.n_factors, config.vocab_size

    vocab = tuple(f"w{j:04d}" for j in range(v))
    terms_per_item = min(DOC_TERMS_PER_ITEM, v)
    cols, data = [], []
    for _ in range(m):
        cols.append(np.sort(rng.choice(v, size=terms_per_item, replace=False)))
        counts = rng.integers(1, 5, size=terms_per_item).astype(np.float64)
        data.append(counts / counts.max())
    doc_rows = from_coo((m, v), np.repeat(np.arange(m), terms_per_item),
                        np.concatenate(cols), np.concatenate(data))
    docs = DocTermMatrix(vocab=vocab, rows=doc_rows)

    widths = stack_widths(v, config.encoder_hidden, k)
    weights, biases = [], []
    for d_in, d_out in zip(widths[:-1], widths[1:]):
        weights.append(rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(d_in, d_out)))
        biases.append(rng.normal(0.0, 0.1, size=d_out))
    true_net = SdaeParams(weights=weights, biases=biases)

    mu = encode(doc_rows, true_net)
    item_factors = mu + config.sigma_beta * rng.standard_normal((m, k))
    user_factors = SIGMA_THETA * rng.standard_normal((n, k))
    context_factors = SIGMA_ALPHA * rng.standard_normal((m, k))

    preference = user_factors @ item_factors.T
    mask = rng.random((n, m)) < config.rating_density
    r_users, r_items = np.nonzero(mask)
    values = (preference[r_users, r_items] + config.rating_offset
              + config.sigma_rating * rng.standard_normal(len(r_users)))
    user_ids = tuple(f"u{j:05d}" for j in range(n))
    item_ids = tuple(f"i{j:05d}" for j in range(m))
    ratings = RatingDataset(r_users.astype(np.int64), r_items.astype(np.int64), values,
                            user_ids, item_ids)

    clicks_per_user = int(round(config.click_density * m))
    c_users = c_items = np.zeros(0, dtype=np.int64)
    if clicks_per_user > 0:
        scores = preference + config.click_noise * rng.standard_normal((n, m))
        c_users = np.repeat(np.arange(n), clicks_per_user)
        c_items = np.argsort(-scores, axis=1)[:, :clicks_per_user].ravel()
    if config.clicks_include_rated:
        c_users, c_items = np.concatenate([c_users, r_users]), np.concatenate([c_items, r_items])
    pairs = np.unique(c_users.astype(np.int64) * m + c_items)  # a repeated click counts once
    clicks = from_coo((n, m), pairs // m, pairs % m, np.ones_like(pairs))

    state = ModelState(user_factors=user_factors, item_factors=item_factors,
                       context_factors=context_factors, sdae=true_net,
                       epoch=0, rating_offset=config.rating_offset)
    return ratings, clicks, docs, state
