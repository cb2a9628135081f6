import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# child interpreters (the entry-point tests) import the package from src/ too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]))

from cofactor.corpus import ClickDataset, RatingDataset


def make_ratings(triples, n_users=None, n_items=None) -> RatingDataset:
    """RatingDataset from (user, item, value) integer triples."""
    users = np.asarray([t[0] for t in triples], dtype=np.int64)
    items = np.asarray([t[1] for t in triples], dtype=np.int64)
    values = np.asarray([t[2] for t in triples], dtype=np.float64)
    n_users = n_users if n_users is not None else (int(users.max()) + 1 if len(users) else 0)
    n_items = n_items if n_items is not None else (int(items.max()) + 1 if len(items) else 0)
    return RatingDataset(n_users, n_items, users, items, values,
                         tuple(f"u{k}" for k in range(n_users)),
                         tuple(f"i{k}" for k in range(n_items)))


def make_clicks(pairs, n_users=None, n_items=None) -> ClickDataset:
    users = np.asarray([p[0] for p in pairs], dtype=np.int64)
    items = np.asarray([p[1] for p in pairs], dtype=np.int64)
    n_users = n_users if n_users is not None else (int(users.max()) + 1 if len(users) else 0)
    n_items = n_items if n_items is not None else (int(items.max()) + 1 if len(items) else 0)
    return ClickDataset(n_users, n_items, users, items)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
