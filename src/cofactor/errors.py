"""Exception types raised across the package."""

from __future__ import annotations


class CofactorError(Exception):
    """Base class for all package errors."""


class ParseError(CofactorError):
    """A malformed record in an input stream."""

    def __init__(self, message: str, line_no: int):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class ValidationError(CofactorError):
    """Well-formed input that violates a dataset invariant."""


class SplitError(CofactorError):
    """A train/validation/test split that cannot satisfy its mode's constraints."""


class TrainingDivergedError(CofactorError):
    """Training blew up at `epoch`: the loss term `term` became non-finite or,
    with `block`, the ridge systems of the block `term` grew too large to factor."""

    def __init__(self, epoch: int, term: str, *, block: bool = False):
        self.epoch = epoch
        self.term = term
        super().__init__(
            f"diverged at epoch {epoch}: the {term} block's systems grew too large to factor"
            if block else f"non-finite loss at epoch {epoch} (term: {term})")


class CheckpointError(CofactorError):
    """A checkpoint file that is unreadable or inconsistent with the data."""
