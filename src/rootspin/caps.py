"""Closure-size guards.

Every fixpoint loop in the package carries an element cap so that an input
generating an infinite reflection group fails loudly instead of spinning.
The ROOTSPIN_CAP environment variable overrides the defaults; an explicit
cap argument overrides both.  Either must be a positive integer.
"""

from __future__ import annotations

import os

from .errors import DomainError

ROOT_CLOSURE_CAP = 10_000
GROUP_CLOSURE_CAP = 100_000

ENV_VAR = "ROOTSPIN_CAP"


def positive_int(value) -> int:
    """value as an int; ValueError unless it is a positive integer."""
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"must be a positive integer, got {value!r}")
    return n


def resolve_cap(explicit: int | None, default: int) -> int:
    """The cap in force; DomainError if the one given is not a positive integer."""
    name, value = "cap", explicit
    if value is None:
        name, value = ENV_VAR, os.environ.get(ENV_VAR)
        if value is None:
            return default
    try:
        return positive_int(value)
    except ValueError as exc:
        raise DomainError(f"{name} {exc}") from None
