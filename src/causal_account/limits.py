"""Enumeration caps and the expression nesting limit.

Exhaustive search is fine at desk scale but every enumeration here has an
exponential worst case, so each one is capped at 2^N of what it counts. The
CAUSAL_ACCOUNT_MAX_ENUM environment variable sets N for all four caps; no
function takes a cap of its own. Each cap is read through `enumeration_cap`,
and every refusal names the variable.

MAX_EXPR_DEPTH is no cap on work, and nothing overrides it: it bounds how
deeply a function body nests, so that no walker over a body reaches Python's
recursion limit. A chain of one operator is one level however long it is.
"""

from __future__ import annotations

import os

from .errors import EnumerationLimit, InvalidSetting

ENV_VAR = "CAUSAL_ACCOUNT_MAX_ENUM"

# the default N of each cap, which allows 2^N
DEFAULT_WORLD_CAP = 20  # root combinations a world enumeration visits
DEFAULT_SET_CAP = 16  # sets a back-door or front-door listing finds
DEFAULT_PATH_CAP = 17  # simple paths listed between two nodes
DEFAULT_MATCH_CAP = 14  # complete role bindings the pattern matcher examines
# levels a function body may nest, each walker recursing once per level
MAX_EXPR_DEPTH = 100


def enumeration_cap(default: int) -> int:
    """Return the configured cap, honoring the override environment variable."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise InvalidSetting(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 0:
        raise InvalidSetting(f"{ENV_VAR} must be non-negative, got {value}")
    return value


def _over_cap(count: int, cap: int) -> bool:
    """Whether `count` exceeds 2^cap, without building 2^cap when `count` is shorter."""
    return count.bit_length() > cap and count > 1 << cap


def _countable(cap: int) -> int:
    """2^cap as a bound on a count that grows by one: no such count reaches
    2^63, so a huge cap builds no huge number."""
    return 1 << min(cap, 63)


def _refusal(cap: int, what: str) -> EnumerationLimit:
    """The refusal of an enumeration that found more than 2^cap of `what`."""
    return EnumerationLimit(f"more than 2^{cap} {what} (override with {ENV_VAR})")
