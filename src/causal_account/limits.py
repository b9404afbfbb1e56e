"""Enumeration caps.

Exhaustive search is fine at desk scale but every enumeration here has an
exponential worst case, so each one is capped. The caps measured as a power of
two (world enumeration, adjustment-set pools) can be overridden with the
CAUSAL_ACCOUNT_MAX_ENUM environment variable; the others are per-call
arguments.
"""

from __future__ import annotations

import os

from .errors import InvalidSetting

ENV_VAR = "CAUSAL_ACCOUNT_MAX_ENUM"

# log2 of the number of root-variable combinations consistent_worlds will visit
DEFAULT_WORLD_CAP = 20
# size of the candidate pool for the minimal back-door sets; it bounds how many
# sets can be listed, while the listing costs polynomial time per set
DEFAULT_POOL_CAP = 16
# number of simple paths all_paths may produce
DEFAULT_PATH_LIMIT = 100_000
# complete role bindings the pattern matcher may examine
DEFAULT_MATCH_CAP = 10_000
# largest front-door set the search will consider
FRONTDOOR_MAX_SIZE = 4


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
