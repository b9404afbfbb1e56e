"""Bundled example models and patterns, shipped as DSL text.

Each model file carries a comment separating the structure the scenario
dictates from the choices made while writing it down.
"""

from importlib import resources

from ..modelio import parse_model, parse_pattern
from ..patterns import Pattern
from ..scm import Scm

BUNDLED_MODELS = (
    "titus",
    "uber",
    "uav_weather",
    "uav_attacker",
    "uav_attacker_ids",
    "bad_weather_raci",
)
BUNDLED_PATTERNS = ("lindberg", "raci")

_FILES = resources.files(__package__)


def _read(name: str, names: tuple[str, ...], suffix: str) -> str:
    """The text of bundled file `name + suffix`; KeyError unless `name` is one
    of `names` and the file exists."""
    if name not in names:
        raise KeyError(name)
    ref = _FILES.joinpath(name + suffix)
    if not ref.is_file():
        raise KeyError(name + suffix)
    return ref.read_text(encoding="utf-8")


def model_text(name: str) -> str:
    return _read(name, BUNDLED_MODELS, ".scm.txt")


def pattern_text(name: str) -> str:
    return _read(name, BUNDLED_PATTERNS, ".pat.txt")


def load_model(name: str) -> Scm:
    return parse_model(model_text(name))


def load_pattern(name: str) -> Pattern:
    return parse_pattern(pattern_text(name))
