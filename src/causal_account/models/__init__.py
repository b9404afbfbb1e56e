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


def _read(filename: str) -> str:
    ref = _FILES.joinpath(filename)
    if not ref.is_file():
        raise KeyError(filename)
    return ref.read_text(encoding="utf-8")


def model_text(name: str) -> str:
    if name not in BUNDLED_MODELS:
        raise KeyError(name)
    return _read(f"{name}.scm.txt")


def pattern_text(name: str) -> str:
    if name not in BUNDLED_PATTERNS:
        raise KeyError(name)
    return _read(f"{name}.pat.txt")


def load_model(name: str) -> Scm:
    return parse_model(model_text(name))


def load_pattern(name: str) -> Pattern:
    return parse_pattern(pattern_text(name))
