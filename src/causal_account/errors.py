"""Exception hierarchy for the whole package.

Everything raised on purpose derives from CausalAccountError so callers can
catch one type at the boundary. Parse-time errors carry a source span, schema
errors carry a JSON path.
"""

from __future__ import annotations


class CausalAccountError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(CausalAccountError):
    """Structural problem with a causal graph or a graph query."""


class CycleError(GraphError):
    """The directed graph contains a cycle."""

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("graph contains a cycle: " + " -> ".join(self.cycle))


class DuplicateNode(GraphError):
    """A node name was declared more than once."""


class UnknownEndpoint(GraphError):
    """An edge refers to a node that does not exist."""


class EdgeIntoExogenous(GraphError):
    """An edge points into an exogenous or latent node."""


class UnknownNode(GraphError):
    """An operation referenced a node that is not in the graph."""


class InvalidNodeName(GraphError, ValueError):
    """A node name is empty or not a string."""


class InvalidNodeSpec(GraphError, ValueError):
    """A node spec is no Node and no (name, kind[, label]) tuple of a known kind."""


class InvalidPath(GraphError):
    """A path object does not describe a simple path of this graph."""


class OverlapError(GraphError):
    """Node sets that must be disjoint overlap."""


class EnumerationLimit(CausalAccountError):
    """An enumeration would exceed its configured cap."""


class InvalidSetting(CausalAccountError, ValueError):
    """An environment variable holds a value the package cannot use."""


class ScmError(CausalAccountError):
    """Problem with a structural causal model or a model query."""


class MissingExogenous(ScmError):
    """An evaluation was started without values for all root variables."""


class NonRootAssignment(ScmError, ValueError):
    """A root assignment sets a variable that is not a root."""


class UnspecifiedFunction(ScmError):
    """A query needs a structural function that was declared structure-only."""


class ValueOutOfDomain(ScmError):
    """A value does not belong to the domain of its variable."""


class InterveneOnExogenous(ScmError):
    """An intervention targeted an exogenous or latent variable."""


class InconsistentEvidence(ScmError):
    """No assignment of the root variables produces the given evidence."""


class NotIdentifiable(CausalAccountError):
    """No admissible adjustment set exists for the requested analysis."""


class PatternError(CausalAccountError):
    """Problem with an accountability pattern or a pattern query."""


class InvalidRoleSpec(PatternError, ValueError):
    """A role spec is no Role and no (name, kind) pair of a known kind."""


class PatternArityError(PatternError):
    """A role reference does not fit the pattern."""


class InvalidMatch(PatternError):
    """A pattern match does not satisfy the match rules for its graph."""


class ParseError(CausalAccountError):
    """Input text could not be tokenized or parsed."""

    def __init__(self, message: str, span=None):
        self.span = span
        super().__init__(message if span is None else f"{span}: {message}")


class SemanticError(CausalAccountError):
    """Input parsed but violates a semantic rule; `subject` names the body at fault."""

    def __init__(self, message: str, span=None, subject: str | None = None):
        self.span = span
        self.subject = subject
        super().__init__(message if span is None else f"{span}: {message}")


class SchemaError(CausalAccountError):
    """A JSON document does not match the expected schema."""

    def __init__(self, message: str, path: str = "$"):
        self.path = path
        super().__init__(f"{path}: {message}")
