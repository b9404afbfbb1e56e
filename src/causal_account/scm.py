"""Deterministic structural causal models over finite domains.

An Scm couples a CausalGraph with one domain per variable and one structural
function per endogenous variable. Functions are total and single-valued, so
a complete assignment of the root (exogenous plus latent) variables fixes
every other variable. That gives three query levels:

  * association: enumerate the root assignments consistent with evidence,
  * intervention: cut the incoming edges of a variable and pin its value,
  * counterfactuals: abduction (consistent worlds), action (intervention),
    prediction (re-evaluation of the mutilated model in every kept world).

Every query, `evaluate` included, works on a block of worlds at once;
`evaluate` takes a block of exactly one world. World i is the
i-th root combination of `itertools.product` over the root domains in
declaration order, so the last root varies fastest. The worlds are taken in
blocks of consecutive worlds, and bit i of a Python int stands for world i
of its block. Per block, each variable gets a value-mask map `{value: int}`
whose masks partition the block's worlds by the value the variable takes
there; a value absent from the block may have no mask. Root masks are
periodic runs of bits built by shift-and-OR doubling. Each structural
function is then compiled once per block, in topological order, into bitwise
operations on its parents' masks (`Expr.masks`, `StructuralFunction.masks`).
Evidence is the AND of one value mask per observed variable. A
counterfactual compiles the mutilated model over the same root masks and
reports each query value whose mask meets the kept worlds. A block holds
2^23 worlds divided by the size of the widest domain, so the masks of one
variable over one block take at most 1 MiB. Under the default cap of 2^20
worlds, a model whose domains have at most eight values is one block.

Functions may also be declared structure-only (body None); such models still
answer graph-level queries but refuse evaluation.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import (
    EnumerationLimit,
    InconsistentEvidence,
    InterveneOnExogenous,
    MissingExogenous,
    NonRootAssignment,
    SemanticError,
    UnknownNode,
    UnspecifiedFunction,
    ValueOutOfDomain,
)
from .graph import CausalGraph, NodeKind, build_graph
from .limits import DEFAULT_WORLD_CAP, ENV_VAR, enumeration_cap

Value = bool | str
Assignment = dict[str, Value]
# value -> the worlds, as bits of an int, in which a variable takes that value
Masks = dict[Value, int]


@dataclass(frozen=True)
class Domain:
    """A named, ordered set of at least two values.

    Booleans are the built-in two-valued case; other domains hold string
    values. Value order matters: enumerations and reported value sets follow
    it.
    """

    name: str
    values: tuple[Value, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise ValueError(f"domain {self.name!r} needs at least two values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"domain {self.name!r} repeats a value")

    def __contains__(self, value: object) -> bool:
        try:
            return value in self.index
        except TypeError:  # unhashable, so no value of any domain
            return False

    def parse(self, text: str) -> Value:
        """Turn CLI/DSL text into a domain value."""
        if self.name == "bool":
            if text == "true":
                return True
            if text == "false":
                return False
        elif text in self.values:
            return text
        raise ValueOutOfDomain(
            f"{text!r} is not a value of domain {self.name} "
            f"({', '.join(self.render(v) for v in self.values)})"
        )

    @cached_property
    def index(self) -> dict[Value, int]:
        """Position of each value in `values`."""
        return {v: k for k, v in enumerate(self.values)}

    def render(self, value: Value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)


BOOL = Domain("bool", (False, True))


def _show(value: Value) -> str:
    """Render a value for error messages."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


# -- expression bodies -----------------------------------------------------


class Expr:
    """Base class for structural-function expression trees."""

    def masks(self, env: Mapping[str, Masks], full: int) -> Masks:
        """The worlds (bits of `full`) in which this expression takes each value.

        `env` maps every referenced variable to its value masks.
        """
        raise NotImplementedError

    def truth(self, env: Mapping[str, Masks], full: int) -> int:
        """The worlds where this boolean expression holds."""
        return self.masks(env, full).get(True, 0)

    def children(self) -> tuple["Expr", ...]:
        return ()


class _Boolean(Expr):
    """An operator whose value is always a bool; it compiles to its truth mask."""

    def masks(self, env: Mapping[str, Masks], full: int) -> Masks:
        truth = self.truth(env, full)
        return {False: full ^ truth, True: truth}


@dataclass(frozen=True)
class Lit(Expr):
    value: Value

    def masks(self, env: Mapping[str, Masks], full: int) -> Masks:
        return {self.value: full}


@dataclass(frozen=True)
class Ref(Expr):
    name: str

    def masks(self, env: Mapping[str, Masks], full: int) -> Masks:
        return env[self.name]


@dataclass(frozen=True)
class Not(_Boolean):
    a: Expr

    def truth(self, env: Mapping[str, Masks], full: int) -> int:
        return full ^ self.a.truth(env, full)

    def children(self) -> tuple[Expr, ...]:
        return (self.a,)


@dataclass(frozen=True)
class And(_Boolean):
    a: Expr
    b: Expr

    def truth(self, env: Mapping[str, Masks], full: int) -> int:
        return self.a.truth(env, full) & self.b.truth(env, full)

    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b)


@dataclass(frozen=True)
class Or(_Boolean):
    a: Expr
    b: Expr

    def truth(self, env: Mapping[str, Masks], full: int) -> int:
        return self.a.truth(env, full) | self.b.truth(env, full)

    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b)


@dataclass(frozen=True)
class Eq(_Boolean):
    a: Expr
    b: Expr

    def truth(self, env: Mapping[str, Masks], full: int) -> int:
        a, b = self.a.masks(env, full), self.b.masks(env, full)
        same = 0
        for value, mask in a.items():
            same |= mask & b.get(value, 0)
        return same

    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b)


@dataclass(frozen=True)
class IfThenElse(Expr):
    cond: Expr
    then: Expr
    orelse: Expr

    def masks(self, env: Mapping[str, Masks], full: int) -> Masks:
        cond = self.cond.truth(env, full)
        other = full ^ cond
        out = {v: mask & cond for v, mask in self.then.masks(env, full).items()}
        for value, mask in self.orelse.masks(env, full).items():
            out[value] = out.get(value, 0) | (mask & other)
        return out

    def children(self) -> tuple[Expr, ...]:
        return (self.cond, self.then, self.orelse)


def expr_refs(e: Expr) -> tuple[str, ...]:
    """Variable references in `e`, in first-occurrence order."""
    seen: list[str] = []

    def walk(node: Expr) -> None:
        if isinstance(node, Ref):
            if node.name not in seen:
                seen.append(node.name)
        for child in node.children():
            walk(child)

    walk(e)
    return tuple(seen)


def infer_domain(
    e: Expr, var_domains: Mapping[str, Domain], known_domains: Iterable[Domain]
) -> Domain | None:
    """Best-effort domain of an expression; None when a bare literal is ambiguous."""
    if isinstance(e, (Not, And, Or, Eq)):
        return BOOL
    if isinstance(e, Ref):
        return var_domains.get(e.name)
    if isinstance(e, Lit):
        if isinstance(e.value, bool):
            return BOOL
        candidates = [d for d in known_domains if e.value in d.values]
        return candidates[0] if len(candidates) == 1 else None
    if isinstance(e, IfThenElse):
        return infer_domain(e.then, var_domains, known_domains) or infer_domain(
            e.orelse, var_domains, known_domains
        )
    return None


def check_expr(
    e: Expr,
    expected: Domain,
    var_domains: Mapping[str, Domain],
    known_domains: Iterable[Domain],
) -> None:
    """Type-check `e` against the domain the context expects.

    Boolean operators demand and produce bool; `==` compares two values of one
    domain and produces bool; if-then-else needs a bool condition and branches
    of the expected domain. Raises SemanticError on any mismatch.
    """
    known = tuple(known_domains)
    if isinstance(e, Lit):
        if e.value not in expected:
            raise SemanticError(
                f"value {_show(e.value)} does not belong to domain {expected.name}"
            )
        return
    if isinstance(e, Ref):
        actual = var_domains.get(e.name)
        if actual is None:
            raise SemanticError(f"unknown variable {e.name!r}")
        if actual != expected:
            raise SemanticError(
                f"variable {e.name} has domain {actual.name}, expected {expected.name}"
            )
        return
    if isinstance(e, (Not, And, Or)):
        if expected != BOOL:
            raise SemanticError(
                f"boolean operator used where domain {expected.name} is expected"
            )
        for child in e.children():
            check_expr(child, BOOL, var_domains, known)
        return
    if isinstance(e, Eq):
        if expected != BOOL:
            raise SemanticError(
                f"comparison used where domain {expected.name} is expected"
            )
        side = infer_domain(e.a, var_domains, known) or infer_domain(
            e.b, var_domains, known
        )
        if side is None:
            raise SemanticError("cannot determine the domain of this comparison")
        check_expr(e.a, side, var_domains, known)
        check_expr(e.b, side, var_domains, known)
        return
    if isinstance(e, IfThenElse):
        check_expr(e.cond, BOOL, var_domains, known)
        check_expr(e.then, expected, var_domains, known)
        check_expr(e.orelse, expected, var_domains, known)
        return
    raise SemanticError(f"unsupported expression node {type(e).__name__}")


@dataclass(frozen=True)
class Table:
    """Explicit value table over parent tuples; must cover each combination once."""

    rows: tuple[tuple[tuple[Value, ...], Value], ...]


@dataclass(frozen=True)
class StructuralFunction:
    """Function of one endogenous variable; body None means structure-only."""

    target: str
    parents: tuple[str, ...]
    body: Expr | Table | None

    @property
    def specified(self) -> bool:
        return self.body is not None

    def masks(self, env: Mapping[str, Masks], full: int) -> Masks:
        """The worlds (bits of `full`) in which the target takes each value;
        a table row is the AND of its inputs' masks."""
        if self.body is None:
            raise UnspecifiedFunction(
                f"variable {self.target} is declared structure-only"
            )
        if not isinstance(self.body, Table):
            return self.body.masks(env, full)
        out: Masks = {}
        for inputs, output in self.body.rows:
            row = full
            for p, value in zip(self.parents, inputs):
                row &= env[p].get(value, 0)
            out[output] = out.get(output, 0) | row
        return out


@dataclass(frozen=True)
class Scm:
    """Structural causal model; build through `build_scm`, which validates.

    `domains` and `functions` are stored as read-only copies of the mappings
    passed in, so a model cannot change after it was checked.
    """

    graph: CausalGraph
    domains: Mapping[str, Domain]
    functions: Mapping[str, StructuralFunction]
    name: str = "m"

    def __post_init__(self) -> None:
        object.__setattr__(self, "domains", MappingProxyType(dict(self.domains)))
        object.__setattr__(self, "functions", MappingProxyType(dict(self.functions)))

    @property
    def root_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.graph.nodes if n.kind.is_root)

    @property
    def endogenous_names(self) -> tuple[str, ...]:
        return tuple(
            n.name for n in self.graph.nodes if n.kind is NodeKind.ENDOGENOUS
        )

    def domain_of(self, name: str) -> Domain:
        self.graph.require(name)
        return self.domains[name]

    def fully_specified(self) -> bool:
        return all(f.specified for f in self.functions.values())


def build_scm(
    graph: CausalGraph,
    domains: Mapping[str, Domain],
    functions: Mapping[str, StructuralFunction],
    name: str = "m",
) -> Scm:
    """Validate model invariants and assemble an Scm.

    Every node needs a domain; endogenous nodes need exactly one function
    whose parents equal the node's graph parents; expression bodies must
    type-check against parent domains; table bodies must cover the parent
    combinations exactly once; proxies share their principal's domain.
    """
    node_names = set(graph.names)
    if set(domains) != node_names:
        missing = node_names - set(domains)
        extra = set(domains) - node_names
        problem = []
        if missing:
            problem.append("missing domain for " + ", ".join(sorted(missing)))
        if extra:
            problem.append("domain for unknown variable " + ", ".join(sorted(extra)))
        raise SemanticError("; ".join(problem))

    endo = {n.name for n in graph.nodes if n.kind is NodeKind.ENDOGENOUS}
    if set(functions) != endo:
        missing = endo - set(functions)
        extra = set(functions) - endo
        problem = []
        if missing:
            problem.append("no function for " + ", ".join(sorted(missing)))
        if extra:
            problem.append(
                "function attached to non-endogenous variable "
                + ", ".join(sorted(extra))
            )
        raise SemanticError("; ".join(problem))

    known_domains = list(dict.fromkeys(domains.values()))
    for name_, f in functions.items():
        if f.target != name_:
            raise SemanticError(
                f"function stored under {name_!r} targets {f.target!r}"
            )
        if set(f.parents) != set(graph.parents(name_)):
            raise SemanticError(
                f"parents of {name_} disagree with the graph: function has "
                f"({', '.join(f.parents) or 'none'}), graph has "
                f"({', '.join(graph.parents(name_)) or 'none'})"
            )
        if len(set(f.parents)) != len(f.parents):
            raise SemanticError(f"function of {name_} repeats a parent")
        if isinstance(f.body, Expr):
            refs = set(expr_refs(f.body))
            stray = refs - set(f.parents)
            if stray:
                raise SemanticError(
                    f"function of {name_} references non-parents: "
                    + ", ".join(sorted(stray))
                )
            parent_domains = {p: domains[p] for p in f.parents}
            check_expr(f.body, domains[name_], parent_domains, known_domains)
        elif isinstance(f.body, Table):
            expected_rows = 1
            for p in f.parents:
                expected_rows *= len(domains[p].values)
            seen_inputs = set()
            for inputs, output in f.body.rows:
                if len(inputs) != len(f.parents):
                    raise SemanticError(
                        f"table row of {name_} has {len(inputs)} inputs for "
                        f"{len(f.parents)} parent(s)"
                    )
                for p, v in zip(f.parents, inputs):
                    if v not in domains[p]:
                        raise SemanticError(
                            f"table of {name_}: {_show(v)} is not in domain "
                            f"{domains[p].name} of parent {p}"
                        )
                if inputs in seen_inputs:
                    raise SemanticError(f"table of {name_} repeats a row")
                seen_inputs.add(inputs)
                if output not in domains[name_]:
                    raise SemanticError(
                        f"table of {name_} outputs a value outside domain "
                        f"{domains[name_].name}"
                    )
            if len(seen_inputs) != expected_rows:
                raise SemanticError(
                    f"table of {name_} covers {len(seen_inputs)} of "
                    f"{expected_rows} parent combinations"
                )

    for node in graph.nodes:
        if node.proxy_for is not None and domains[node.name] != domains[node.proxy_for]:
            raise SemanticError(
                f"proxy {node.name} must share the domain of {node.proxy_for}"
            )

    return Scm(graph, domains, functions, name)


# -- assignment helpers ----------------------------------------------------


def _check_assignment(m: Scm, a: Mapping[str, Value], what: str) -> None:
    for name, value in a.items():
        if name not in m.graph:
            raise UnknownNode(f"{what} names unknown variable {name!r}")
        if value not in m.domains[name]:
            raise ValueOutOfDomain(
                f"{what}: {_show(value)} is not in domain "
                f"{m.domains[name].name} of {name}"
            )


def _require_specified(m: Scm) -> None:
    for name in m.endogenous_names:
        if not m.functions[name].specified:
            raise UnspecifiedFunction(f"variable {name} is declared structure-only")


# -- the four model operations --------------------------------------------


def evaluate(m: Scm, u: Mapping[str, Value]) -> Assignment:
    """Compute the unique total assignment fixed by the root assignment `u`.

    `u` must cover exactly the exogenous and latent variables; all functions
    must be specified. Variables come out in declaration order. The model is
    compiled over a block of one world, so each variable's value is the one
    value whose mask is 1.
    """
    _check_assignment(m, u, "root assignment")
    roots = set(m.root_names)
    extra = set(u) - roots
    if extra:
        raise NonRootAssignment(
            "root assignment sets non-root variable(s): "
            + ", ".join(m.graph.sort_names(extra))
        )
    missing = roots - set(u)
    if missing:
        raise MissingExogenous(
            "missing value(s) for " + ", ".join(m.graph.sort_names(missing))
        )
    env = _propagate(m, {name: {value: 1} for name, value in u.items()}, 1)
    return {
        name: next(value for value, mask in env[name].items() if mask)
        for name in m.graph.names
    }


def world_count(m: Scm) -> int:
    """Number of root combinations of `m`.

    Raises EnumerationLimit when it exceeds the configured cap, before any
    world is built.
    """
    combinations = 1
    for name in m.root_names:
        combinations *= len(m.domains[name].values)
    cap = enumeration_cap(DEFAULT_WORLD_CAP)
    if combinations > 2**cap:
        raise EnumerationLimit(
            f"{combinations} root combinations exceed the cap of 2^{cap} "
            f"(override with {ENV_VAR})"
        )
    return combinations


# bits in the masks of one variable over one block: a block holds this many
# worlds divided by the widest domain, so a wide domain costs memory linear
# in its size, not in its size times the world count
_MASK_BITS = 1 << 23


def _block_size(m: Scm, count: int) -> int:
    """Worlds per block for `m`, whose root space holds `count` worlds."""
    widest = max((len(d.values) for d in m.domains.values()), default=2)
    return max(1, min(count, _MASK_BITS // widest))


def _root_masks(m: Scm, count: int, start: int, size: int) -> dict[str, Masks]:
    """Value masks of the roots over the worlds `start` to `start + size - 1`
    of `count` worlds in product order.

    A root whose later roots span `stride` worlds holds each value for a run
    of `stride` worlds, and the runs of all its values repeat every
    `period = len(values) * stride` worlds. When a period fits in the block,
    one run is repeated by doubling its period, then shifted into place per
    value. A longer period leaves each value at most two runs in the block,
    and only the values present get a mask.
    """
    full = (1 << size) - 1
    out: dict[str, Masks] = {}
    stride = count
    for name in m.root_names:
        values = m.domains[name].values
        period = stride
        stride //= len(values)
        phase = start % period
        masks: Masks = {}
        if period <= size:
            runs, width = (1 << stride) - 1, period
            while width < phase + size:
                runs |= runs << width
                width *= 2
            for k, value in enumerate(values):
                masks[value] = (runs << (k * stride) >> phase) & full
        else:
            for j in range(start // stride, (start + size - 1) // stride + 1):
                lo = max(j * stride - start, 0)
                hi = min((j + 1) * stride - start, size)
                value = values[j % len(values)]
                masks[value] = masks.get(value, 0) | ((1 << hi) - (1 << lo))
        out[name] = masks
    return out


def _propagate(m: Scm, roots: Mapping[str, Masks], full: int) -> dict[str, Masks]:
    """Value masks of every variable: each function compiled once, in topological order."""
    env = dict(roots)
    for name in m.graph.topological_order():
        if name not in roots:
            env[name] = m.functions[name].masks(env, full)
    return env


def _abduce(
    m: Scm, evidence: Mapping[str, Value]
) -> Iterator[tuple[dict[str, Masks], int, int]]:
    """For each block of worlds in order: every variable's value masks, the
    mask of the block's worlds that extend `evidence`, and the block's size.

    The checks run before the first block is built.
    """
    _check_assignment(m, evidence, "evidence")
    _require_specified(m)
    count = world_count(m)
    block = _block_size(m, count)
    for start in range(0, count, block):
        size = min(block, count - start)
        full = (1 << size) - 1
        env = _propagate(m, _root_masks(m, count, start, size), full)
        kept = full
        for name, value in evidence.items():
            kept &= env[name].get(value, 0)
        yield env, kept, size


# byte 0 or 1 for each character of an int's binary form
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _lanes(mask: int, size: int, width: int) -> int:
    """Spread bit i of `mask` into the lowest byte of lane i, each lane
    `width` bytes wide."""
    bits = format(mask, f"0{size}b").encode().translate(_BITS)
    if width > 1:
        spread = bytearray(size * width)
        spread[width - 1 :: width] = bits
        bits = spread
    return int.from_bytes(bits, "big")


def _codes(domain: Domain, masks: Masks, size: int) -> array:
    """Item i is the index in `domain.values` of the value world i takes.

    Items are the smallest array items that hold every index. Bit b of every
    item comes from one mask, the worlds whose value index has bit b set.
    """
    typecode = next(
        t for t in "BHILQ" if 256 ** array(t).itemsize >= len(domain.values)
    )
    width = array(typecode).itemsize
    planes = [0] * (len(domain.values) - 1).bit_length()
    for value, mask in masks.items():
        k, b = domain.index[value], 0
        while k:
            if k & 1:
                planes[b] |= mask
            k >>= 1
            b += 1
    codes = 0
    for b, plane in enumerate(planes):
        if plane:
            codes |= _lanes(plane, size, width) << b
    out = array(typecode, codes.to_bytes(size * width, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out


# kept worlds per chunk: a chunk fetches each variable's values in one call,
# and holds one tuple per variable for its own worlds only, never a block's
_CHUNK = 1 << 12


def _world_chunks(
    m: Scm, evidence: Mapping[str, Value]
) -> Iterator[Iterable[Assignment]]:
    """The worlds of `consistent_worlds`, one iterable per chunk of
    consecutive kept worlds."""
    names = m.graph.names
    for env, kept, size in _abduce(m, evidence):
        if not kept:
            continue
        if not names:
            # the empty product has one combination, the empty world
            yield [{}]
            continue
        keep = _lanes(kept, size, 1).to_bytes(size, "little")
        columns = [
            (
                itertools.compress(_codes(m.domains[name], env[name], size), keep),
                m.domains[name].values,
            )
            for name in names
        ]
        total = kept.bit_count()
        for start in range(0, total, _CHUNK):
            n = min(_CHUNK, total - start)
            if n == 1:
                # itemgetter of one index returns the value, not a 1-tuple
                rows = [tuple(values[next(codes)] for codes, values in columns)]
            else:
                rows = zip(
                    *[
                        itemgetter(*itertools.islice(codes, n))(values)
                        for codes, values in columns
                    ]
                )
            yield map(dict, map(zip, itertools.repeat(names), rows))


def iter_worlds(m: Scm, evidence: Mapping[str, Value]) -> Iterator[Assignment]:
    """Yield the worlds of `consistent_worlds` in the same order, one at a
    time, so a caller that streams them never holds them all.

    The checks run when the first world is asked for.
    """
    return itertools.chain.from_iterable(_world_chunks(m, evidence))


def consistent_world_count(m: Scm, evidence: Mapping[str, Value]) -> int:
    """`len(consistent_worlds(m, evidence))`, counted from the kept masks
    without building a world."""
    return sum(kept.bit_count() for _, kept, _ in _abduce(m, evidence))


def consistent_worlds(m: Scm, evidence: Mapping[str, Value]) -> list[Assignment]:
    """All total assignments whose evaluation extends `evidence`.

    Enumerates every combination of root values in declaration order (domain
    order per variable), so the result order is deterministic. Raises
    EnumerationLimit when the root space exceeds the configured cap.
    """
    return list(iter_worlds(m, evidence))


def intervene(m: Scm, do: Mapping[str, Value]) -> Scm:
    """Graph surgery: cut the incoming edges of each target and pin its value.

    Targets must be endogenous; forcing a root variable is just choosing `u`.
    A pinned proxy stops tracking its principal, so the proxy marker is
    dropped. Returns a new model, the input is never mutated.
    """
    for name in do:
        if name not in m.graph:
            raise UnknownNode(f"intervention names unknown variable {name!r}")
        if m.graph.kind(name).is_root:
            raise InterveneOnExogenous(
                f"{name} is {m.graph.kind(name).value}; set it through the "
                "root assignment instead of an intervention"
            )
    _check_assignment(m, do, "intervention")
    if not do:
        return m
    targets = set(do)
    new_edges = tuple(e for e in m.graph.edges if e[1] not in targets)
    new_nodes = tuple(
        replace(n, proxy_for=None)
        if n.name in targets and n.proxy_for is not None
        else n
        for n in m.graph.nodes
    )
    new_graph = build_graph(new_nodes, new_edges)
    new_functions = dict(m.functions)
    for name, value in do.items():
        new_functions[name] = StructuralFunction(name, (), Lit(value))
    return replace(m, graph=new_graph, functions=new_functions)


def counterfactual(
    m: Scm,
    evidence: Mapping[str, Value],
    do: Mapping[str, Value],
    query: Iterable[str],
) -> dict[str, frozenset[Value]]:
    """What the query variables would have been under `do`, given `evidence`.

    Three steps: abduction (root assignments consistent with the evidence),
    action (intervention), prediction (evaluate the mutilated model in every
    abduced world, a block at a time on the same root masks). Each query
    variable maps to the set of values it takes across predictions; a
    singleton means the answer is determined.
    """
    query_names = list(query)
    for name in query_names:
        m.graph.require(name)
    found: dict[str, set[Value]] = {name: set() for name in query_names}
    mutilated = None
    for env, kept, size in _abduce(m, evidence):
        if not kept:
            continue
        if mutilated is None:
            # the evidence is consistent, so an intervention error comes next
            mutilated = intervene(m, do)
        roots = {name: env[name] for name in m.root_names}
        predicted = _propagate(mutilated, roots, (1 << size) - 1)
        for name in query_names:
            found[name].update(v for v, mask in predicted[name].items() if mask & kept)
    if mutilated is None:
        raise InconsistentEvidence(
            "no root assignment is consistent with the evidence"
        )
    return {name: frozenset(found[name]) for name in query_names}
