"""Deterministic structural causal models over finite domains.

An Scm couples a CausalGraph with one domain per variable and one structural
function per endogenous variable. Functions are total and single-valued, so
a complete assignment of the root (exogenous plus latent) variables fixes
every other variable. That gives three query levels:

  * association: enumerate the root assignments consistent with evidence,
  * intervention: cut the incoming edges of a variable and pin its value,
  * counterfactuals: abduction (consistent worlds), action (pinned values),
    prediction (re-evaluation under the pinned values in every kept world).

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
counterfactual enumerates only its requisite roots: those with a directed
path to the evidence, or to the query along a path that avoids the
intervened variables. It compiles the query's ancestry over the same root
masks, with each intervened variable's masks pinned to its value, and
reports each query value whose mask meets the kept worlds. A block holds
2^23 worlds divided by the size of the widest domain, so the masks of one
variable over one block take at most 1 MiB. Under the default cap of 2^20
worlds, a model whose domains have at most eight values is one block.

Functions may also be declared structure-only (body None); such models still
answer graph-level queries but refuse evaluation.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from operator import and_, itemgetter, or_
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, Sequence

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
from .graph import CausalGraph, NodeKind, _mask, _neighbourhood, build_graph
from .limits import DEFAULT_WORLD_CAP, ENV_VAR, MAX_EXPR_DEPTH, _over_cap, enumeration_cap

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

    @staticmethod
    def render(value: Value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)


BOOL = Domain("bool", (False, True))


def _show(value: Value) -> str:
    """Render a value for error messages."""
    return Domain.render(value) if isinstance(value, bool) else repr(value)


# -- expression bodies -----------------------------------------------------


class Expr:
    """Base class for structural-function expression trees."""

    def masks(self, env: Mapping[str, Masks], full: int) -> Masks:
        """The worlds (bits of `full`) in which this expression takes each value.

        `env` maps every referenced variable to its value masks.
        """
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        return ()


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
class Not(Expr):
    a: Expr

    def masks(self, env: Mapping[str, Masks], full: int) -> Masks:
        a = self.a.masks(env, full)
        return {False: a.get(True, 0), True: a.get(False, 0)}

    def children(self) -> tuple[Expr, ...]:
        return (self.a,)


@dataclass(frozen=True, init=False)
class _Chain(Expr):
    """A run of one left-associative operator over two or more terms, stored
    flat. A first term of the same class is absorbed, so
    `Or(Or(a, b), c) == Or(a, b, c)`. `a` and `b`, the operands of the binary
    tree the chain stands for, remain only for the reference oracles."""

    terms: tuple[Expr, ...]

    def __init__(self, first: Expr, second: Expr, *rest: Expr) -> None:
        head = first.terms if type(first) is type(self) else (first,)
        object.__setattr__(self, "terms", (*head, second, *rest))

    @property
    def a(self) -> Expr:
        return type(self)(*self.terms[:-1]) if len(self.terms) > 2 else self.terms[0]

    @property
    def b(self) -> Expr:
        return self.terms[-1]

    def masks(self, env: Mapping[str, Masks], full: int) -> Masks:
        truth = reduce(self._op, (t.masks(env, full).get(True, 0) for t in self.terms))
        return {False: full ^ truth, True: truth}

    def children(self) -> tuple[Expr, ...]:
        return self.terms


class And(_Chain):
    _op = and_


class Or(_Chain):
    _op = or_


class Eq(_Chain):
    def masks(self, env: Mapping[str, Masks], full: int) -> Masks:
        left = self.terms[0].masks(env, full)
        for term in self.terms[1:]:
            right = term.masks(env, full)
            same = reduce(or_, (mask & right.get(v, 0) for v, mask in left.items()), 0)
            left = {False: full ^ same, True: same}
        return left


@dataclass(frozen=True)
class IfThenElse(Expr):
    cond: Expr
    then: Expr
    orelse: Expr

    def masks(self, env: Mapping[str, Masks], full: int) -> Masks:
        cond = self.cond.masks(env, full).get(True, 0)
        other = full ^ cond
        out = {v: mask & cond for v, mask in self.then.masks(env, full).items()}
        for value, mask in self.orelse.masks(env, full).items():
            out[value] = out.get(value, 0) | (mask & other)
        return out

    def children(self) -> tuple[Expr, ...]:
        return (self.cond, self.then, self.orelse)


def infer_domain(
    e: Expr,
    var_domains: Mapping[str, Domain],
    known_domains: Iterable[Domain],
    depth: int = MAX_EXPR_DEPTH,
) -> Domain | None:
    """Best-effort domain of an expression; None when a bare literal is
    ambiguous, or past `depth` levels, which `check_expr` refuses."""
    if isinstance(e, (Not, And, Or, Eq)):
        return BOOL
    if isinstance(e, Ref):
        return var_domains.get(e.name)
    if isinstance(e, Lit):
        if isinstance(e.value, bool):
            return BOOL
        candidates = [d for d in known_domains if e.value in d.values]
        return candidates[0] if len(candidates) == 1 else None
    if isinstance(e, IfThenElse) and depth:
        return infer_domain(e.then, var_domains, known_domains, depth - 1) or infer_domain(
            e.orelse, var_domains, known_domains, depth - 1
        )
    return None


def check_expr(
    e: Expr,
    expected: Domain,
    var_domains: Mapping[str, Domain],
    known_domains: Collection[Domain],
    what: str = "expression",
) -> tuple[str, ...]:
    """Check `e`, called `what`, against the domain the context expects, in
    one walk, and return the variables it references in first-occurrence order.

    Boolean operators demand and produce bool; `==` compares two values of one
    domain and produces bool; if-then-else needs a bool condition and branches
    of the expected domain. Raises SemanticError as soon as the walk meets
    nesting deeper than MAX_EXPR_DEPTH levels (one per node but a literal or
    a reference, a chain of any length included); after it, for references
    outside `var_domains`, then for the first type mismatch in pre-order.
    """
    refs: dict[str, None] = {}
    errors: list[str] = []
    _check(e, expected, MAX_EXPR_DEPTH, var_domains, known_domains, what, refs, errors)
    stray = sorted(name for name in refs if name not in var_domains)
    if stray:
        errors.insert(0, f"{what} references non-parents: " + ", ".join(stray))
    if errors:
        raise SemanticError(errors[0])
    return tuple(refs)


def _check(e, expected, depth, var_domains, known, what, refs, errors) -> None:
    """Visit `e` for `check_expr` with `depth` levels left below it: add its
    references to `refs` and its type errors to `errors`, in pre-order."""
    if isinstance(e, Ref):
        refs[e.name] = None
        actual = var_domains.get(e.name, expected)
        if actual != expected:
            errors.append(f"variable {e.name} has domain {actual.name}, expected {expected.name}")
        return
    if isinstance(e, Lit):
        if e.value not in expected:
            errors.append(f"value {_show(e.value)} does not belong to domain {expected.name}")
        return
    if depth == 0 and e.children():
        raise SemanticError(f"{what} nests deeper than {MAX_EXPR_DEPTH} levels")
    depth -= 1
    if isinstance(e, IfThenElse):
        _check(e.cond, BOOL, depth, var_domains, known, what, refs, errors)
        _check(e.then, expected, depth, var_domains, known, what, refs, errors)
        _check(e.orelse, expected, depth, var_domains, known, what, refs, errors)
        return
    side = BOOL
    if isinstance(e, Eq):
        if expected != BOOL:
            errors.append(f"comparison used where domain {expected.name} is expected")
        side = infer_domain(e.terms[0], var_domains, known, depth) or infer_domain(
            e.terms[1], var_domains, known, depth
        )
        if side is None:
            errors.append("cannot determine the domain of this comparison")
            side = BOOL  # only the first error is reported
    elif isinstance(e, (Not, And, Or)):
        if expected != BOOL:
            errors.append(f"boolean operator used where domain {expected.name} is expected")
    else:
        errors.append(f"unsupported expression node {type(e).__name__}")
    # `a == b == c` compares `a == b`, a bool, with `c`
    for k, child in enumerate(e.children()):
        _check(child, side if k < 2 else BOOL, depth, var_domains, known, what, refs, errors)


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

    @cached_property
    def root_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.graph.nodes if n.kind.is_root)

    @cached_property
    def endogenous_names(self) -> tuple[str, ...]:
        return tuple(
            n.name for n in self.graph.nodes if n.kind is NodeKind.ENDOGENOUS
        )

    @cached_property
    def _widest(self) -> int:
        """Number of values of the widest domain; 2 when there is none."""
        return max((len(d.values) for d in self.domains.values()), default=2)

    def domain_of(self, name: str) -> Domain:
        self.graph.require(name)
        return self.domains[name]

    def fully_specified(self) -> bool:
        return all(f.specified for f in self.functions.values())


def _check_keys(
    keys: Iterable[str], names: Iterable[str], missing: str, extra: str, kind: str
) -> None:
    """Refuse `keys` unless they are exactly `names`, listing the names that
    lack a key after `missing` and the keys that name none after `extra`. The
    subject is the first name listed: ("node", name) for a name without a key,
    else (`kind`, key)."""
    keys, names = set(keys), set(names)
    lacking, stray = sorted(names - keys), sorted(keys - names)
    if lacking or stray:
        parts = ((missing, lacking), (extra, stray))
        message = "; ".join(f"{what} " + ", ".join(listed) for what, listed in parts if listed)
        raise SemanticError(message, subject=("node", lacking[0]) if lacking else (kind, stray[0]))


def build_scm(
    graph: CausalGraph,
    domains: Mapping[str, Domain],
    functions: Mapping[str, StructuralFunction],
    name: str = "m",
) -> Scm:
    """Validate model invariants and assemble an Scm.

    Every node needs a domain; endogenous nodes need exactly one function whose parents
    equal the node's graph parents; expression bodies must type-check against parent
    domains; table bodies must cover the parent combinations exactly once; proxies share
    their principal's domain. An error's `subject` names the node or function at fault.
    """
    _check_keys(domains, graph.names, "missing domain for", "domain for unknown variable", "node")
    endo = [n.name for n in graph.nodes if n.kind is NodeKind.ENDOGENOUS]
    extra = "function attached to non-endogenous variable"
    _check_keys(functions, endo, "no function for", extra, "function")

    known = list(dict.fromkeys(domains.values()))
    for name_, f in functions.items():
        try:
            if f.target != name_:
                raise SemanticError(f"function stored under {name_!r} targets {f.target!r}")
            if set(f.parents) != set(graph.parents(name_)):
                raise SemanticError(
                    f"parents of {name_} disagree with the graph: function has "
                    f"({', '.join(f.parents) or 'none'}), graph has "
                    f"({', '.join(graph.parents(name_)) or 'none'})"
                )
            if len(set(f.parents)) != len(f.parents):
                raise SemanticError(f"function of {name_} repeats a parent")
            if isinstance(f.body, Expr):
                parent_domains = {p: domains[p] for p in f.parents}
                check_expr(f.body, domains[name_], parent_domains, known, f"function of {name_}")
            elif isinstance(f.body, Table):
                expected_rows = math.prod(len(domains[p].values) for p in f.parents)
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
        except SemanticError as err:
            err.subject = ("function", name_)
            raise

    for node in graph.nodes:
        if node.proxy_for is not None and domains[node.name] != domains[node.proxy_for]:
            raise SemanticError(
                f"proxy {node.name} must share the domain of {node.proxy_for}",
                subject=("node", node.name),
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
    env = _propagate(
        m, {name: {value: 1} for name, value in u.items()}, m.graph.topological_order(), 1
    )
    return {
        name: next(value for value, mask in env[name].items() if mask)
        for name in m.graph.names
    }


def world_count(m: Scm) -> int:
    """Number of root combinations of `m`.

    Raises EnumerationLimit when it exceeds the configured cap, before any
    world is built.
    """
    return _combinations(m, m.root_names)


def _combinations(m: Scm, roots: Iterable[str]) -> int:
    """Number of combinations of the values of `roots`, refused past the cap."""
    combinations = math.prod(len(m.domains[name].values) for name in roots)
    cap = enumeration_cap(DEFAULT_WORLD_CAP)
    if _over_cap(combinations, cap):
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
    return max(1, min(count, _MASK_BITS // m._widest))


def _root_masks(
    m: Scm, count: int, start: int, size: int, roots: Sequence[str]
) -> dict[str, Masks]:
    """Value masks of `roots` over the worlds `start` to `start + size - 1`
    of their `count` combinations in product order.

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
    for name in roots:
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


def _propagate(
    m: Scm, env: dict[str, Masks], names: Iterable[str], full: int
) -> dict[str, Masks]:
    """Fill in `env` with the value masks of each of `names` it lacks, each
    function compiled once, in the order given (a topological one); return
    `env`."""
    for name in names:
        if name not in env:
            env[name] = m.functions[name].masks(env, full)
    return env


def _abduce(
    m: Scm, evidence: Mapping[str, Value], roots: Sequence[str], names: Iterable[str]
) -> Iterator[tuple[dict[str, Masks], int, int]]:
    """For each block of the combinations of `roots` in order: the value
    masks of `roots` and of `names`, the mask of the block's worlds that
    extend `evidence`, and the block's size.

    `names` is in topological order and holds the evidence and its
    ancestors. The checks run before the first block is built; the cap
    counts the combinations of `roots`.
    """
    _check_assignment(m, evidence, "evidence")
    _require_specified(m)
    count = _combinations(m, roots)
    block = _block_size(m, count)
    for start in range(0, count, block):
        size = min(block, count - start)
        full = (1 << size) - 1
        env = _propagate(m, _root_masks(m, count, start, size, roots), names, full)
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
    for env, kept, size in _abduce(m, evidence, m.root_names, m.graph.topological_order()):
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
    blocks = _abduce(m, evidence, m.root_names, m.graph.topological_order())
    return sum(kept.bit_count() for _, kept, _ in blocks)


def consistent_worlds(m: Scm, evidence: Mapping[str, Value]) -> list[Assignment]:
    """All total assignments whose evaluation extends `evidence`.

    Enumerates every combination of root values in declaration order (domain
    order per variable), so the result order is deterministic. Raises
    EnumerationLimit when the root space exceeds the configured cap.
    """
    return list(iter_worlds(m, evidence))


def _check_intervention(m: Scm, do: Mapping[str, Value]) -> None:
    """Refuse a `do` that names an unknown or a root variable, or sets a
    value outside a domain."""
    for name in do:
        if name not in m.graph:
            raise UnknownNode(f"intervention names unknown variable {name!r}")
        if m.graph.kind(name).is_root:
            raise InterveneOnExogenous(
                f"{name} is {m.graph.kind(name).value}; set it through the "
                "root assignment instead of an intervention"
            )
    _check_assignment(m, do, "intervention")


def intervene(m: Scm, do: Mapping[str, Value]) -> Scm:
    """Graph surgery: cut the incoming edges of each target and pin its value.

    Targets must be endogenous; forcing a root variable is just choosing `u`.
    A pinned proxy stops tracking its principal, so the proxy marker is
    dropped. Returns a new model, the input is never mutated. This serves
    `do` and library callers; `counterfactual` pins masks instead.
    """
    _check_intervention(m, do)
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


def _requisite(
    m: Scm, evidence: Iterable[str], do: Iterable[str], query: Iterable[str]
) -> tuple[tuple[str, ...], list[str], list[str]]:
    """What a counterfactual needs of `m`: the roots to enumerate, in
    declaration order, then the variables abduction computes and those
    prediction computes, each in topological order.

    Abduction needs A, the evidence and its ancestors. Prediction needs P,
    the query and its ancestors in the mutilated model: a walk up the
    parents that does not pass through a `do` target. The roots in A ∪ P are
    requisite; every other root changes neither which worlds are kept nor
    what the query takes in them. Names the graph lacks are passed over, as
    the checks refuse them in their turn.
    """
    g = m.graph
    order, parents, an = g._order, g._edge_bits[0], g._reach_bits[1]
    abduced = 0
    for name in evidence:
        if name in order:
            abduced |= 1 << order[name] | an[order[name]]
    pinned = _mask(g, (name for name in do if name in order))
    predicted = frontier = _mask(g, query)
    while frontier:
        frontier = _neighbourhood(parents, frontier & ~pinned) & ~predicted
        predicted |= frontier
    needed = abduced | predicted
    topo = g.topological_order()
    return (
        tuple(name for name in m.root_names if needed >> order[name] & 1),
        [name for name in topo if abduced >> order[name] & 1],
        [name for name in topo if predicted >> order[name] & 1],
    )


def counterfactual(
    m: Scm,
    evidence: Mapping[str, Value],
    do: Mapping[str, Value],
    query: Iterable[str],
) -> dict[str, frozenset[Value]]:
    """What the query variables would have been under `do`, given `evidence`.

    Three steps over the requisite roots alone (`_requisite`): abduction
    computes the evidence and its ancestors and keeps the root combinations
    consistent with the evidence; action pins each `do` target's masks to
    its value in every world, with no graph surgery; prediction computes the
    query and its ancestors under those pins, in the model's own topological
    order, a block at a time on the same root masks. Each query variable maps
    to the set of values it takes across predictions; a singleton means the
    answer is determined. The cap counts the requisite roots' combinations.
    """
    query_names = list(query)
    for name in query_names:
        m.graph.require(name)
    roots, abduced, predicted = _requisite(m, evidence, do, query_names)
    found: dict[str, set[Value]] = {name: set() for name in query_names}
    consistent = False
    for env, kept, size in _abduce(m, evidence, roots, abduced):
        if not kept:
            continue
        if not consistent:
            # the evidence is consistent, so an intervention error comes next
            _check_intervention(m, do)
            consistent = True
        full = (1 << size) - 1
        prediction = {name: env[name] for name in roots}
        prediction.update((name, {value: full}) for name, value in do.items())
        _propagate(m, prediction, predicted, full)
        for name in query_names:
            found[name].update(v for v, mask in prediction[name].items() if mask & kept)
    if not consistent:
        raise InconsistentEvidence(
            "no root assignment is consistent with the evidence"
        )
    return {name: frozenset(found[name]) for name in query_names}
