"""Formula abstract syntax, concrete grammar, desugaring, and node indexing.

Core constructors: Top, Prop, Nom, Not, And, Next, Until, Spatial, At,
Bind.  Everything else (Or, Implies, Iff, Eventually, Globally, WeakNext
and the bounded spatial modalities SomeDir/AllDir) is sugar eliminated
by :func:`desugar`.

Concrete grammar, loosest binding first::

    iff     :=  implies ('<->' iff)?               right-associative
    implies :=  until ('->' implies)?              right-associative
    until   :=  or ('U' until)?                    right-associative
    or      :=  and ('|' and)*
    and     :=  unary ('&' unary)*
    unary   :=  ('!' | 'X' | 'WX' | 'G' | 'F'
                | 'Front' | 'Back' | 'Left' | 'Right'
                | '@' NAME | '↓' NAME | 'down' NAME
                | '<' DIR (':' INT)? '>'           some cell within range
                | '[' DIR (':' INT)? ']') unary    every cell within range
              | primary
    primary :=  '1' | '0' | NAME | '(' iff ')'

``1`` and ``0`` are the boolean constants.  ``F`` (eventually) and
``Front`` are distinct keywords.  A bound omitted from ``<D>``/``[D]``
defaults at desugar time to the grid's row count for Front/Back and its
column count for Left/Right.  Names starting with an underscore are
reserved for internally generated nominals.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .core import Direction, GridGraph
from .errors import ParseError, ValidationError

# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------


class Formula:
    """Base class for all formula nodes. Nodes are immutable slotted values."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True, repr=False, slots=True)
class Top(Formula):
    pass


@dataclass(frozen=True, repr=False, slots=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True, repr=False, slots=True)
class Nom(Formula):
    name: str


@dataclass(frozen=True, repr=False, slots=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, repr=False, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False, slots=True)
class Next(Formula):
    child: Formula


@dataclass(frozen=True, repr=False, slots=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False, slots=True)
class Spatial(Formula):
    direction: Direction
    child: Formula


@dataclass(frozen=True, repr=False, slots=True)
class At(Formula):
    nominal: str
    child: Formula


@dataclass(frozen=True, repr=False, slots=True)
class Bind(Formula):
    nominal: str
    child: Formula


# Sugared constructors, eliminated by desugar().


@dataclass(frozen=True, repr=False, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False, slots=True)
class Eventually(Formula):
    child: Formula


@dataclass(frozen=True, repr=False, slots=True)
class Globally(Formula):
    child: Formula


@dataclass(frozen=True, repr=False, slots=True)
class WeakNext(Formula):
    child: Formula


@dataclass(frozen=True, repr=False, slots=True)
class SomeDir(Formula):
    """Some extant cell within ``bound`` steps in ``direction`` satisfies the child."""

    direction: Direction
    bound: int | None
    child: Formula


@dataclass(frozen=True, repr=False, slots=True)
class AllDir(Formula):
    """Every extant cell within ``bound`` steps in ``direction`` satisfies the child."""

    direction: Direction
    bound: int | None
    child: Formula


_CORE_TYPES = (Top, Prop, Nom, Not, And, Next, Until, Spatial, At, Bind)
_BINARY_TYPES = (And, Until, Or, Implies, Iff)


def children(f: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas, left to right."""
    if isinstance(f, (Top, Prop, Nom)):
        return ()
    if isinstance(f, _BINARY_TYPES):
        return (f.left, f.right)
    return (f.child,)


def is_core(f: Formula) -> bool:
    """True when the tree uses only core constructors."""
    stack = [f]
    while stack:
        node = stack.pop()
        if not isinstance(node, _CORE_TYPES):
            return False
        stack.extend(children(node))
    return True


def size(f: Formula) -> int:
    """Structural size: the number of nodes in the tree."""
    return 1 + sum(size(c) for c in children(f))


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolUsage:
    """Names occurring in a formula.

    ``noms`` holds nominals with at least one free occurrence (they must
    be declared by the model); ``bound`` holds nominals introduced by a
    binder somewhere in the tree.
    """

    props: frozenset[str]
    noms: frozenset[str]
    bound: frozenset[str]


def symbols(f: Formula) -> SymbolUsage:
    props: set[str] = set()
    free: set[str] = set()
    bound: set[str] = set()

    def walk(node: Formula, scope: frozenset[str]) -> None:
        if isinstance(node, Prop):
            props.add(node.name)
        elif isinstance(node, Nom):
            (free if node.name not in scope else bound).add(node.name)
        elif isinstance(node, At):
            (free if node.nominal not in scope else bound).add(node.nominal)
            walk(node.child, scope)
        elif isinstance(node, Bind):
            bound.add(node.nominal)
            walk(node.child, scope | {node.nominal})
        else:
            for c in children(node):
                walk(c, scope)

    walk(f, frozenset())
    return SymbolUsage(frozenset(props), frozenset(free), frozenset(bound))


# ---------------------------------------------------------------------------
# Desugaring
# ---------------------------------------------------------------------------


def _or(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


def _implies(a: Formula, b: Formula) -> Formula:
    return Not(And(a, Not(b)))


def _default_bound(d: Direction, g: GridGraph) -> int:
    return g.rows if d in (Direction.FRONT, Direction.BACK) else g.cols


def desugar(f: Formula, g: GridGraph) -> Formula:
    """Rewrite to core constructors only. Idempotent.

    The grid supplies default bounds for ``<D>``/``[D]`` when omitted, and
    caps every bound at the steps the grid allows along D (cells further
    away never exist, so the cap changes no truth value).
    """
    if isinstance(f, (Top, Prop, Nom)):
        return f
    if isinstance(f, Not):
        return Not(desugar(f.child, g))
    if isinstance(f, And):
        return And(desugar(f.left, g), desugar(f.right, g))
    if isinstance(f, Next):
        return Next(desugar(f.child, g))
    if isinstance(f, Until):
        return Until(desugar(f.left, g), desugar(f.right, g))
    if isinstance(f, Spatial):
        return Spatial(f.direction, desugar(f.child, g))
    if isinstance(f, At):
        return At(f.nominal, desugar(f.child, g))
    if isinstance(f, Bind):
        return Bind(f.nominal, desugar(f.child, g))
    if isinstance(f, Or):
        return _or(desugar(f.left, g), desugar(f.right, g))
    if isinstance(f, Implies):
        return _implies(desugar(f.left, g), desugar(f.right, g))
    if isinstance(f, Iff):
        left, right = desugar(f.left, g), desugar(f.right, g)
        return And(_implies(left, right), _implies(right, left))
    if isinstance(f, Eventually):
        return Until(Top(), desugar(f.child, g))
    if isinstance(f, Globally):
        return Not(Until(Top(), Not(desugar(f.child, g))))
    if isinstance(f, WeakNext):
        child = desugar(f.child, g)
        return _implies(Next(Top()), Next(child))
    if isinstance(f, (SomeDir, AllDir)):
        bound = f.bound if f.bound is not None else _default_bound(f.direction, g)
        if bound < 1:
            raise ValidationError(f"bounded spatial modality needs a bound >= 1, got {bound}")
        bound = max(1, min(bound, _default_bound(f.direction, g) - 1))
        # Linear in the bound: <D:n>f = D(f | <D:n-1>f) and
        # [D:n]f = D 1 -> D(f & [D:n-1]f), with <D:1>f = D f and [D:1]f = D 1 -> D f.
        child, d = desugar(f.child, g), f.direction
        if isinstance(f, SomeDir):
            acc = Spatial(d, child)
            for _ in range(bound - 1):
                acc = Spatial(d, _or(child, acc))
            return acc
        acc = _implies(Spatial(d, Top()), Spatial(d, child))
        for _ in range(bound - 1):
            acc = _implies(Spatial(d, Top()), Spatial(d, And(child, acc)))
        return acc
    raise ValidationError(f"unknown formula node {type(f).__name__}")


# ---------------------------------------------------------------------------
# Occurrence indexing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeEntry:
    formula: Formula
    parent: int | None
    children: tuple[int, ...]


@dataclass(frozen=True)
class NodeTable:
    """Preorder occurrence index of a core formula.

    Syntactically identical subtrees at different positions receive
    distinct identifiers; the evaluator's memo keys rely on this.
    """

    entries: dict[int, NodeEntry]

    def __len__(self) -> int:
        return len(self.entries)


def index_nodes(f: Formula) -> NodeTable:
    """Assign preorder identifiers 0..n-1 to every occurrence in ``f``,
    which must be core-only."""
    nodes: list[tuple[Formula, int | None]] = []
    kids: list[list[int]] = []
    stack: list[tuple[Formula, int | None]] = [(f, None)]
    while stack:  # iterative, so deep trees need no deep recursion
        node, parent = stack.pop()
        if not isinstance(node, _CORE_TYPES):
            raise ValidationError("formula must be desugared (core constructors only)")
        if parent is not None:
            kids[parent].append(len(nodes))
        stack.extend((c, len(nodes)) for c in reversed(children(node)))
        nodes.append((node, parent))
        kids.append([])
    return NodeTable(
        {i: NodeEntry(node, parent, tuple(kids[i])) for i, (node, parent) in enumerate(nodes)}
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_DIR_NAMES = {d: d.value for d in Direction}
# Operator spellings; the parser also reads _PREFIX.
_PREFIX = {"!": Not, "X": Next, "WX": WeakNext, "G": Globally, "F": Eventually}
_PREFIX_TEXT = {node: text for text, node in _PREFIX.items()}
_INFIX_TEXT = {And: "&", Or: "|", Until: "U", Implies: "->", Iff: "<->"}


def render(f: Formula) -> str:
    """Canonical text form; ``parse(render(f))`` rebuilds ``f``.

    Binary operators are always parenthesized, prefix chains are not.
    """
    if isinstance(f, Top):
        return "1"
    if isinstance(f, (Prop, Nom)):
        return f.name
    if type(f) in _PREFIX_TEXT:
        return f"{_PREFIX_TEXT[type(f)]} {render(f.child)}"
    if isinstance(f, Spatial):
        return f"{_DIR_NAMES[f.direction]} {render(f.child)}"
    if isinstance(f, At):
        return f"@{f.nominal} {render(f.child)}"
    if isinstance(f, Bind):
        return f"↓{f.nominal} {render(f.child)}"
    if isinstance(f, SomeDir):
        bound = "" if f.bound is None else f":{f.bound}"
        return f"<{_DIR_NAMES[f.direction]}{bound}> {render(f.child)}"
    if isinstance(f, AllDir):
        bound = "" if f.bound is None else f":{f.bound}"
        return f"[{_DIR_NAMES[f.direction]}{bound}] {render(f.child)}"
    if type(f) in _INFIX_TEXT:
        return f"({render(f.left)} {_INFIX_TEXT[type(f)]} {render(f.right)})"
    raise ValidationError(f"unknown formula node {type(f).__name__}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_KEYWORDS = {"X", "WX", "U", "G", "F", "Front", "Back", "Left", "Right", "down"}
_DIR_BY_NAME = {d.value: d for d in Direction}
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")

_Token = tuple[str, str, int]  # (kind, text, offset)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("<->", i):
            tokens.append(("<->", "<->", i))
            i += 3
            continue
        if text.startswith("->", i):
            tokens.append(("->", "->", i))
            i += 2
            continue
        if ch in "()&|!@<>[]:":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "↓":
            tokens.append(("down", ch, i))
            i += 1
            continue
        m = _INT_RE.match(text, i)
        if m:
            tokens.append(("int", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            word = m.group()
            if word == "down":
                tokens.append(("down", word, i))
            elif word in _KEYWORDS:
                tokens.append((word, word, i))
            else:  # one string object per name, however many nodes carry it
                tokens.append(("name", sys.intern(word), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", "", n))
    return tokens


def validate_name(name: str, role: str) -> None:
    """Reject malformed, reserved, or internally-prefixed names."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ValidationError(f"{role} name {name!r} is not a valid identifier")
    if name in _KEYWORDS:
        raise ValidationError(f"{role} name {name!r} collides with a reserved keyword")
    if name.startswith("_"):
        raise ValidationError(f"{role} name {name!r} uses the reserved '_' prefix")


class _Parser:
    def __init__(self, tokens: list[_Token], props: frozenset[str], noms: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.props = props
        self.noms = noms
        self.scope: list[str] = []  # binder-introduced nominals, innermost last

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r} but found {tok[1]!r}", tok[2])
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok[2])

    # grammar levels, loosest first

    def parse_iff(self) -> Formula:
        left = self.parse_implies()
        if self.peek()[0] == "<->":
            self.take()
            return Iff(left, self.parse_iff())
        return left

    def parse_implies(self) -> Formula:
        left = self.parse_until()
        if self.peek()[0] == "->":
            self.take()
            return Implies(left, self.parse_implies())
        return left

    def parse_until(self) -> Formula:
        left = self.parse_or()
        if self.peek()[0] == "U":
            self.take()
            return Until(left, self.parse_until())
        return left

    def parse_or(self) -> Formula:
        left = self.parse_and()
        while self.peek()[0] == "|":
            self.take()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_unary()
        while self.peek()[0] == "&":
            self.take()
            left = And(left, self.parse_unary())
        return left

    def nominal_token(self) -> str:
        tok = self.take()
        if tok[0] != "name":
            raise ParseError(f"expected a nominal name, found {tok[1]!r}", tok[2])
        return tok[1]

    def parse_unary(self) -> Formula:
        kind, text, offset = self.peek()
        if kind in _PREFIX:
            self.take()
            return _PREFIX[kind](self.parse_unary())
        if kind in _DIR_BY_NAME:
            self.take()
            return Spatial(_DIR_BY_NAME[kind], self.parse_unary())
        if kind == "@":
            self.take()
            name = self.nominal_token()
            if name in self.props:
                raise ParseError(f"{name!r} is a proposition, not a nominal", offset)
            if name not in self.noms and name not in self.scope:
                raise ParseError(f"undeclared nominal {name!r}", offset)
            return At(name, self.parse_unary())
        if kind == "down":
            self.take()
            name = self.nominal_token()
            if name in self.props:
                raise ParseError(f"cannot bind {name!r}: it is a proposition", offset)
            validate_name(name, "bound nominal")
            self.scope.append(name)
            try:
                child = self.parse_unary()
            finally:
                self.scope.pop()
            return Bind(name, child)
        if kind in ("<", "["):
            closing = ">" if kind == "<" else "]"
            self.take()
            dir_tok = self.take()
            if dir_tok[0] not in _DIR_BY_NAME:
                raise ParseError(f"expected a direction, found {dir_tok[1]!r}", dir_tok[2])
            bound: int | None = None
            if self.peek()[0] == ":":
                self.take()
                bound_tok = self.expect("int")
                bound = int(bound_tok[1])
            self.expect(closing)
            node_type = SomeDir if kind == "<" else AllDir
            return node_type(_DIR_BY_NAME[dir_tok[0]], bound, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        kind, text, offset = self.take()
        if kind == "int":
            if text == "1":
                return Top()
            if text == "0":
                return Not(Top())
            raise ParseError(f"only 1 and 0 are formula constants, found {text!r}", offset)
        if kind == "name":
            if text in self.props:
                return Prop(text)
            if text in self.noms or text in self.scope:
                return Nom(text)
            raise ParseError(f"undeclared identifier {text!r}", offset)
        if kind == "(":
            inner = self.parse_iff()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {text!r}", offset)


def parse(text: str, props: frozenset[str] | set[str], noms: frozenset[str] | set[str]) -> Formula:
    """Parse ``text`` against declared proposition and nominal names.

    Nominals introduced by a binder need not be pre-declared; any other
    unknown identifier is an error, as is a name clash between the two
    declared sets.
    """
    if not isinstance(text, str):
        raise ValidationError(f"a formula must be a string, got {text!r}")
    props = frozenset(props)
    noms = frozenset(noms)
    clash = props & noms
    if clash:
        raise ValidationError(f"names declared as both proposition and nominal: {sorted(clash)}")
    for name in props:
        validate_name(name, "proposition")
    for name in noms:
        validate_name(name, "nominal")
    parser = _Parser(_tokenize(text), props, noms)
    result = parser.parse_iff()
    end = parser.take()
    if end[0] != "eof":
        raise ParseError(f"unexpected trailing input {end[1]!r}", end[2])
    return result
