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

The tokenizer, the parser and :func:`render` read one set of operator
tables: ``_PREFIX``, ``_BINDERS``, ``_BOUNDED``, ``_INFIX`` and the
:class:`~hstl.core.Direction` values.  ``_INFIX``'s levels 1-5 are the
``iff``..``and`` rules above, which the parser climbs in one routine.

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
from typing import Iterable

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
    stack: list[tuple[Formula, frozenset[str]]] = [(f, frozenset())]
    while stack:  # iterative, so deep trees need no deep recursion
        node, scope = stack.pop()
        if isinstance(node, Prop):
            props.add(node.name)
        elif isinstance(node, Nom):
            (free if node.name not in scope else bound).add(node.name)
        elif isinstance(node, At):
            (free if node.nominal not in scope else bound).add(node.nominal)
            stack.append((node.child, scope))
        elif isinstance(node, Bind):
            bound.add(node.nominal)
            stack.append((node.child, scope | {node.nominal}))
        else:
            for c in children(node):
                stack.append((c, scope))
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


def index_nodes(f: Formula) -> list[tuple[Formula, tuple[int, ...]]]:
    """Number every occurrence in ``f``, which must be core-only, in preorder.

    Row ``i`` is ``(node, children ids)``.  Row 0 is the root; a node's
    children are its ``children(node)`` in left-to-right order, each with
    a larger id than the node.  Syntactically identical subtrees at
    different positions get distinct rows; the evaluator's memo keys
    rely on this.
    """
    rows: list[tuple[Formula, list[int]]] = []
    stack: list[tuple[Formula, int]] = [(f, -1)]
    while stack:  # iterative, so deep trees need no deep recursion
        node, parent = stack.pop()
        if not isinstance(node, _CORE_TYPES):
            raise ValidationError("formula must be desugared (core constructors only)")
        if parent >= 0:
            rows[parent][1].append(len(rows))
        stack.extend((c, len(rows)) for c in reversed(children(node)))
        rows.append((node, []))
    return [(node, tuple(kids)) for node, kids in rows]


# ---------------------------------------------------------------------------
# Concrete syntax: the operator tables, rendering and parsing
# ---------------------------------------------------------------------------

_PREFIX = {"!": Not, "X": Next, "WX": WeakNext, "G": Globally, "F": Eventually}
_BINDERS = {"@": At, "↓": Bind, "down": Bind}  # render writes a node's first spelling
_BOUNDED = {"<": (SomeDir, ">"), "[": (AllDir, "]")}  # node, closing bracket
# Loosest first, as in the grammar: spelling -> (level, node, right-associative).
_INFIX = {
    "<->": (1, Iff, True),
    "->": (2, Implies, True),
    "U": (3, Until, True),
    "|": (4, Or, False),
    "&": (5, And, False),
}
_DIR_BY_NAME = {d.value: d for d in Direction}

_PREFIX_TEXT = {node: text for text, node in _PREFIX.items()}
_BINDER_TEXT = {node: text for text, node in reversed(_BINDERS.items())}
_BOUNDED_TEXT = {node: (opening, closing) for opening, (node, closing) in _BOUNDED.items()}
_INFIX_TEXT = {node: text for text, (_, node, _) in _INFIX.items()}


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
        return f"{f.direction.value} {render(f.child)}"
    if type(f) in _BINDER_TEXT:
        return f"{_BINDER_TEXT[type(f)]}{f.nominal} {render(f.child)}"
    if type(f) in _BOUNDED_TEXT:
        opening, closing = _BOUNDED_TEXT[type(f)]
        bound = "" if f.bound is None else f":{f.bound}"
        return f"{opening}{f.direction.value}{bound}{closing} {render(f.child)}"
    if type(f) in _INFIX_TEXT:
        return f"({render(f.left)} {_INFIX_TEXT[type(f)]} {render(f.right)})"
    raise ValidationError(f"unknown formula node {type(f).__name__}")


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SPELLINGS = {*_PREFIX, *_BINDERS, *_BOUNDED, *_INFIX, *_DIR_BY_NAME, *"():"}
_SPELLINGS.update(closing for _, closing in _BOUNDED.values())
_KEYWORDS = frozenset(filter(_NAME_RE.fullmatch, _SPELLINGS))
_SYMBOLS = sorted(_SPELLINGS - _KEYWORDS, key=lambda s: (-len(s), s))  # longest first
_TOKEN_RE = re.compile(  # "bad" takes any other non-space character, so finditer skips no text
    rf"\s*(?:(?P<name>{_NAME_RE.pattern})|(?P<int>[0-9]+)"
    rf"|(?P<sym>{'|'.join(map(re.escape, _SYMBOLS))})|(?P<bad>\S))"
)

_Token = tuple[str, str, int]  # (kind, text, offset); an operator's kind is its spelling


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        word = m[kind]
        if kind == "bad":
            raise ParseError(f"unexpected character {word!r}", m.start(kind))
        if kind == "sym" or word in _KEYWORDS:
            kind = word
        elif kind == "name":  # one string object per name, however many nodes carry it
            word = sys.intern(word)
        tokens.append((kind, word, m.start(m.lastgroup)))
    tokens.append(("eof", "", len(text)))
    return tokens


def validate_name(name: str, role: str) -> None:
    """Reject malformed, reserved, or internally-prefixed names."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ValidationError(f"{role} name {name!r} is not a valid identifier")
    if name in _KEYWORDS:
        raise ValidationError(f"{role} name {name!r} collides with a reserved keyword")
    if name.startswith("_"):
        raise ValidationError(f"{role} name {name!r} uses the reserved '_' prefix")


def validate_declarations(props: Iterable[str], noms: Iterable[str]) -> None:
    """Reject a name declared as both proposition and nominal, or one :func:`validate_name` rejects."""
    if clash := set(props).intersection(noms):
        raise ValidationError(f"names declared as both proposition and nominal: {sorted(clash)}")
    for name in props:
        validate_name(name, "proposition")
    for name in noms:
        validate_name(name, "nominal")


class _Parser:
    def __init__(self, tokens: list[_Token], props: frozenset[str], noms: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.props = props
        self.noms = noms
        self.scope: list[str] = []  # binder-introduced nominals, innermost last

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r} but found {tok[1]!r}", tok[2])
        return tok

    def parse_infix(self, min_level: int = 1) -> Formula:
        """Operands joined by binary operators of ``min_level`` or tighter
        (precedence climbing: one frame per operand, not one per level)."""
        left = self.parse_unary()
        while True:
            op = _INFIX.get(self.tokens[self.pos][0])
            if op is None or op[0] < min_level:
                return left
            level, node, right_assoc = op
            self.take()
            left = node(left, self.parse_infix(level if right_assoc else level + 1))

    def parse_unary(self) -> Formula:
        kind, text, offset = self.tokens[self.pos]
        if kind in _PREFIX:
            self.take()
            return _PREFIX[kind](self.parse_unary())
        if kind in _DIR_BY_NAME:
            self.take()
            return Spatial(_DIR_BY_NAME[kind], self.parse_unary())
        if kind in _BINDERS:
            self.take()
            name_kind, name, at = self.take()
            if name_kind != "name":
                raise ParseError(f"expected a nominal name, found {name!r}", at)
            if _BINDERS[kind] is At:
                if name in self.props:
                    raise ParseError(f"{name!r} is a proposition, not a nominal", offset)
                if name not in self.noms and name not in self.scope:
                    raise ParseError(f"undeclared nominal {name!r}", offset)
                return At(name, self.parse_unary())
            if name in self.props:
                raise ParseError(f"cannot bind {name!r}: it is a proposition", offset)
            validate_name(name, "bound nominal")
            self.scope.append(name)  # a failed parse discards the parser, so no finally
            child = self.parse_unary()
            self.scope.pop()
            return Bind(name, child)
        if kind in _BOUNDED:
            node, closing = _BOUNDED[kind]
            self.take()
            dir_tok = self.take()
            if dir_tok[0] not in _DIR_BY_NAME:
                raise ParseError(f"expected a direction, found {dir_tok[1]!r}", dir_tok[2])
            bound: int | None = None
            if self.tokens[self.pos][0] == ":":
                self.take()
                bound = int(self.expect("int")[1])
            self.expect(closing)
            return node(_DIR_BY_NAME[dir_tok[0]], bound, self.parse_unary())
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
            inner = self.parse_infix()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {text!r}", offset)


def parse(text: str, props: Iterable[str], noms: Iterable[str]) -> Formula:
    """Parse ``text`` against declared proposition and nominal names.

    Nominals introduced by a binder need not be pre-declared; any other
    unknown identifier is an error, as is a name clash between the two
    declared sets.
    """
    if not isinstance(text, str):
        raise ValidationError(f"a formula must be a string, got {text!r}")
    props, noms = frozenset(props), frozenset(noms)
    validate_declarations(props, noms)
    parser = _Parser(_tokenize(text), props, noms)
    result = parser.parse_infix()
    end = parser.take()
    if end[0] != "eof":
        raise ParseError(f"unexpected trailing input {end[1]!r}", end[2])
    return result
