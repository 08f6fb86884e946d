"""Syntax of the ellipsis language: AST, signatures, substitution, DSL parser and printer.

Terms are built from variables, decimal numerals, fixed-arity function
applications, applications of the reserved sequence symbol ``f``, and
ellipsis applications ``G[ u : x .. v ]`` which hand a variadic symbol the
tuple of u-values at x = 0..v.  Formulas are the usual first-order
combinations, with ``=`` and the comparison predicates written infix.

Concrete grammar (whitespace-insensitive)::

    formula := 'forall' VAR '.' formula | 'exists' VAR '.' formula | imp
    imp     := disj [ '->' imp ]
    disj    := conj { '|' conj }
    conj    := neg { '&' neg }
    neg     := '!' neg | atom
    atom    := term REL term | IDENT '(' term {',' term} ')' | '(' formula ')'
    REL     := '=' | a key of PRED_BUILTINS ('<', '>', '<=', '>=')
    term    := NAT | VAR | 'f' '(' term ')' | IDENT '(' term {',' term} ')'
             | IDENT '[' term ':' VAR '..' term ']'

``NAT`` is a run of digits as ``str.isdecimal`` reads them (``٣`` is 3);
``VAR``/``IDENT`` are a letter or ``_`` followed by letters, digits or ``_``,
as ``str.isalpha``/``str.isalnum`` read them (``é`` and ``x²`` are names),
with ``f``, ``forall`` and ``exists`` reserved.  The levels ``imp``, ``disj``
and ``conj`` are the rows of ``BINARY``, which the parser, the printer and
the evaluator all read.
"""

from __future__ import annotations

import contextlib
import math
import operator
from collections.abc import Callable, Sequence

from . import pairing


class LangError(ValueError):
    """Base class for syntax-level failures."""


class ParseError(LangError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SignatureError(LangError):
    """Unknown symbol, redeclaration, or arity mismatch."""


class CaptureError(LangError):
    """An open replacement would be captured by a binder."""


def natural(text: str, what: str, error: Callable[[str], Exception] = LangError) -> int:
    """Read a natural the user wrote, or raise ``error(message)`` naming ``what``.

    Takes exactly the text ``str.isdecimal`` takes (no sign, underscore or
    space) with no more digits than the interpreter converts (4,300 by default).
    """
    if not text.isdecimal():
        raise error(f"{what} {text!r} is not a decimal natural")
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise error(f"{what} of {len(text)} digits is too long") from None


def decimal(n: int, what: str, error: Callable[[str], Exception] = LangError) -> str:
    """The converse of ``natural``: ``str(n)``, or ``error`` naming ``what`` and its digit count."""
    try:
        return str(n)
    except ValueError:
        digits = int(math.log10(n))  # the float may round either way at a power of ten
        while n >= 10 ** digits:
            digits += 1
        raise error(f"{what} of {digits} digits is too long") from None


# ---------------------------------------------------------------------------
# Records and the AST


_set = object.__setattr__


class Record:
    """Immutable value with named fields, compared, hashed and printed by them.

    A subclass declares its fields as annotations in its body, after those of
    its bases; a class attribute of the same name is that field's default.
    Instances behave as under ``@dataclass(frozen=True)``, but no code is
    generated when the class is created.  An instance's ``__dict__`` holds
    exactly its fields, in order; ``__post_init__`` may replace a value with
    ``object.__setattr__`` but adds none.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__dict__.get("__annotations__", {}) if name not in cls._fields]
        cls._fields = (*cls._fields, *own)
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # not through self.__dict__: materialising it makes every later field read
        # slower; and a counter, not zip, which costs about a fifth of the call
        i = 0
        for name in fields:
            _set(self, name, args[i])
            i += 1
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """Field values in order from arguments given by name or left to their defaults."""
        name = type(self).__qualname__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} arguments, not {len(args)}")
        values = list(args)
        for field in self._fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in self._defaults:
                values.append(self._defaults[field])
            else:
                raise TypeError(f"{name}() missing required argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unknown or repeated argument {next(iter(kwargs))!r}")
        return values

    def __post_init__(self):
        """Check or normalise the field values; a subclass overrides this."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Term(Record):
    pass


class Formula(Record):
    pass


class Variable(Term):
    name: str


class Numeral(Term):
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("numerals denote naturals")


class FixedApp(Term):
    """Application of a fixed-arity function symbol."""

    symbol: str
    args: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


class SeqApp(Term):
    """Application of the reserved unary sequence symbol ``f``."""

    arg: Term


class EllipsisApp(Term):
    """``symbol[ body : binder .. bound ]``.

    The binder scopes only the body; occurrences of the binder inside the
    bound term stay free.
    """

    symbol: str
    body: Term
    binder: str
    bound: Term


class Eq(Formula):
    left: Term
    right: Term


class Pred(Formula):
    symbol: str
    args: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


class Not(Formula):
    body: Formula


class And(Formula):
    left: Formula
    right: Formula


class Or(Formula):
    left: Formula
    right: Formula


class Implies(Formula):
    left: Formula
    right: Formula


class Forall(Formula):
    var: str
    body: Formula


class Exists(Formula):
    var: str
    body: Formula


RESERVED = {"f", "forall", "exists"}

#: The binary connectives, loosest first: (node class, symbol, truth function).
#: ``->`` groups to the right, ``|`` and ``&`` to the left; on bools ``a <= b``
#: is ``a -> b``.
BINARY = ((Implies, "->", operator.le), (Or, "|", operator.or_), (And, "&", operator.and_))


# ---------------------------------------------------------------------------
# Signature

def _monus(a: int, b: int) -> int:
    return a - b if a >= b else 0


#: builtin keys usable in signature files: ``fn <name> <arity> <key>``
FN_BUILTINS: dict[str, tuple[int, Callable[..., int]]] = {
    "+": (2, operator.add),
    "*": (2, operator.mul),
    "monus": (2, _monus),
    "d1": (1, pairing.first),
    "d2": (1, pairing.second),
    "constfam": (2, lambda m, n: m),
}

#: the comparisons: the default signature's predicates, written infix as relations
PRED_BUILTINS: dict[str, tuple[int, Callable[..., bool]]] = {
    "<": (2, operator.lt),
    ">": (2, operator.gt),
    "<=": (2, operator.le),
    ">=": (2, operator.ge),
}

_REL_SYMBOLS = ("=", *PRED_BUILTINS)

SEQ_BUILTINS: dict[str, Callable[[Sequence[int]], int]] = {
    "sum": sum,
    "max": max,
    "min": min,
    "len": len,
    "last": lambda t: t[-1],
    "contains0": lambda t: 1 if 0 in t else 0,
}


class Signature:
    """Finite registry of interpreted symbols.

    Holds fixed-arity functions, predicates, and variadic sequence-tuple
    functions in one table, ``name -> (kind, entry)``, so a name has exactly
    one kind; the reserved symbol ``f`` can never be declared.
    """

    def __init__(self):
        self._symbols: dict[str, tuple[str, object]] = {}

    def _declare(self, name: str, kind: str, entry: object) -> None:
        if name in RESERVED:
            raise SignatureError(f"{name!r} is reserved")
        if name not in PRED_BUILTINS and not _is_name(name):
            raise SignatureError(f"{name!r} is not a symbol name: "
                                 "a letter or '_', then letters, digits or '_'")
        if name in self._symbols:
            raise SignatureError(f"symbol {name!r} already declared")
        self._symbols[name] = (kind, entry)

    def register_function(self, name: str, arity: int, host: Callable[..., int]) -> None:
        if arity <= 0:
            raise SignatureError("function arity must be positive")
        self._declare(name, "function", (arity, host))

    def register_predicate(self, name: str, arity: int, host: Callable[..., bool]) -> None:
        if arity <= 0:
            raise SignatureError("predicate arity must be positive")
        self._declare(name, "predicate", (arity, host))

    def register_seq_function(self, name: str, host: Callable[[Sequence[int]], int]) -> None:
        """Declare a sequence host: it gets a ``FinitePrefix`` view; call ``tuple(t)`` for a tuple."""
        self._declare(name, "seq", host)

    # one frame per lookup, with no shared helper: the evaluator looks up every application
    def function(self, name: str) -> tuple[int, Callable[..., int]]:
        kind, entry = self._symbols.get(name, (None, None))
        if kind != "function":
            raise SignatureError(f"unknown function symbol {name!r}")
        return entry

    def predicate(self, name: str) -> tuple[int, Callable[..., bool]]:
        kind, entry = self._symbols.get(name, (None, None))
        if kind != "predicate":
            raise SignatureError(f"unknown predicate symbol {name!r}")
        return entry

    def seq_function(self, name: str) -> Callable[[Sequence[int]], int]:
        kind, entry = self._symbols.get(name, (None, None))
        if kind != "seq":
            raise SignatureError(f"unknown sequence symbol {name!r}")
        return entry

    def kind_of(self, name: str) -> str | None:
        """``"function"``, ``"predicate"`` or ``"seq"``; None for an undeclared name."""
        return self._symbols.get(name, (None, None))[0]


def default_signature() -> Signature:
    """Signature with the standing builtins.

    Functions ``add``, ``mul``, ``monus`` (truncated subtraction) and the
    pairing projections ``d1``, ``d2``; the comparison predicates of
    ``PRED_BUILTINS``, reachable through the infix REL syntax.
    """
    sig = Signature()
    for name, key in {"add": "+", "mul": "*", "monus": "monus", "d1": "d1", "d2": "d2"}.items():
        sig.register_function(name, *FN_BUILTINS[key])
    for name, (arity, host) in PRED_BUILTINS.items():
        sig.register_predicate(name, arity, host)
    return sig


def load_signature(text: str) -> Signature:
    """Extend the default signature from file text.

    Lines: ``fn <name> <arity> <builtin>``, ``pred <name> <arity> <builtin>``,
    ``seqfn <name> <builtin>``.  Blank lines and lines starting with ``#`` are
    skipped.  Builtins are the keys of FN_BUILTINS, PRED_BUILTINS and
    SEQ_BUILTINS.
    """
    sig = default_signature()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] in ("fn", "pred") and len(parts) == 4:
                kind, name, arity, key = parts
                builtins, register, noun = (
                    (FN_BUILTINS, sig.register_function, "function") if kind == "fn"
                    else (PRED_BUILTINS, sig.register_predicate, "predicate"))
                if key not in builtins:
                    raise SignatureError(f"unknown {noun} builtin {key!r}")
                builtin_arity, host = builtins[key]
                if natural(arity, "arity", SignatureError) != builtin_arity:
                    raise SignatureError(f"builtin {key!r} has arity {builtin_arity}, not {arity}")
                register(name, builtin_arity, host)
            elif parts[0] == "seqfn" and len(parts) == 3:
                _, name, key = parts
                if key not in SEQ_BUILTINS:
                    raise SignatureError(f"unknown sequence host {key!r}")
                sig.register_seq_function(name, SEQ_BUILTINS[key])
            else:
                raise SignatureError(f"unrecognised signature line: {line!r}")
        except SignatureError as exc:
            raise SignatureError(f"line {lineno}: {exc}") from None
    return sig


# ---------------------------------------------------------------------------
# Subtrees, free variables and substitution


def children(node: Term | Formula) -> tuple[Term | Formula, ...]:
    """The subterms and subformulas of a node, in field order."""
    if not isinstance(node, (Term, Formula)):
        raise TypeError(f"not a term or formula: {node!r}")
    return tuple(child for value in vars(node).values()
                 for child in (value if isinstance(value, tuple) else (value,))
                 if isinstance(child, (Term, Formula)))


def _rebuilt(node: Term | Formula, change: Callable) -> Term | Formula:
    """``node`` with ``change`` applied to each of its subtrees."""
    if not isinstance(node, (Term, Formula)):
        raise TypeError(f"not a term or formula: {node!r}")
    return type(node)(*(tuple(map(change, value)) if isinstance(value, tuple)
                        else change(value) if isinstance(value, (Term, Formula)) else value
                        for value in vars(node).values()))


def free_vars(node: Term | Formula) -> frozenset[str]:
    """Free variables of a term or formula.

    The ellipsis binder is removed from the body's contribution but the
    bound term's variables are kept whole.
    """
    if isinstance(node, Variable):
        return frozenset((node.name,))
    if isinstance(node, Numeral):
        return frozenset()
    if isinstance(node, EllipsisApp):
        return (free_vars(node.body) - {node.binder}) | free_vars(node.bound)
    if isinstance(node, (Forall, Exists)):
        return free_vars(node.body) - {node.var}
    return frozenset().union(*map(free_vars, children(node)))


def substitute(node, var: str, replacement: Term):
    """Replace free occurrences of ``var`` with a term.

    Passing under a binder that the replacement mentions free is rejected
    with CaptureError; numerals and other closed terms are always safe.
    For an ellipsis application, substituting the binder variable itself
    rewrites only the bound term and leaves the body alone.
    """
    if isinstance(node, Variable):
        return replacement if node.name == var else node
    if isinstance(node, Numeral):
        return node
    if isinstance(node, EllipsisApp):
        new_bound = substitute(node.bound, var, replacement)
        new_body = _substitute_under_binder(node.body, node.binder, var, replacement)
        return EllipsisApp(node.symbol, new_body, node.binder, new_bound)
    if isinstance(node, (Forall, Exists)):
        return type(node)(node.var, _substitute_under_binder(node.body, node.var, var, replacement))
    return _rebuilt(node, lambda child: substitute(child, var, replacement))


def _substitute_under_binder(body, binder: str, var: str, replacement: Term):
    if var == binder:
        return body
    if var in free_vars(body) and binder in free_vars(replacement):
        raise CaptureError(
            f"substituting {var!r} under binder {binder!r} would capture the replacement")
    return substitute(body, var, replacement)


# ---------------------------------------------------------------------------
# Tokenizer


class _Token(Record):
    kind: str  # 'nat' | 'name' | 'op' | 'eof'
    text: str
    line: int
    column: int


# longest first, so "<=" is never read as "<" and "="
_OPERATORS = tuple(sorted({*(symbol for _, symbol, _ in BINARY), *_REL_SYMBOLS,
                           "..", "(", ")", "[", "]", ",", ":", ".", "!"},
                          key=lambda op: (-len(op), op)))


def _in_name(ch: str) -> bool:
    """Whether ``ch`` continues a name; a numeral continues while ``str.isdecimal`` holds."""
    return ch.isalnum() or ch == "_"


def _is_name(text: str) -> bool:
    """Whether ``_tokenize`` reads ``text`` as one name."""
    return (text[:1].isalpha() or text[:1] == "_") and all(map(_in_name, text))


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdecimal() or ch.isalpha() or ch == "_":
            kind, inside = ("nat", str.isdecimal) if ch.isdecimal() else ("name", _in_name)
            j = i + 1
            while j < n and inside(text[j]):
                j += 1
            tokens.append(_Token(kind, text[i:j], line, col))
            col += j - i
            i = j
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(_Token("op", op, line, col))
                col += len(op)
                i += len(op)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser

# Deepest nesting the parser accepts, both in the text (quantifier bodies,
# negations, implications, parentheses, term arguments) and in the tree it
# builds; the parser and every evaluator of the tree recurse once per level.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[_Token], sig: Signature):
        self.tokens = tokens
        self.pos = 0
        self.sig = sig
        self.depth = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    @contextlib.contextmanager
    def nested(self):
        if self.depth >= MAX_NESTING:
            raise self.fail(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        yield
        self.depth -= 1

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise self.fail(f"expected {op!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def at_op(self, op: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == op

    def parse_variable_name(self) -> str:
        tok = self.peek()
        if tok.kind != "name" or tok.text in RESERVED:
            raise self.fail("expected a variable name")
        self.advance()
        return tok.text

    # formula levels

    def parse_formula(self) -> Formula:
        tok = self.peek()
        if tok.kind == "name" and tok.text in ("forall", "exists"):
            self.advance()
            var = self.parse_variable_name()
            self.expect_op(".")
            with self.nested():
                body = self.parse_formula()
            return Forall(var, body) if tok.text == "forall" else Exists(var, body)
        return self.parse_binary()

    def parse_binary(self, level: int = 0) -> Formula:
        """A chain of ``BINARY[level]`` over operands of the tighter levels."""
        if level == len(BINARY):
            return self.parse_neg()
        node, (connective, symbol, _) = self.parse_binary(level + 1), BINARY[level]
        while self.at_op(symbol):
            self.advance()
            if connective is Implies:  # groups to the right
                with self.nested():
                    return Implies(node, self.parse_binary(level))
            node = connective(node, self.parse_binary(level + 1))
        return node

    def parse_neg(self) -> Formula:
        if self.at_op("!"):
            self.advance()
            with self.nested():
                return Not(self.parse_neg())
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        if self.at_op("("):
            self.advance()
            with self.nested():
                inner = self.parse_formula()
            self.expect_op(")")
            return inner
        tok = self.peek()
        if (tok.kind == "name" and tok.text not in RESERVED
                and self.sig.kind_of(tok.text) == "predicate"
                and self.peek(1).kind == "op" and self.peek(1).text == "("):
            name = self.advance().text
            args = self.parse_arg_list()
            arity, _ = self.sig.predicate(name)
            if len(args) != arity:
                raise self.fail(f"predicate {name!r} expects {arity} arguments, got {len(args)}")
            return Pred(name, tuple(args))
        left = self.parse_term()
        tok = self.peek()
        if tok.kind == "op" and tok.text in _REL_SYMBOLS:
            self.advance()
            right = self.parse_term()
            if tok.text == "=":
                return Eq(left, right)
            return Pred(tok.text, (left, right))
        raise self.fail("expected a relation after term")

    # terms

    def parse_arg_list(self) -> list[Term]:
        self.expect_op("(")
        with self.nested():
            args = [self.parse_term()]
            while self.at_op(","):
                self.advance()
                args.append(self.parse_term())
        self.expect_op(")")
        return args

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "nat":
            value = natural(tok.text, "numeral", self.fail)
            self.advance()
            return Numeral(value)
        if tok.kind != "name":
            raise self.fail(f"expected a term, found {tok.text or 'end of input'!r}")
        if tok.text in ("forall", "exists"):
            raise self.fail(f"{tok.text!r} cannot start a term")
        name = self.advance().text
        if name == "f":
            self.expect_op("(")
            with self.nested():
                arg = self.parse_term()
            self.expect_op(")")
            return SeqApp(arg)
        if self.at_op("("):
            args = self.parse_arg_list()
            kind = self.sig.kind_of(name)
            if kind is None:
                raise self.fail(f"unknown symbol {name!r}")
            if kind != "function":
                raise self.fail(f"{name!r} is a {kind} symbol, not a fixed-arity function")
            arity, _ = self.sig.function(name)
            if len(args) != arity:
                raise self.fail(f"function {name!r} expects {arity} arguments, got {len(args)}")
            return FixedApp(name, tuple(args))
        if self.at_op("["):
            if self.sig.kind_of(name) != "seq":
                raise self.fail(f"{name!r} is not a declared sequence-tuple symbol")
            self.advance()
            with self.nested():
                body = self.parse_term()
                self.expect_op(":")
                binder = self.parse_variable_name()
                self.expect_op("..")
                bound = self.parse_term()
            self.expect_op("]")
            return EllipsisApp(name, body, binder, bound)
        return Variable(name)


def _parse_whole(text: str, sig: Signature | None, rule: Callable[[_Parser], Term | Formula]):
    """The tree ``rule`` reads from all of ``text``, resolving symbols against a signature."""
    parser = _Parser(_tokenize(text), sig if sig is not None else default_signature())
    tree = rule(parser)
    tok = parser.peek()
    if tok.kind != "eof":
        raise parser.fail(f"unexpected trailing input {tok.text!r}")
    # '&' and '|' chains are parsed in a loop but nest in the tree; terms nest only under the guard
    if _height(tree) > MAX_NESTING:
        raise parser.fail(f"nesting deeper than {MAX_NESTING} levels")
    return tree


def parse(text: str, sig: Signature | None = None) -> Formula:
    """Parse DSL text into a formula AST, resolving symbols against a signature."""
    return _parse_whole(text, sig, _Parser.parse_formula)


def _height(node: Term | Formula) -> int:
    """Levels below the root of a syntax tree, counted without recursion."""
    height, level = 0, [node]
    while True:
        level = [child for parent in level for child in children(parent)]
        if not level:
            return height
        height += 1


# ---------------------------------------------------------------------------
# Printer

# binding levels: 0 a quantifier's, 1.. the binary connectives', len(BINARY) + 1 a negation's
_BINARY_LEVEL = {connective: (level, symbol)
                 for level, (connective, symbol, _) in enumerate(BINARY, start=1)}


def print_term(term: Term) -> str:
    if isinstance(term, Numeral):
        return str(term.value)
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, SeqApp):
        return f"f({print_term(term.arg)})"
    if isinstance(term, FixedApp):
        return f"{term.symbol}(" + ", ".join(print_term(a) for a in term.args) + ")"
    if isinstance(term, EllipsisApp):
        return (f"{term.symbol}[ {print_term(term.body)} : {term.binder}"
                f" .. {print_term(term.bound)} ]")
    raise TypeError(f"not a term: {term!r}")


def print_formula(formula: Formula) -> str:
    """Canonical text; reparsing yields a structurally equal AST."""
    return _print_at(formula, 0)


def _print_at(node: Formula, level: int) -> str:
    """``node``'s text, parenthesised when its own level is looser than ``level``."""
    if isinstance(node, (Forall, Exists)):
        kw = "forall" if isinstance(node, Forall) else "exists"
        text = f"{kw} {node.var}. {_print_at(node.body, 0)}"
        return f"({text})" if level > 0 else text
    if node.__class__ in _BINARY_LEVEL:
        at, symbol = _BINARY_LEVEL[node.__class__]
        # the side a connective groups to may hold it again unparenthesised
        left, right = (at + 1, at) if node.__class__ is Implies else (at, at + 1)
        text = f"{_print_at(node.left, left)} {symbol} {_print_at(node.right, right)}"
        return f"({text})" if level > at else text
    if isinstance(node, Not):
        return f"!{_print_at(node.body, len(BINARY) + 1)}"
    if isinstance(node, Eq):
        return f"{print_term(node.left)} = {print_term(node.right)}"
    if isinstance(node, Pred):
        if node.symbol in _REL_SYMBOLS and len(node.args) == 2:
            return f"{print_term(node.args[0])} {node.symbol} {print_term(node.args[1])}"
        return f"{node.symbol}(" + ", ".join(print_term(a) for a in node.args) + ")"
    raise TypeError(f"not a formula: {node!r}")


# ---------------------------------------------------------------------------
# Prenex-2 sentence types


def is_quantifier_free(formula: Formula) -> bool:
    if isinstance(formula, (Eq, Pred)):
        return True
    if not isinstance(formula, Formula):
        raise TypeError(f"not a formula: {formula!r}")
    return not isinstance(formula, (Forall, Exists)) and all(map(is_quantifier_free, children(formula)))


def _check_matrix(matrix: Formula, outer: str, inner: str, shape: str) -> None:
    if outer == inner:
        raise LangError(f"{shape} sentence needs distinct quantified variables, got {outer!r} twice")
    if not is_quantifier_free(matrix):
        raise LangError(f"{shape} matrix must be quantifier-free")
    extra = free_vars(matrix) - {outer, inner}
    if extra:
        raise LangError(f"{shape} matrix has stray free variables {sorted(extra)}")


class _PrenexSentence(Record):
    """Two quantifiers over a quantifier-free matrix; a subclass fixes which, and its names."""

    outer: str
    inner: str
    matrix: Formula

    def __post_init__(self):
        _check_matrix(self.matrix, self.outer, self.inner, self._shape)

    def formula(self) -> Formula:
        outer, inner = self._quantifiers
        return outer(self.outer, inner(self.inner, self.matrix))

    def text(self) -> str:
        return print_formula(self.formula())

    @classmethod
    def from_formula(cls, formula: Formula) -> "_PrenexSentence":
        """The sentence ``formula`` if it is closed and has this class's prenex shape."""
        if free_vars(formula):
            raise LangError(f"the sentence has free variables {sorted(free_vars(formula))}")
        outer, inner = cls._quantifiers
        if not (isinstance(formula, outer) and isinstance(formula.body, inner)
                and is_quantifier_free(formula.body.body)):
            raise LangError(f"not {cls._kind} sentence: {print_formula(formula)}")
        return cls(formula.var, formula.body.var, formula.body.body)


class Sigma2Sentence(_PrenexSentence):
    """``exists outer. forall inner. matrix`` with quantifier-free matrix."""

    _shape, _kind = "sigma2", "an exists-forall"
    _quantifiers = (Exists, Forall)


class Pi2Sentence(_PrenexSentence):
    """``forall outer. exists inner. matrix`` with quantifier-free matrix."""

    _shape, _kind = "pi2", "a forall-exists"
    _quantifiers = (Forall, Exists)
