"""The connective levels of the parser and the printer, and the tokenizer, as hand-written code.

These are ``_Parser.parse_imp``, ``parse_disj`` and ``parse_conj``, and the
printer's ``_print_at`` with its level constants, as ``lang`` had them before
both read the connectives from ``lang.BINARY``, kept verbatim as the reference
the differential test in ``test_lang_reference.py`` checks ``lang.parse`` and
``lang.print_formula`` against.  ``tokenize`` is ``lang._tokenize`` as it was
before numerals and names were scanned by one loop, with its own loop for each.
"""

from __future__ import annotations

from guessability.lang import (
    MAX_NESTING,
    _REL_SYMBOLS,
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Pred,
    Signature,
    ParseError,
    _height,
    _OPERATORS,
    _Parser,
    _Token,
    _tokenize,
    default_signature,
    print_term,
)


class ReferenceParser(_Parser):
    """``lang``'s parser with one hand-written method per connective level."""

    def parse_binary(self, level: int = 0) -> Formula:
        """The level ``parse_formula`` descends to; here the loosest hand-written one."""
        return self.parse_imp()

    def parse_imp(self) -> Formula:
        left = self.parse_disj()
        if self.at_op("->"):
            self.advance()
            with self.nested():
                return Implies(left, self.parse_imp())
        return left

    def parse_disj(self) -> Formula:
        node = self.parse_conj()
        while self.at_op("|"):
            self.advance()
            node = Or(node, self.parse_conj())
        return node

    def parse_conj(self) -> Formula:
        node = self.parse_neg()
        while self.at_op("&"):
            self.advance()
            node = And(node, self.parse_neg())
        return node


def parse(text: str, sig: Signature | None = None) -> Formula:
    """Parse DSL text into a formula AST, resolving symbols against a signature."""
    sig = sig if sig is not None else default_signature()
    parser = ReferenceParser(_tokenize(text), sig)
    formula = parser.parse_formula()
    tok = parser.peek()
    if tok.kind != "eof":
        raise parser.fail(f"unexpected trailing input {tok.text!r}")
    # '&' and '|' chains are parsed in a loop but nest in the tree
    if _height(formula) > MAX_NESTING:
        raise parser.fail(f"nesting deeper than {MAX_NESTING} levels")
    return formula


_LEVEL_FORMULA = 0
_LEVEL_IMP = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_NEG = 4


def print_formula(formula: Formula) -> str:
    """Canonical text; reparsing yields a structurally equal AST."""
    return _print_at(formula, _LEVEL_FORMULA)


def _print_at(node: Formula, level: int) -> str:
    if isinstance(node, (Forall, Exists)):
        kw = "forall" if isinstance(node, Forall) else "exists"
        text = f"{kw} {node.var}. {_print_at(node.body, _LEVEL_FORMULA)}"
        return f"({text})" if level > _LEVEL_FORMULA else text
    if isinstance(node, Implies):
        text = f"{_print_at(node.left, _LEVEL_OR)} -> {_print_at(node.right, _LEVEL_IMP)}"
        return f"({text})" if level > _LEVEL_IMP else text
    if isinstance(node, Or):
        text = f"{_print_at(node.left, _LEVEL_OR)} | {_print_at(node.right, _LEVEL_AND)}"
        return f"({text})" if level > _LEVEL_OR else text
    if isinstance(node, And):
        text = f"{_print_at(node.left, _LEVEL_AND)} & {_print_at(node.right, _LEVEL_NEG)}"
        return f"({text})" if level > _LEVEL_AND else text
    if isinstance(node, Not):
        return f"!{_print_at(node.body, _LEVEL_NEG)}"
    if isinstance(node, Eq):
        return f"{print_term(node.left)} = {print_term(node.right)}"
    if isinstance(node, Pred):
        if node.symbol in _REL_SYMBOLS and len(node.args) == 2:
            return f"{print_term(node.args[0])} {node.symbol} {print_term(node.args[1])}"
        return f"{node.symbol}(" + ", ".join(print_term(a) for a in node.args) + ")"
    raise TypeError(f"not a formula: {node!r}")


def tokenize(text: str) -> list[_Token]:
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
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("nat", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
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
