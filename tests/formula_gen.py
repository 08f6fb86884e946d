"""Seeded random generators for terms, sentences, and oracles used across suites,
and ``parse_term``, which reads DSL text as a bare term."""

from __future__ import annotations

import random

from guessability import lang
from guessability.lang import (
    And,
    EllipsisApp,
    Eq,
    FixedApp,
    Implies,
    Not,
    Numeral,
    Or,
    Pred,
    SeqApp,
    Signature,
    Sigma2Sentence,
    Variable,
    default_signature,
)
from guessability.oracle import SequenceOracle


def generator_signature() -> Signature:
    sig = default_signature()
    sig.register_seq_function("S", lambda t: sum(t))
    sig.register_seq_function("M", lambda t: max(t))
    return sig


def parse_term(text: str, sig: Signature | None = None):
    """The term the parser's term rule reads from all of ``text``, with ``lang.parse``'s checks."""
    return lang._parse_whole(text, sig, lang._Parser.parse_term)


def random_oracle(rnd: random.Random, span: int = 5) -> SequenceOracle:
    a, b, c = rnd.randrange(1, 17), rnd.randrange(17), rnd.randrange(3, 9)
    return SequenceOracle(lambda i: (i * a + b) % min(span, c + 2),
                          describe=f"pseudo({a},{b},{c})")


def extension_of(base: SequenceOracle, through: int, rnd: random.Random) -> SequenceOracle:
    """Oracle agreeing with base at indices <= through and pseudo-random beyond."""
    frozen = {i: base.query(i) for i in range(through + 1)}
    a, b = rnd.randrange(1, 13), rnd.randrange(13)

    def rule(i: int) -> int:
        return frozen[i] if i in frozen else (i * a + b) % 7

    return SequenceOracle(rule, describe=f"extends({base.describe},k={through})")


def gen_term(rnd: random.Random, depth: int, vars: tuple[str, ...]):
    choices = ["numeral", "seqapp", "fixedapp"]
    if vars:
        choices.append("var")
    if depth > 0:
        choices += ["fixedapp", "ellipsis"]
    kind = rnd.choice(choices)
    if kind == "numeral" or depth <= 0 and kind in ("fixedapp", "ellipsis"):
        return Numeral(rnd.randrange(5))
    if kind == "var":
        return Variable(rnd.choice(vars))
    if kind == "seqapp":
        return SeqApp(gen_term(rnd, depth - 1, vars))
    if kind == "fixedapp":
        symbol = rnd.choice(("add", "monus", "mul"))
        return FixedApp(symbol, (gen_term(rnd, depth - 1, vars),
                                 gen_term(rnd, depth - 1, vars)))
    return gen_ellipsis(rnd, depth, vars)


def gen_ellipsis(rnd: random.Random, depth: int, vars: tuple[str, ...],
                 binder: str | None = None):
    symbol = rnd.choice(("S", "M"))
    binder = binder or rnd.choice(("z", "w"))
    body = gen_term(rnd, max(depth - 1, 0), tuple(set(vars) | {binder}))
    # keep bounds small so tuple sizes stay at desk scale
    bound_kind = rnd.randrange(3)
    if bound_kind == 0:
        bound = Numeral(rnd.randrange(5))
    elif bound_kind == 1:
        bound = SeqApp(Numeral(rnd.randrange(5)))
    elif vars:
        bound = Variable(rnd.choice(vars))
    else:
        bound = Numeral(rnd.randrange(3))
    return EllipsisApp(symbol, body, binder, bound)


def gen_qf(rnd: random.Random, depth: int, vars: tuple[str, ...] = (),
           force_ellipsis: bool = False, binder: str | None = None):
    """Random quantifier-free formula over the generator signature."""
    if force_ellipsis:
        left = gen_ellipsis(rnd, depth, vars, binder=binder)
        right = gen_term(rnd, depth - 1, vars)
        atom = Eq(left, right) if rnd.random() < 0.5 else Pred("<", (left, right))
        rest = gen_qf(rnd, depth - 1, vars)
        return rnd.choice((And, Or, Implies))(atom, rest)
    if depth <= 0 or rnd.random() < 0.35:
        left = gen_term(rnd, depth, vars)
        right = gen_term(rnd, depth, vars)
        rel = rnd.choice(("=", "<", ">", "<=", ">="))
        return Eq(left, right) if rel == "=" else Pred(rel, (left, right))
    kind = rnd.randrange(4)
    if kind == 0:
        return Not(gen_qf(rnd, depth - 1, vars))
    op = (And, Or, Implies)[kind - 1]
    return op(gen_qf(rnd, depth - 1, vars), gen_qf(rnd, depth - 1, vars))


def gen_closed_qf(rnd: random.Random, depth: int = 3):
    return gen_qf(rnd, depth, vars=())


def gen_sigma2(rnd: random.Random, depth: int = 2) -> Sigma2Sentence:
    matrix = gen_qf(rnd, depth, vars=("x", "y"))
    return Sigma2Sentence("x", "y", matrix)
