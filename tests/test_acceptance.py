"""Acceptance suite: one test per criterion, one printed pass/fail line each.

All checks are exact at desk scale (prefix lengths and search bounds stay
well under 200, each criterion well under a minute).
"""

import math
import random

from guessability.adversary import (
    BUDGET_EXHAUSTED,
    COMPLETED,
    cantor_adversary,
    diagonalize,
    infinitely_many_zeros_extenders,
    permutation_adversary,
)
from guessability.cli import trace_guesser
from guessability.lang import (
    FN_BUILTINS,
    Numeral,
    default_signature,
    load_signature,
    parse,
    print_formula,
    substitute,
)
from guessability.oracle import FinitePrefix, SequenceOracle, from_spec, prefix_of
from guessability.semantics import attempt, eval_qf
from guessability.synth import (
    Guesser,
    contains_zero_delta2,
    contains_zero_guesser,
    delta2_from_topology,
    guesser_from_delta2,
    guesser_sentence_texts,
    mu_from_sigma2,
    mu_prime_host,
    overguesser_from_sigma2,
    overguesser_sentence_text,
    sentences_from_guesser,
    sigma2_from_countable_family,
    sigma2_from_overguesser,
    TopologySpec,
)

import formula_gen


def report(number: int, name: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict}")
    assert not failures, f"criterion {number}: {failures[:5]} ({len(failures)} failures)"


# ---------------------------------------------------------------------------


def test_criterion_1_locality():
    rnd = random.Random(10_001)
    sig = formula_gen.generator_signature()
    failures = []
    for case in range(500):
        sentence = formula_gen.gen_closed_qf(rnd, depth=3)
        base = formula_gen.random_oracle(rnd)
        result = eval_qf(sentence, base, None, sig)
        k = result.max_queried
        for _ in range(3):
            if k is None:
                other = formula_gen.random_oracle(rnd)
                again = eval_qf(sentence, other, None, sig)
                if again.value != result.value or again.queried:
                    failures.append((case, "query-free sentence changed value"))
            else:
                extension = formula_gen.extension_of(base, k, rnd)
                again = eval_qf(sentence, extension, None, sig)
                if again.value != result.value:
                    failures.append((case, "value changed under an agreeing extension"))
                elif again.max_queried is not None and again.max_queried > k:
                    failures.append((case, f"queried {again.max_queried} beyond {k}"))
    report(1, "locality under agreeing extensions", failures)


def test_criterion_2_weak_substitution():
    rnd = random.Random(20_002)
    sig = formula_gen.generator_signature()
    failures = []
    for case in range(500):
        # half the cases force an ellipsis term; a quarter make the
        # substituted variable the ellipsis binder itself
        formula = formula_gen.gen_qf(
            rnd, depth=3, vars=("x", "y"),
            force_ellipsis=(case % 2 == 0),
            binder="x" if case % 4 == 0 else None)
        oracle = formula_gen.random_oracle(rnd)
        c = rnd.randrange(5)
        s = formula_gen_assignment(rnd)
        left = eval_qf(substitute(formula, "x", Numeral(c)), oracle, s, sig)
        right = eval_qf(formula, oracle, {**s, "x": c}, sig)
        if left.value != right.value:
            failures.append((case, print_formula(formula)))
    report(2, "weak substitution", failures)


def formula_gen_assignment(rnd):
    return {"x": rnd.randrange(5), "y": rnd.randrange(5)}


def test_criterion_3_end_to_end_guesser():
    guesser = guesser_from_delta2(contains_zero_delta2())
    failures = []
    positions = list(range(1, 11)) + [12, 15, 18, 22, 26, 30, 35, 40, 45, 50]
    assert len(positions) == 20
    for p in positions:
        trace = trace_guesser(guesser, from_spec(f"plantzero:{p}"), horizon=p + 4)
        if trace.final != 1 or trace.stable_from > p + 1:
            failures.append((f"plantzero:{p}", trace.stable_from, trace.final))
    zero_free = (
        [from_spec(f"const:{c}") for c in range(1, 9)]
        + [from_spec("cycle:[1,2]"), from_spec("cycle:[3,7,5]"),
           from_spec("cycle:[9,9,1]"), from_spec("cycle:[2,4,6,8]")]
        + [SequenceOracle(rule, describe=name) for name, rule in (
            ("succ", lambda i: i + 1), ("odd", lambda i: 2 * i + 1),
            ("plus2", lambda i: i + 2), ("sq1", lambda i: i * i + 1),
            ("mod3", lambda i: i % 3 + 1), ("alt", lambda i: 5 if i % 2 else 2),
            ("seven", lambda i: 7 + i % 2), ("big", lambda i: 100 + i))]
    )
    assert len(zero_free) == 20
    for source in zero_free:
        trace = trace_guesser(guesser, source, horizon=25)
        if trace.final != 0 or trace.stable_from != 1:
            failures.append((source.describe, trace.stable_from, trace.final))
    report(3, "contains-zero guesser stabilizes on the labeled corpus", failures)


def test_criterion_4_bounded_mu_contract():
    sig = load_signature("fn g 2 constfam\n")
    sentence = sigma2_from_countable_family("g", sig)
    failures = []
    h3 = from_spec("const:3")
    for k in range(3, 101):
        got = mu_from_sigma2(sentence, prefix_of(h3, k), sig)
        if got != 3:
            failures.append(("h3", k, got))
    ident = from_spec("id")
    for k in range(1, 101):
        got = mu_from_sigma2(sentence, prefix_of(ident, k), sig)
        if got != k + 1:
            failures.append(("identity", k, got))
    report(4, "bounded mu: constant on members, unbounded off them", failures)


def test_criterion_5_permanent_exclusion():
    rnd = random.Random(50_005)
    sig = formula_gen.generator_signature()
    failures = []
    for case in range(200):
        sentence = formula_gen.gen_sigma2(rnd)
        oracle = formula_gen.random_oracle(rnd)
        values = [oracle.query(i) for i in range(101)]
        k = rnd.randrange(2, 14)
        prefix = FinitePrefix(tuple(values[:k]))
        excluded = []
        for a in range(len(prefix) + 1):
            outer = substitute(sentence.matrix, sentence.outer, Numeral(a))
            for b in range(len(prefix) + 1):
                closed = substitute(outer, sentence.inner, Numeral(b))
                if attempt(closed, prefix, sig) == attempt_false():
                    excluded.append(closed)
                    break
        for closed in excluded:
            for longer in range(k, 101):
                again = attempt(closed, FinitePrefix(tuple(values[:longer])), sig)
                if again != attempt_false():
                    failures.append((case, longer, print_formula(closed)))
                    break
    report(5, "exclusions are permanent as the prefix grows", failures)


def attempt_false():
    from guessability.semantics import AttemptOutcome

    return AttemptOutcome(False)


def test_criterion_6_diagonalizer():
    failures = []
    parity = Guesser(evaluate=lambda p: 1 if len(p) % 2 == 0 else 0)
    prefix, trace = diagonalize(parity, infinitely_many_zeros_extenders(), 10, 10_000)
    if trace.status != COMPLETED or len(trace.flips) < 10:
        failures.append(("parity", trace.status, len(trace.flips)))
    if len(prefix) > 10_000:
        failures.append(("parity", "too many steps", len(prefix)))
    for i, (index, guess) in enumerate(zip(trace.flips, trace.guesses), start=1):
        if guess != i % 2:
            failures.append(("parity", "parity broken at flip", i))
    if list(trace.flips) != sorted(set(trace.flips)):
        failures.append(("parity", "flip indices not strictly increasing"))
    constant_one = Guesser(evaluate=lambda p: 1)
    _, trace = diagonalize(constant_one, infinitely_many_zeros_extenders(), 10, 10_000)
    if trace.status != BUDGET_EXHAUSTED or trace.phase != 2:
        failures.append(("constant-1", trace.status, trace.phase))
    report(6, "diagonalizer flips the parity guesser and reports constant-1", failures)


def test_criterion_7_named_adversaries():
    failures = []
    initial_segment = Guesser(
        evaluate=lambda p: 1 if sorted(p.entries) == list(range(len(p))) else 0)
    prefix, trace = permutation_adversary(initial_segment, 6, 10_000)
    if trace.status != COMPLETED or len(trace.flips) < 6:
        failures.append(("permutation", trace.status, len(trace.flips)))
    if len(set(prefix.entries)) != len(prefix.entries):
        failures.append(("permutation", "emitted a duplicate value"))
    last_is_five = Guesser(evaluate=lambda p: 1 if p.entries[-1] == 5 else 0)
    prefix, trace = cantor_adversary(last_is_five, 10, 10_000)
    if trace.status != COMPLETED or len(trace.flips) < 10:
        failures.append(("cantor", trace.status, len(trace.flips)))
    if not set(prefix.entries) <= {0, 5}:
        failures.append(("cantor", "value outside {0, 5}"))
    report(7, "permutation and cantor adversaries defeat their targets", failures)


# regression bound for the rebuilt overguesser on family members, frozen from
# a measured run; see test_criterion_8
MEMBER_BOUND = 15


def test_criterion_8_overguesser_round_trip():
    sig = load_signature("fn g 2 constfam\n")
    family_sentence = sigma2_from_countable_family("g", sig)
    over = overguesser_from_sigma2(family_sentence, sig)
    sig.register_seq_function("Mu", mu_prime_host(over))
    rebuilt_sentence = sigma2_from_overguesser("Mu", sig)
    grid = (10, 30, 60, 90, 120, 150)
    failures = []
    members = [("h3", from_spec("const:3")), ("h0", from_spec("const:0"))]
    for name, source in members:
        for m in grid:
            got = mu_from_sigma2(rebuilt_sentence, prefix_of(source, m - 1), sig)
            if got > MEMBER_BOUND:
                failures.append((name, m, got))
    nonmembers = [("identity", from_spec("id")), ("cycle01", from_spec("cycle:[0,1]"))]
    for name, source in nonmembers:
        values = [mu_from_sigma2(rebuilt_sentence, prefix_of(source, m - 1), sig)
                  for m in grid]
        finite = [v for v in values if v != math.inf]
        if len(finite) == len(values):
            if finite != sorted(finite):
                failures.append((name, "not monotone", finite))
            crossed = [v for v in finite if v > 20]
            if not crossed or finite[-1] <= 20:
                failures.append((name, "never exceeded 20", finite))
        # an infinite value exceeds every finite threshold already
    report(8, "overguesser round trip keeps members bounded, others unbounded", failures)


def test_criterion_9_topology_construction():
    sig = default_signature()
    for_set = TopologySpec(table={(0, 0): FinitePrefix((7,))})
    for_complement = TopologySpec(
        table={(0, m): FinitePrefix((m,)) for m in range(220) if m != 7})
    spec = delta2_from_topology(for_set, for_complement, sig)
    guesser = guesser_from_delta2(spec, sig)
    failures = []
    members = (
        [from_spec("const:7"), from_spec("prefix:[7]:pad0"), from_spec("prefix:[7,1,2]:pad0"),
         from_spec("cycle:[7,3]"), from_spec("prefix:[7,0,0]:pad0"), from_spec("prefix:[7,9]:pad0")]
        + [SequenceOracle(rule, describe=name) for name, rule in (
            ("seven-id", lambda i: 7 if i == 0 else i),
            ("seven-succ", lambda i: 7 if i == 0 else i + 1),
            ("seven-five", lambda i: 7 if i == 0 else 5),
            ("seven-even", lambda i: 7 if i == 0 else 2 * i))]
    )
    nonmembers = (
        [from_spec("plantzero:0"), from_spec("prefix:[0]:pad0"), from_spec("prefix:[1,7]:pad0"),
         from_spec("cycle:[1,2]"), from_spec("cycle:[0,7]"), from_spec("id"),
         from_spec("prefix:[1]:pad0"), from_spec("cycle:[1]"), from_spec("prefix:[0,7,7]:pad0")]
        + [SequenceOracle(lambda i: i + 1, describe="succ")]
    )
    assert len(members) + len(nonmembers) == 20
    for label, group in ((1, members), (0, nonmembers)):
        for source in group:
            trace = trace_guesser(guesser, source, horizon=8)
            if trace.final != label or trace.stable_from != 1:
                failures.append((source.describe, label, trace.guesses))
    report(9, "first-entry topology tables give an immediately stable guesser", failures)


def test_criterion_10_parser_round_trip():
    sig = default_signature()
    sig.register_seq_function("G", lambda t: sum(t))
    sig.register_seq_function("Gz", contains_zero_guesser())
    over = overguesser_from_sigma2(contains_zero_delta2().sigma2, sig)
    sig.register_seq_function("Mu", mu_prime_host(over))

    corpus = [
        "0 = 0",
        "f(1) = 0",
        "exists x. forall y. f(x) = 0",
        "forall x. exists y. f(y) = 0",
        "forall a. forall b. exists n. f(n) = b",
        "G[ f(z) : z .. y ] = 1",
        "G[ add(f(z), 1) : z .. f(3) ] < 12",
        "!(f(0) = 0) & f(1) = 1",
        "f(0) = 0 | f(1) = 1 -> f(2) = 2",
        "0 = 0 -> 1 = 1 -> 2 = 2",
        "exists x. (f(x) = 0 & (forall y. f(y) <= x))",
        "monus(5, add(1, 2)) = 2",
        "mul(d1(8), d2(8)) >= 0",
        "forall x. (exists y. f(y) = x) -> f(x) < 10",
        "!!(1 <= 2)",
        "exists q. forall r. (q > r | q = r | q < r)",
        "G[ G[ f(w) : w .. z ] : z .. 2 ] = 4",
        "f(f(f(0))) = 0",
        "forall x. f(x) = 0 -> 0 = 1",
        "(forall x. f(x) = 0) -> 0 = 1",
    ]
    cz = contains_zero_delta2()
    corpus += [cz.sigma2.text(), cz.pi2.text()]
    corpus += list(guesser_sentence_texts("Gz"))
    spec = sentences_from_guesser("Gz", sig)
    corpus += [spec.sigma2.text(), spec.pi2.text()]
    corpus.append(overguesser_sentence_text("Mu"))
    topo = delta2_from_topology(
        TopologySpec(table={(0, 0): FinitePrefix((7,))}),
        TopologySpec(table={(0, m): FinitePrefix((m,)) for m in range(30) if m != 7}),
        sig)
    corpus += [topo.pi2.text(), topo.sigma2.text()]
    sig.register_function("g", *FN_BUILTINS["constfam"])
    corpus += [sigma2_from_countable_family("g", sig).text()]

    failures = []
    for text in corpus:
        ast = parse(text, sig)
        if parse(print_formula(ast), sig) != ast:
            failures.append(text)
    if len(corpus) < 30:
        failures.append(f"corpus too small: {len(corpus)}")
    report(10, f"parser round trip on {len(corpus)} sentences", failures)
