"""Command-line front end.

Subcommands: ``eval`` (run a sentence against a sequence), ``guess`` (trace a
guesser over growing prefixes), ``mu`` (trace an overguesser), ``adversary``
(run a diagonalizing adversary against a candidate guesser), ``synth``
(generate defining sentences), and ``play`` (interactive game: you feed the
sequence, the guessers guess).

Exit codes: 0 ok, 2 parse or signature error, 3 adversary or evaluation
budget exhausted, 4 density violation (no suitable extension at some prefix).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import adversary as adv
from . import lang, oracle, semantics, synth

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_DENSITY = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class GuessTrace:
    """Guesses at prefix lengths 1..horizon with the observed settling point.

    stable_from is the least length from which the guesses stay constant
    through the horizon; it never claims anything beyond the horizon.
    """

    guesses: tuple[int, ...]

    @property
    def final(self) -> int:
        return self.guesses[-1]

    @property
    def stable_from(self) -> int:
        settle = len(self.guesses)
        while settle > 1 and self.guesses[settle - 2] == self.guesses[-1]:
            settle -= 1
        return settle


def trace_guesser(guesser: synth.Guesser, source: oracle.SequenceOracle,
                  horizon: int) -> GuessTrace:
    if horizon < 1:
        raise CliError("horizon must be at least 1")
    prefix = oracle.FinitePrefix()
    guesses = []
    for i in range(horizon):
        prefix = prefix.extended(source.query(i))
        guesses.append(guesser(prefix))
    return GuessTrace(tuple(guesses))


# ---------------------------------------------------------------------------
# Shared argument helpers


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {what}: {exc}")


def _load_signature(path: str | None) -> lang.Signature:
    if path is None:
        return lang.default_signature()
    return lang.load_signature(_read(path, "signature file"))


def _load_sentence(path: str, sig: lang.Signature) -> lang.Formula:
    return lang.parse(_read(path, "sentence file"), sig)


def _load_delta2(sigma2_path: str, pi2_path: str, sig: lang.Signature) -> synth.Delta2Spec:
    return synth.Delta2Spec(
        sigma2=lang.Sigma2Sentence.from_formula(_load_sentence(sigma2_path, sig)),
        pi2=lang.Pi2Sentence.from_formula(_load_sentence(pi2_path, sig)),
    )


def _parse_assignment(text: str | None) -> semantics.Assignment:
    if not text:
        return semantics.EMPTY_ASSIGNMENT
    bindings = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        if not name or not value.isdecimal():
            raise CliError(f"bad assignment entry {part!r}; use name=nat")
        bindings[name.strip()] = int(value)
    return semantics.Assignment(bindings)


BUILTIN_GUESSERS = {
    "contains-zero": synth.contains_zero_guesser(),
    "parity-of-length": synth.Guesser(
        evaluate=lambda p: 1 if len(p) % 2 == 0 else 0, provenance="parity-of-length"),
    "constant-0": synth.Guesser(evaluate=lambda p: 0, provenance="constant-0"),
    "constant-1": synth.Guesser(evaluate=lambda p: 1, provenance="constant-1"),
    "initial-segment": synth.Guesser(
        evaluate=lambda p: 1 if sorted(p.entries) == list(range(len(p))) else 0,
        provenance="initial-segment"),
    "last-is-5": synth.Guesser(
        evaluate=lambda p: 1 if p.entries[-1] == 5 else 0, provenance="last-is-5"),
}

BUILTIN_DELTA2 = {
    "contains-zero": synth.contains_zero_delta2,
}

EXTENDER_SETS = {
    "inf-zeros": adv.infinitely_many_zeros_extenders,
    "contains-zero": adv.contains_zero_extenders,
    "permutation": adv.permutation_extenders,
    "cantor": adv.cantor_extenders,
}


def _resolve_guesser(ref: str, sig: lang.Signature) -> synth.Guesser:
    """A builtin name, or delta2:<sigma2-file>:<pi2-file> for synthesized guessers."""
    if ref in BUILTIN_GUESSERS:
        return BUILTIN_GUESSERS[ref]
    if ref.startswith("delta2:"):
        parts = ref.split(":")
        if len(parts) != 3:
            raise CliError("delta2 guesser ref must be delta2:<sigma2-file>:<pi2-file>")
        return synth.guesser_from_delta2(_load_delta2(parts[1], parts[2], sig), sig)
    raise CliError(f"unknown guesser {ref!r}; builtins: {', '.join(sorted(BUILTIN_GUESSERS))}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_eval(args) -> int:
    if args.bound is not None and args.bound < 0:
        raise CliError("bound must be at least 0")
    sig = _load_signature(args.sig)
    formula = _load_sentence(args.sentence, sig)
    source = oracle.from_spec(args.seq)
    assignment = _parse_assignment(args.assign)
    if lang.is_quantifier_free(formula):
        result = semantics.eval_qf(formula, source, assignment, sig)
        shown = "true" if result.value else "false"
        max_q = result.max_queried if result.max_queried is not None else "none"
        if args.json:
            print(json.dumps({"value": bool(result.value),
                              "max_queried": result.max_queried,
                              "queried": sorted(result.queried)}))
        else:
            print(f"{shown} (max_queried={max_q})")
        return EXIT_OK
    if args.bound is None:
        raise CliError("quantified sentence: pass --bound B for a bounded evaluation")
    value = semantics.eval_bounded(formula, source, assignment, sig, args.bound)
    print(f"note: quantifiers evaluated over 0..{args.bound}; the result is an approximation",
          file=sys.stderr)
    if args.json:
        print(json.dumps({"value": value, "bounded": True, "bound": args.bound}))
    else:
        print(f"{'true' if value else 'false'} (bounded)")
    return EXIT_OK


def _guess_spec_from_args(args, sig) -> synth.Delta2Spec:
    if args.spec is not None:
        if args.spec not in BUILTIN_DELTA2:
            raise CliError(f"unknown builtin spec {args.spec!r}; builtins: "
                           + ", ".join(sorted(BUILTIN_DELTA2)))
        return BUILTIN_DELTA2[args.spec](sig)
    if args.sigma2 is None or args.pi2 is None:
        raise CliError("pass --spec <builtin> or both --sigma2 FILE and --pi2 FILE")
    return _load_delta2(args.sigma2, args.pi2, sig)


def cmd_guess(args) -> int:
    sig = _load_signature(args.sig)
    spec = _guess_spec_from_args(args, sig)
    guesser = synth.guesser_from_delta2(spec, sig)
    trace = trace_guesser(guesser, oracle.from_spec(args.seq), args.horizon)
    if args.json:
        print(json.dumps({"trace": list(trace.guesses),
                          "stable_from": trace.stable_from,
                          "final": trace.final}))
    else:
        print("trace: " + " ".join(str(g) for g in trace.guesses))
        print(f"stable_from: {trace.stable_from}")
        print(f"final: {trace.final}")
    return EXIT_OK


def cmd_mu(args) -> int:
    if args.horizon < 1:
        raise CliError("horizon must be at least 1")
    sig = _load_signature(args.sig)
    sentence = lang.Sigma2Sentence.from_formula(_load_sentence(args.sentence, sig))
    source = oracle.from_spec(args.seq)
    stream = synth.MuStream(sentence, sig)
    rows = [stream.push(source.query(i)).value for i in range(args.horizon)]
    if args.json:
        print(json.dumps({"mu": rows}))
    else:
        for length, value in enumerate(rows, start=1):
            print(f"len={length} mu={value}")
    return EXIT_OK


def cmd_adversary(args) -> int:
    sig = _load_signature(args.sig)
    guesser = _resolve_guesser(args.guesser, sig)
    try:
        if args.kind == "diagonal":
            extenders = EXTENDER_SETS[args.set]()
            prefix, trace = adv.diagonalize(guesser, extenders, args.flips, args.budget)
        elif args.kind == "permutation":
            prefix, trace = adv.permutation_adversary(guesser, args.flips, args.budget)
        else:
            prefix, trace = adv.cantor_adversary(guesser, args.flips, args.budget)
    except adv.ExtensionUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DENSITY
    if args.json:
        print(json.dumps({"flips": list(trace.flips), "guesses": list(trace.guesses),
                          "status": trace.status, "phase": trace.phase,
                          "steps": trace.steps, "prefix": oracle.prefix_spec(prefix)}))
    else:
        print(adv.format_trace(trace))
        print(f"prefix: {oracle.prefix_spec(prefix)}")
    return EXIT_OK if trace.completed else EXIT_BUDGET


def _write_sentence(path: Path, text: str, sig: lang.Signature) -> None:
    reparsed = lang.parse(text, sig)
    if lang.parse(lang.print_formula(reparsed), sig) != reparsed:
        raise CliError(f"{path}: sentence does not survive a print/parse round trip")
    path.write_text(text + "\n")


def cmd_synth(args) -> int:
    sig = _load_signature(args.sig)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if args.source == "guesser":
        name = args.inputs[0]
        synth.sentences_from_guesser(name, sig)
        sigma2_path = out_dir / f"{name}.sigma2.lg"
        pi2_path = out_dir / f"{name}.pi2.lg"
        sigma2_text, pi2_text = synth.guesser_sentence_texts(name)
        _write_sentence(sigma2_path, sigma2_text, sig)
        _write_sentence(pi2_path, pi2_text, sig)
        written = [sigma2_path, pi2_path]
    elif args.source == "overguesser":
        name = args.inputs[0]
        synth.sigma2_from_overguesser(name, sig)
        path = out_dir / f"{name}.sigma2.lg"
        _write_sentence(path, synth.overguesser_sentence_text(name), sig)
        written = [path]
    elif args.source == "family":
        name = args.inputs[0]
        path = out_dir / f"{name}.sigma2.lg"
        _write_sentence(path, synth.sigma2_from_countable_family(name, sig).text(), sig)
        written = [path]
    else:  # topology
        if len(args.inputs) != 2:
            raise CliError("synth topology needs two table files: <set> <complement>")
        for_set = _load_topology(args.inputs[0])
        for_complement = _load_topology(args.inputs[1])
        spec = synth.delta2_from_topology(for_set, for_complement, sig,
                                          name_prefix=args.prefix)
        pi2_path = out_dir / "topology.pi2.lg"
        sigma2_path = out_dir / "topology.sigma2.lg"
        _write_sentence(pi2_path, spec.pi2.text(), sig)
        _write_sentence(sigma2_path, spec.sigma2.text(), sig)
        written = [pi2_path, sigma2_path]
    for path in written:
        print(path)
    return EXIT_OK


def _load_topology(path: str) -> synth.TopologySpec:
    """Table file: lines ``<i> <j> <a,b,c|->`` plus an optional ``default <entries|->``."""
    text = _read(path, "topology table")
    table: dict[tuple[int, int], oracle.FinitePrefix] = {}
    default = oracle.FinitePrefix(())
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "default" and len(parts) == 2:
                default = _parse_entries(parts[1])
            elif len(parts) == 3:
                table[(int(parts[0]), int(parts[1]))] = _parse_entries(parts[2])
            else:
                raise ValueError("expected '<i> <j> <entries>' or 'default <entries>'")
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}")
    return synth.TopologySpec(table=table, default=default)


def _parse_entries(text: str) -> oracle.FinitePrefix:
    if text == "-":
        return oracle.FinitePrefix(())
    return oracle.FinitePrefix(tuple(int(v) for v in text.split(",")))


def cmd_play(args) -> int:
    sig = _load_signature(args.sig)
    names = args.guesser or ["contains-zero"]
    guessers = [(name, _resolve_guesser(name, sig)) for name in names]
    prefix = oracle.FinitePrefix()
    traces: dict[str, list[int]] = {name: [] for name, _ in guessers}
    print("feed the sequence one natural at a time; :trace shows guesses so far, :quit ends")
    try:
        while True:
            try:
                line = input("> ").strip()
            except EOFError:
                line = ":quit"
            if line == ":quit":
                break
            if line == ":trace":
                for name, _ in guessers:
                    trace = traces[name]
                    if trace:
                        gt = GuessTrace(tuple(trace))
                        print(f"{name}: trace={' '.join(map(str, trace))} "
                              f"stable_from={gt.stable_from} final={gt.final}")
                    else:
                        print(f"{name}: no entries yet")
                continue
            if not line.isdecimal():
                print("enter a natural number, :trace, or :quit")
                continue
            prefix = prefix.extended(int(line))
            for name, guesser in guessers:
                guess = guesser(prefix)
                traces[name].append(guess)
                print(f"{name}: {guess}")
    finally:
        print(f"sequence so far: {oracle.prefix_spec(prefix)}")
        for name, _ in guessers:
            trace = traces[name]
            if trace:
                gt = GuessTrace(tuple(trace))
                print(f"{name}: final={gt.final} stable_from={gt.stable_from}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guessability",
        description="evaluate ellipsis-logic sentences, trace guessers, and run adversaries")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--sig", help="signature file (fn/pred/seqfn lines)")
        p.add_argument("--json", action="store_true", help="structured output")

    p = sub.add_parser("eval", help="evaluate a sentence file against a sequence")
    p.add_argument("sentence", help="sentence file in the DSL")
    p.add_argument("--seq", required=True, help="sequence spec, e.g. prefix:[3,0,2]:pad0")
    p.add_argument("--assign", help="free-variable values, e.g. x=1,y=2")
    p.add_argument("--bound", type=int, help="bound for quantifier approximation")
    common(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("guess", help="trace a synthesized guesser over growing prefixes")
    p.add_argument("--spec", help="builtin spec name, e.g. contains-zero")
    p.add_argument("--sigma2", help="exists-forall sentence file")
    p.add_argument("--pi2", help="forall-exists sentence file")
    p.add_argument("--seq", required=True)
    p.add_argument("--horizon", type=int, required=True)
    common(p)
    p.set_defaults(handler=cmd_guess)

    p = sub.add_parser("mu", help="trace the overguesser of an exists-forall sentence")
    p.add_argument("sentence", help="exists-forall sentence file")
    p.add_argument("--seq", required=True)
    p.add_argument("--horizon", type=int, required=True)
    common(p)
    p.set_defaults(handler=cmd_mu)

    p = sub.add_parser("adversary", help="run an adversary against a candidate guesser")
    p.add_argument("--guesser", required=True,
                   help="builtin name or delta2:<sigma2-file>:<pi2-file>")
    p.add_argument("--kind", choices=("diagonal", "permutation", "cantor"), required=True)
    p.add_argument("--set", choices=sorted(EXTENDER_SETS), default="inf-zeros",
                   help="extension oracles for the diagonal adversary")
    p.add_argument("--flips", type=int, default=10)
    p.add_argument("--budget", type=int, default=10_000, help="per-phase step budget")
    common(p)
    p.set_defaults(handler=cmd_adversary)

    p = sub.add_parser("synth", help="generate defining sentences")
    p.add_argument("source", choices=("guesser", "overguesser", "family", "topology"))
    p.add_argument("inputs", nargs="+",
                   help="registered symbol name, or two topology table files")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--prefix", default="", help="name prefix for topology symbols")
    common(p)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("play", help="interactive game: you are the sequence")
    p.add_argument("--guesser", action="append",
                   help="guesser to play against (repeatable); default contains-zero")
    common(p)
    p.set_defaults(handler=cmd_play)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except semantics.EvaluationBudgetExhausted as exc:
        print(f"error: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (lang.LangError, oracle.SequenceSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
