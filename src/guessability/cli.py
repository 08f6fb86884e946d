"""Command-line front end.

Subcommands: ``eval`` (run a sentence against a sequence), ``guess`` (trace a
guesser over growing prefixes), ``mu`` (trace an overguesser), ``adversary``
(run a diagonalizing adversary against a candidate guesser), ``synth``
(generate defining sentences), and ``play`` (interactive game: you feed the
sequence, the guessers guess). ``build_parser`` makes the one argparse parser
of the command line from one table, ``COMMANDS``, which also renders ``--help``.

Exit codes: 0 ok, 2 parse or signature error, 3 adversary or evaluation budget exhausted, 4
density violation (no suitable extension at some prefix), 5 a host or guesser raised, not
``ValueError`` (``error:`` names it), 74 standard output not writable (as on a full disk), 130
interrupted (as by Ctrl-C), 141 standard output closed early (as by ``| head``).  A standard
error that cannot be written loses its lines but changes no exit code.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from collections.abc import Callable
from pathlib import Path

from . import adversary as adv
from . import lang, oracle, semantics, synth

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_DENSITY = 4
EXIT_HOST = 5
EXIT_OUTPUT = 74  # EX_IOERR of sysexits.h
EXIT_INTERRUPT = 130  # what a shell reports for a process killed by SIGINT
EXIT_PIPE = 141  # what a shell reports for a process killed by SIGPIPE


class CliError(Exception):
    """A fault in what the command line asks for; ``main`` prints it and returns ``code``."""

    code = EXIT_USAGE


class GuessTrace(lang.Record):
    """The last guess of a trace, and the least length from which every guess equals it."""

    final: int
    stable_from: int

    @classmethod
    def of(cls, guesses) -> GuessTrace:
        """The trace of an iterable of the guesses at lengths 1, 2, ..., keeping none of them."""
        final = stable_from = None
        for length, guess in enumerate(guesses, start=1):
            if guess != final:
                final, stable_from = guess, length
        return cls(final, stable_from)


def trace_guesser(guesser: Callable[[oracle.FinitePrefix], int],
                  source: oracle.SequenceOracle, horizon: int) -> GuessTrace:
    if horizon < 1:
        raise CliError("horizon must be at least 1")
    prefix = oracle.FinitePrefix()
    return GuessTrace.of(guesser(prefix := prefix.extended(source.query(i))) for i in range(horizon))


# ---------------------------------------------------------------------------
# Shared argument helpers


def _read(path: str, what: str, read: Callable[[str], object]):
    """``read`` of the file's text; an error it finds in the text names the file."""
    try:
        return read(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read {what}: {exc}")
    except lang.LangError as exc:
        raise CliError(f"{path}: {exc}") from None


def _load_signature(path: str | None) -> lang.Signature:
    if path is None:
        return lang.default_signature()
    return _read(path, "signature file", lang.load_signature)


def _load_sentence(path: str, sig: lang.Signature, shape=lambda formula: formula):
    """The formula in the file, through ``shape`` such as ``Sigma2Sentence.from_formula``."""
    return _read(path, "sentence file", lambda text: shape(lang.parse(text, sig)))


def _load_delta2(sigma2_path: str, pi2_path: str, sig: lang.Signature) -> synth.Delta2Spec:
    return synth.Delta2Spec(
        sigma2=_load_sentence(sigma2_path, sig, lang.Sigma2Sentence.from_formula),
        pi2=_load_sentence(pi2_path, sig, lang.Pi2Sentence.from_formula))


def _parse_assignment(text: str | None, formula: lang.Formula) -> dict[str, int]:
    """``name=nat,...``: each name once, and each free in the formula."""
    if not text:
        return {}
    bindings, parts = {}, {}
    for part in text.split(","):
        name, eq, value = part.partition("=")
        name = name.strip()
        if not name or not eq:
            raise CliError(f"bad assignment entry {part!r}; use name=nat")
        if name in bindings:
            raise CliError(f"bad assignment entry {part!r}: {name} is already assigned")
        bindings[name] = lang.natural(value, f"bad assignment entry: {name}", CliError)
        parts[name] = part
    free = lang.free_vars(formula)
    for name, part in parts.items():
        if name not in free:
            raise CliError(f"bad assignment entry {part!r}: {name} is not free in the sentence")
    return bindings


def _json(obj) -> None:
    """Print ``obj`` as one line of JSON; only ``--json`` runs pay for importing ``json``."""
    import json
    print(json.dumps(obj))


BUILTIN_GUESSERS = {guesser.provenance: guesser for guesser in (
    synth.contains_zero_guesser(),
    synth.Guesser(lambda p: 1 if len(p) % 2 == 0 else 0, "parity-of-length"),
    synth.Guesser(lambda p: 0, "constant-0"),
    synth.Guesser(lambda p: 1, "constant-1"),
    synth.Guesser(lambda p: 1 if sorted(p.entries) == list(range(len(p))) else 0, "initial-segment"),
    synth.Guesser(lambda p: 1 if p[-1] == 5 else 0, "last-is-5"),
)}

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
    sig = _load_signature(args.sig)
    formula = _load_sentence(args.sentence, sig)
    source = oracle.from_spec(args.seq)
    assignment = _parse_assignment(args.assign, formula)
    if lang.is_quantifier_free(formula):
        if args.bound is not None:
            raise CliError("--bound is read only for a quantified sentence")
        result = semantics.eval_qf(formula, source, assignment, sig)
        shown = "true" if result.value else "false"
        max_q = "none" if result.max_queried is None else lang.decimal(result.max_queried, "read index")
        if args.json:
            _json({"value": bool(result.value), "max_queried": result.max_queried,
                   "queried": sorted(result.queried)})
        else:
            print(f"{shown} (max_queried={max_q})")
        return EXIT_OK
    if args.bound is None:
        raise CliError("quantified sentence: pass --bound B for a bounded evaluation")
    value = semantics.eval_bounded(formula, source, assignment, sig, args.bound)
    _complain(f"note: quantifiers evaluated over 0..{args.bound}; the result is an approximation")
    if args.json:
        _json({"value": value, "bounded": True, "bound": args.bound})
    else:
        print(f"{'true' if value else 'false'} (bounded)")
    return EXIT_OK


def _guess_spec_from_args(args, sig) -> synth.Delta2Spec:
    if args.spec is not None:
        if args.sigma2 is not None or args.pi2 is not None:
            raise CliError("--sigma2 and --pi2 are not read with --spec")
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
    guesses, opened = [], False  # only --json keeps the guesses; the text prints each on one line

    def shown(prefix: oracle.FinitePrefix) -> int:
        nonlocal opened
        guess = guesser(prefix)
        if args.json:
            guesses.append(guess)
        else:
            print(f" {guess}" if opened else f"trace: {guess}", end="")
            opened = True
        return guess

    try:
        trace = trace_guesser(shown, oracle.from_spec(args.seq), args.horizon)
    finally:
        if opened:  # also when a later guess raised, so the error comes after a whole line
            print()
    if args.json:
        _json({"trace": guesses, "stable_from": trace.stable_from, "final": trace.final})
    else:
        print(f"stable_from: {trace.stable_from}")
        print(f"final: {trace.final}")
    return EXIT_OK


def cmd_mu(args) -> int:
    if args.horizon < 1:
        raise CliError("horizon must be at least 1")
    sig = _load_signature(args.sig)
    sentence = _load_sentence(args.sentence, sig, lang.Sigma2Sentence.from_formula)
    source = oracle.from_spec(args.seq)
    stream = synth.MuStream(sentence, sig)
    if args.json:
        _json({"mu": [stream.push(source.query(i)) for i in range(args.horizon)]})
    else:
        out = sys.stdout  # None when started with standard output closed (>&-)
        for i in range(args.horizon):
            row = f"len={i + 1} mu={stream.push(source.query(i))}\n"
            if out is not None:
                out.write(row)  # row and newline in one write, so an interrupt never splits a row
    return EXIT_OK


def cmd_adversary(args) -> int:
    if args.kind != "diagonal" and args.set is not None:
        raise CliError("--set is read only by --kind diagonal")
    sig = _load_signature(args.sig)
    guesser = _resolve_guesser(args.guesser, sig)
    if args.kind == "diagonal":
        extenders = EXTENDER_SETS[args.set or "inf-zeros"]()
        prefix, trace = adv.diagonalize(guesser, extenders, args.flips, args.budget)
    elif args.kind == "permutation":
        prefix, trace = adv.permutation_adversary(guesser, args.flips, args.budget)
    else:
        prefix, trace = adv.cantor_adversary(guesser, args.flips, args.budget)
    if args.json:
        _json({"flips": list(trace.flips), "guesses": list(trace.guesses),
               "status": trace.status, "phase": trace.phase,
               "steps": trace.steps, "prefix": oracle.prefix_spec(prefix)})
    else:
        print(adv.format_trace(trace))
        print(f"prefix: {oracle.prefix_spec(prefix)}")
    return EXIT_OK if trace.completed else EXIT_BUDGET


def _check_round_trip(path: Path, text: str, sig: lang.Signature) -> None:
    reparsed = lang.parse(text, sig)
    if lang.parse(lang.print_formula(reparsed), sig) != reparsed:
        raise CliError(f"{path}: sentence does not survive a print/parse round trip")


def cmd_synth(args) -> int:
    """Build every sentence text first, so a failure leaves no directory or file behind."""
    sig = _load_signature(args.sig)
    if args.source != "topology":
        if len(args.inputs) != 1:
            raise CliError(f"synth {args.source} needs one symbol name")
        if args.prefix:
            raise CliError("--prefix is read only by synth topology")
        name = args.inputs[0]
    if args.source == "guesser":
        synth.sentences_from_guesser(name, sig)
        sigma2_text, pi2_text = synth.guesser_sentence_texts(name)
        texts = {f"{name}.sigma2.lg": sigma2_text, f"{name}.pi2.lg": pi2_text}
    elif args.source == "overguesser":
        synth.sigma2_from_overguesser(name, sig)
        texts = {f"{name}.sigma2.lg": synth.overguesser_sentence_text(name)}
    elif args.source == "family":
        texts = {f"{name}.sigma2.lg": synth.sigma2_from_countable_family(name, sig).text()}
    else:  # topology
        if len(args.inputs) != 2:
            raise CliError("synth topology needs two table files: <set> <complement>")
        for_set = _load_topology(args.inputs[0])
        for_complement = _load_topology(args.inputs[1])
        spec = synth.delta2_from_topology(for_set, for_complement, sig,
                                          name_prefix=args.prefix)
        texts = {"topology.pi2.lg": spec.pi2.text(), "topology.sigma2.lg": spec.sigma2.text()}
    out_dir = Path(args.out_dir)
    files = [(out_dir / file_name, text) for file_name, text in texts.items()]
    for path, text in files:
        _check_round_trip(path, text, sig)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for path, text in files:
            path.write_text(text + "\n")
    except OSError as exc:
        raise CliError(f"cannot write output directory: {exc}")
    for path, _ in files:
        print(path)
    return EXIT_OK


def _load_topology(path: str) -> synth.TopologySpec:
    """Table file: lines ``<i> <j> <a,b,c|->`` plus an optional ``default <entries|->``."""
    text = _read(path, "topology table", str)
    cells: dict[tuple[int, int] | str, oracle.FinitePrefix] = {}  # and "default" for the default
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "default" and len(parts) == 2:
                key = name = "default"
            elif len(parts) == 3:
                key = tuple(map(lang.natural, parts[:2], ("row", "column")))
                name = f"cell {key[0]} {key[1]}"
            else:
                raise ValueError("expected '<i> <j> <entries>' or 'default <entries>'")
            if key in cells:
                raise ValueError(f"{name} is already given")
            cells[key] = _parse_entries(parts[-1])
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}")
    default = cells.pop("default", oracle.FinitePrefix(()))
    if not cells:
        raise CliError(f"{path}: a topology table needs at least one cell line")
    return synth.TopologySpec(table=cells, default=default)


def _parse_entries(text: str) -> oracle.FinitePrefix:
    if text == "-":
        return oracle.FinitePrefix(())
    return oracle.FinitePrefix(tuple(lang.natural(v, "entry") for v in text.split(",")))


def cmd_play(args) -> int:
    sig = _load_signature(args.sig)
    rows = [(name, _resolve_guesser(name, sig), []) for name in args.guesser or ["contains-zero"]]
    prefix = oracle.FinitePrefix()
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
                for name, _, trace in rows:
                    if trace:
                        gt = GuessTrace.of(trace)
                        print(f"{name}: trace={' '.join(map(str, trace))} "
                              f"stable_from={gt.stable_from} final={gt.final}")
                    else:
                        print(f"{name}: no entries yet")
                continue
            try:
                value = lang.natural(line, "entry")
            except lang.LangError as exc:
                print(f"{exc}; enter a natural number, :trace, or :quit")
                continue
            prefix = prefix.extended(value)
            for name, guesser, trace in rows:
                trace.append(guesser(prefix))
                print(f"{name}: {trace[-1]}")
    finally:
        print(f"sequence so far: {oracle.prefix_spec(prefix)}")
        for name, _, trace in rows:
            if trace:
                gt = GuessTrace.of(trace)
                print(f"{name}: final={gt.final} stable_from={gt.stable_from}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Command table and parser


def _numeral(text: str) -> int:
    """A decimal natural after an optional ``-``; each command checks its own range."""
    value = lang.natural(text.removeprefix("-"), "value", argparse.ArgumentTypeError)
    return -value if text.startswith("-") else value


_SIG = ("--sig", "signature file (fn/pred/seqfn lines)", {})
_JSON = ("--json", "structured output", {"action": "store_true"})

# command -> (handler, help, options). An option is (name, help, the keywords
# of its ``add_argument`` call); a name without ``--`` is a positional.
COMMANDS = {
    "eval": (cmd_eval, "evaluate a sentence file against a sequence", (
        ("sentence", "sentence file in the DSL", {}),
        ("--seq", "sequence spec, e.g. prefix:[3,0,2]:pad0", {"required": True}),
        ("--assign", "free-variable values, e.g. x=1,y=2", {}),
        ("--bound", "bound for quantifier approximation", {"type": _numeral}),
        _SIG, _JSON)),
    "guess": (cmd_guess, "trace a synthesized guesser over growing prefixes", (
        ("--spec", "builtin spec name, e.g. contains-zero", {}),
        ("--sigma2", "exists-forall sentence file", {}),
        ("--pi2", "forall-exists sentence file", {}),
        ("--seq", "sequence spec", {"required": True}),
        ("--horizon", "longest prefix to guess on", {"type": _numeral, "required": True}),
        _SIG, _JSON)),
    "mu": (cmd_mu, "trace the overguesser of an exists-forall sentence", (
        ("sentence", "exists-forall sentence file", {}),
        ("--seq", "sequence spec", {"required": True}),
        ("--horizon", "longest prefix to trace", {"type": _numeral, "required": True}),
        _SIG, _JSON)),
    "adversary": (cmd_adversary, "run an adversary against a candidate guesser", (
        ("--guesser", "builtin name or delta2:<sigma2-file>:<pi2-file>", {"required": True}),
        ("--kind", "adversary to run",
         {"choices": ("diagonal", "permutation", "cantor"), "required": True}),
        ("--set", "extension oracles for the diagonal adversary (default: inf-zeros)",
         {"choices": sorted(EXTENDER_SETS)}),
        ("--flips", "flips to force (default: %(default)s)", {"type": _numeral, "default": 10}),
        ("--budget", "per-phase step budget (default: %(default)s)",
         {"type": _numeral, "default": 10_000}),
        _SIG, _JSON)),
    "synth": (cmd_synth, "generate defining sentences", (
        ("source", "what the sentences define: %(choices)s", {
            "choices": ("guesser", "overguesser", "family", "topology"), "metavar": "source"}),
        ("inputs", "registered symbol name, or two topology table files", {"nargs": "+"}),
        ("--out-dir", "directory for the sentence files (default: %(default)s)", {"default": "."}),
        ("--prefix", "name prefix for topology symbols", {"default": ""}),
        _SIG)),
    "play": (cmd_play, "interactive game: you are the sequence", (
        ("--guesser", "guesser to play against (repeatable); default contains-zero",
         {"action": "append"}),
        _SIG)),
}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ``CliError`` naming the command; prints help 80 columns wide."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=lambda prog: argparse.HelpFormatter(prog, width=80),
                         **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        for arg in args:  # argparse would store an empty list for ``--flag=--``
            if arg.startswith("--") and arg.partition("=")[2] == "--":
                self.error(f"{arg}: -- is not a value")
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        raise CliError(f"{self.prog.rpartition(' ')[2]}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """The one parser of the command line, built from ``COMMANDS``."""
    parser = _Parser(prog="guessability", description=(
        "evaluate ellipsis-logic sentences, trace guessers, and run adversaries"))
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (handler, about, options) in COMMANDS.items():
        sub = commands.add_parser(command, help=about, description=about)
        sub.set_defaults(handler=handler)
        for name, text, keywords in options:
            sub.add_argument(name, help=text, **keywords)
    return parser


def _complain(line: str) -> None:
    """Print ``line`` on stderr, or drop it if stderr cannot take it."""
    try:
        print(line, file=sys.stderr)
    except OSError:  # as to a full disk: the exit code must still tell what happened
        pass


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place that turns an exception into an ``error:`` line and a code."""
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # argparse exits only after printing -h/--help; a fault raises CliError
            return EXIT_OK
        return args.handler(args)
    except CliError as exc:
        code, message = exc.code, str(exc)
    except KeyboardInterrupt:  # what was printed stays
        code, message = EXIT_INTERRUPT, "interrupted"
    except semantics.EvaluationBudgetExhausted as exc:
        code, message = EXIT_BUDGET, f"budget exhausted: {exc}"
    except adv.ExtensionUnavailable as exc:
        code, message = EXIT_DENSITY, str(exc)
    except ValueError as exc:
        code, message = EXIT_USAGE, str(exc)
    except Exception as exc:  # a package fault has no raised_by, or None, and shows its traceback
        if getattr(exc, "raised_by", None) is None:
            raise
        code, message = EXIT_HOST, f"{type(exc).__name__} raised by {exc.raised_by}: {exc}"
    _complain(f"error: {message}")
    return code


def run() -> None:
    """Process entry of ``python -m guessability.cli`` and the console script.

    Ends the process with ``main``'s code, or with ``EXIT_PIPE`` and nothing
    on stderr when standard output is closed early, or with ``EXIT_OUTPUT``
    and one error line when another write to it fails; a failed write to
    stderr changes none of these.  Then it runs the exit hooks, flushes both
    streams and calls ``os._exit``, so the interpreter's teardown never runs.
    """
    try:
        code = main()
        if sys.stdout is not None:  # None when started with standard output closed (>&-)
            sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_PIPE
    except OSError as exc:  # any other failed write, as to a full disk
        _complain(f"error: cannot write the output: {exc}")
        code = EXIT_OUTPUT
    atexit._run_exitfuncs()
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None when started closed
        try:
            stream.flush()
        except OSError:  # the code is already decided
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
