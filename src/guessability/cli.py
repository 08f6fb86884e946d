"""Command-line front end.

Subcommands: ``eval`` (run a sentence against a sequence), ``guess`` (trace a
guesser over growing prefixes), ``mu`` (trace an overguesser), ``adversary``
(run a diagonalizing adversary against a candidate guesser), ``synth``
(generate defining sentences), and ``play`` (interactive game: you feed the
sequence, the guessers guess). ``parse_args`` reads the command line against
one table, ``COMMANDS``, which also renders ``--help``.

Exit codes: 0 ok, 2 parse or signature error, 3 adversary or evaluation
budget exhausted, 4 density violation (no suitable extension at some prefix),
74 standard output not writable (as on a full disk), 141 standard output
closed early (as by ``| head``).  A standard error that cannot be written
loses its lines but changes no exit code.
"""

from __future__ import annotations

import atexit
import os
import re
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from types import SimpleNamespace

from . import adversary as adv
from . import lang, oracle, semantics, synth

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_DENSITY = 4
EXIT_OUTPUT = 74  # EX_IOERR of sysexits.h
EXIT_PIPE = 141  # what a shell reports for a process killed by SIGPIPE


class CliError(Exception):
    """A fault in what the command line asks for; ``main`` prints it and returns ``code``."""

    code = EXIT_USAGE


class GuessTrace(lang.Record):
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
    if args.bound is not None and args.bound < 0:
        raise CliError("bound must be at least 0")
    sig = _load_signature(args.sig)
    formula = _load_sentence(args.sentence, sig)
    source = oracle.from_spec(args.seq)
    assignment = _parse_assignment(args.assign, formula)
    if lang.is_quantifier_free(formula):
        if args.bound is not None:
            raise CliError("--bound is read only for a quantified sentence")
        result = semantics.eval_qf(formula, source, assignment, sig)
        shown = "true" if result.value else "false"
        max_q = "none" if result.max_queried is None else lang.decimal(
            result.max_queried, "read index", CliError)
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
    trace = trace_guesser(guesser, oracle.from_spec(args.seq), args.horizon)
    if args.json:
        _json({"trace": list(trace.guesses), "stable_from": trace.stable_from,
               "final": trace.final})
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
    rows = [stream.push(source.query(i)) for i in range(args.horizon)]
    if args.json:
        _json({"mu": rows})
    else:
        for length, value in enumerate(rows, start=1):
            print(f"len={length} mu={value}")
    return EXIT_OK


def cmd_adversary(args) -> int:
    if args.flips < 1:
        raise CliError("flips must be at least 1")
    if args.budget < 1:
        raise CliError("budget must be at least 1")
    if args.kind != "diagonal" and args.set != "inf-zeros":  # the default, so an explicit one passes
        raise CliError("--set is read only by --kind diagonal")
    sig = _load_signature(args.sig)
    guesser = _resolve_guesser(args.guesser, sig)
    if args.kind == "diagonal":
        extenders = EXTENDER_SETS[args.set]()
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
                table[tuple(map(lang.natural, parts[:2], ("row", "column")))] = _parse_entries(parts[2])
            else:
                raise ValueError("expected '<i> <j> <entries>' or 'default <entries>'")
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}")
    return synth.TopologySpec(table=table, default=default)


def _parse_entries(text: str) -> oracle.FinitePrefix:
    if text == "-":
        return oracle.FinitePrefix(())
    return oracle.FinitePrefix(tuple(lang.natural(v, "entry") for v in text.split(",")))


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
            try:
                value = lang.natural(line, "entry")
            except lang.LangError as exc:
                print(f"{exc}; enter a natural number, :trace, or :quit")
                continue
            prefix = prefix.extended(value)
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
# Command table and reader


def _numeral(text: str, flag: str, error: Callable[[str], Exception]) -> int:
    """A decimal natural after an optional ``-``; each command checks its own range."""
    value = lang.natural(text.removeprefix("-"), flag, error)
    return -value if text.startswith("-") else value


REQUIRED = object()

_COMMON = (
    ("--sig", str, None, "signature file (fn/pred/seqfn lines)"),
    ("--json", None, False, "structured output"),
)

# command -> (handler, help, options). An option is (name, reader, default or
# REQUIRED, help); a name without ``--`` is a positional, and a name ending in
# ``...`` collects each value it is given into a list. A reader is ``str``,
# ``_numeral``, a tuple of choices, or None for a flag.
COMMANDS = {
    "eval": (cmd_eval, "evaluate a sentence file against a sequence", (
        ("sentence", str, REQUIRED, "sentence file in the DSL"),
        ("--seq", str, REQUIRED, "sequence spec, e.g. prefix:[3,0,2]:pad0"),
        ("--assign", str, None, "free-variable values, e.g. x=1,y=2"),
        ("--bound", _numeral, None, "bound for quantifier approximation"),
        *_COMMON)),
    "guess": (cmd_guess, "trace a synthesized guesser over growing prefixes", (
        ("--spec", str, None, "builtin spec name, e.g. contains-zero"),
        ("--sigma2", str, None, "exists-forall sentence file"),
        ("--pi2", str, None, "forall-exists sentence file"),
        ("--seq", str, REQUIRED, "sequence spec"),
        ("--horizon", _numeral, REQUIRED, "longest prefix to guess on"),
        *_COMMON)),
    "mu": (cmd_mu, "trace the overguesser of an exists-forall sentence", (
        ("sentence", str, REQUIRED, "exists-forall sentence file"),
        ("--seq", str, REQUIRED, "sequence spec"),
        ("--horizon", _numeral, REQUIRED, "longest prefix to trace"),
        *_COMMON)),
    "adversary": (cmd_adversary, "run an adversary against a candidate guesser", (
        ("--guesser", str, REQUIRED, "builtin name or delta2:<sigma2-file>:<pi2-file>"),
        ("--kind", ("diagonal", "permutation", "cantor"), REQUIRED, "adversary to run"),
        ("--set", tuple(sorted(EXTENDER_SETS)), "inf-zeros",
         "extension oracles for the diagonal adversary"),
        ("--flips", _numeral, 10, "flips to force"),
        ("--budget", _numeral, 10_000, "per-phase step budget"),
        *_COMMON)),
    "synth": (cmd_synth, "generate defining sentences", (
        ("source", ("guesser", "overguesser", "family", "topology"), REQUIRED,
         "what the sentences define"),
        ("inputs...", str, REQUIRED, "registered symbol name, or two topology table files"),
        ("--out-dir", str, ".", "directory for the sentence files"),
        ("--prefix", str, "", "name prefix for topology symbols"),
        *_COMMON)),
    "play": (cmd_play, "interactive game: you are the sequence", (
        ("--guesser...", str, None,
         "guesser to play against (repeatable); default contains-zero"),
        *_COMMON)),
}

_HELP = ("-h", "--help")


def _failure(prog: str) -> Callable[[str], CliError]:
    return lambda message: CliError(f"{prog}: {message}")


def _spelled(arg: str, names: Sequence[str], fail) -> tuple[str, str | None] | None:
    """The option ``arg`` names and its ``=value``, or None when ``arg`` is a value.

    This is argparse's reading: a long option may be cut to a prefix that no
    other option shares, and ``-``, ``-5``, ``-.5`` and text with a space are
    values. ``--`` is the caller's to handle.
    """
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in names:
        return arg, None
    flag, eq, value = arg.partition("=")
    hits = [flag] if flag in names else [
        name for name in names if arg.startswith("--") and name.startswith(flag)]
    if len(hits) > 1:
        raise fail(f"ambiguous option {flag}: could be {', '.join(hits)}")
    if hits:
        return hits[0], value if eq else None
    # argparse's negative-number pattern, compiled on first use rather than at import
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None
    raise fail(f"unknown option {arg}")


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read ``argv`` against ``COMMANDS`` into the attributes of its command.

    Options and positionals come in any order, a repeated option keeps its
    last value, and ``--flag value``, ``--flag=value`` and a unique prefix of
    a long option all work. After ``--`` every argument is a positional, and
    a ``...`` positional takes one run of consecutive values. ``-h``/``--help``
    gives the ``cmd_help`` handler; every other fault raises ``CliError``.
    """
    args, fail = iter(argv), _failure("guessability")
    command = next(args, None)
    if command not in (None, "--") and _spelled(command, _HELP, fail):
        return SimpleNamespace(command=None, handler=cmd_help)
    if command not in COMMANDS:
        raise fail(f"choose a command from {', '.join(COMMANDS)}"
                   + (f", not {command!r}" if command else ""))
    handler, _, table = COMMANDS[command]
    fail = _failure(command)
    specs = {}  # name without "..." -> (attribute, reader, collects, required)
    values = {"command": command, "handler": handler}
    for name, reader, default, _ in table:
        key = name.removesuffix("...")
        specs[key] = (key.lstrip("-").replace("-", "_"), reader, key != name, default is REQUIRED)
        values[specs[key][0]] = None if default is REQUIRED else default
    flags = [*_HELP, *(key for key in specs if key.startswith("-"))]
    pending = [key for key in specs if key not in flags]

    def store(key: str, text: str) -> None:
        dest, reader, collects, _ = specs[key]
        if isinstance(reader, tuple) and text not in reader:
            raise fail(f"{key} {text!r} is not one of {', '.join(reader)}")
        value = _numeral(text, key, fail) if reader is _numeral else text
        values[dest] = [*(values[dest] or ()), value] if collects else value

    collecting, positionals_only = None, False
    for arg in args:
        if arg == "--" and not positionals_only:
            positionals_only = True
            continue
        option = None if positionals_only else _spelled(arg, flags, fail)
        if option is None:
            if collecting is None and not pending:
                raise fail(f"unexpected argument {arg!r}")
            key = collecting or pending.pop(0)
            collecting = key if specs[key][2] else None
            store(key, arg)
            continue
        collecting = None
        key, text = option
        if key in _HELP:
            return SimpleNamespace(command=command, handler=cmd_help)
        if specs[key][1] is None:
            if text is not None:
                raise fail(f"{key} takes no value")
            values[specs[key][0]] = True
            continue
        if text is None:
            text = next(args, "--")
            if text == "--" or _spelled(text, flags, fail):
                raise fail(f"{key} needs a value")
        store(key, text)
    missing = [key for key, (dest, *_, required) in specs.items()
               if required and values[dest] is None]
    if missing:
        raise fail(f"missing {', '.join(missing)}")
    return SimpleNamespace(**values)


def _usage(command: str | None) -> str:
    """Help rendered from ``COMMANDS``: the commands, or one command's options."""
    if command is None:
        head = ["usage: guessability <command> [options]", "",
                "evaluate ellipsis-logic sentences, trace guessers, and run adversaries", "",
                "commands (<command> --help lists its options):"]
        rows = [(name, about) for name, (_, about, _) in COMMANDS.items()]
    else:
        _, about, table = COMMANDS[command]
        head = [f"usage: guessability {command} [options]", "", about, ""]
        rows = [("-h, --help", "show this help")] + [
            (name, text + (f"; one of {', '.join(reader)}" if isinstance(reader, tuple) else "")
             + (" (required)" if default is REQUIRED else f" (default: {default})" if default
                else ""))
            for name, reader, default, text in table]
    width = max(len(name) for name, _ in rows)
    return "\n".join(head + [f"  {name:<{width}}  {text}" for name, text in rows])


def cmd_help(args) -> int:
    print(_usage(args.command))
    return EXIT_OK


def _complain(line: str) -> None:
    """Print ``line`` on stderr, or drop it if stderr cannot take it."""
    try:
        print(line, file=sys.stderr)
    except OSError:  # as to a full disk: the exit code must still tell what happened
        pass


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place that turns an exception into an ``error:`` line and a code."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.handler(args)
    except CliError as exc:
        code, message = exc.code, str(exc)
    except semantics.EvaluationBudgetExhausted as exc:
        code, message = EXIT_BUDGET, f"budget exhausted: {exc}"
    except adv.ExtensionUnavailable as exc:
        code, message = EXIT_DENSITY, str(exc)
    except ValueError as exc:
        code, message = EXIT_USAGE, str(exc)
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
