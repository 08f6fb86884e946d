"""The argparse parser the CLI read its arguments with before ``cli.COMMANDS``.

``build_parser`` is kept verbatim as the reference the differential test in
``test_cli_reader.py`` checks ``cli.parse_args`` against: on every command
line it accepts, both readers must give the same attributes.
"""

from __future__ import annotations

import argparse

from guessability.cli import (
    EXTENDER_SETS, cmd_adversary, cmd_eval, cmd_guess, cmd_mu, cmd_play, cmd_synth,
)


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
