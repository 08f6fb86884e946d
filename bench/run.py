"""Benchmark of the guessability CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the package is imported from ``src/`` next to this
directory, and nothing needs installing.

``--trace 0`` times the real CLI (``python -m guessability.cli``) in a fresh
child process per run.  Load comes from this one process with one child at a
time: a closed loop with a single client and no threads.  Each round runs the
command at size 1 (``setup_s``: interpreter start, imports, signature and
sentence parsing, one step) and at full size (``run_s``, and the child's own
peak RSS from ``os.wait4``), for ``--seconds`` seconds; medians are reported.

``--trace 1`` gives the per-layer numbers instead (see ``tracing.py``): three
traced in-process passes at full size (two with the seed, one with the next
seed), whose counts must agree exactly, one at half size for the growth
probe, and untraced child runs for the trace overhead.

Every output is checked against an answer derived by hand from the
construction, not recorded from a run.  A wrong output or exit code, or a
crash, fails the run.  The last line of standard output is the result object;
the line before it is a report with the samples, the Python version and the
commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
INPUTS = Path(__file__).resolve().parent / "inputs"

MIN_ROUNDS = 3
# Every run must end well inside 180 s, including one stuck child.
RUN_DEADLINE_S = 170.0

# Index of the single 0 in the guess-ellipsis sequence; at least 2, below half size.
GUESS_ZERO_AT = 10


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # horizon or budget at full size; the set-up probe uses 1
    argv: Callable[[int, int], list[str]]  # (seed, size) -> CLI arguments
    expected: Callable[[int], tuple[int, str]]  # size -> (exit code, stdout)


def _nonzero_values(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randint(1, 9) for _ in range(count)]


def _mu_argv(seed: int, size: int) -> list[str]:
    cycle = _nonzero_values(seed, random.Random(seed).randint(3, 8))
    return ["mu", str(INPUTS / "mu.sigma2.lg"),
            "--seq", "cycle:[" + ",".join(map(str, cycle)) + "]", "--horizon", str(size)]


def _mu_expected(size: int) -> tuple[int, str]:
    # No entry is 0, so every witness a < n-1 is refuted by b = a+1, and a = n-1
    # survives because b = n reads past the prefix: mu = n-1 at length n.
    return 0, "".join(f"len={n} mu={n - 1}\n" for n in range(1, size + 1))


def _guess_argv(seed: int, size: int) -> list[str]:
    # The sequence always has the full-size length, so size only sets the horizon.
    values = _nonzero_values(seed, GUESS.size)
    values[GUESS_ZERO_AT] = 0
    return ["guess", "--sig", str(INPUTS / "gz.sig"),
            "--sigma2", str(INPUTS / "Gz.sigma2.lg"), "--pi2", str(INPUTS / "Gz.pi2.lg"),
            "--seq", "prefix:[" + ",".join(map(str, values)) + "]:pad0",
            "--horizon", str(size)]


def _guess_expected(size: int) -> tuple[int, str]:
    # Before the 0 at p is seen (length n <= p): mu = n-1 (as for mu-nonmember)
    # and nu = 0, so the guess is 1 only at n = 1.  From n = p+1 on: mu = p-1
    # (b > p-1 sees the 0) and nu = n-1, so the guess is 1.
    p = GUESS_ZERO_AT
    guesses = [1 if n == 1 or n > p else 0 for n in range(1, size + 1)]
    stable_from = 1 if size == 1 else (p + 1 if size > p else 2)
    final = 1 if size == 1 or size > p else 0
    return 0, ("trace: " + " ".join(map(str, guesses)) + "\n"
               f"stable_from: {stable_from}\nfinal: {final}\n")


def _adversary_argv(seed: int, size: int) -> list[str]:
    # The inputs are fixed, so the seed does not apply.
    return ["adversary", "--guesser", "constant-1", "--kind", "diagonal", "--set", "inf-zeros",
            "--flips", "10", "--budget", str(size)]


def _adversary_expected(size: int) -> tuple[int, str]:
    # Phase 1 steers along zeros and constant-1 flips at once; phase 2 steers
    # along ones, constant-1 never says 0, and the budget runs out.
    entries = ",".join(["0"] + ["1"] * size)
    return 3, (f"flips=[0] guesses=[1] status=budget-exhausted phase=2 steps={size}\n"
               f"prefix: prefix:[{entries}]:pad0\n")


MU = Workload("mu-nonmember", 70, _mu_argv, _mu_expected)
GUESS = Workload("guess-ellipsis", 50, _guess_argv, _guess_expected)
ADVERSARY = Workload("adversary-budget", 5000, _adversary_argv, _adversary_expected)
WORKLOADS = {w.name: w for w in (MU, GUESS, ADVERSARY)}

# Which end-to-end metric each per-layer metric should move, and on which workloads.
LAYER_MAP = {
    "cli.main_s": ("run_s", "all"), "cli.self_s": ("run_s", "all"),
    "oracle.prefix_builds": ("run_s", "adversary-budget"),
    "oracle.prefix_entries_validated": ("run_s", "adversary-budget"),
    "oracle.prefix_s": ("run_s", "adversary-budget"),
    "oracle.prefix_entries_growth": ("run_s", "adversary-budget"),
    "oracle.zero_pad_calls": ("run_s", "mu-nonmember"),
    "oracle.zero_pad_s": ("run_s", "mu-nonmember"),
    "oracle.queries": ("run_s", "mu-nonmember"),
    "lang.parse_calls": ("setup_s", "all"), "lang.parse_s": ("setup_s", "all"),
    "lang.substitute_calls": ("run_s", "mu-nonmember, less on guess-ellipsis"),
    "lang.substitute_s": ("run_s", "mu-nonmember, less on guess-ellipsis"),
    **{f"semantics.{m}": ("run_s", "mu-nonmember, guess-ellipsis") for m in (
        "attempts", "attempts_failed", "attempt_s", "attempt_us_p50", "seq_host_calls",
        "seq_host_entries", "repeat_attempt_ratio", "attempts_growth")},
    **{f"synth.{m}": ("run_s", "mu-nonmember, guess-ellipsis") for m in (
        "mu_calls", "mu_s", "mu_ms_p50", "attempts_per_mu", "guesser_calls", "guesser_s")},
    **{f"adversary.{m}": ("run_s", "adversary-budget") for m in (
        "steps", "phases", "self_s", "step_us_p50")},
}


# ---------------------------------------------------------------------------
# Child processes


def _child_env() -> dict[str, str]:
    """The caller's environment, with the sources on the path and bytecode cached.

    Children cache bytecode next to the sources, as an installed package
    would, so every timed run starts the same way; the untimed warm-up writes
    the cache.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def run_child(cli_args: list[str], timeout: float) -> dict:
    """Run the CLI once in a fresh process; wall time, exit code, output, own peak RSS.

    Standard error is merged into the output, so a traceback never matches an
    expected answer.  A child still running after ``timeout`` is killed.
    """
    argv = [sys.executable, "-m", "guessability.cli", *cli_args]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    chunks = []
    timed_out = False
    with proc.stdout, selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        deadline = start + timeout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not selector.select(remaining):
                proc.kill()
                timed_out = True
                break
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": None if timed_out else proc.returncode,
            "stdout": b"".join(chunks).decode(errors="replace"),
            "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024}


# ---------------------------------------------------------------------------
# Checks and summaries


class Tally:
    """Outputs checked against the known answer."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.wrong: list[dict] = []

    def check(self, label: str, size: int, code: int | None, stdout: str) -> bool:
        self.attempted += 1
        want_code, want_stdout = self.workload.expected(size)
        if code == want_code and stdout == want_stdout:
            return True
        self.wrong.append({"label": label, "size": size, "code": code, "want_code": want_code,
                           "stdout_head": stdout[:300], "want_head": want_stdout[:300]})
        return False


def summary(values: list[float]) -> dict:
    ordered = sorted(values)
    quartiles = statistics.quantiles(ordered, n=4)
    return {"n": len(ordered), "min": ordered[0], "q1": quartiles[0],
            "median": statistics.median(ordered), "q3": quartiles[2], "max": ordered[-1]}


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "guessability").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The two kinds of run


def timed_run(workload: Workload, seed: int, seconds: float, deadline: float, tally: Tally):
    full_argv = workload.argv(seed, workload.size)
    setup_argv = workload.argv(seed, 1)

    def child(label: str, argv: list[str], size: int) -> dict | None:
        result = run_child(argv, max(1.0, deadline - time.perf_counter()))
        return result if tally.check(label, size, result["code"], result["stdout"]) else None

    # Untimed warm-up: the first child after a checkout compiles the bytecode.
    child("warmup", setup_argv, 1)
    setup, run, rss = [], [], []
    start = time.perf_counter()
    while len(run) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if tally.wrong or time.perf_counter() > deadline:
            break
        probe = child("setup", setup_argv, 1)
        full = child("full", full_argv, workload.size)
        if probe is None or full is None:
            break
        setup.append(probe["wall_s"])
        run.append(full["wall_s"])
        rss.append(full["rss_mb"])
    if tally.wrong:
        return {}, {}
    metrics = {"run_s": (statistics.median(run), "s"),
               "setup_s": (statistics.median(setup), "s"),
               "peak_rss_mb": (statistics.median(rss), "MB")}
    samples = {"run_s": summary(run), "setup_s": summary(setup), "peak_rss_mb": summary(rss)}
    return metrics, samples


PER_LAYER_UNITS = {"_s": "s", "_us_p50": "us", "_ms_p50": "ms", "_ratio": "ratio",
                   "_growth": "log2", "_per_mu": "ratio"}


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def traced_run(workload: Workload, seed: int, seconds: float, deadline: float, tally: Tally):
    sys.path.insert(0, str(SRC))
    import tracing

    start = time.perf_counter()
    passes = []
    for label, pass_seed, size in (("traced", seed, workload.size),
                                   ("traced-repeat", seed, workload.size),
                                   ("traced-seed2", seed + 1, workload.size),
                                   ("traced-half", seed, workload.size // 2)):
        result = tracing.traced_pass(workload.argv(pass_seed, size))
        passes.append(result)
        if not tally.check(label, size, result["code"], result["stdout"]):
            return {}, {}
    full, half = passes[:3], passes[3]

    problems = []
    counts = [{m: p["metrics"][m] for m in tracing.COUNT_METRICS} for p in full]
    if counts[1] != counts[0] or counts[2] != counts[0]:
        problems.append({"determinism": counts})
    gaps = [abs(p["accounting_gap_s"]) / p["wall_s"] for p in passes]
    if max(gaps) > 0.01:
        problems.append({"span_accounting_gap_ratio": gaps})

    run = []
    full_argv = workload.argv(seed, workload.size)
    while len(run) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if time.perf_counter() > deadline:
            break
        result = run_child(full_argv, max(1.0, deadline - time.perf_counter()))
        if not tally.check("untraced", workload.size, result["code"], result["stdout"]):
            return {}, {}
        run.append(result["wall_s"])

    values = {name: statistics.median(p["metrics"][name] for p in full)
              for name in full[0]["metrics"]}
    values["semantics.attempts_growth"] = tracing.growth(
        values["semantics.attempts"], half["metrics"]["semantics.attempts"])
    values["oracle.prefix_entries_growth"] = tracing.growth(
        values["oracle.prefix_entries_validated"],
        half["metrics"]["oracle.prefix_entries_validated"])
    traced_wall = statistics.median(p["wall_s"] for p in full)
    values["trace_overhead_ratio"] = traced_wall / statistics.median(run)
    metrics = {name: (value, _unit(name)) for name, value in sorted(values.items())}
    samples = {"traced_wall_s": [p["wall_s"] for p in full], "run_s": summary(run),
               "half_size": workload.size // 2, "span_accounting_gap_ratio": max(gaps),
               "unbound": full[0]["unbound"],
               "problems": problems,
               "layer_map": {m: LAYER_MAP[m] for m in metrics if m in LAYER_MAP}}
    return metrics, samples


def main(argv: list[str] | None = None, workloads: dict[str, Workload] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "guessability" / "cli.py").is_file():
        print(f"error: no guessability sources under {SRC}", file=sys.stderr)
        return 2

    workload = workloads[args.workload]
    deadline = time.perf_counter() + RUN_DEADLINE_S
    tally = Tally(workload)
    measure = traced_run if args.trace else timed_run
    metrics, samples = measure(workload, args.seed, args.seconds, deadline, tally)
    problems = samples.get("problems", [])
    correct = bool(metrics) and not tally.wrong and not problems
    report = {
        "workload": workload.name, "seed": args.seed,
        "size": workload.size, "trace": args.trace, "python": platform.python_version(),
        "commit": _commit(), "source_sha256": _source_digest(),
        "wrong_ratio": len(tally.wrong) / max(tally.attempted, 1), "wrong": tally.wrong,
        "samples": samples,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": len(tally.wrong) + len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
