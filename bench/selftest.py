"""Self-test of the benchmark at small sizes: ``python3 bench/selftest.py``.

Checks that the hand-derived answers match the CLI, that a deliberately wrong
expected answer fails both kinds of run, that the metrics printed are the ones
``BENCHMARK.json`` declares, with the same units, and that the committed
sentence pair for ``guess-ellipsis`` is what ``guessability synth guesser Gz``
writes.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run

SMALL = {"mu-nonmember": 12, "guess-ellipsis": 12, "adversary-budget": 200}


def small_workloads(wrong: str | None = None) -> dict[str, run.Workload]:
    """The workloads at small sizes; ``wrong`` names one whose expected output is corrupted."""
    out = {}
    for name, workload in run.WORKLOADS.items():
        workload = dataclasses.replace(workload, size=SMALL[name])
        if name == wrong:
            right = workload.expected
            workload = dataclasses.replace(
                workload, expected=lambda size, right=right: (right(size)[0], right(size)[1] + "x"))
        out[name] = workload
    return out


def run_main(workloads: dict[str, run.Workload], name: str, trace: int) -> tuple[int, dict]:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)], workloads)
    return code, json.loads(captured.getvalue().splitlines()[-1])


def main() -> int:
    failures = []

    def check(label: str, ok: bool) -> None:
        print(("PASS " if ok else "FAIL ") + label)
        if not ok:
            failures.append(label)

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in SMALL:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_main(small_workloads(), name, trace)
            check(f"{name} trace={trace}: known answer matches",
                  code == 0 and result["correct"] and result["failed"] == 0)
            check(f"{name} trace={trace}: metrics as declared in BENCHMARK.json",
                  {m: v["unit"] for m, v in result["metrics"].items()}
                  == {m["name"]: m["unit"] for m in declared[section]})
            code, result = run_main(small_workloads(wrong=name), name, trace)
            check(f"{name} trace={trace}: wrong expected answer fails the run",
                  code != 0 and not result["correct"] and result["failed"] > 0)

    sys.path.insert(0, str(run.SRC))
    from guessability import synth

    sigma2, pi2 = synth.guesser_sentence_texts("Gz")
    check("committed Gz sentence pair matches synth",
          (run.INPUTS / "Gz.sigma2.lg").read_text() == sigma2 + "\n"
          and (run.INPUTS / "Gz.pi2.lg").read_text() == pi2 + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
