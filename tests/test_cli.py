import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from guessability import cli, lang, oracle, semantics, synth
from guessability.lang import load_signature, parse
from guessability.cli import GuessTrace

import record_twins


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def qf_file(tmp_path):
    path = tmp_path / "qf.lg"
    path.write_text("f(1) = 0")
    return str(path)


@pytest.fixture
def s2_file(tmp_path):
    path = tmp_path / "s2.lg"
    path.write_text("exists x. forall y. f(x) = 0")
    return str(path)


@pytest.fixture
def pi2_file(tmp_path):
    path = tmp_path / "pi2.lg"
    path.write_text("forall x. exists y. f(y) = 0")
    return str(path)


@pytest.fixture
def gz_files(tmp_path):
    """(signature, sigma2, pi2) files for the pair synthesized from the Gz guesser."""
    sig = tmp_path / "gz.sig"
    sig.write_text("seqfn Gz contains0\n")
    sigma2, pi2 = tmp_path / "Gz.sigma2.lg", tmp_path / "Gz.pi2.lg"
    for path, text in zip((sigma2, pi2), synth.guesser_sentence_texts("Gz")):
        path.write_text(text)
    return str(sig), str(sigma2), str(pi2)


def count_tuple_entries(monkeypatch) -> list[int]:
    """Make every sequence-tuple host add its tuple's length to the returned counter."""
    entries = [0]
    original = lang.Signature.seq_function

    def seq_function(sig, name):
        host = original(sig, name)

        def counted(t):
            entries[0] += len(t)
            return host(t)

        return counted

    monkeypatch.setattr(lang.Signature, "seq_function", seq_function)
    return entries


# ---------------------------------------------------------------------------
# eval


def test_eval_quantifier_free(capsys, qf_file):
    code, out, _ = run(capsys, "eval", qf_file, "--seq", "prefix:[3,0,2]:pad0")
    assert code == 0
    assert out.strip() == "true (max_queried=1)"


def test_eval_bounded_quantified(capsys, s2_file):
    code, out, err = run(capsys, "eval", s2_file, "--seq", "id", "--bound", "10")
    assert code == 0
    assert out.strip() == "true (bounded)"
    assert "approximation" in err


def test_eval_bounded_misses_far_witness(capsys, tmp_path):
    path = tmp_path / "e.lg"
    path.write_text("exists x. f(x) = 0")
    code, out, _ = run(capsys, "eval", str(path), "--seq", "plantzero:5", "--bound", "3")
    assert code == 0
    assert out.strip() == "false (bounded)"


def test_eval_quantified_needs_bound(capsys, s2_file):
    code, _, err = run(capsys, "eval", s2_file, "--seq", "id")
    assert code == 2
    assert "--bound" in err


def test_eval_a_body_value_below_zero_is_a_usage_error(capsys, monkeypatch, tmp_path):
    # no builtin function goes below 0, so one that does is patched in
    monkeypatch.setitem(lang.FN_BUILTINS, "less", (1, lambda n: n - 1))
    sig, sentence = tmp_path / "s.sig", tmp_path / "s.lg"
    sig.write_text("fn less 1 less\nseqfn S sum\n")
    sentence.write_text("S[ less(f(z)) : z .. 1 ] = 1")
    code, out, err = run(capsys, "eval", str(sentence), "--sig", str(sig),
                         "--seq", "prefix:[2,0]:pad0")
    assert (code, out, err) == (2, "", "error: prefix entries must be naturals: (1, -1)\n")


def test_eval_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.lg"
    path.write_text("forall x. (")
    code, _, err = run(capsys, "eval", str(path), "--seq", "id")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("text", [
    "!" * 5000 + "f(0) = 0",
    "(" * 5000 + "f(0) = 0" + ")" * 5000,
    "f(" * 5000 + "0" + ")" * 5000 + " = 0",
    "forall x. " * 5000 + "f(0) = 0",
    " & ".join(["f(0) = 0"] * 5000),
    " -> ".join(["f(0) = 0"] * 5000),
], ids=["negations", "parentheses", "sequence-applications", "quantifiers",
        "conjunctions", "implications"])
def test_eval_deep_nesting_is_a_parse_error(capsys, tmp_path, text):
    path = tmp_path / "deep.lg"
    path.write_text(text)
    code, _, err = run(capsys, "eval", str(path), "--seq", "id", "--bound", "1")
    assert code == 2
    assert "nesting deeper than 100 levels (line 1, column" in err


def test_eval_rejects_negative_bound(capsys, tmp_path):
    path = tmp_path / "all7.lg"
    path.write_text("forall x. f(x) = 7")
    code, out, err = run(capsys, "eval", str(path), "--seq", "const:1", "--bound", "-1")
    assert code == 2
    assert out == ""
    assert "bound must be at least 0" in err


def test_eval_bounded_work_is_budgeted(capsys, tmp_path):
    # 2^97 quantifier instances at bound 1, inside the nesting limit
    path = tmp_path / "wide.lg"
    path.write_text("forall x. " * 97 + "0 = 0")
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", str(path), "--seq", "id", "--bound", "1")
    assert time.perf_counter() - start < 5
    assert code == 3
    assert out == ""
    assert "budget exhausted" in err


@pytest.fixture
def huge_sum_files(tmp_path):
    """(signature, sentence, sigma2) files whose ellipsis has 10^11 + 1 entries."""
    sig = tmp_path / "sum.sig"
    sig.write_text("seqfn sum sum\n")
    sentence, sigma2 = tmp_path / "sum.lg", tmp_path / "sum.sigma2.lg"
    sentence.write_text("sum[ x : x .. 100000000000 ] = 0")
    sigma2.write_text("exists a. forall b. sum[ x : x .. 100000000000 ] = a")
    return str(sig), str(sentence), str(sigma2)


@pytest.mark.parametrize("command", ["eval", "mu"])
def test_huge_ellipsis_bound_is_budgeted(capsys, huge_sum_files, command):
    sig, sentence, sigma2 = huge_sum_files
    argv = (["eval", sentence, "--seq", "id", "--sig", sig] if command == "eval"
            else ["mu", sigma2, "--seq", "id", "--horizon", "3", "--sig", sig])
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code == 3
    assert out == ""
    assert "budget exhausted" in err


def test_eval_assignment_takes_decimal_digits_only(capsys, tmp_path):
    path = tmp_path / "x.lg"
    path.write_text("f(x) = 0")
    code, out, err = run(capsys, "eval", str(path), "--seq", "id", "--assign", "x=\u00b2")
    assert code == 2
    assert out == ""
    assert "bad assignment entry" in err


NINES = "9" * 5000


@pytest.mark.parametrize("argv, message", [
    (["--seq", f"prefix:[{NINES}]:pad0"], "prefix entry of 5000 digits is too long"),
    (["--seq", f"const:{NINES}"], "const value of 5000 digits is too long"),
    (["--seq", f"plantzero:{NINES}"], "plantzero index of 5000 digits is too long"),
    (["--seq", f"cycle:[1,{NINES}]"], "cycle entry of 5000 digits is too long"),
    (["--seq", "id", "--assign", f"x={NINES}"],
     "bad assignment entry: x of 5000 digits is too long"),
])
def test_eval_names_a_natural_too_long_to_convert(capsys, qf_file, argv, message):
    code, out, err = run(capsys, "eval", qf_file, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# a sequence read whose index has 6,000 digits, more than the interpreter converts to text
FAR_READ = f"f(mul({'9' * 3000}, {'9' * 3000}))"


def test_mu_fails_every_attempt_that_reads_an_index_too_long_to_print(capsys, tmp_path):
    path = tmp_path / "far.lg"
    path.write_text(f"exists x. forall y. {FAR_READ} = y")
    code, out, err = run(capsys, "mu", str(path), "--seq", "id", "--horizon", "3")
    assert (code, out, err) == (0, "len=1 mu=0\nlen=2 mu=0\nlen=3 mu=0\n", "")


@pytest.mark.parametrize("form", [(), ("--json",)])
def test_eval_names_a_read_index_too_long_to_print(capsys, tmp_path, form):
    path = tmp_path / "far.lg"
    path.write_text(f"{FAR_READ} = 0")
    code, out, err = run(capsys, "eval", str(path), "--seq", "id", *form)
    assert (code, out, err) == (2, "", "error: read index of 6000 digits is too long\n")


# hostile spellings of a natural: empty, signed, underscored, with an inner space, with a
# superscript, or with more digits than the interpreter converts (a leading space would
# only separate fields in a signature file)
_HOSTILE_NATURALS = st.one_of(
    st.just(""),
    st.builds(str.__mul__, st.sampled_from("123456789"), st.integers(4301, 6000)),
    st.builds("{}{}{}".format, st.text("0123456789", max_size=4),
              st.sampled_from(["-", "+", "_", " ", "\u00b2", "\u00b3", "\u00b9"]),
              st.text("0123456789", min_size=1, max_size=4)).filter(lambda t: t[0] != " "),
)


@pytest.fixture(scope="module")
def sentence_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("hostile")
    (path / "qf.lg").write_text("f(1) = 0")
    return path


@pytest.mark.parametrize("form", [("--seq", "const:{}"), ("--seq", "plantzero:{}"),
                                  ("--seq", "prefix:[0,{}]:pad0"), ("--seq", "cycle:[{}]"),
                                  ("--seq", "id", "--assign", "x={}"),
                                  ("--seq", "id", "--sig", "{sig}")])
@settings(max_examples=40, deadline=None)
@given(text=_HOSTILE_NATURALS)
def test_eval_rejects_every_hostile_natural_by_name(sentence_dir, form, text):
    sig = sentence_dir / "hostile.sig"
    sig.write_text(f"fn g {text} +\n")
    argv = ["eval", str(sentence_dir / "qf.lg"), *(arg.format(text, sig=sig) for arg in form)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue()) == (2, "")
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "set_int_max_str_digits" not in lines[0]
    assert text in lines[0] or f"of {len(text)} digits is too long" in lines[0]


@given(st.text(st.characters(categories=("Nd",)), min_size=1, max_size=4300))
def test_natural_reads_every_decimal_as_int_does(text):
    assert lang.natural(text, "numeral") == int(text)


def test_eval_bad_sequence_spec(capsys, qf_file):
    code, _, _ = run(capsys, "eval", qf_file, "--seq", "nope:1")
    assert code == 2


def test_eval_json_output(capsys, qf_file):
    code, out, _ = run(capsys, "eval", qf_file, "--seq", "prefix:[3,0,2]:pad0", "--json")
    assert code == 0
    assert json.loads(out) == {"value": True, "max_queried": 1, "queried": [1]}


def test_eval_bounded_json_output(capsys, s2_file):
    code, out, err = run(capsys, "eval", s2_file, "--seq", "id", "--bound", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"value": True, "bounded": True, "bound": 3}
    assert "approximation" in err


@pytest.mark.parametrize("assign, message", [
    (" =1", "bad assignment entry ' =1'; use name=nat"),
    ("x=1,x=0", "bad assignment entry 'x=0': x is already assigned"),
    ("x=1,zz=1", "bad assignment entry 'zz=1': zz is not free in the sentence"),
])
def test_eval_rejects_an_assignment_that_binds_nothing_useful(capsys, tmp_path, assign, message):
    path = tmp_path / "open.lg"
    path.write_text("f(x) = 4")
    code, out, err = run(capsys, "eval", str(path), "--seq", "id", "--assign", assign)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_eval_with_assignment(capsys, tmp_path):
    path = tmp_path / "open.lg"
    path.write_text("f(x) = 4")
    code, out, _ = run(capsys, "eval", str(path), "--seq", "id",
                       "--assign", "x=4")
    assert code == 0
    assert out.startswith("true")


# ---------------------------------------------------------------------------
# guess


def test_guess_builtin_plantzero(capsys):
    code, out, _ = run(capsys, "guess", "--spec", "contains-zero",
                       "--seq", "plantzero:5", "--horizon", "40", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["final"] == 1
    assert data["stable_from"] == 6
    assert data["trace"][:6] == [0, 0, 0, 0, 0, 1]


def test_guess_builtin_no_zero(capsys):
    code, out, _ = run(capsys, "guess", "--spec", "contains-zero",
                       "--seq", "const:1", "--horizon", "40", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["final"] == 0
    assert data["stable_from"] == 1


def test_guess_builtin_padded_prefix(capsys):
    code, out, _ = run(capsys, "guess", "--spec", "contains-zero",
                       "--seq", "prefix:[3,0,2]:pad0", "--horizon", "10", "--json")
    assert json.loads(out)["final"] == 1


def test_guess_from_sentence_files(capsys, s2_file, pi2_file):
    code, out, _ = run(capsys, "guess", "--sigma2", s2_file, "--pi2", pi2_file,
                       "--seq", "plantzero:2", "--horizon", "12", "--json")
    assert code == 0
    assert json.loads(out)["final"] == 1


def test_guess_plain_output_matches_brute_force(capsys):
    code, out, _ = run(capsys, "guess", "--spec", "contains-zero",
                       "--seq", "plantzero:3", "--horizon", "9")
    assert code == 0
    lines = out.splitlines()
    guesses = [int(v) for v in lines[0].removeprefix("trace: ").split()]
    stable = int(lines[1].removeprefix("stable_from: "))
    final = int(lines[2].removeprefix("final: "))
    assert final == guesses[-1]
    brute = max((i + 2 for i in range(len(guesses) - 1) if guesses[i] != guesses[-1]),
                default=1)
    assert stable == brute


def test_guess_unknown_builtin(capsys):
    code, _, err = run(capsys, "guess", "--spec", "nope", "--seq", "id", "--horizon", "3")
    assert code == 2
    assert "unknown builtin" in err


def test_guess_trace_stable_from():
    assert GuessTrace((0, 0, 1, 1)).stable_from == 3
    assert GuessTrace((1, 1)).stable_from == 1
    assert GuessTrace((0, 1, 0)).stable_from == 3
    assert GuessTrace((1,)).final == 1


# ---------------------------------------------------------------------------
# mu


def test_mu_trace(capsys, s2_file):
    code, out, _ = run(capsys, "mu", s2_file, "--seq", "prefix:[3,1,2]:pad0",
                       "--horizon", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"mu": [1, 2, 3]}


def test_mu_plain_lines(capsys, s2_file):
    code, out, _ = run(capsys, "mu", s2_file, "--seq", "plantzero:1", "--horizon", "3")
    assert code == 0
    assert out.splitlines() == ["len=1 mu=1", "len=2 mu=1", "len=3 mu=1"]


def test_mu_requires_prenex_sentence(capsys, qf_file):
    code, _, err = run(capsys, "mu", qf_file, "--seq", "id", "--horizon", "2")
    assert code == 2


def test_mu_trace_attempts_grow_quadratically(capsys, monkeypatch, tmp_path):
    sentence = tmp_path / "mu.lg"
    sentence.write_text("exists x. forall y. ((y > x) -> f(y) = 0)")
    calls = 0
    original = synth.attempt

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(synth, "attempt", counted)
    counts = []
    for horizon in (30, 60):
        calls = 0
        code, _, _ = run(capsys, "mu", str(sentence), "--seq", "cycle:[3,1,4]",
                         "--horizon", str(horizon))
        assert code == 0
        counts.append(calls)
    # O(H^2) attempts per trace give a ratio near 4; redoing every attempt
    # at each prefix length (O(H^3)) gives about 7.3
    assert counts[1] / counts[0] <= 4.5, counts


def test_guess_ellipsis_tuple_entries_grow_quadratically(capsys, monkeypatch, gz_files):
    sig, sigma2, pi2 = gz_files
    entries = count_tuple_entries(monkeypatch)
    values = [1] * 50
    values[10] = 0
    seq = "prefix:[" + ",".join(map(str, values)) + "]:pad0"
    counts = []
    for horizon in (25, 50):
        entries[0] = 0
        code, out, _ = run(capsys, "guess", "--sig", sig, "--sigma2", sigma2, "--pi2", pi2,
                           "--seq", seq, "--horizon", str(horizon))
        assert code == 0
        assert out.splitlines()[1:] == ["stable_from: 11", "final: 1"]
        counts.append(entries[0])
    # evaluating Gz[ f(z) : z .. y ] once per y and stream gives O(H^2) tuple
    # entries, a ratio near 4; rebuilding it on every attempt (O(H^3)) gives about 6
    assert counts[1] / counts[0] <= 4.5, counts


def test_adversary_delta2_ellipsis_entries_grow_quadratically(capsys, monkeypatch, gz_files):
    sig, sigma2, pi2 = gz_files
    entries = count_tuple_entries(monkeypatch)
    counts = []
    for budget in (60, 120):
        entries[0] = 0
        code, out, _ = run(capsys, "adversary", "--sig", sig, "--guesser",
                           f"delta2:{sigma2}:{pi2}", "--kind", "diagonal", "--set", "inf-zeros",
                           "--flips", "10", "--budget", str(budget))
        assert code == 3
        # phase 1 steers along zeros and the guesser says 1 at once; phase 2
        # steers along ones, but a 0 has been seen, so it never says 0 again
        ones = ",".join(["1"] * budget)
        assert out == (f"flips=[0] guesses=[1] status=budget-exhausted phase=2 steps={budget}\n"
                       f"prefix: prefix:[0,{ones}]:pad0\n")
        counts.append(entries[0])
    # about 7.3 when every attempt rebuilds the tuple
    assert counts[1] / counts[0] <= 4.5, counts


def count_attempts(monkeypatch) -> list[int]:
    """Make every attempt made through synth add one to the returned counter."""
    calls = [0]
    original = synth.attempt

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(synth, "attempt", counted)
    return calls


def test_mu_trace_attempts_grow_linearly(capsys, monkeypatch, tmp_path):
    sentence = tmp_path / "mu.lg"
    sentence.write_text("exists x. forall y. ((y > x) -> f(y) = 0)")
    calls = count_attempts(monkeypatch)
    counts = []
    for horizon in (100, 200):
        calls[0] = 0
        code, out, _ = run(capsys, "mu", str(sentence), "--seq", "cycle:[3,1,4]",
                           "--horizon", str(horizon))
        # no entry is 0, so b = a + 1 refutes every witness a below len - 1
        assert (code, out) == (0, "".join(f"len={n} mu={n - 1}\n" for n in range(1, horizon + 1)))
        counts.append(calls[0])
    # deciding each b once for every witness gives a ratio near 2;
    # trying b = 0..len again for each new witness gives about 4
    assert counts[1] / counts[0] <= 2.5, counts


def test_adversary_delta2_attempts_grow_linearly(capsys, monkeypatch, gz_files):
    sig, sigma2, pi2 = gz_files
    calls = count_attempts(monkeypatch)
    counts = []
    for budget in (100, 200):
        calls[0] = 0
        code, out, _ = run(capsys, "adversary", "--sig", sig, "--guesser",
                           f"delta2:{sigma2}:{pi2}", "--kind", "diagonal", "--set", "inf-zeros",
                           "--flips", "10", "--budget", str(budget))
        ones = ",".join(["1"] * budget)
        assert (code, out) == (3, f"flips=[0] guesses=[1] status=budget-exhausted phase=2 "
                                  f"steps={budget}\nprefix: prefix:[0,{ones}]:pad0\n")
        counts.append(calls[0])
    assert counts[1] / counts[0] <= 2.5, counts


def test_guess_ellipsis_entries_evaluated_grow_linearly(capsys, monkeypatch, gz_files):
    sig, sigma2, pi2 = gz_files
    units = [0]
    spend = semantics._Evaluation.spend

    def counted(evaluation):
        units[0] += 1
        spend(evaluation)

    # with no quantifiers in an attempt, every budget unit is one evaluated ellipsis entry
    monkeypatch.setattr(semantics._Evaluation, "spend", counted)
    counts = []
    for horizon in (100, 200):
        units[0] = 0
        code, out, _ = run(capsys, "guess", "--sig", sig, "--sigma2", sigma2, "--pi2", pi2,
                           "--seq", "plantzero:10", "--horizon", str(horizon))
        assert code == 0
        assert out.splitlines()[1:] == ["stable_from: 11", "final: 1"]
        counts.append(units[0])
    # sharing Gz[ f(z) : z .. y ]'s entries across y gives a ratio near 2;
    # evaluating them afresh for each y gives about 4
    assert counts[1] / counts[0] <= 2.5, counts


def test_adversary_delta2_runs_to_the_default_budget(capsys, gz_files):
    sig, sigma2, pi2 = gz_files
    code, out, err = run(capsys, "adversary", "--sig", sig, "--guesser", f"delta2:{sigma2}:{pi2}",
                         "--kind", "diagonal", "--set", "inf-zeros", "--flips", "10")
    # phase 1 steers along zeros and the guesser says 1 at once; phase 2 steers along
    # ones for the whole per-phase budget of 10,000 steps and the guesser never says 0
    ones = ",".join(["1"] * 10000)
    assert (code, err) == (3, "")
    assert out == ("flips=[0] guesses=[1] status=budget-exhausted phase=2 steps=10000\n"
                   f"prefix: prefix:[0,{ones}]:pad0\n")


def test_adversary_validates_each_entry_once(capsys, monkeypatch):
    validated = 0
    original = oracle.FinitePrefix.__post_init__

    def counted(self):
        nonlocal validated
        validated += len(self.entries)
        original(self)

    monkeypatch.setattr(oracle.FinitePrefix, "__post_init__", counted)
    for budget in (400, 800):
        validated = 0
        code, _, _ = run(capsys, "adversary", "--guesser", "constant-1", "--kind", "diagonal",
                         "--set", "inf-zeros", "--budget", str(budget))
        assert code == 3
        # rebuilding the whole prefix on every step validates about budget^2 / 2 entries
        assert validated <= budget, (budget, validated)


def count_copied_entries(monkeypatch) -> list[int]:
    """Make every copy of prefix entries add its length to the returned counter."""
    copied = [0]
    original = oracle._copy

    def counted(items, span):
        result = original(items, span)
        copied[0] += len(result)
        return result

    monkeypatch.setattr(oracle, "_copy", counted)
    return copied


@pytest.mark.parametrize("guesser", ["constant-1", "last-is-5", "contains-zero"])
def test_adversary_copies_linearly_many_entries(capsys, monkeypatch, guesser):
    copied = count_copied_entries(monkeypatch)
    for budget in (5000, 10000):
        copied[0] = 0
        code, _, _ = run(capsys, "adversary", "--guesser", guesser, "--kind", "diagonal",
                         "--set", "inf-zeros", "--flips", "10", "--budget", str(budget))
        assert code in (0, 3)
        # copying the prefix on every step copies about budget^2 / 2 entries
        assert copied[0] <= 2 * budget, (guesser, budget, copied[0])


def test_adversary_constant_one_at_a_large_budget_is_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "adversary", "--guesser", "constant-1", "--kind", "diagonal",
                         "--set", "inf-zeros", "--flips", "10", "--budget", "40000")
    assert time.perf_counter() - start < 3
    entries = ",".join(["0"] + ["1"] * 40000)
    assert (code, err) == (3, "")
    assert out == ("flips=[0] guesses=[1] status=budget-exhausted phase=2 steps=40000\n"
                   f"prefix: prefix:[{entries}]:pad0\n")


# ---------------------------------------------------------------------------
# adversary


def test_adversary_parity_diagonal(capsys):
    code, out, _ = run(capsys, "adversary", "--guesser", "parity-of-length",
                       "--kind", "diagonal", "--set", "inf-zeros",
                       "--flips", "10", "--budget", "10000", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "completed"
    assert len(data["flips"]) == 10


def test_adversary_constant_one_budget(capsys):
    code, out, _ = run(capsys, "adversary", "--guesser", "constant-1",
                       "--kind", "diagonal", "--budget", "50")
    assert code == 3
    assert "budget-exhausted" in out


def test_adversary_density_violation(capsys):
    code, _, err = run(capsys, "adversary", "--guesser", "contains-zero",
                       "--kind", "diagonal", "--set", "contains-zero", "--budget", "50")
    assert code == 4
    assert "no out-of-set extension" in err


def test_adversary_permutation(capsys):
    code, out, _ = run(capsys, "adversary", "--guesser", "initial-segment",
                       "--kind", "permutation", "--flips", "6", "--budget", "100", "--json")
    assert code == 0
    assert json.loads(out)["status"] == "completed"


def test_adversary_cantor(capsys):
    code, out, _ = run(capsys, "adversary", "--guesser", "last-is-5",
                       "--kind", "cantor", "--flips", "10", "--budget", "100", "--json")
    data = json.loads(out)
    assert code == 0
    assert len(data["flips"]) == 10
    assert data["prefix"].startswith("prefix:[0,5,")


def test_adversary_delta2_guesser_ref(capsys, s2_file, pi2_file):
    code, out, _ = run(capsys, "adversary", "--guesser", f"delta2:{s2_file}:{pi2_file}",
                       "--kind", "diagonal", "--flips", "3", "--budget", "40", "--json")
    assert code == 3
    assert json.loads(out)["phase"] == 2


def test_adversary_unknown_guesser(capsys):
    code, _, err = run(capsys, "adversary", "--guesser", "nope", "--kind", "cantor")
    assert code == 2
    assert "unknown guesser" in err


# ---------------------------------------------------------------------------
# synth


def test_synth_guesser_files_round_trip(capsys, tmp_path):
    sig_path = tmp_path / "session.sig"
    sig_path.write_text("seqfn Gz contains0\n")
    code, out, _ = run(capsys, "synth", "guesser", "Gz", "--sig", str(sig_path),
                       "--out-dir", str(tmp_path))
    assert code == 0
    sig = load_signature(sig_path.read_text())
    sigma2 = (tmp_path / "Gz.sigma2.lg").read_text().strip()
    pi2 = (tmp_path / "Gz.pi2.lg").read_text().strip()
    assert sigma2 == "exists x. forall y. ((y > x) -> Gz[ f(z) : z .. y ] = 1)"
    assert pi2 == "forall x. exists y. ((y > x) & Gz[ f(z) : z .. y ] = 1)"
    for text in (sigma2, pi2):
        assert parse(text, sig) == parse(text, sig)


def test_synth_round_trip_failure_is_a_usage_error(capsys, monkeypatch, tmp_path):
    sig_path = tmp_path / "session.sig"
    sig_path.write_text("seqfn Gz contains0\n")
    monkeypatch.setattr(lang, "print_formula", lambda formula: "f(0) = 0")
    code, _, err = run(capsys, "synth", "guesser", "Gz", "--sig", str(sig_path),
                       "--out-dir", str(tmp_path))
    assert code == 2
    assert "round trip" in err
    assert not (tmp_path / "Gz.sigma2.lg").exists()


def test_synth_family(capsys, tmp_path):
    sig_path = tmp_path / "session.sig"
    sig_path.write_text("fn g 2 constfam\n")
    code, out, _ = run(capsys, "synth", "family", "g", "--sig", str(sig_path),
                       "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "g.sigma2.lg").read_text().strip() == \
        "exists x. forall y. g(x, y) = f(y)"


def test_synth_overguesser(capsys, tmp_path):
    sig_path = tmp_path / "session.sig"
    sig_path.write_text("seqfn Mu last\n")
    code, out, err = run(capsys, "synth", "overguesser", "Mu", "--sig", str(sig_path),
                         "--out-dir", str(tmp_path))
    assert (code, out, err) == (0, f"{tmp_path / 'Mu.sigma2.lg'}\n", "")
    assert (tmp_path / "Mu.sigma2.lg").read_text() == (
        "exists m. forall m3. ((m3 > d2(m)) -> "
        "(0 < Mu[ f(z) : z .. m3 ] & Mu[ f(z) : z .. m3 ] < d1(m)))\n")


@pytest.mark.parametrize("sig_text, message", [
    ("", "'g' is not a registered binary function symbol"),
    ("pred g 2 <\n", "'g' is not a registered binary function symbol"),
    ("fn g 3 third\n", "'g' has arity 3; families are binary"),
    ("fn g 1 d1\n", "'g' has arity 1; families are binary"),
])
def test_synth_family_needs_a_registered_binary_function(capsys, monkeypatch, tmp_path,
                                                         sig_text, message):
    monkeypatch.setitem(lang.FN_BUILTINS, "third", (3, lambda a, b, c: c))
    sig_path = tmp_path / "session.sig"
    sig_path.write_text(sig_text)
    code, out, err = run(capsys, "synth", "family", "g", "--sig", str(sig_path),
                         "--out-dir", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "g.sigma2.lg").exists()


@pytest.mark.parametrize("argv", [("family", "nope"), ("family", "d1"),
                                  ("overguesser", "Nope"), ("guesser", "Nope")])
def test_failed_synth_creates_no_directory(capsys, tmp_path, argv):
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "synth", *argv, "--out-dir", str(out_dir))
    assert (code, out) == (2, "")
    assert not out_dir.exists()


@pytest.mark.parametrize("sub, error", [("", "FileExistsError"), ("sub", "NotADirectoryError")])
def test_synth_out_dir_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, sub, error):
    sig_path = tmp_path / "session.sig"
    sig_path.write_text("seqfn Gz contains0\n")
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    code, out, err = run(capsys, "synth", "guesser", "Gz", "--sig", str(sig_path),
                         "--out-dir", str(afile / sub))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output directory: [Errno ") and err.count("\n") == 1
    assert "Traceback" not in err and error not in err
    assert afile.read_text() == "kept\n"


def test_synth_unknown_registry_key(capsys, tmp_path):
    code, _, err = run(capsys, "synth", "guesser", "Gz", "--out-dir", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("source, sig_text", [
    ("guesser", "seqfn Gz contains0\n"), ("overguesser", "seqfn Gz last\n"),
    ("family", "fn Gz 2 constfam\n")])
@pytest.mark.parametrize("extra", [["extra"], ["extra", "junk"]])
def test_synth_of_a_symbol_takes_exactly_one_name(capsys, tmp_path, source, sig_text, extra):
    sig_path = tmp_path / "session.sig"
    sig_path.write_text(sig_text)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "synth", source, "Gz", *extra, "--sig", str(sig_path),
                         "--out-dir", str(out_dir))
    assert (code, out, err) == (2, "", f"error: synth {source} needs one symbol name\n")
    assert not out_dir.exists()


def test_synth_topology(capsys, tmp_path):
    s_table = tmp_path / "s.tbl"
    s_table.write_text("0 0 7\n")
    c_table = tmp_path / "sc.tbl"
    c_table.write_text("\n".join(f"0 {m} {m}" for m in range(30) if m != 7) + "\n")
    code, out, _ = run(capsys, "synth", "topology", str(s_table), str(c_table),
                       "--out-dir", str(tmp_path))
    assert code == 0
    pi2 = (tmp_path / "topology.pi2.lg").read_text()
    sigma2 = (tmp_path / "topology.sigma2.lg").read_text()
    assert pi2.startswith("forall i. exists j.")
    assert sigma2.startswith("exists i. forall j.")


def test_synth_topology_default_lines(capsys, tmp_path):
    s_table = tmp_path / "s.tbl"
    s_table.write_text("0 0 7\n1 0 -\ndefault -\n")
    c_table = tmp_path / "sc.tbl"
    c_table.write_text("0 0 1\ndefault 5,6\n")
    assert cli._load_topology(str(s_table)) == synth.TopologySpec(
        table={(0, 0): oracle.FinitePrefix((7,)), (1, 0): oracle.FinitePrefix(())},
        default=oracle.FinitePrefix(()))
    assert cli._load_topology(str(c_table)) == synth.TopologySpec(
        table={(0, 0): oracle.FinitePrefix((1,))}, default=oracle.FinitePrefix((5, 6)))
    code, out, _ = run(capsys, "synth", "topology", str(s_table), str(c_table),
                       "--out-dir", str(tmp_path))
    assert code == 0
    assert out.splitlines() == [str(tmp_path / "topology.pi2.lg"),
                                str(tmp_path / "topology.sigma2.lg")]


def test_synth_topology_skips_blank_and_comment_lines(capsys, tmp_path):
    """The README's table has a ``#`` line; such lines and blank ones change no file."""
    plain = {"s": "0 0 7\n", "sc": "0 0 1\n0 1 2\ndefault 5,6\n"}
    commented = {name: "# S = { f : f(0) = 7 }\n\n" + text.replace("\n", "\n  \n  # row\n")
                 for name, text in plain.items()}
    written = []
    for index, tables in enumerate((plain, commented)):
        paths = []
        for name, text in tables.items():
            paths.append(tmp_path / f"{name}{index}.tbl")
            paths[-1].write_text(text)
        out_dir = tmp_path / f"out{index}"
        code, _, _ = run(capsys, "synth", "topology", *map(str, paths), "--out-dir", str(out_dir))
        assert code == 0
        written.append({path.name: path.read_text() for path in out_dir.iterdir()})
    assert written[0] == written[1] and len(written[0]) == 2


def test_synth_topology_bad_table(capsys, tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("0 zero 7\n")
    other = tmp_path / "ok.tbl"
    other.write_text("0 0 1\n")
    code, _, err = run(capsys, "synth", "topology", str(bad), str(other),
                       "--out-dir", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("text", ["# nothing\n", "default 3\n", ""])
@pytest.mark.parametrize("empty_first", [False, True])
def test_synth_topology_names_a_table_without_cells(capsys, tmp_path, text, empty_first):
    empty, other = tmp_path / "E.tbl", tmp_path / "O.tbl"
    empty.write_text(text)
    other.write_text("0 0 1\n")
    tables = [empty, other] if empty_first else [other, empty]
    code, out, err = run(capsys, "synth", "topology", *map(str, tables), "--out-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: {empty}: a topology table needs at least one cell line\n"
    assert not (tmp_path / "topology.pi2.lg").exists()


def test_synth_topology_quotes_a_prefix_that_makes_no_name(capsys, tmp_path):
    tables = [tmp_path / "S.tbl", tmp_path / "C.tbl"]
    for table in tables:
        table.write_text("0 0 1\n")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "synth", "topology", *map(str, tables), "--prefix", "a b",
                         "--out-dir", str(out_dir))
    assert (code, out) == (2, "")
    assert err == ("error: name prefix 'a b': 'a ball' is not a symbol name: "
                   "a letter or '_', then letters, digits or '_'\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("line, message", [
    ("-3 0 1", "row '-3' is not a decimal natural"),
    ("0 +1 1", "column '+1' is not a decimal natural"),
    ("0 0 1_0", "entry '1_0' is not a decimal natural"),
    ("0 1", "expected '<i> <j> <entries>' or 'default <entries>'"),
])
def test_synth_topology_names_a_bad_natural(capsys, tmp_path, line, message):
    bad = tmp_path / "bad.tbl"
    bad.write_text(line + "\n")
    other = tmp_path / "ok.tbl"
    other.write_text("0 0 1\n")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "synth", "topology", str(bad), str(other),
                         "--out-dir", str(out_dir))
    assert (code, out, err) == (2, "", f"error: {bad}:1: {message}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("text, message", [
    ("0 0 7\n0 0 8\n", "2: cell 0 0 is already given"),
    ("default -\n0 0 7\n\ndefault 1\n", "4: default is already given"),
])
def test_synth_topology_rejects_a_repeated_cell_or_default(capsys, tmp_path, text, message):
    bad = tmp_path / "S.tbl"
    bad.write_text(text)
    other = tmp_path / "ok.tbl"
    other.write_text("0 0 1\n")
    code, out, err = run(capsys, "synth", "topology", str(bad), str(other),
                         "--out-dir", str(tmp_path / "out"))
    assert (code, out, err) == (2, "", f"error: {bad}:{message}\n")


# ---------------------------------------------------------------------------
# play


def feed_lines(monkeypatch, lines):
    feed = iter(lines)
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))


def test_play_guesses_after_each_entry(capsys, monkeypatch):
    feed_lines(monkeypatch, ["3", "1", "2", ":quit"])
    code = cli.main(["play"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("contains-zero: 0") == 3


def test_play_flips_after_zero(capsys, monkeypatch):
    feed_lines(monkeypatch, ["3", "0", ":quit"])
    code = cli.main(["play"])
    out = capsys.readouterr().out
    assert code == 0
    assert "contains-zero: 0" in out
    assert "contains-zero: 1" in out
    assert "final=1" in out


def test_play_reprompts_on_garbage_and_traces(capsys, monkeypatch):
    feed_lines(monkeypatch, ["-3", "abc", "4", ":trace", ":quit"])
    code = cli.main(["play", "--guesser", "parity-of-length"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("enter a natural number") == 2
    assert "trace=0" in out
    assert "sequence so far: prefix:[4]:pad0" in out


def test_play_trace_before_any_entry(capsys, monkeypatch):
    feed_lines(monkeypatch, [":trace", ":quit"])
    code = cli.main(["play"])
    out = capsys.readouterr().out
    assert code == 0
    assert "contains-zero: no entries yet\n" in out


def test_play_keeps_one_trace_for_each_guesser_given(capsys, monkeypatch):
    feed_lines(monkeypatch, ["1", "0", ":trace", ":quit"])
    code, out, err = run(capsys, "play", "--guesser", "contains-zero", "--guesser", "contains-zero")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [
        *["contains-zero: 0"] * 2, *["contains-zero: 1"] * 2,
        *["contains-zero: trace=0 1 stable_from=2 final=1"] * 2,
        "sequence so far: prefix:[1,0]:pad0", *["contains-zero: final=1 stable_from=2"] * 2]


def test_play_takes_decimal_digits_only(capsys, monkeypatch):
    feed_lines(monkeypatch, ["3", "\u00b2", ":quit"])
    code = cli.main(["play"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("enter a natural number") == 1
    assert "sequence so far: prefix:[3]:pad0" in out
    assert "contains-zero: final=0 stable_from=1" in out


def test_play_reprompts_on_a_decimal_too_long_to_convert(capsys, monkeypatch):
    feed_lines(monkeypatch, ["3", "9" * 5000, "0", ":quit"])
    code, out, err = run(capsys, "play")
    assert (code, err) == (0, "")
    assert out.count("enter a natural number") == 1
    assert "sequence so far: prefix:[3,0]:pad0" in out


def test_eval_numeral_too_long_to_convert_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "long.lg"
    path.write_text("f(" + "9" * 5000 + ") = 0")
    code, out, err = run(capsys, "eval", str(path), "--seq", "id")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: numeral of 5000 digits is too long (line 1, column 3)\n"


def test_an_error_in_an_input_file_names_the_file(capsys, tmp_path):
    files = {"A.lg": "exists x. forall y. f(x) = 0", "B.lg": "forall x. exists y. f(y) =",
             "free.lg": "exists x. forall y. f(z) = 0", "g.sig": "fn G 1 d1\nfn G 1 d1\n",
             "bad.sig": "seqfn x- sum\n"}
    path = {}
    for name, text in files.items():
        path[name] = tmp_path / name
        path[name].write_text(text)
    broken = f"error: {path['B.lg']}: expected a term, found 'end of input' (line 1, column 27)\n"
    for argv, message in [
        (["guess", "--sigma2", path["A.lg"], "--pi2", path["B.lg"], "--seq", "id", "--horizon", "2"],
         broken),
        (["adversary", "--guesser", f"delta2:{path['A.lg']}:{path['B.lg']}", "--kind", "cantor"],
         broken),
        (["eval", path["A.lg"], "--seq", "id", "--sig", path["g.sig"]],
         f"error: {path['g.sig']}: line 2: symbol 'G' already declared\n"),
        (["eval", path["A.lg"], "--seq", "id", "--sig", path["bad.sig"]],
         f"error: {path['bad.sig']}: line 1: 'x-' is not a symbol name: "
         "a letter or '_', then letters, digits or '_'\n"),
        (["mu", path["free.lg"], "--seq", "id", "--horizon", "2"],
         f"error: {path['free.lg']}: the sentence has free variables ['z']\n"),
    ]:
        assert run(capsys, *map(str, argv)) == (2, "", message), argv


def test_play_prints_its_summary_when_an_evaluation_runs_out_of_budget(
        capsys, monkeypatch, huge_sum_files, tmp_path):
    sig, _, sigma2 = huge_sum_files
    pi2 = tmp_path / "sum.pi2.lg"
    pi2.write_text("forall a. exists b. sum[ x : x .. 100000000000 ] = a")
    feed_lines(monkeypatch, ["3", "4", ":quit"])
    code, out, err = run(capsys, "play", "--sig", sig, "--guesser", "contains-zero",
                         "--guesser", f"delta2:{sigma2}:{pi2}")
    assert code == 3
    assert "budget exhausted" in err
    assert out.splitlines()[1:] == ["contains-zero: 0", "sequence so far: prefix:[3]:pad0",
                                    "contains-zero: final=0 stable_from=1"]


def test_play_quits_on_eof(capsys, monkeypatch):
    def raise_eof(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", raise_eof)
    assert cli.main(["play"]) == 0


# ---------------------------------------------------------------------------
# hosts and guessers that raise


def kaboom(*args):
    raise RuntimeError("kaboom")


@pytest.fixture
def raising(monkeypatch, tmp_path):
    """Paths of a signature binding ``B``, ``F`` and ``P`` to builtins that raise, and of
    a Delta2 pair over ``B``; the builtin guesser ``boom`` raises too."""
    monkeypatch.setitem(lang.SEQ_BUILTINS, "boom", kaboom)
    monkeypatch.setitem(lang.FN_BUILTINS, "boom", (1, kaboom))
    monkeypatch.setitem(lang.PRED_BUILTINS, "boom", (1, kaboom))
    monkeypatch.setitem(cli.BUILTIN_GUESSERS, "boom", synth.Guesser(kaboom, "boom"))
    paths = {}
    for name, text in (("sig", "seqfn B boom\nfn F 1 boom\npred P 1 boom\n"),
                       ("sigma2", "exists x. forall y. B[ f(z) : z .. y ] = x"),
                       ("pi2", "forall x. exists y. B[ f(z) : z .. y ] = x")):
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    return paths


HOST_B = "error: RuntimeError raised by the host of 'B': kaboom\n"
GUESSER = "error: RuntimeError raised by the guesser 'boom': kaboom\n"


@pytest.mark.parametrize("sentence, symbol", [
    ("B[ f(z) : z .. 2 ] = 0", "B"), ("F(f(0)) = 0", "F"), ("P(f(0))", "P")],
    ids=["sequence", "function", "predicate"])
def test_eval_names_the_host_that_raised(capsys, raising, tmp_path, sentence, symbol):
    path = tmp_path / "s.lg"
    path.write_text(sentence)
    code, out, err = run(capsys, "eval", str(path), "--sig", raising["sig"], "--seq", "id")
    assert (code, out, err) == (5, "", f"error: RuntimeError raised by the host of {symbol!r}: kaboom\n")


def test_mu_and_guess_name_the_host_that_raised(capsys, raising):
    for argv in (["mu", raising["sigma2"]], ["guess", "--sigma2", raising["sigma2"], "--pi2", raising["pi2"]]):
        code, out, err = run(capsys, *argv, "--sig", raising["sig"], "--seq", "id", "--horizon", "3")
        assert (code, out, err) == (5, "", HOST_B), argv


@pytest.mark.parametrize("kind", ["diagonal", "permutation", "cantor"])
@pytest.mark.parametrize("guesser, message", [("boom", GUESSER), ("delta2", HOST_B)],
                         ids=["guesser", "host-in-delta2"])
def test_adversary_names_the_guesser_or_host_that_raised(capsys, raising, kind, guesser, message):
    ref = f"delta2:{raising['sigma2']}:{raising['pi2']}" if guesser == "delta2" else guesser
    code, out, err = run(capsys, "adversary", "--guesser", ref, "--kind", kind, "--flips", "2",
                         "--budget", "5", "--sig", raising["sig"])
    assert (code, out, err) == (5, "", message)


@pytest.mark.parametrize("guesser, message", [("boom", GUESSER), ("delta2", HOST_B)],
                         ids=["guesser", "host-in-delta2"])
def test_play_names_the_guesser_or_host_that_raised(capsys, monkeypatch, raising, guesser, message):
    feed_lines(monkeypatch, ["3", ":quit"])
    ref = f"delta2:{raising['sigma2']}:{raising['pi2']}" if guesser == "delta2" else guesser
    code, out, err = run(capsys, "play", "--sig", raising["sig"], "--guesser", "contains-zero",
                         "--guesser", ref)
    assert (code, err) == (5, message)
    assert out.splitlines()[1:] == ["contains-zero: 0", "sequence so far: prefix:[3]:pad0",
                                    "contains-zero: final=0 stable_from=1"]


def test_a_library_caller_gets_what_the_host_raised_naming_the_innermost_host(raising):
    sig = load_signature("seqfn B boom\n")
    spec = synth.Delta2Spec(
        sigma2=lang.Sigma2Sentence.from_formula(parse("exists x. forall y. B[ f(z) : z .. y ] = x", sig)),
        pi2=lang.Pi2Sentence.from_formula(parse("forall x. exists y. B[ f(z) : z .. y ] = x", sig)))
    guesser = synth.guesser_from_delta2(spec, sig)
    with pytest.raises(RuntimeError, match="^kaboom$") as raised:
        guesser(oracle.FinitePrefix((1,)))
    assert raised.value.raised_by == "the host of 'B'"  # not the guesser around it


def test_a_host_value_error_keeps_its_message_and_exit_2(capsys, monkeypatch, tmp_path):
    monkeypatch.setitem(lang.SEQ_BUILTINS, "digits", lambda t: int("x"))
    sig, sentence = tmp_path / "s.sig", tmp_path / "s.lg"
    sig.write_text("seqfn D digits\n")
    sentence.write_text("D[ f(z) : z .. 1 ] = 0")
    code, out, err = run(capsys, "eval", str(sentence), "--sig", str(sig), "--seq", "id")
    assert (code, out, err) == (2, "", "error: invalid literal for int() with base 10: 'x'\n")


def test_a_fault_outside_every_host_and_guesser_escapes_main(monkeypatch):
    monkeypatch.setattr(cli, "trace_guesser", kaboom)
    with pytest.raises(RuntimeError, match="^kaboom$"):
        cli.main(["guess", "--spec", "contains-zero", "--seq", "id", "--horizon", "3"])


def test_a_fault_of_the_package_inside_a_delta2_guesser_escapes_main(monkeypatch, s2_file, pi2_file):
    def bug(*args):
        raise KeyError("bug")

    monkeypatch.setattr(synth.MuStream, "_observe", bug)
    for argv in (["guess", "--spec", "contains-zero", "--seq", "id", "--horizon", "3"],
                 ["adversary", "--guesser", f"delta2:{s2_file}:{pi2_file}", "--kind", "cantor"]):
        with pytest.raises(KeyError, match="^'bug'$"):
            cli.main(argv)


@pytest.mark.parametrize("argv, message", [
    (["guess", "--spec", "contains-zero", "--seq", "id", "--horizon", "0"],
     "horizon must be at least 1"),
    (["guess", "--sigma2", "{s2}", "--seq", "id", "--horizon", "3"],
     "pass --spec <builtin> or both --sigma2 FILE and --pi2 FILE"),
    (["adversary", "--guesser", "delta2:{s2}", "--kind", "diagonal"],
     "delta2 guesser ref must be delta2:<sigma2-file>:<pi2-file>"),
    (["synth", "topology", "{s2}"], "synth topology needs two table files: <set> <complement>"),
    (["eval", "{missing}", "--seq", "id"], "cannot read sentence file: "),
    (["eval", "{s2}", "--seq", "id", "--sig", "{missing}"], "cannot read signature file: "),
    (["adversary", "--guesser", "constant-1", "--kind", "cantor", "--flips", "0"],
     "flips must be at least 1"),
    (["adversary", "--guesser", "constant-1", "--kind", "diagonal", "--budget", "0"],
     "budget must be at least 1"),
])
def test_usage_errors_are_one_error_line(capsys, tmp_path, s2_file, argv, message):
    paths = {"s2": s2_file, "missing": str(tmp_path / "missing")}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["adversary", "--guesser", "constant-1", "--kind", "permutation", "--set", "cantor"],
     "--set is read only by --kind diagonal"),
    (["adversary", "--guesser", "constant-1", "--kind", "cantor", "--set", "permutation",
      "--flips", "2", "--budget", "5"], "--set is read only by --kind diagonal"),
    (["eval", "{qf}", "--seq", "id", "--bound", "5"], "--bound is read only for a quantified sentence"),
    (["guess", "--spec", "contains-zero", "--sigma2", "nope.lg", "--pi2", "nope.lg",
      "--seq", "id", "--horizon", "3"], "--sigma2 and --pi2 are not read with --spec"),
    (["guess", "--spec", "contains-zero", "--pi2", "{s2}", "--seq", "id", "--horizon", "3"],
     "--sigma2 and --pi2 are not read with --spec"),
    (["synth", "guesser", "Gz", "--sig", "{sig}", "--prefix", "X", "--out-dir", "{out}"],
     "--prefix is read only by synth topology"),
    (["synth", "overguesser", "Gz", "--sig", "{sig}", "--prefix", "X", "--out-dir", "{out}"],
     "--prefix is read only by synth topology"),
    (["synth", "family", "g", "--sig", "{sig}", "--prefix", "X", "--out-dir", "{out}"],
     "--prefix is read only by synth topology"),    (["adversary", "--guesser", "constant-1", "--kind", "permutation", "--set", "inf-zeros"],
     "--set is read only by --kind diagonal"),
    (["adversary", "--guesser", "constant-1", "--kind", "cantor", "--set=inf-zeros"],
     "--set is read only by --kind diagonal"),
])
def test_options_a_command_would_ignore_are_usage_errors(capsys, tmp_path, qf_file, s2_file,
                                                         argv, message):
    sig = tmp_path / "session.sig"
    sig.write_text("seqfn Gz contains0\nfn g 2 constfam\n")
    paths = {"qf": qf_file, "s2": s2_file, "sig": str(sig), "out": str(tmp_path / "out")}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_mu_rejects_nonpositive_horizon(capsys, s2_file):
    code, _, err = run(capsys, "mu", s2_file, "--seq", "id", "--horizon", "0")
    assert code == 2
    assert "horizon" in err


@pytest.mark.parametrize("argv, flag", [
    (["guess", "--spec", "contains-zero", "--seq", "id", "--horizon", "1_000"], "--horizon"),
    (["adversary", "--guesser", "constant-1", "--kind", "cantor", "--budget", "+5"], "--budget"),
    (["adversary", "--guesser", "constant-1", "--kind", "cantor", "--flips", " 7"], "--flips"),
    (["eval", "{qf}", "--seq", "id", "--bound", "9" * 5000], "--bound"),
])
def test_option_numerals_are_decimal_naturals(capsys, qf_file, argv, flag):
    code, out, err = run(capsys, *(arg.format(qf=qf_file) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {argv[0]}: argument {flag}: value ") and err.count("\n") == 1


def test_records_match_their_dataclass_twins():
    record_twins.check_against_twin(GuessTrace, [((1, 0, 1),), ((0,),), ((1, 0, 1),)])
    assert record_twins.defined_in(cli) == {GuessTrace}
