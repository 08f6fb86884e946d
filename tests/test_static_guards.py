"""Static guards: which module of the package may name what.

Each rule scans the top-level definitions of every source file of the package,
parsed once, for the nodes it guards, and lists the definitions where they
occur: ``def`` and ``class`` statements by name, an assignment by its target,
and any other statement as ``<module>``.  The files and definitions found must
be exactly the ones the rule allows.  Each rule also has a snippet that breaks
it, and must find the snippet's definitions when the snippet is read as one
more file of the package (or as the one file the rule scans).
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from guessability import lang

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "guessability"
SOURCES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def definition(statement: ast.stmt) -> str:
    """The name a top-level statement defines, or ``<module>``."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return statement.name
    targets = getattr(statement, "targets", [getattr(statement, "target", None)])
    if len(targets) == 1 and isinstance(targets[0], ast.Name):
        return targets[0].id
    return "<module>"


def where(match: Callable[[ast.AST], bool]) -> Callable[[ast.Module], set[str]]:
    """The definitions of one file that hold a node for which ``match`` is true."""
    return lambda tree: {definition(statement) for statement in tree.body
                         if any(map(match, ast.walk(statement)))}


def names(attributes: set[str]) -> Callable[[ast.AST], bool]:
    """Whether a node is one of ``attributes`` as an attribute, or as a string (for
    ``getattr`` and ``setattr``)."""
    return lambda node: (isinstance(node, ast.Attribute) and node.attr in attributes
                         or isinstance(node, ast.Constant) and node.value in attributes)


COMPARISONS = {"lt", "gt", "le", "ge"}


def comparison_names(tree: ast.Module) -> list[str]:
    """``definition.name`` for each ``operator.lt``, ``.gt``, ``.le`` or ``.ge`` named or
    imported, once per occurrence."""
    found = []
    for statement in tree.body:
        for node in ast.walk(statement):
            if (isinstance(node, ast.Attribute) and node.attr in COMPARISONS
                    and isinstance(node.value, ast.Name) and node.value.id == "operator"):
                found.append(f"{definition(statement)}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "operator":
                found.extend(f"{definition(statement)}.{alias.name}" for alias in node.names
                             if alias.name in COMPARISONS)
    return found


def comparisons(tree: ast.Module) -> set[str]:
    return set(comparison_names(tree))


def wraps_a_parameter(node: ast.AST, parameters: set[str]) -> bool:
    """Whether node is ``FinitePrefix(p)`` or ``FinitePrefix(tuple(p))`` for a parameter p."""
    if not (isinstance(node, ast.Call) and len(node.args) == 1
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "FinitePrefix"):
        return False
    arg = node.args[0]
    if isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "tuple" and len(arg.args) == 1:
        arg = arg.args[0]
    return isinstance(arg, ast.Name) and arg.id in parameters


def adapters(tree: ast.Module) -> set[str]:
    """The definitions that wrap a parameter of the innermost function or lambda around
    the wrapping in a ``FinitePrefix``."""
    found = set()

    def visit(node: ast.AST, top: str, parameters: set[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            parameters = {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
        if wraps_a_parameter(node, parameters):
            found.add(top)
        for child in ast.iter_child_nodes(node):
            visit(child, top, parameters)

    for statement in tree.body:
        visit(statement, definition(statement), set())
    return found


class Rule(NamedTuple):
    message: str  # what the rule keeps, shown when it fails
    sites: Callable[[ast.Module], set[str]]
    allowed: dict[str, set[str]]  # file -> the definitions that must and may hold a site
    breaking: str  # a source snippet that breaks the rule
    breaking_sites: set[str]  # the definitions of the snippet the rule must find
    only: str | None = None  # the one file the rule scans, if not all

    def found(self, sources: dict[str, ast.Module]) -> dict[str, set[str]]:
        scanned = {name: tree for name, tree in sources.items() if self.only in (None, name)}
        return {name: sites for name, tree in scanned.items() if (sites := self.sites(tree))}


RULES = {
    "comparisons-stay-in-lang": Rule(
        "Only lang names the comparison hosts, each in its table: PRED_BUILTINS names "
        "all four, and BINARY reads -> as operator.le; the rest read them from "
        "lang.PRED_BUILTINS",
        comparisons,
        {"lang.py": {"BINARY.le", "PRED_BUILTINS.lt", "PRED_BUILTINS.gt", "PRED_BUILTINS.le",
                     "PRED_BUILTINS.ge"}},
        """
        import operator
        from operator import ge

        def below(a, b):
            return operator.lt(a, b)
        """,
        {"<module>.ge", "below.lt"}),
    "naturals-stay-in-lang": Rule(
        "Only lang decides which text is a decimal natural; the rest call lang.natural",
        where(lambda node: isinstance(node, ast.Attribute) and node.attr == "isdecimal"),
        {"lang.py": {"natural", "_tokenize"}},
        """
        def digits(text):
            return text.isdecimal()
        """,
        {"digits"}),
    "cli-converts-no-text-with-int": Rule(
        "cli converts no text with int; it reads naturals through lang.natural",
        where(lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "int"),
        {},
        """
        def horizon(text):
            return int(text)
        """,
        {"horizon"},
        only="cli.py"),
    "memo-stays-in-the-stream": Rule(
        "Only the stream classes of synth reach a stream's memo or restart a stream: "
        "nothing outside a stream shares, swaps or clears its memo, or restarts it",
        where(names({"_memo", "_restart"})),
        {"synth.py": {"MuStream", "_Delta2Stream"}},
        """
        def share(a, b):
            a._memo = b._memo

        def restart(stream):
            getattr(stream, "_restart")()
        """,
        {"share", "restart"}),
    "node-fields-stay-in-lang": Rule(
        "Only lang reads a syntax node's fields wholesale; every walk goes through "
        "lang.children or lang._rebuilt",
        where(lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "vars"),
        {"lang.py": {"children", "_rebuilt"}},
        """
        def fields(node):
            return vars(node)
        """,
        {"fields"}),
    "prefix-entries-stay-in-oracle": Rule(
        "Only oracle reads a prefix's list and length; the rest read entries through "
        "FinitePrefix.read, indexing, iteration or past",
        where(names({"_items", "_n"})),
        {"oracle.py": {"FinitePrefix"}},
        """
        def length(prefix):
            return prefix._n

        def items(prefix):
            return getattr(prefix, "_items")
        """,
        {"length", "items"}),
    "prefix-hosts-stay-in-synth": Rule(
        "A construction becomes a sequence host as it is: a sequence host reads the memo's "
        "own FinitePrefix view, so no function wraps a host's argument in a FinitePrefix again",
        adapters,
        {},
        """
        def by_def(guesser):
            def host(t):
                return guesser(FinitePrefix(t))
            return host

        def by_lambda(sig, guesser):
            sig.register_seq_function("G", lambda t: guesser(oracle.FinitePrefix(tuple(t))))

        def from_a_local(values):
            entries = [int(v) for v in values]
            return FinitePrefix(entries)

        def from_a_generator(source, k):
            return FinitePrefix(tuple(source.query(i) for i in range(k + 1)))
        """,
        {"by_def", "by_lambda"}),
    "signature-stays-in-lang": Rule(
        "Only lang.Signature reads its own storage; every other module asks through "
        "kind_of, function, predicate and seq_function",
        where(lambda node: isinstance(node, ast.Attribute)
              and node.attr in vars(lang.Signature())),
        {"lang.py": {"Signature"}},
        """
        def arity(sig, name):
            return sig._symbols[name]
        """,
        {"arity"}),
    "substitution-stays-in-lang": Rule(
        "Only lang rebuilds syntax trees by substitution, and the package re-exports it; "
        "the rest evaluate under an assignment dict",
        where(lambda node: isinstance(node, ast.Name) and node.id == "substitute"
              or isinstance(node, ast.Attribute) and node.attr == "substitute"
              or isinstance(node, ast.alias) and node.name == "substitute"
              or isinstance(node, ast.Constant) and node.value == "substitute"),
        {"__init__.py": {"<module>", "__all__"}, "lang.py": {"substitute", "_substitute_under_binder"}},
        """
        from .lang import substitute

        def bind(formula, value):
            return substitute(formula, "x", value)
        """,
        {"<module>", "bind"}),
}


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
def test_the_package_keeps_the_rule(rule):
    assert {"__init__.py", "cli.py", "lang.py", "oracle.py", "semantics.py", "synth.py"} <= SOURCES.keys()
    assert rule.found(SOURCES) == rule.allowed, rule.message


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
def test_the_rule_fails_on_a_snippet_that_breaks_it(rule):
    name = rule.only or "snippet.py"
    found = rule.found({**SOURCES, name: ast.parse(textwrap.dedent(rule.breaking))})
    assert found.get(name) == rule.breaking_sites
    assert found != rule.allowed


def test_lang_names_each_comparison_once_in_its_table():
    """A rule's sites are a set; each comparison site of lang must also occur only once."""
    allowed = RULES["comparisons-stay-in-lang"].allowed["lang.py"]
    assert sorted(comparison_names(SOURCES["lang.py"])) == sorted(allowed)
