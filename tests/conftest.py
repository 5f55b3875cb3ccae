"""Shared test helpers: packaged fixture access, subterm closures and the
acceptance summary.

The acceptance tests append one "[PASS] criterion N: ..." line each to
``acceptance_lines``; the terminal-summary hook prints them in a dedicated
section so a plain ``pytest -v`` run shows the per-criterion verdicts.
"""

from importlib import resources

from mpst.syntax import GComm, TIn, TOut, children, unfold_spine

acceptance_lines = []


def fixture_text(name):
    return resources.files("mpst").joinpath("fixtures", name).read_text()


def subterm_closure(t) -> frozenset:
    """All spine-normalised terms reachable by descending through branches.
    Finite for any term built here; used for memoisation bounds."""
    seen: set = set()
    stack = [t]
    while stack:
        node = unfold_spine(stack.pop())
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, (TIn, TOut, GComm)):
            stack.extend(b.cont for b in node.branches)
    return frozenset(seen)


def distinct_nodes(root) -> list:
    """The distinct nodes of a term graph, each once however many paths
    reach it."""
    seen, todo = {}, [root]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            todo += children(t)
    return list(seen.values())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
