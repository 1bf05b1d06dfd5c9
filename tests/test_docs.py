"""The README's library example, and the test node ids that the README and
the CI workflow name, against the code."""

import ast
import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# a test file, or a class or function in it, as pytest names it on the command line
NODE_ID = re.compile(r"tests/[\w/]+\.py(?:::\w+)*")


def _defines(body, names) -> bool:
    """Whether ``body``, a module's or class's statements, defines the path ``names``."""
    if not names:
        return True
    for stmt in body:
        if isinstance(stmt, (ast.ClassDef, ast.FunctionDef)) and stmt.name == names[0]:
            return _defines(stmt.body if isinstance(stmt, ast.ClassDef) else [], names[1:])
    return False


def _check_nodes(text: str) -> None:
    """Every test node ``text`` names, and at least one, exists."""
    nodes = set(NODE_ID.findall(text))
    assert nodes
    for node in sorted(nodes):
        path, *names = node.split("::")
        assert (ROOT / path).is_file(), node
        assert _defines(ast.parse((ROOT / path).read_text()).body, names), node


def test_every_node_the_workflow_names_exists():
    # a renamed test would otherwise fail only in CI, as a node pytest cannot find
    # or, under --deselect, as a deselect that no longer deselects anything
    workflow = yaml.safe_load(WORKFLOW.read_text())
    _check_nodes("\n".join(step.get("run", "") for job in workflow["jobs"].values()
                           for step in job["steps"]))


def test_every_node_the_readme_names_exists():
    # a moved or deleted test file would otherwise leave the README pointing at nothing
    _check_nodes((ROOT / "README.md").read_text())


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
