"""The §4.3 testbed is built in one place, and its mailbox placement
decides the reply path.

Fig 6, Table 1, ablations A1/A2 and the trans-Atlantic example all run on
:func:`repro.experiments.common.build_iu_deployment`.  A copy assembled
elsewhere drifts (A1/A2 once measured the relayed reply path by accident),
so the IU sites are added in exactly one function.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.core.sim_dispatcher import SimMsgDispatcherConfig
from repro.experiments.common import build_iu_deployment

ROOT = Path(__file__).resolve().parents[2]
IU_SITES = {"iuWS", "iuWSD"}


class _SiteFinder(ast.NodeVisitor):
    """Names of the functions holding an ``add_site(`` call for an IU site."""

    def __init__(self, where: str) -> None:
        self.scope = [where]
        self.found: set[str] = set()

    def visit_FunctionDef(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        if getattr(node.func, "id", None) == "add_site" and any(
            isinstance(c, ast.Constant) and c.value in IU_SITES
            for c in ast.walk(node)
        ):
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def test_the_iu_deployment_is_assembled_in_one_function():
    found: set[str] = set()
    for top in ("src", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            finder = _SiteFinder(path.relative_to(ROOT).as_posix())
            finder.visit(ast.parse(path.read_text(encoding="utf-8")))
            found |= finder.found
    assert found == {"src/repro/experiments/common.py.build_iu_deployment"}


@pytest.mark.parametrize(
    "mailbox, passed_through", [("cohosted", True), ("relayed", False)]
)
def test_mailbox_placement_decides_the_reply_path(mailbox, passed_through):
    world = build_iu_deployment(
        dispatcher=SimMsgDispatcherConfig(), mailbox=mailbox
    )
    prefix = world.msgbox.deposit_prefix
    assert (prefix in world.dispatcher._cohosted_deposits) is passed_through
