"""Sequential composition of two lenses with link-relation plumbing.

A composite is a lens like its parts: ``Lens`` types its inputs once, and its
cores run on the parts' cores, so no intermediate value is typed again.  Its
get runs both gets and composes the link relations; its put threads links
through the middle type: derive intermediate links for the inner put from the
input links and the first get's links, run the inner put, re-read the updated
middle's links, and use their composition with the input links to drive the
outer put.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import CheckFailure, Lens
from .trees import LinkSet, Tree, link_compose, link_converse


class CompositionTypeError(Exception):
    """The two lenses do not meet in the middle type."""


@dataclass
class CompositeLens(Lens):
    """Two lenses A <---> B and B <---> C run in sequence."""

    first: Lens
    second: Lens

    def __post_init__(self) -> None:
        if self.first.view_type != self.second.source_type:
            raise CompositionTypeError(
                f"view type {self.first.view_type} of the first lens differs from "
                f"source type {self.second.source_type} of the second"
            )

    @property
    def source_type(self) -> str:
        return self.first.source_type

    @property
    def view_type(self) -> str:
        return self.second.view_type

    @property
    def source_schema(self):
        return self.first.source_schema

    @property
    def view_schema(self):
        return self.second.view_schema

    def _get(self, a: Tree) -> tuple[Tree, LinkSet]:
        b, ls_ab = self.first._get(a)
        c, ls_bc = self.second._get(b)
        return c, link_compose(ls_ab, ls_bc)

    def _try_put(self, a: Tree, c2: Tree, ls_ac2) -> Tree | CheckFailure:
        ls_ac2 = frozenset(ls_ac2)
        b, ls_ab = self.first._get(a)
        ls_bc2 = link_converse(link_compose(link_converse(ls_ac2), ls_ab))
        b2 = self.second._try_put(b, c2, ls_bc2)
        if isinstance(b2, CheckFailure):
            return b2
        _, ls_b2c2 = self.second._get(b2)
        ls_ab2 = link_compose(ls_ac2, link_converse(ls_b2c2))
        return self.first._try_put(a, b2, ls_ab2)
