"""Sequential composition of two lenses with link-relation plumbing.

A composite is a lens like its parts: ``Lens`` types its inputs once, and its
cores run on the parts' cores, so no intermediate value is typed again.  Its
get runs both gets and composes the link relations; its put threads links
through the middle type: derive intermediate links for the inner put from the
input links and the first get's links, run the inner put, re-read the updated
middle's links, and use their composition with the input links to drive the
outer put.  An input link threads when its source region is the source
region of one of the first get's links; put rejects any other input link
with ``E-unthreaded-link``, naming that link, instead of dropping it.  When
a threaded link fails in the second lens, the failure names the input link
it was carried from, not the derived middle link.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .engine import CheckFailure, Lens
from .trees import Link, LinkSet, Tree, canonical_links, link_compose, link_converse


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
        middle: dict = {}  # source region of the first get -> its middle regions
        for l in ls_ab:
            middle.setdefault(l.source, []).append(l.view)
        unthreaded = [l for l in ls_ac2 if l.source not in middle]
        if unthreaded:
            l = canonical_links(unthreaded)[0]
            return CheckFailure(
                "E-unthreaded-link",
                "no link of the first lens's get has this source region",
                l.view.path,
                l,
            )
        # The input links carried to the middle, converse(compose(converse(ls_ac2), ls_ab)),
        # each mapped to the input link it carries.
        origin = {Link(m, l.view): l for l in ls_ac2 for m in middle[l.source]}
        b2 = self.second._try_put(b, c2, frozenset(origin))
        if isinstance(b2, CheckFailure):
            if b2.link in origin:
                return replace(b2, link=origin[b2.link])
            return b2
        _, ls_b2c2 = self.second._get(b2)
        ls_ab2 = link_compose(ls_ac2, link_converse(ls_b2c2))
        return self.first._try_put(a, b2, ls_ab2)
