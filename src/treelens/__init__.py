"""Compile consistency relations between tree types into link-carrying lenses.

A program in the ``.lens`` DSL declares algebraic data types and ordered
inductive rules relating a source type to a view type.  Every declared
relation yields a lens whose ``get`` produces provenance links alongside the
view and whose ``put`` consumes (possibly edited) links to retain the linked
source regions, guarded by a ``check`` procedure that decides put's domain.
"""

from types import ModuleType as _Module

from .compose import CompositeLens
from .edits import (
    Copy,
    Delete,
    EditContext,
    EditState,
    Insert,
    Move,
    Replace,
    Swap,
    apply_op,
    apply_script,
    parse_script,
    render_script,
)
from .engine import (
    CheckFailure,
    IllTypedInput,
    InvalidLinks,
    Lens,
    LensHandle,
    UnknownRelation,
    lens,
)
from .frontend import (
    Program,
    ValidatedProgram,
    ValidationError,
    load_program,
    parse_program,
    render_program,
    validate_program,
)
from .harness import LawSummary, TrialReport, gen_script, gen_tree, verify_laws
from .schema import (
    IllTyped,
    NoFiniteDefault,
    Schema,
    check_tree_type,
    default_value,
)
from .text import (
    LensSyntaxError,
    parse_links,
    parse_path,
    parse_pattern,
    parse_tree,
    read_tree_file,
    render_link,
    render_links,
    render_path,
    render_pattern,
    write_tree_file,
)
from .trees import (
    IntLeaf,
    Link,
    LinkSet,
    Node,
    Path,
    Pattern,
    Region,
    StrLeaf,
    Tree,
    Var,
    WILDCARD,
    Wildcard,
    canonical_links,
    erase_vars,
    fst_projection,
    is_match,
    link_compose,
    link_converse,
    sel,
)

# Submodules bind their names here on import; they are not part of the API.
__all__ = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _Module)]
