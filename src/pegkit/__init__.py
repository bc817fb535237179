"""pegkit: a parsing-expression-grammar toolkit built around a
memoizing (packrat) parsing engine.

The engine keeps an explicit rule-by-position memo matrix whose cells
move Unevaluated -> InProgress -> Done, guaranteeing each (rule,
position) is evaluated at most once, which makes parse time linear in
the input for any grammar.  Independent oracles (a naive backtracker, a
right-to-left tabular filler, and a context-free all-end-sets
recognizer) exist for differential checking, plus a catalog of study
grammars, a combinator layer, benchmark plumbing, and a CLI.
"""

import sys

if sys.version_info < (3, 11):
    raise ImportError(
        "pegkit requires Python 3.11 or newer: deep inputs are parsed by "
        "recursion on the calling thread, and only since 3.11 does a "
        "Python-to-Python call use no C stack (running {}.{})".format(
            *sys.version_info[:2]
        )
    )

from .catalog import CatalogEntry, grammar_text, registry
from .combinators import (
    NoProgress,
    Parser,
    RuleSlot,
    UnboundSlot,
    and_pred,
    chain,
    char_satisfy,
    choice as alt,
    fail,
    literal,
    many,
    many1,
    not_pred,
    pure,
    rule,
    semantic_guard,
    then,
)
from .engine import (
    FAIL,
    DepthExceeded,
    EngineConfig,
    LeftRecursion,
    ParseFailed,
    ParseSession,
    ParseTreeNode,
    Stats,
    dump_matrix,
    furthest_failure,
    new_session,
    parse_complete,
    run_deep,
    stats,
)
from .grammar import (
    ANY,
    EMPTY,
    And,
    AnyChar,
    Char,
    Choice,
    Class,
    Empty,
    Grammar,
    InvalidGrammarError,
    Literal,
    Not,
    Opt,
    PegExpr,
    Plus,
    Ref,
    Rule,
    Seq,
    Star,
    ValidationIssue,
    and_,
    char,
    charclass,
    choice,
    lit,
    make_grammar,
    not_,
    nullable,
    opt,
    plus,
    ref,
    seq,
    star,
    validate,
    validation_errors,
    walk_exprs,
)
from .notation import (
    GrammarSyntaxError,
    format_grammar,
    load_grammar,
    parse_grammar,
    render_expr,
)
from .oracles import (
    CallBudgetExceeded,
    NaiveReport,
    SamePositionCycle,
    TabularMatrix,
    UnsupportedConstruct,
    cfg_all_ends,
    cfg_end_table,
    check_cfg_compatible,
    naive_parse,
    tabular_parse,
)

__version__ = "0.1.0"
