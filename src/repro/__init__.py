"""repro — full-fledged algebraic XPath processing.

A from-scratch Python reproduction of *Full-fledged Algebraic XPath
Processing in Natix* (Brantner, Helmer, Kanne, Moerkotte; ICDE 2005):
the complete translation of XPath 1.0 into a tuple-sequence algebra, an
iterator-based physical algebra (NQE), the NVM subscript virtual machine,
the improved polynomial-time translation, baseline interpreters, and the
paper's full evaluation harness.

Quick start::

    from repro import parse_document, evaluate

    doc = parse_document("<a><b>x</b><b>y</b></a>")
    evaluate("/a/b[2]/text()", doc)

Serving repeated queries, use a session — compiled plans are cached and
every layer is instrumented::

    from repro import XPathEngine

    engine = XPathEngine()
    engine.evaluate("count(//b)", doc)
    engine.evaluate("count(//b)", doc)   # plan-cache hit
    engine.stats().cache.hits            # 1
"""

from repro.api import (
    ENGINE_REGISTRY,
    ENGINES,
    CancelToken,
    EngineStats,
    EvalOptions,
    ResourceGovernor,
    XPathEngine,
    build_indexes,
    compile_xpath,
    create_collection,
    engine_names,
    evaluate,
    evaluate_concurrent,
    get_engine_factory,
    open_collection,
    open_store,
    parse_document,
    register_engine,
    resolve_context_node,
    store_document,
    unregister_engine,
)
from repro.compiler import TranslationOptions, XPathCompiler
from repro.dom import Document, DocumentBuilder, Node, NodeKind, serialize
from repro.errors import (
    QueryBudgetError,
    QueryCancelledError,
    QueryGovernanceError,
    QueryTimeoutError,
)

__version__ = "2.0.0"

#: The curated public surface: ``from repro import *`` and the docs
#: cover exactly these names; everything else is internal.
__all__ = [
    "ENGINES",
    "ENGINE_REGISTRY",
    "CancelToken",
    "Document",
    "DocumentBuilder",
    "EngineStats",
    "EvalOptions",
    "Node",
    "NodeKind",
    "QueryBudgetError",
    "QueryCancelledError",
    "QueryGovernanceError",
    "QueryTimeoutError",
    "ResourceGovernor",
    "TranslationOptions",
    "XPathCompiler",
    "XPathEngine",
    "build_indexes",
    "compile_xpath",
    "create_collection",
    "engine_names",
    "evaluate",
    "evaluate_concurrent",
    "get_engine_factory",
    "open_collection",
    "open_store",
    "parse_document",
    "register_engine",
    "resolve_context_node",
    "store_document",
    "serialize",
    "unregister_engine",
    "__version__",
]
