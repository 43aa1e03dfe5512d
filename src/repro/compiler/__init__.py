"""The six-phase XPath compiler (paper section 5.1).

(1) parsing — :mod:`repro.xpath.parser`,
(2) normalization — :mod:`repro.compiler.normalize`,
(3) semantic analysis — :mod:`repro.compiler.semantic`,
(4) rewrite (constant folding) — :mod:`repro.compiler.rewrite`,
(5) translation into the algebra — :mod:`repro.compiler.translate`
    with the improved-translation policies in
    :mod:`repro.compiler.improved`,
(6) code generation to an NQE plan — :mod:`repro.compiler.physical`.

:class:`repro.compiler.pipeline.XPathCompiler` orchestrates the phases.
"""

from repro.compiler.pipeline import CompiledQuery, XPathCompiler
from repro.compiler.improved import TranslationOptions

__all__ = ["XPathCompiler", "CompiledQuery", "TranslationOptions"]
