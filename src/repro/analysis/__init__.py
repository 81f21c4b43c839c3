"""Static analysis of the portability layer: the ``repro`` linter.

The paper's central findings are statically detectable bug classes:
missing reduction clauses that leave shared arrays racy, kernels whose
operands fall outside the enclosing data environment (implicit per-call
transfers on Intel PVC), and clause sets whose lowering moves several
times the streaming-byte bound (the 3.7x OpenACC-on-AMD excess of
Figure 5).  This package finds them in the directive registry *before
anything runs*:

* :mod:`repro.analysis.findings` — the findings model (rule id,
  severity, location, fix hint);
* :mod:`repro.analysis.baseline` — accepted-findings suppression file;
* :mod:`repro.analysis.directive_rules` — checkers over every
  :class:`~repro.directives.registry.AnnotatedKernel`;
* :mod:`repro.analysis.sarif` — SARIF 2.1.0 export for CI forges;
* :mod:`repro.analysis.engine` — orchestration and the report consumed
  by ``repro analyze``.

Only the dependency-light pieces are imported eagerly; the engine (which
pulls in the machine models) is imported on use::

    from repro.analysis.engine import analyze_repo
"""

from __future__ import annotations

from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding, Location, Severity

__all__ = ["Baseline", "Finding", "Location", "Severity"]
