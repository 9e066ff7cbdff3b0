"""Query decomposition: the paper's core contribution.

Pipeline (:func:`decompose`): normalise (let-sinking) -> build the
d-graph -> compute valid decomposition points ``I(G)`` under the
strategy's insertion conditions -> filter to interesting points
``I'(G)`` -> insert ``XRPCExpr`` nodes -> (for by-fragment and
by-projection) apply distributed code motion.

Strategies:

* :data:`Strategy.DATA_SHIPPING` — no decomposition; remote documents
  are fetched whole (the W3C-standard baseline the paper argues
  against).
* :data:`Strategy.BY_VALUE` — conservative decomposition under
  pass-by-value messages (Section IV).
* :data:`Strategy.BY_FRAGMENT` — relaxed conditions justified by the
  pass-by-fragment message format and Bulk RPC (Section V).
* :data:`Strategy.BY_PROJECTION` — further relaxed conditions justified
  by runtime XML projection (Section VI).
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(globals(), {
    ".strategy": "AUTO Strategy DecompositionResult DecompositionCandidates "
                 "decompose prepare realize strategy_label",
    ".conditions": "valid_decomposition_points is_valid_dpoint "
                   "MIXER_RULES_BY_VALUE MIXER_RULES_BY_FRAGMENT",
    ".points": "interesting_points select_insertions InsertionPlan",
    ".rewrite": "insert_xrpc",
    ".code_motion": "apply_code_motion",
})
