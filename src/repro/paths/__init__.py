"""Projection paths (Table V) and the path analysis of Section VI-A.

This package derives, for every ``XRPCExpr`` in a decomposed query:

* per-parameter *relative* used/returned paths
  (``Urel(vparam)``/``Rrel(vparam)``) — evaluated against the actual
  parameter values at call time to drive request-message projection;
* result used/returned paths (``Urel(vxrpc)``/``Rrel(vxrpc)``) — sent
  inside the request's ``projection-paths`` element so the remote peer
  can project the response.
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(globals(), {
    ".relpath": "RelPath RelStep parse_rel_path CompiledPaths compile_paths",
    ".analysis": "ProjectionSpec PathSets analyze_module",
})
