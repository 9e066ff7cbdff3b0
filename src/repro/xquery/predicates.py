"""Predicates: which need their position, and which an index answers.

A predicate is a loop over its candidates: the evaluator lifts it over
a frame with one row per candidate, the candidate its focus (see
:mod:`repro.xquery.evaluator`). This module decides, once per
``Step``, how much of that loop is needed:

* :func:`position_free` — a predicate whose value is a boolean (or a
  node sequence) and which reads no ``position()`` / ``last()`` keeps a
  candidate whatever its position, so it filters the union of every
  context's candidates in one pass (and ``//T[p]`` may run as one
  ``descendant::T[p]`` scan); any other predicate is lifted over each
  context's candidates in axis order;
* :class:`Probe` — a comparison a value index answers (``child::T op
  literal``, ``@a op literal``, ``. op literal``, and ``$var`` or slot
  right-hand sides resolved at filter time), applied
  **set-at-a-time**: one :class:`~repro.xmldb.values.ValueIndex` range
  scan, intersected with the step's candidate pre array through the
  parent pointers / subtree intervals — no per-candidate work at all.
  Every other position-free predicate (``and``, ``or``, ``not()``, a
  bare path) is lifted over the candidates.

Probes cannot raise type errors the per-candidate loop would not:
node-derived operands are untyped atomics, which pair with every atom
type general comparison accepts (see ``xdm._comparable_pair``), and
probe values of unsupported types (booleans) make the probe bail to the
loop at filter time instead of guessing.

The recognisers at the bottom (:func:`conjunction_members`,
:func:`literal_probe`) are shared with the cluster router (shard-skip
probing).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from repro.xmldb import kernels
from repro.xmldb.node import KIND_ATTRIBUTE, KIND_ELEMENT
from repro.xmldb.values import value_index
from repro.xquery.ast import (
    ComparisonExpr, ContextItemExpr, Expr, FunCall, Literal, LiteralSlot,
    LogicalExpr, PathExpr, VALUE_COMPARISONS, VarRef, XRPCExpr,
)
from repro.xquery.functions import builtins_in
from repro.xquery.xdm import UntypedAtomic, atomize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.xmldb.document import Document
    from repro.xquery.context import DynamicContext

#: Mirror of each comparison operator with its operands swapped
#: (``40 > age``  ≡  ``age < 40``).
FLIPPED_OPS = {"=": "=", "!=": "!=", "<": ">", "<=": ">=",
               ">": "<", ">=": "<="}

#: Selector axes a Probe can intersect set-at-a-time.
_PROBE_AXES = frozenset({"self", "child", "attribute", "descendant"})

#: Step axes whose name test may select elements *and* attributes.
_EITHER_KIND_AXES = frozenset({"self", "ancestor-or-self"})

#: Built-ins whose value is a boolean, and those that read the context
#: position or size.
_ANSWERS_BOOLEAN = builtins_in("boolean")
_READS_POSITION = builtins_in("positional")


def _is_name_test(test: str) -> bool:
    return test != "*" and not test.endswith("()")


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


class Probe(NamedTuple):
    """An index-answerable predicate: ``axis::name op rhs`` from the
    anchor, applied set-at-a-time.

    ``axis == "self"`` probes the anchor node itself (``name`` empty;
    the step's own test supplies the column). The right-hand side is
    ``literal``, or one of two run-time operands resolved at filter
    time: the variable ``var``, or what the run's binding holds for
    the prepared query's ``slot``.
    """

    axis: str
    name: str
    op: str
    literal: object = None
    var: str | None = None
    slot: int | None = None

    def key(self, step_axis: str, step_test: str) -> str | None:
        """The value-index column this probe reads, given the step the
        predicate hangs off; None when the step shape can't supply one
        (``self`` probes need a concrete name test, and a step axis
        that says whether it names elements or attributes — ``self``
        and ``ancestor-or-self`` pass attribute contexts through)."""
        if self.axis == "attribute":
            return "@" + self.name
        if self.axis != "self":
            return self.name
        if not _is_name_test(step_test) or step_axis in _EITHER_KIND_AXES:
            return None
        return "@" + step_test if step_axis == "attribute" else step_test

    def filter(self, doc: "Document", pres: list[int], step_axis: str,
               step_test: str, env: "DynamicContext") -> list[int] | None:
        """Candidate pres the probe keeps; None to signal the caller to
        loop over the candidates instead (unsupported runtime value
        types, un-keyable self probes)."""
        key = self.key(step_axis, step_test)
        if key is None:
            return None
        vindex = value_index(doc)
        if self.var is None:
            matched = vindex.probe(key, self.op, self.literal
                                   if self.slot is None
                                   else env.binding.literals[self.slot])
        else:
            matched = probe_atoms(vindex, key, self.op,
                                  atomize(env.lookup(self.var)))
        if matched is None:
            return None
        return _intersect(self.axis, doc, pres, matched)


def _intersect(axis: str, doc: "Document", candidates: Sequence[int],
               matched: Sequence[int]) -> Sequence[int]:
    """Candidates related to a matched node through ``axis``.

    Both inputs are sorted duplicate-free pre columns, so the self
    case is one sorted-set intersection kernel and the others are
    column-at-a-time sweeps."""
    if not matched:
        return kernels.pre_array()
    if axis == "self":
        return kernels.intersect_sorted(candidates, matched)
    if axis in ("child", "attribute"):
        owners = set(kernels.gather(doc.parents, matched))
        return kernels.pre_array(pre for pre in candidates
                                 if pre in owners)
    # descendant: any matched pre inside the candidate's subtree.
    sizes = doc.sizes
    return kernels.pre_array(
        pre for pre in candidates
        if kernels.any_in_interval(matched, pre, pre + sizes[pre]))


def _relative_steps(expr: Expr, axes: frozenset[str] | None = None
                    ) -> tuple[tuple[str, str], ...] | None:
    """``(axis, test)`` chain of a predicate-free relative path rooted
    at the context item (over ``axes`` only, when given); None
    otherwise."""
    if not (isinstance(expr, PathExpr)
            and isinstance(expr.input, ContextItemExpr)):
        return None
    out: list[tuple[str, str]] = []
    for step in expr.steps:
        if step.predicates or (axes is not None and step.axis not in axes):
            return None
        out.append((step.axis, step.test))
    return tuple(out)


# ---------------------------------------------------------------------------
# Predicate compilation entry points
# ---------------------------------------------------------------------------


def compile_predicate(expr: Expr) -> Probe | None:
    """The probe of an index-answerable predicate — a comparison
    between a one-step selector and a literal, variable or slot — or
    None (the evaluator lifts it over the step's candidates).

    A probe is position-free by construction: applying it to the
    union of all context nodes' candidates is equivalent to the
    per-context definition.
    """
    if not isinstance(expr, ComparisonExpr) \
            or expr.op not in VALUE_COMPARISONS:
        return None
    selector = _probe_selector(expr.left)
    rhs, op = expr.right, expr.op
    if selector is None:
        selector = _probe_selector(expr.right)
        rhs, op = expr.left, FLIPPED_OPS[expr.op]
        if selector is None:
            return None
    axis, name = selector
    if isinstance(rhs, Literal):
        value = rhs.value
        if isinstance(value, bool) or not isinstance(value,
                                                     (str, int, float)):
            return None
        return Probe(axis=axis, name=name, op=op, literal=value)
    if isinstance(rhs, VarRef):
        return Probe(axis=axis, name=name, op=op, var=rhs.name)
    if isinstance(rhs, LiteralSlot):
        return Probe(axis=axis, name=name, op=op, slot=rhs.index)
    return None


def focus_nodes(expr: Expr) -> Iterator[Expr]:
    """``expr`` and the sub-expressions evaluated with its focus: not
    step predicates (each has its own) nor an XRPC body (evaluated at
    the peer)."""
    yield expr
    if isinstance(expr, PathExpr):
        children = [expr.input]
    elif isinstance(expr, XRPCExpr):
        children = [expr.dest] + [param.value for param in expr.params]
    else:
        children = expr.child_exprs()
    for child in children:
        yield from focus_nodes(child)


def position_free(expr: Expr) -> bool:
    """True when a predicate keeps a candidate by a boolean (or a node
    sequence) that cannot depend on the candidate's position: no
    ``position()`` / ``last()`` read with this focus. Filtering the
    union of every context's candidates then is the per-context
    definition — one pass for all contexts, and ``//T[p]`` may run as
    ``descendant::T[p]``."""
    if not (isinstance(expr, (ComparisonExpr, LogicalExpr, PathExpr))
            or isinstance(expr, FunCall) and expr.name in _ANSWERS_BOOLEAN):
        return False
    return not any(isinstance(node, FunCall) and not node.args
                   and node.name in _READS_POSITION
                   for node in focus_nodes(expr))


def _probe_selector(expr: Expr) -> tuple[str, str] | None:
    """``(axis, name)`` of a single-step probe selector: ``.`` or a
    one-step named relative path over child/attribute/descendant."""
    if isinstance(expr, ContextItemExpr):
        return ("self", "")
    steps = _relative_steps(expr, _PROBE_AXES)
    if steps is None or len(steps) != 1:
        return None
    axis, test = steps[0]
    if axis == "self" or not _is_name_test(test):
        return None
    return (axis, test)


# ---------------------------------------------------------------------------
# Set-at-a-time FLWOR filters (probe + upward chain mapping)
# ---------------------------------------------------------------------------


_CHAIN_AXES = frozenset({"child", "attribute", "descendant"})


def dependent_chain(expr: Expr, var: str
                    ) -> tuple[tuple[tuple[str, str], ...], str] | None:
    """``(steps, probe key)`` of a loop-dependent comparison side
    ``$var/step/.../named-step``: a predicate-free chain of named
    child/attribute/descendant steps; the last step's name is the
    value-index column every reached node lives in."""
    if not (isinstance(expr, PathExpr) and isinstance(expr.input, VarRef)
            and expr.input.name == var and expr.steps):
        return None
    out: list[tuple[str, str]] = []
    for step in expr.steps:
        if step.predicates or step.axis not in _CHAIN_AXES \
                or not _is_name_test(step.test):
            return None
        out.append((step.axis, step.test))
    axis, test = out[-1]
    key = "@" + test if axis == "attribute" else test
    return tuple(out), key


def probe_atoms(vindex, key: str, op: str,
                atoms: list) -> list[int] | None:
    """Union of value-index probes for every atom (the existential
    general comparison); None when an atom's type can't be probed
    with exact semantics (booleans, exotic types)."""
    matched: set[int] = set()
    single: list[int] | None = None
    for atom in atoms:
        if isinstance(atom, bool):
            return None
        if isinstance(atom, UntypedAtomic):
            value: object = str(atom)
        elif isinstance(atom, (str, int, float)):
            value = atom
        else:
            return None
        result = vindex.probe(key, op, value)
        if result is None:
            return None
        if single is None and not matched:
            single = result
        else:
            if single is not None:
                matched.update(single)
                single = None
            matched.update(result)
    if single is not None:
        return single
    return sorted(matched)


def chain_candidates(doc: "Document",
                     steps: tuple[tuple[str, str], ...],
                     matched: Sequence[int]) -> set[int]:
    """All pres X such that following ``steps`` from X reaches some
    pre in ``matched`` — the inverse image of a probe result through
    the dependent chain (upward parent/ancestor mapping with name and
    kind checks at every intermediate step)."""
    current = set(matched)
    parents = doc.parents
    kinds = doc.kinds
    names = doc.names
    for index in range(len(steps) - 1, -1, -1):
        axis = steps[index][0]
        if axis == "descendant":
            anchors = set()
            for pre in current:
                cursor = parents[pre]
                while cursor >= 0:
                    anchors.add(cursor)
                    cursor = parents[cursor]
        else:  # child / attribute: one hop up
            anchors = {parents[pre] for pre in current if parents[pre] >= 0}
        if index > 0:
            prev_axis, prev_test = steps[index - 1]
            # The node this level's step started from must itself be a
            # result of the previous step: right kind, right name.
            want_kind = (KIND_ATTRIBUTE if prev_axis == "attribute"
                         else KIND_ELEMENT)
            anchors = {pre for pre in anchors
                       if kinds[pre] == want_kind
                       and names[pre] == prev_test}
        current = anchors
        if not current:
            break
    return current


# ---------------------------------------------------------------------------
# Shared recognisers (cluster shard skipping)
# ---------------------------------------------------------------------------


def conjunction_members(expr: Expr) -> list[Expr]:
    """Flatten a chain of ``and`` into its conjuncts."""
    if isinstance(expr, LogicalExpr) and expr.op == "and":
        return (conjunction_members(expr.left)
                + conjunction_members(expr.right))
    return [expr]


def literal_probe(expr: Expr, var: str | None = None,
                  pure: bool = False) -> tuple[str, str, object] | None:
    """``(key, op, literal)`` of a comparison between a relative path
    and a literal — the *necessary condition* recognisers build on. A
    prepared query's slot is no literal here: bind the body first.

    ``var`` anchors the path at ``$var`` instead of the context item.
    Unlike :func:`compile_predicate`, the path may have any number of
    steps (with arbitrary axes): the probe keys on the *last* step's
    name, which every result node must carry, so "no node with that
    key satisfies the comparison" soundly implies "the comparison is
    false everywhere". The key is ``@name`` when the last step walks
    the attribute axis.

    ``pure`` additionally requires every path step to be
    predicate-free, making the whole conjunct provably *raise-free*
    (node atoms are untyped and pair with any literal; predicate-free
    steps over nodes cannot fail) — the guarantee shard skipping needs
    to replace an evaluation with "nothing" without hiding an error
    the evaluation would have raised.
    """
    if not isinstance(expr, ComparisonExpr) \
            or expr.op not in VALUE_COMPARISONS:
        return None
    for path_side, other, op in ((expr.left, expr.right, expr.op),
                                 (expr.right, expr.left,
                                  FLIPPED_OPS[expr.op])):
        if not isinstance(other, Literal):
            continue
        value = other.value
        if isinstance(value, bool) or not isinstance(value,
                                                     (str, int, float)):
            continue
        key = _anchored_path_key(path_side, var, pure)
        if key is not None:
            return (key, op, value)
    return None


def _anchored_path_key(expr: Expr, var: str | None,
                       pure: bool) -> str | None:
    if not isinstance(expr, PathExpr) or not expr.steps:
        return None
    if var is None:
        if not isinstance(expr.input, ContextItemExpr):
            return None
    elif not (isinstance(expr.input, VarRef) and expr.input.name == var):
        return None
    if pure and any(step.predicates for step in expr.steps):
        return None
    last = expr.steps[-1]
    if not _is_name_test(last.test):
        return None
    return "@" + last.test if last.axis == "attribute" else last.test


__all__ = [
    "Probe", "compile_predicate",
    "conjunction_members", "literal_probe", "position_free",
]
