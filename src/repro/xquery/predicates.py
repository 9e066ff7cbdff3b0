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
* :class:`IndexPlan` — a position-free conjunction of value-index
  probes (``child::T op literal``, ``@a op literal``, ``. op
  literal``, bare existence tests, and ``$var`` right-hand sides
  resolved at filter time), applied **set-at-a-time**: one
  :class:`~repro.xmldb.values.ValueIndex` range scan per probe,
  intersected with the step's candidate pre array through the parent
  pointers / subtree intervals — no per-candidate work at all.

Probe plans cannot raise type errors the per-candidate loop would not:
node-derived operands are untyped atomics, which pair with every atom
type general comparison accepts (see ``xdm._comparable_pair``), and
probe values of unsupported types (booleans) make the plan bail to the
loop at filter time instead of guessing.

The recognisers at the bottom (:func:`conjunction_members`,
:func:`literal_probe`) are shared with the cluster router (shard-skip
probing).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.xmldb import kernels
from repro.xmldb.node import KIND_ATTRIBUTE, KIND_ELEMENT
from repro.xmldb.values import coerce_number, value_index
from repro.xquery.ast import (
    ComparisonExpr, ContextItemExpr, Expr, FunCall, Literal, LiteralSlot,
    LogicalExpr, PathExpr, VALUE_COMPARISONS, VarRef, XRPCExpr,
)
from repro.xquery.xdm import UntypedAtomic, atomize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.xmldb.document import Document
    from repro.xmldb.index import StructuralIndex
    from repro.xquery.context import DynamicContext

#: Mirror of each comparison operator with its operands swapped
#: (``40 > age``  ≡  ``age < 40``).
FLIPPED_OPS = {"=": "=", "!=": "!=", "<": ">", "<=": ">=",
               ">": "<", ">=": "<="}

#: Selector axes an IndexPlan can intersect set-at-a-time.
_PROBE_AXES = frozenset({"self", "child", "attribute", "descendant"})

#: Step axes whose name test may select elements *and* attributes.
_EITHER_KIND_AXES = frozenset({"self", "ancestor-or-self"})

#: Built-ins whose value is a boolean.
_BOOLEAN_CALLS = frozenset({"not", "exists", "empty", "boolean", "true",
                            "false", "contains", "starts-with",
                            "ends-with", "deep-equal"})


def _is_name_test(test: str) -> bool:
    return test != "*" and not test.endswith("()")


# ---------------------------------------------------------------------------
# Probes (index plans)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """One indexable conjunct: ``axis::name op rhs`` from the anchor.

    ``axis == "self"`` probes the anchor node itself (``name`` empty;
    the step's own test supplies the column). ``op == "exists"`` is a
    bare existence test with no right-hand side. The right-hand side is
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


class IndexPlan:
    """A conjunction of :class:`Probe` filters, applied set-at-a-time."""

    __slots__ = ("probes",)

    def __init__(self, probes: tuple[Probe, ...]):
        self.probes = probes

    def filter(self, doc: "Document", sindex: "StructuralIndex",
               pres: list[int], step_axis: str, step_test: str,
               env: "DynamicContext") -> list[int] | None:
        """Candidate pres surviving every probe; None to signal the
        caller to loop over the candidates instead (unsupported
        runtime value types, un-keyable self probes)."""
        vindex = value_index(doc)
        kept = pres
        for probe in self.probes:
            if not kept:
                return kept
            matched = self._matched_pres(probe, doc, sindex, vindex,
                                         step_axis, step_test, env)
            if matched is None:
                return None
            kept = _intersect(probe.axis, doc, kept, matched)
        return kept

    def _matched_pres(self, probe: Probe, doc: "Document",
                      sindex: "StructuralIndex", vindex,
                      step_axis: str, step_test: str,
                      env: "DynamicContext") -> list[int] | None:
        if probe.op == "exists":
            if probe.axis == "attribute":
                return vindex.attribute_pres(probe.name)
            return sindex.tag_pres.get(probe.name, [])
        key = probe.key(step_axis, step_test)
        if key is None:
            return None
        if probe.var is None:
            return vindex.probe(
                key, probe.op, probe.literal if probe.slot is None
                else env.binding.literals[probe.slot])
        return probe_atoms(vindex, key, probe.op,
                           atomize(env.lookup(probe.var)))


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


def compile_predicate(expr: Expr) -> IndexPlan | None:
    """The probe plan of an index-answerable predicate, or None (the
    evaluator lifts it over the step's candidates).

    Plans are position-free by construction: applying them to the
    union of all context nodes' candidates is equivalent to the
    per-context definition.
    """
    probes = _index_probes(expr)
    return None if probes is None else IndexPlan(tuple(probes))


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
            or isinstance(expr, FunCall) and expr.name in _BOOLEAN_CALLS):
        return False
    return not any(isinstance(node, FunCall) and not node.args
                   and node.name in ("position", "last")
                   for node in focus_nodes(expr))


def _index_probes(expr: Expr) -> list[Probe] | None:
    """The probe conjunction of an index-answerable predicate."""
    if isinstance(expr, LogicalExpr) and expr.op == "and":
        left = _index_probes(expr.left)
        right = _index_probes(expr.right)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(expr, ComparisonExpr):
        probe = _comparison_probe(expr)
        return None if probe is None else [probe]
    selector = _probe_selector(expr)
    if selector is not None and selector[0] != "self":
        axis, name = selector
        return [Probe(axis=axis, name=name, op="exists")]
    return None


def _comparison_probe(expr: ComparisonExpr) -> Probe | None:
    if expr.op not in VALUE_COMPARISONS:
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
# Hash-join support (FLWOR value equality)
# ---------------------------------------------------------------------------


class EqualityMatcher:
    """O(1)-per-atom membership for one side of a general ``=``.

    Built once from the loop-invariant side's atomized value; each
    iteration's dependent atoms are then answered from hash sets
    instead of re-scanning the invariant sequence. ``match_atoms``
    returns None when an atom pair *could* diverge from
    ``general_compare``'s raise-or-match scan order (typed strings
    against numbers and vice versa) — the caller falls back to the
    exact nested scan for that iteration.
    """

    __slots__ = ("strings", "nums_typed", "nums_untyped", "ebvs",
                 "has_plain", "has_num", "all_untyped")

    @classmethod
    def build(cls, atoms: list) -> "EqualityMatcher | None":
        """A matcher for the invariant side, or None when its atom mix
        (booleans, exotic types) isn't worth special-casing."""
        matcher = cls()
        strings: set[str] = set()
        nums_typed: set[float] = set()
        nums_untyped: set[float] = set()
        ebvs: set[bool] = set()
        has_plain = False
        all_untyped = True
        for atom in atoms:
            if isinstance(atom, bool):
                return None
            if isinstance(atom, UntypedAtomic):
                strings.add(str(atom))
                ebvs.add(len(atom) > 0)
                number = coerce_number(atom)
                if not isnan(number):
                    nums_untyped.add(number)
            elif isinstance(atom, str):
                strings.add(atom)
                has_plain = True
                all_untyped = False
            elif isinstance(atom, (int, float)):
                number = float(atom)
                if not isnan(number):
                    nums_typed.add(number)
                all_untyped = False
            else:
                return None
        matcher.strings = strings
        matcher.nums_typed = nums_typed
        matcher.nums_untyped = nums_untyped
        matcher.ebvs = ebvs
        matcher.has_plain = has_plain
        matcher.has_num = bool(nums_typed)
        matcher.all_untyped = all_untyped
        return matcher

    def _match_atom(self, atom) -> bool | None:
        if isinstance(atom, UntypedAtomic):
            if str(atom) in self.strings:
                return True
            if self.has_num:
                number = coerce_number(atom)
                return not isnan(number) and number in self.nums_typed
            return False
        if isinstance(atom, bool):
            # boolean-vs-(string|number) raises in the naive scan.
            if not self.all_untyped:
                return None
            return atom in self.ebvs
        if isinstance(atom, str):
            if self.has_num:
                return None           # typed string vs number raises
            return atom in self.strings
        if isinstance(atom, (int, float)):
            if self.has_plain:
                return None           # number vs typed string raises
            number = float(atom)
            if isnan(number):
                return False
            return number in self.nums_typed or number in self.nums_untyped
        return None

    def match_atoms(self, atoms: list) -> bool | None:
        """Existential match over the dependent side's atoms; None when
        any atom needs the exact nested scan (type-error parity)."""
        for atom in atoms:
            verdict = self._match_atom(atom)
            if verdict is None:
                return None
            if verdict:
                return True
        return False


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
    Unlike :func:`_comparison_probe`, the path may have any number of
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
    "EqualityMatcher", "IndexPlan", "Probe", "compile_predicate",
    "conjunction_members", "literal_probe", "position_free",
]
