"""The paper's Section VII figures as one pinned file.

``python benchmarks/figures.py`` computes every deterministic series of
Figures 7-11 and the four ablations, prints them, and rewrites
``figures.json`` and README's generated section; tier-1 holds both
exact (``tests/integration/test_figures.py``). Times are simulated
seconds added up with ``+`` (never ``sum()``); wall time is not stored.
"""
# ruff: noqa: E402

import json
import random
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [path for path in (str(ROOT), str(ROOT / "src"))
                if path not in sys.path]

from benchmarks.conftest import print_table
from repro import (Evaluator, Federation, Strategy, TimeBreakdown,
                   parse_query, sequences_deep_equal, serialize_sequence)
from repro.paths.relpath import parse_rel_path
from repro.workloads import (BENCHMARK_QUERY, build_federation,
                             build_mixed_federation, mixed_tenant_jobs,
                             run_all_strategies, run_strategy)
from repro.xmark import XMarkConfig, generate_people
from repro.xmldb.projection import project
from repro.xmldb.serializer import serialize_node
from repro.xquery.context import DynamicContext

FIGURES_JSON = ROOT / "benchmarks" / "figures.json"
README = ROOT / "README.md"
BEGIN = "<!-- begin: generated by python benchmarks/figures.py -->\n\n"
END = "<!-- end: generated -->\n"
#: XMark factors 0.1 .. 1.6 (10-160 MB documents) at laptop scale: the
#: same x2 geometric sweep at 13-200 KB. Only relative behaviour counts.
SCALES = (0.0025, 0.005, 0.01, 0.02, 0.04)
#: Figures 10-11 project the people document alone, at the first four.
PROJECTION_SCALES = SCALES[:-1]
ABLATION_SCALE = 0.01
#: The planner's tenant mix: twelve jobs of three shapes at scale 0.01.
MIXED_SCALE = 0.01
STRATEGY_ORDER = (Strategy.DATA_SHIPPING, Strategy.BY_VALUE,
                  Strategy.BY_FRAGMENT, Strategy.BY_PROJECTION)


def strategy_cells(scale: float) -> dict:
    """Figures 7-9 at one scale: the four strategies, one federation."""
    runs = run_all_strategies(scale)
    shipped = runs[Strategy.DATA_SHIPPING]
    cells: dict = {"document_bytes_total": shipped.total_document_bytes}
    for strategy in STRATEGY_ORDER:
        stats, items = runs[strategy].stats, runs[strategy].result.items
        cells[strategy.value] = {
            **{name: getattr(stats, name) for name in (
                "total_transferred_bytes", "message_bytes", "document_bytes",
                "messages", "documents_shipped")},
            **stats.times.as_dict(), "total": stats.times.total,
            "items": len(items), "equals_data_shipping":
                sequences_deep_equal(shipped.result.items, items)}
    # The cost-based planner, cold, on a federation of its own.
    auto = build_federation(scale).run(BENCHMARK_QUERY, at="local",
                                       strategy="auto")
    plan = auto.stats.plan
    cells["auto"] = {"chosen_plan": plan.strategy,
                     "estimated_s": plan.estimated_s,
                     "actual_s": auto.stats.times.total,
                     "estimated_bytes": plan.estimated_bytes,
                     "actual_bytes": auto.stats.total_transferred_bytes}
    return cells


def mixed_tenant_cells() -> dict:
    """The planner's tenant mix (semijoin, tiny lookup, cross query):
    each strategy's simulated total over the same twelve jobs."""
    def total(strategy) -> float:
        federation, seconds = build_mixed_federation(MIXED_SCALE), 0.0
        for job in mixed_tenant_jobs(clients=6, rounds=2):
            seconds += federation.run(job.query, at=job.at,
                                      strategy=strategy).stats.times.total
        return seconds

    return {label: total(strategy) for label, strategy in (
        *((s.value, s) for s in STRATEGY_ORDER), ("auto", "auto"))}


def projection(doc, runtime: bool):
    """Algorithm 1 over the persons, their ids and what they test: the
    runtime-filtered persons, or (compile-time) every person and the
    age it tests, as path analysis cannot see a predicate's selectivity."""
    module = parse_query(f'doc("u")//person{"[age < 40]" * runtime}')
    persons = Evaluator(module).evaluate(
        module.body, DynamicContext(resolve_doc=lambda uri: doc))
    paths = ["attribute::id"] + [
        "child::age", "child::age/descendant::text()"] * (not runtime)
    return project([*persons, *(node for path in paths for node
                                in parse_rel_path(path).evaluate(persons))],
                   [])


def projection_cells(scale: float) -> dict:
    """Figures 10-11's counted side at one scale."""
    doc = generate_people(XMarkConfig(scale=scale))
    cells = {"total_nodes": len(doc)}
    for name, runtime in (("compile", False), ("runtime", True)):
        projected = projection(doc, runtime)
        cells[f"{name}_kept"] = projected.kept
        cells[f"{name}_bytes"] = len(
            serialize_node(projected.doc.root).encode())
    return cells


def ancestry_pairs() -> list:
    doc = generate_people(XMarkConfig(scale=ABLATION_SCALE))
    pick = random.Random(7).randrange
    return [(doc.node(pick(len(doc))), doc.node(pick(len(doc))))
            for _ in range(3000)]


def walk_ancestry(pairs) -> dict:
    """Ancestry by pointer-chasing parent walks."""
    hits = steps = 0
    for a, b in pairs:
        parent = b.parent()
        while parent is not None and parent != a:
            steps, parent = steps + 1, parent.parent()
        hits += parent is not None
    return {"hits": hits, "parent_steps": steps}


def ablation_cells() -> dict:
    def with_and_without(fed, query, option, cells) -> dict:
        return {variant: cells(fed.run(query, at="local", **{option: flag},
                                       strategy=Strategy.BY_FRAGMENT))
                for variant, flag in (("with", True), ("without", False))}

    bulk = Federation()
    for peer in ("peer1", "local"):
        bulk.add_peer(peer)
    # A local anchor pins the root: only let-sinking ships the doc().
    sinking = build_federation(ABLATION_SCALE)
    sinking.peer("local").store("anchor.xml", "<m><n/></m>")
    pairs = ancestry_pairs()
    return {
        "bulk_rpc": with_and_without(bulk, (
            "declare function probe($i as xs:integer) as xs:integer "
            '{ $i * 2 }; for $i in (1 to 20) return '
            'execute at {"peer1"} { probe($i) }'), "bulk_rpc", lambda r: {
            "messages": r.stats.messages,
            "message_bytes": r.stats.message_bytes,
            "network_s": r.stats.times.network}),
        "code_motion": with_and_without(
            build_federation(ABLATION_SCALE), BENCHMARK_QUERY, "code_motion",
            lambda r: {"message_bytes": r.stats.message_bytes}),
        "let_sinking": with_and_without(sinking, (
            'let $c := doc("xrpc://peer2/auctions.xml") return (count('
            "$c/child::site/child::open_auctions/child::open_auction), "
            'count(doc("anchor.xml")/child::m))'), "let_sinking", lambda r: {
                "documents_shipped": r.stats.documents_shipped,
                "total_bytes": r.stats.total_transferred_bytes,
                "answer": serialize_sequence(r.items)}),
        "encoding": {"pointer walk": walk_ancestry(pairs),
                     "pre/size interval": {"hits": [
                         a.is_ancestor_of(b) for a, b in pairs].count(True)}}}


def compute() -> dict:
    """Every pinned series, JSON-shaped (scale keys are ``str(scale)``)."""
    return {"figures_7_9": {str(s): strategy_cells(s) for s in SCALES},
            "figures_10_11": {str(s): projection_cells(s)
                              for s in PROJECTION_SCALES},
            "ablations": ablation_cells(),
            "mixed_tenants_s": mixed_tenant_cells()}


def render(figures: dict) -> str:
    """README's generated section: the pinned file as markdown tables."""
    def table(title: str, header: list, rows) -> str:
        return "\n".join([f"**{title}**", "", "| " + " | ".join(header) +
                          " |", "|---|" + "---:|" * (len(header) - 1)] +
                         ["| " + " | ".join(map(str, row)) + " |"
                          for row in rows]) + "\n\n"

    def text(cells: dict) -> str:
        return ", ".join(
            f"{key[:-2].replace('_', ' ')} {value * 1000:.2f} ms"
            if key.endswith("_s") else f"{key.replace('_', ' ')} {value}"
            for key, value in cells.items())

    def ms(seconds: float) -> str:
        return f"{seconds * 1000:.2f}"

    stack = (*TimeBreakdown().as_dict(), "total")
    fixed, mixed = [s.value for s in STRATEGY_ORDER], figures["mixed_tenants_s"]
    return BEGIN + table(
        "Figures 7-9: per query, by document size and strategy (simulated ms)",
        ["docs total", "strategy", "KB on wire", "messages", "docs", *stack],
        [[f"{row['document_bytes_total'] / 1024:.0f} KB", s.value,
          f"{cell['total_transferred_bytes'] / 1024:.1f}", cell["messages"],
          cell["documents_shipped"], *(f"{cell[c] * 1000:.2f}" for c in stack)]
         for row in (figures["figures_7_9"][str(x)] for x in SCALES)
         for s in STRATEGY_ORDER for cell in (row[s.value],)]) + table(
        "Figures 10-11: the people document projected",
        ["scale", "precision", "counted cells"],
        [[s, f"{c['compile_bytes'] / c['runtime_bytes']:.1f}x", text(c)]
         for s, c in figures["figures_10_11"].items()]) + table(
        f"Ablations (scale {ABLATION_SCALE}; 20 calls; 3000 ancestry checks)",
        ["ablation", "variant", "counted cells"],
        [[name.replace("_", " "), variant, text(cells)]
         for name, variants in figures["ablations"].items()
         for variant, cells in variants.items()]) + table(
        "Cost-based planner: a cold `auto` per scale (simulated ms), and "
        f"the mixed tenant workload's total (scale {MIXED_SCALE}, 12 jobs)",
        ["workload", "auto chose", "auto estimate", "auto", "best fixed"],
        [[f"Figures 7-9, scale {s}", auto["chosen_plan"],
          ms(auto["estimated_s"]), ms(auto["actual_s"]),
          ms(min(row[x]["total"] for x in fixed))]
         for s in SCALES for row in (figures["figures_7_9"][str(s)],)
         for auto in (row["auto"],)] + [[
            "mixed tenants", "per query", "", ms(mixed["auto"]),
            ms(min(mixed[x] for x in fixed))]]) + END


def diagnostics() -> None:
    """Wall-clock readings, best of three: printed, never stored."""
    pairs, fed = ancestry_pairs(), build_federation(SCALES[0])
    readings = [(f"Fig. 11 {kind} projection + serialise, scale {scale}",
                 lambda runtime=runtime, doc=generate_people(
                     XMarkConfig(scale=scale)):
                 serialize_node(projection(doc, runtime).doc.root))
                for scale in PROJECTION_SCALES for runtime, kind in (
                    (False, "compile-time"), (True, "runtime"))]
    readings += [
        ("pre/size interval ancestry, 3000 checks",
         lambda: [a.is_ancestor_of(b) for a, b in pairs]),
        ("pointer-walk ancestry, 3000 checks", lambda: walk_ancestry(pairs)),
        ("the four ablations, set-up included", ablation_cells)]
    readings += [(f"one {s.value} run, scale {SCALES[0]}",
                  lambda s=s: run_strategy(fed, s)) for s in STRATEGY_ORDER]
    print_table("Wall-clock diagnostics (ms; not pinned)", ["reading", "ms"], [
        [name, f"{min(timeit.repeat(fn, number=1, repeat=3)) * 1000:.2f}"]
        for name, fn in readings])


def main() -> None:
    pinned = json.dumps(compute(), indent=1, sort_keys=True) + "\n"
    FIGURES_JSON.write_text(pinned)
    section = render(json.loads(pinned))
    head, _, rest = README.read_text().partition(BEGIN)
    README.write_text(head + section + rest.partition(END)[2])
    print(section + "[figures] wrote benchmarks/figures.json and README.md")
    diagnostics()


if __name__ == "__main__":
    main()
