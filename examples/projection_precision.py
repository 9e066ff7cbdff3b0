"""Runtime vs compile-time XML projection precision (Figures 10-11).

Projects the XMark people document for the benchmark's parameter
($t/@id of persons with age < 40) two ways:

* compile-time: from the path analysis's over-estimate — every person
  with its age (predicates are invisible statically);
* runtime (this paper's technique): from the actual filtered person
  sequence at call time.

Run:  python examples/projection_precision.py
"""

from repro.paths.relpath import parse_rel_path
from repro.xmark import XMarkConfig, generate_people
from repro.xmldb.projection import project
from repro.xmldb.serializer import serialize, serialize_node
from repro.xquery.context import DynamicContext
from repro.xquery.evaluator import Evaluator
from repro.xquery.parser import parse_query


def persons(doc, query_text):
    module = parse_query(query_text)
    env = DynamicContext(resolve_doc=lambda uri: doc)
    return Evaluator(module).evaluate(module.body, env)


def project_for(doc, context_nodes):
    used = list(context_nodes)
    for path in (parse_rel_path("attribute::id"),):
        used.extend(path.evaluate(context_nodes))
    return project(doc, [node.pre for node in used], [])


def main() -> None:
    import os

    override = os.environ.get("REPRO_EXAMPLE_SCALE")
    scales = ((float(override),) if override
              else (0.0025, 0.005, 0.01, 0.02))
    print(f"{'scale':>8s} {'document':>10s} {'compile-time':>13s} "
          f"{'runtime':>10s} {'precision':>10s}")
    for scale in scales:
        doc = generate_people(XMarkConfig(scale=scale))
        doc_size = len(serialize(doc))

        everyone = persons(doc, 'doc("u")//person')
        compile_time = project_for(doc, everyone)
        compile_size = len(serialize_node(compile_time.doc.root))

        young = persons(doc, 'doc("u")//person[age < 40]')
        runtime = project_for(doc, young)
        runtime_size = len(serialize_node(runtime.doc.root))

        print(f"{scale:8.4f} {doc_size/1024:8.1f}KB "
              f"{compile_size/1024:11.1f}KB {runtime_size/1024:8.1f}KB "
              f"{compile_size/runtime_size:9.1f}x")

    print("\nRuntime projection starts from the *filtered* sequence, so"
          "\nits projected documents shrink with the predicate's"
          "\nselectivity — the paper's Figure 10 reports ~5x.")


if __name__ == "__main__":
    main()
