"""The decomposition pipeline on its own, without a federation.

``repro.decompose.decompose`` runs the paper's pipeline on a parsed
query for one strategy: normalise, build the d-graph, find the valid
decomposition points I(G) under the strategy's insertion conditions,
keep the interesting ones I'(G), and insert the XRPC calls. This prints
what each strategy finds for the paper's Table III query Q2 and the
query it rewrites Q2 into — Table IV's Qv2 / Qf2 / Qp2.

Run:  python examples/decomposition.py
"""

from repro import parse_query, pretty
from repro.decompose import Strategy, decompose

# Table III's Q2: grades in course42 of students whose tutor is also a
# student; students.xml is on peer A, course42.xml on peer B.
Q2 = """
(let $s := doc("xrpc://A/students.xml")/child::people/child::person,
     $c := doc("xrpc://B/course42.xml"),
     $t := $s[tutor = $s/name]
 for $e in $c/enroll/exam
 where $e/@id = $t/id
 return $e)/grade
"""


def main() -> None:
    module = parse_query(Q2)
    print("Q2:", Q2)
    for strategy in Strategy:
        result = decompose(module, strategy, local_host="local")
        print(f"--- {strategy.value}: |I(G)| = {len(result.dpoints)}, "
              f"|I'(G)| = {len(result.ipoints)} of "
              f"{len(result.graph.vertices)} d-graph vertices")
        for plan in result.plans:
            steps = ("" if plan.step_count is None
                     else f", first {plan.step_count} step(s)")
            print(f"    execute at {plan.host}: {pretty(plan.target)}{steps}")
        print("    rewritten:")
        for line in pretty(result.module).splitlines():
            print(f"      {line}")


if __name__ == "__main__":
    main()
