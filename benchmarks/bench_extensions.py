"""Extension experiments (Section 8 future thrusts + the [20]
companion), beyond the paper's own figures:

* E-X1 — almost-optimal scheduling (thrust 2): best-effort vs greedy
  on dags admitting no IC-optimal schedule;
* E-X2 — batched scheduling ([20]): exact optimum vs Hu vs
  Coffman-Graham round counts;
* E-X3 — communication-aware granularity (thrust 3): makespan vs
  coarsening level as the per-input transfer cost varies;
* E-X4 — structure recognition: certifying bare (label-scrambled)
  dags.
"""

import random

from repro.analysis import render_table
from repro.core import (
    ComputationDag,
    best_effort_schedule,
    coffman_graham_batches,
    find_ic_optimal_schedule,
    greedy_schedule,
    hu_batches,
    max_eligibility_profile,
    min_rounds_lower_bound,
    optimal_batches,
    quality_report,
    recognize,
    schedule_dag,
)
from repro.families import butterfly_net, mesh, prefix, trees
from repro.granularity.mesh_coarsen import mesh_block_cluster_map
from repro.sim import granularity_tradeoff

from _harness import write_report


def _random_dag(n, p, seed):
    rng = random.Random(seed)
    dag = ComputationDag(nodes=range(n), name=f"rand{seed}")
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                dag.add_arc(u, v)
    return dag


def test_almost_optimal_scheduling(benchmark):
    hard = ComputationDag(
        arcs=[("a", "w")]
        + [(s, t) for s in ("b", "c") for t in ("x", "y", "z")]
    )

    def run():
        return best_effort_schedule(hard)

    benchmark(run)

    rows = []
    n_no_opt = 0
    for seed in range(40):
        dag = _random_dag(7, 0.45, seed)
        if find_ic_optimal_schedule(dag) is not None:
            continue
        n_no_opt += 1
        ceiling = max_eligibility_profile(dag)
        be = quality_report(best_effort_schedule(dag), ceiling)
        gr = quality_report(greedy_schedule(dag), ceiling)
        rows.append(
            (
                f"rand{seed}",
                be.deficit,
                gr.deficit,
                f"{be.ratio:.3f}",
                f"{gr.ratio:.3f}",
                f"{be.area:.3f}",
                f"{gr.area:.3f}",
            )
        )
    report = render_table(
        [
            "dag (no IC-opt exists)",
            "BE deficit",
            "greedy deficit",
            "BE ratio",
            "greedy ratio",
            "BE area",
            "greedy area",
        ],
        rows,
        title="§8 thrust 2: almost-optimal (best-effort, BE) vs greedy on "
        f"the {n_no_opt}/40 random 7-node dags admitting no IC-optimal "
        "schedule",
    )
    better = sum(1 for r in rows if r[1] <= r[2])
    report += f"\nBE deficit <= greedy deficit on {better}/{len(rows)} dags"
    write_report("E-X1_almost_optimal", report)
    assert better == len(rows)


def test_batched_scheduling(benchmark):
    dag = mesh.out_mesh_dag(4)

    def run():
        return optimal_batches(dag, 3)

    benchmark(run)

    rows = []
    cases = [
        ("out-mesh d=3", mesh.out_mesh_dag(3)),
        ("out-tree d=3", trees.complete_out_tree(3).dag),
        ("in-tree d=3", trees.complete_in_tree(3).dag),
        ("butterfly B_2", butterfly_net.butterfly_dag(2)),
    ]
    for name, d in cases:
        for cap in (2, 3):
            opt = optimal_batches(d, cap, node_limit=16)
            hu = hu_batches(d, cap)
            cg = coffman_graham_batches(d, cap)
            rows.append(
                (
                    name,
                    cap,
                    min_rounds_lower_bound(d, cap),
                    opt.rounds,
                    hu.rounds,
                    cg.rounds,
                )
            )
    report = render_table(
        ["dag", "capacity", "lower bound", "exact", "Hu", "Coffman-Graham"],
        rows,
        title="[20] batched framework: exact optimum (exponential) vs the "
        "polynomial batchers — CG matches exact at capacity 2, Hu on trees",
    )
    write_report("E-X2_batched", report)


def test_communication_granularity(benchmark):
    fine = mesh.out_mesh_dag(15)
    maps = {b: mesh_block_cluster_map(15, b) for b in (1, 2, 4, 8)}

    def run():
        return granularity_tradeoff(fine, maps, clients=8, comm_per_input=0.5)

    benchmark(run)

    sections = []
    for comm in (0.0, 0.25, 1.0):
        rows = granularity_tradeoff(
            fine, maps, clients=8, comm_per_input=comm
        )
        sections.append(
            render_table(
                ["block b", "tasks", "cut arcs", "makespan", "utilization"],
                rows,
                title=f"comm cost per input = {comm}",
            )
        )
    report = (
        "§8 thrust 3 + Fig. 7: makespan vs coarsening level of the "
        "depth-15 out-mesh, 8 clients.\nHigher communication cost pushes "
        "the optimum toward coarser tasks:\n\n" + "\n\n".join(sections)
    )
    write_report("E-X3_comm_granularity", report)


def test_structure_recognition(benchmark):
    scrambled = mesh.out_mesh_dag(10).relabel(
        lambda v: ("opaque", hash(("s", v)) & 0xFFFFFFFF)
    )

    def run():
        return recognize(scrambled)

    chain = benchmark(run)
    assert chain is not None

    rows = []
    for name, dag in (
        ("out-mesh d=10", scrambled),
        (
            "in-tree d=4",
            trees.complete_in_tree(4).dag.relabel(lambda v: ("q", v)),
        ),
        (
            "butterfly B_3",
            butterfly_net.butterfly_dag(3).relabel(lambda v: ("b", v)),
        ),
        ("prefix P_8", prefix.prefix_dag(8).relabel(lambda v: ("p", v))),
    ):
        ch = recognize(dag)
        r = schedule_dag(ch) if ch else None
        rows.append(
            (
                name,
                len(dag),
                ch.name.split(":")[-1] if ch else "-",
                r.certificate.value if r else "-",
            )
        )
    report = render_table(
        ["scrambled input", "nodes", "recognized as", "certificate"],
        rows,
        title="recognizing bare dags and recovering their Theorem 2.1 "
        "certificates",
    )
    write_report("E-X4_recognition", report)


def test_batched_vs_event_driven(benchmark):
    """E-X5 — the [20] trade-off: batched rounds are operationally
    simple but barrier-idle fast clients; the event-driven IC server
    exploits heterogeneity."""
    from repro import api
    from repro.core import hu_batches
    from repro.sim import ClientSpec, make_policy, simulate

    dag = mesh.out_mesh_dag(12)
    bs = hu_batches(dag, 6)
    clients = [ClientSpec(speed=s) for s in (0.5, 1, 1, 2, 2, 4)]

    def run():
        return api.simulate(dag, batches=bs, clients=clients, seed=0)

    batched = benchmark(run)

    rows = []
    for name, chain in (
        ("out-mesh d=12", mesh.out_mesh_chain(12)),
        ("prefix P_16", prefix.prefix_chain(16)),
        ("butterfly B_4", butterfly_net.butterfly_chain(4)),
    ):
        d = chain.dag
        b = hu_batches(d, 6)
        rb = api.simulate(d, batches=b, clients=clients, seed=0)
        sched = schedule_dag(chain).schedule
        re = simulate(d, make_policy("IC-OPT", sched), clients, seed=0)
        rows.append(
            (
                name,
                b.rounds,
                round(rb.makespan, 2),
                round(re.makespan, 2),
                round(rb.makespan / re.makespan, 2),
            )
        )
    report = render_table(
        ["dag", "rounds", "batched makespan", "event-driven", "ratio"],
        rows,
        title="[20]'s batched regimen vs the event-driven IC server, 6 "
        "heterogeneous clients (capacity 6 batches via Hu)",
    )
    write_report("E-X5_batched_vs_event", report)
    assert all(r[4] >= 1.0 for r in rows)


def test_strassen_extension(benchmark):
    """E-X6 — Strassen through the §7 gateway: 7 multiplications vs 8,
    dag execution matching numpy."""
    import numpy as np

    from repro.compute.strassen import strassen_multiply
    from repro.families.matmul_dag import matmul_chain, strassen_dag

    rng = np.random.default_rng(0)
    a = rng.random((16, 16))
    b = rng.random((16, 16))

    def run():
        return strassen_multiply(a, b)

    out = benchmark(run)
    assert np.allclose(out, a @ b)

    sdag = strassen_dag()
    mdag = matmul_chain().dag
    rows = [
        ("dag M (Fig. 17)", len(mdag), 8, "C4 ⇑ C4 ⇑ Λ⁴ (Thm 2.1)"),
        ("Strassen", len(sdag), 7, "no catalogued decomposition"),
    ]
    report = render_table(
        ["dag", "nodes", "multiplications", "certification"],
        rows,
        title="one recursion level, 2×2 block product",
    )
    from repro.core import find_ic_optimal_schedule

    s = find_ic_optimal_schedule(sdag)
    report += (
        f"\nStrassen dag admits an IC-optimal schedule: {s is not None}"
    )
    write_report("E-X6_strassen", report)


def test_width_and_parallelism(benchmark):
    """E-X7 — peak parallelism: dag width equals the maximum eligible
    count every family can offer (max_t M(t) == width, a theorem the
    two independent engines cross-check), i.e. the largest client pool
    a family can ever saturate."""
    from repro.core import dag_width, max_eligibility_profile
    from repro.families.diamond import complete_diamond
    from repro.families.dlt import dlt_prefix_chain

    big = mesh.out_mesh_dag(25)

    def run():
        return dag_width(big)

    assert benchmark(run) == 26

    rows = []
    for name, dag in (
        ("diamond d=3", complete_diamond(3).dag),
        ("out-mesh d=5", mesh.out_mesh_dag(5)),
        ("butterfly B_2", butterfly_net.butterfly_dag(2)),
        ("prefix P_5", prefix.prefix_dag(5)),
        ("DLT L_4", dlt_prefix_chain(4).dag),
        ("out-tree d=4", trees.complete_out_tree(4).dag),
    ):
        w = dag_width(dag)
        peak = max(max_eligibility_profile(dag))
        rows.append((name, len(dag), w, peak, peak == w))
    report = render_table(
        ["family", "nodes", "width (max antichain)", "max_t M(t)", "equal"],
        rows,
        title="peak eligibility == dag width: the most clients a family "
        "can ever feed simultaneously",
    )
    write_report("E-X7_width", report)
    assert all(r[4] for r in rows)
