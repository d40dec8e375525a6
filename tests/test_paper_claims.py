"""The paper's evaluation claims, asserted on the generated figures and tables.

Das, Gehrke & Riedewald (SIGMOD 2003) evaluate by shape: PROB ≈ OPT ≫
RAND on skewed data, every online policy ≤ OPT-offline ≤ EXACT at equal
memory, OPT → EXACT as the domain grows, and so on.  Each row of
``CLAIMS`` is one such claim: the registered generator ids it reads
(keys of ``FIGURE_GENERATORS`` / ``TABLE_GENERATORS`` /
``ABLATION_GENERATORS``), a short name, and a predicate taking the
generated ``FigureData`` / ``TableData``, one argument per id.  The
bounds live in the predicates.

Every generator a claim reads runs once per session, at ``SCALES["ci"]``
with seed 0, whatever ``REPRO_SCALE`` says, and every registered
generator has at least one row.  ``make figures`` renders the same
generators at the default scale into ``benchmarks/results/``; nothing
here writes there.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from repro.experiments import (
    ABLATION_GENERATORS,
    FIGURE_GENERATORS,
    SCALES,
    TABLE_GENERATORS,
)

GENERATORS = {**FIGURE_GENERATORS, **TABLE_GENERATORS, **ABLATION_GENERATORS}
REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"


@functools.cache
def generated(generator_id: str):
    """The generator's output at the ci scale, seed 0 (built once)."""
    return GENERATORS[generator_id](SCALES["ci"], seed=0)


class Claim(NamedTuple):
    ids: tuple[str, ...]
    name: str
    holds: Callable[..., bool]


def y(figure, label: str) -> list:
    return figure.series_by_label(label).y


def at_window(figure, label: str):
    """The ``label`` series at memory M = w."""
    index = figure.params["memories"].index(figure.params["window"])
    return y(figure, label)[index]


def pointwise(figure, *labels: str) -> list[tuple]:
    """The labelled series zipped point by point."""
    return list(zip(*(y(figure, label) for label in labels)))


def column_of(table, name: str) -> dict:
    """The first column mapped to column ``name``."""
    return dict(zip(table.column(table.columns[0]), table.column(name)))


def shares_after(figure, parts: int) -> list[float]:
    """Figure 8's R share after the first 1/``parts`` of the run."""
    shares = figure.series[0].y
    return shares[len(shares) // parts:]


def dp_edges(table) -> list:
    """Static join: the DP optimum's output over random deletion's, per k."""
    return [o - r for o, r in zip(table.column("optimal DP"), table.column("random"))]


def domain_claims(figure_id: str) -> list[Claim]:
    """Figures 9-11: fractions of OPT at every memory size."""
    return [
        Claim((figure_id,), "rand_at_most_opt",
              lambda f: all(r <= 1.0 for r in y(f, "RAND/OPT"))),
        Claim((figure_id,), "prob_at_most_opt",
              lambda f: all(p <= 1.0 for p in y(f, "PROB/OPT"))),
        Claim((figure_id,), "exact_at_least_opt",
              lambda f: all(e >= 1.0 for e in y(f, "EXACT/OPT"))),
        Claim((figure_id,), "prob_at_least_rand",
              lambda f: all(p >= r for p, r in pointwise(f, "PROB/OPT", "RAND/OPT"))),
    ]


CLAIMS: list[Claim] = [
    # Figure 3: Zipf(1), window w.
    Claim(("figure3",), "prob_beats_rand",
          lambda f: all(p > r for p, r in pointwise(f, "PROB", "RAND"))),
    Claim(("figure3",), "prob_at_least_life",
          lambda f: all(p >= l for p, l in pointwise(f, "PROB", "LIFE"))),
    Claim(("figure3",), "online_at_most_opt",
          lambda f: all(max(r, l, p) <= o
                        for r, l, p, o in pointwise(f, "RAND", "LIFE", "PROB", "OPT"))),
    Claim(("figure3",), "opt_at_most_exact",
          lambda f: all(o <= e for o, e in pointwise(f, "OPT", "EXACT"))),
    Claim(("figure3",), "rand_grows_with_memory", lambda f: y(f, "RAND") == sorted(y(f, "RAND"))),
    Claim(("figure3",), "prob_tracks_opt_at_w",
          lambda f: at_window(f, "PROB") / at_window(f, "OPT") > 0.8),
    # Figure 4: the window doubled keeps the ordering.
    Claim(("figure4",), "prob_beats_rand",
          lambda f: all(p > r for p, r in pointwise(f, "PROB", "RAND"))),
    Claim(("figure4",), "prob_opt_exact_ordered",
          lambda f: all(p <= o <= e for p, o, e in pointwise(f, "PROB", "OPT", "EXACT"))),
    Claim(("figure4",), "rand_grows_with_memory", lambda f: y(f, "RAND") == sorted(y(f, "RAND"))),
    # Figure 5: uniform values give no semantic edge.
    Claim(("figure5",), "online_matches_rand",
          lambda f: all(abs(a - r) / max(r, 1) < 0.15
                        for p, l, r in pointwise(f, "PROB", "LIFE", "RAND") for a in (p, l))),
    Claim(("figure5",), "online_opt_exact_ordered",
          lambda f: all(max(r, p, l) <= o <= e for r, p, l, o, e
                        in pointwise(f, "RAND", "PROB", "LIFE", "OPT", "EXACT"))),
    # Figure 6: the gap between PROB and RAND widens with skew.
    Claim(("figure6",), "coincide_at_skew_0",
          lambda f: abs(y(f, "PROB/OPT")[0] - y(f, "RAND/OPT")[0]) < 0.12),
    Claim(("figure6",), "wide_gap_at_skew_2",
          lambda f: y(f, "PROB/OPT")[-1] - y(f, "RAND/OPT")[-1] > 0.25),
    Claim(("figure6",), "gap_widens_with_skew",
          lambda f: (y(f, "PROB/OPT")[-1] - y(f, "RAND/OPT")[-1])
          > (y(f, "PROB/OPT")[0] - y(f, "RAND/OPT")[0])),
    Claim(("figure6",), "prob_near_opt_at_high_skew",
          lambda f: max(p for z, p in f.series_by_label("PROB/OPT").points if z >= 1.5) > 0.85),
    Claim(("figure6",), "prob_over_opt_at_skew_2", lambda f: y(f, "PROB/OPT")[-1] > 0.7),
    Claim(("figure6", "figure6_correlated"), "correlation_keeps_prob_over_opt",
          lambda f, c: all(abs(p - dict(f.series_by_label("PROB/OPT").points)[z]) < 0.15
                           for z, p in c.series_by_label("PROB/OPT").points)),
    # Figure 7: the weather workload.
    Claim(("figure7",), "prob_beats_rand",
          lambda f: all(p > r for p, r in pointwise(f, "PROB", "RAND"))),
    Claim(("figure7",), "prob_matches_probv",
          lambda f: all(abs(p - v) / max(p, 1) < 0.05 for p, v in pointwise(f, "PROB", "PROBV"))),
    Claim(("figure7",), "prob_near_exact_at_w",
          lambda f: at_window(f, "PROB") / at_window(f, "EXACT") > 0.7),
    Claim(("figure7",), "prob_at_most_exact",
          lambda f: all(p <= e for p, e in pointwise(f, "PROB", "EXACT"))),
    # Figure 8: PROBV's memory split stays near 50/50.
    Claim(("figure8",), "mean_share_near_half",
          lambda f: 0.45 < sum(shares_after(f, 4)) / len(shares_after(f, 4)) < 0.55),
    Claim(("figure8",), "share_near_half_after_quarter",
          lambda f: all(0.3 < s < 0.7 for s in shares_after(f, 4))),
    Claim(("figure8",), "share_near_half_after_third",
          lambda f: all(0.35 < s < 0.65 for s in shares_after(f, 3))),
    # Figures 9-11: growing the domain pulls OPT towards EXACT.
    *domain_claims("figure9"),
    *domain_claims("figure10"),
    *domain_claims("figure11"),
    Claim(("figure9", "figure11"), "exact_over_opt_falls_with_domain",
          lambda small, large: y(large, "EXACT/OPT")[-1] <= y(small, "EXACT/OPT")[-1]),
    Claim(("figure11",), "opt_meets_exact_at_w",
          lambda f: at_window(f, "EXACT/OPT") < 1.35),
    # Section 4.3 (prose): fixed vs. variable allocation.
    Claim(("variable_memory",), "sweeps_z_r", lambda t: t.columns[0] == "z_R"),
    Claim(("variable_memory",), "optv_at_least_opt",
          lambda t: all(v >= o for v, o in zip(t.column("OPTV"), t.column("OPT")))),
    Claim(("variable_memory",), "probv_near_prob",
          lambda t: all(0.95 * p <= v <= 1.15 * p
                        for v, p in zip(t.column("PROBV"), t.column("PROB")))),
    Claim(("variable_memory",), "skewed_stream_takes_memory",
          lambda t: t.column("R mem share")[-1] > max(t.column("R mem share")[0], 0.6)),
    # Section 3.3 (prose): a time-varying budget.
    Claim(("varying_memory",), "varying_between_low_and_high",
          lambda t: all(low <= varying <= high for _, low, varying, _mean, high in t.rows)),
    Claim(("varying_memory",), "prob_beats_rand",
          lambda t: column_of(t, "varying")["PROB"] > column_of(t, "varying")["RAND"]),
    # Section 3.1: static join shedding and the m-relation case.
    Claim(("static_join",), "dp_beats_random_and_greedy",
          lambda t: all(rnd <= opt <= full and greedy <= opt
                        for _k, full, opt, greedy, rnd in t.rows)),
    Claim(("static_join",), "dp_edge_widens",
          lambda t: dp_edges(t)[-2] > dp_edges(t)[0]),
    Claim(("multiway_join",), "approx_within_3x_optimal",
          lambda t: all(a <= 3 * o
                        for a, o in zip(t.column("approx loss"), t.column("optimal loss")))),
    # Archive metric (Section 6 future work).
    Claim(("arm_study",), "arm_falls_with_memory",
          lambda t: all(t.column(f"{n} ArM")[0] >= t.column(f"{n} ArM")[-1]
                        for n in ("RAND", "PROB", "LIFE", "ARM"))),
    Claim(("arm_study",), "prob_below_rand_at_mid_memory",
          lambda t: t.column("PROB ArM")[len(t.rows) // 2]
          < t.column("RAND ArM")[len(t.rows) // 2]),
    # Queue shedding under a slow CPU and across two queries.
    Claim(("slow_cpu",), "prob_beats_random_and_tail",
          lambda t: column_of(t, "output")["prob"]
          > max(column_of(t, "output")["random"], column_of(t, "output")["tail"])),
    Claim(("slow_cpu",), "every_rule_sheds", lambda t: all(shed > 0 for shed in t.column("shed"))),
    Claim(("multi_query",), "semantic_rules_win",
          lambda t: min(column_of(t, "total")["max"], column_of(t, "total")["sum"])
          > column_of(t, "total")["random"]
          and column_of(t, "total")["max"] > column_of(t, "total")["tail"]),
    Claim(("multi_query",), "no_query_starves",
          lambda t: all(row[1] > 0 and row[2] > 0 for row in t.rows if row[0] in ("max", "sum"))),
    # Seed stability of the Figure 3 configuration.
    Claim(("variance_study",), "opt_beats_prob_by_a_std",
          lambda t: column_of(t, "mean frac")["OPT"]
          > column_of(t, "mean frac")["PROB"] + column_of(t, "std")["PROB"]),
    Claim(("variance_study",), "prob_beats_rand_by_two_std",
          lambda t: column_of(t, "mean frac")["PROB"]
          > column_of(t, "mean frac")["RAND"] + 2 * column_of(t, "std")["RAND"]),
    Claim(("variance_study",), "fifo_tracks_rand",
          lambda t: abs(column_of(t, "mean frac")["FIFO"] - column_of(t, "mean frac")["RAND"])
          < 0.35 * column_of(t, "mean frac")["RAND"]),
    Claim(("variance_study",), "prob_beats_rand_every_seed",
          lambda t: t.rows[-1][1] == len(t.params["seeds"])),
    # OPT-offline's flow graph grows linearly in the stream length.
    Claim(("flow_solver",), "nodes_grow_linearly",
          lambda t: t.column("nodes (R pool)")[-1] < t.column("nodes (R pool)")[0]
          * (t.column("stream length")[-1] / t.column("stream length")[0]) * 1.5),
    Claim(("flow_solver",), "arcs_grow_linearly",
          lambda t: t.column("arcs (R pool)")[-1] < t.column("arcs (R pool)")[0]
          * (t.column("stream length")[-1] / t.column("stream length")[0]) * 2.0),
    Claim(("flow_solver",), "opt_output_grows",
          lambda t: t.column("OPT output") == sorted(t.column("OPT output"))),
    # Ablations.
    Claim(("ablation_statistics",), "every_module_beats_rand",
          lambda t: all(ratio > 1.2 for ratio in t.column("x RAND")[:-1])),
    Claim(("ablation_statistics",), "exact_table_is_best",
          lambda t: t.column("PROB output")[0] == max(t.column("PROB output")[:-1])),
    Claim(("ablation_predictor",), "corruption_hurts",
          lambda t: t.column("PROB output")[0] > t.column("PROB output")[-2]),
    Claim(("ablation_predictor",), "corrupted_near_rand",
          lambda t: t.column("PROB output")[-2] < 1.5 * t.column("PROB output")[-1]),
    Claim(("ablation_drift",), "ewma_beats_stale_table",
          lambda t: column_of(t, "PROB output")["EWMA (alpha=0.02)"]
          > column_of(t, "PROB output")["static table (first phase)"]),
]

@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: f"{'+'.join(c.ids)}-{c.name}")
def test_claim(claim: Claim):
    assert claim.holds(*(generated(i) for i in claim.ids))


def test_every_generator_has_a_claim():
    claimed = {i for claim in CLAIMS for i in claim.ids}
    assert set(GENERATORS) == claimed


def test_make_figures_renders_every_generator():
    makefile = (REPO_ROOT / "Makefile").read_text()
    listed = {
        kind: re.search(rf"^{kind} := (.*)$", makefile, re.MULTILINE).group(1).split()
        for kind in ("FIGURES", "TABLES")
    }
    assert set(listed["FIGURES"]) == set(FIGURE_GENERATORS)
    assert set(listed["TABLES"]) == set(TABLE_GENERATORS) | set(ABLATION_GENERATORS)
    assert {path.stem for path in RESULTS_DIR.glob("*.txt")} == set(GENERATORS)
