"""Per-layer metrics from the spans that ``tracer.py`` records.

A span's self time is its duration minus the part covered by its child
spans; a layer's ``self_s`` is the self time of all spans named after it.
"Inclusive" times count each outermost span of a group once, so recursion
and nested calls inside the group are not counted twice.  Every figure is
per round of the workload, so runs that fit a different number of rounds
into their time still compare.
"""

from __future__ import annotations

from collections import Counter

from tracer import MUL_SPANS as MUL

ADD = tuple(f"exactpoly.{cls}.{op}" for cls in ("UniPoly", "BiPoly")
            for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"))
DET = ("exactpoly.det_fraction_free", "exactpoly.det_cofactor",
       "exactpoly.exact_div", "exactpoly.divmod_poly")

# Groups whose outermost spans give an inclusive time.
INCLUSIVE = {
    "forest": ("oracles.forest_enumerator_polys", "oracles.forest_enumerator_poly",
               "oracles.enumerate_forests", "oracles.forests_json_lines"),
    "parking": ("oracles.parking_enumerator_poly",),
    "first_kind": ("qstirling.qstirling1_triangle", "qstirling.qstirling1"),
    "monomial": ("symfunc.p_nr_monomial",),
    "determinant": ("symfunc.qp_nr_determinant", "symfunc.p_nr_determinant",
                    "symfunc.pn_bracket_determinant", "symfunc.en_factorial_determinant"),
    "build_jtable": ("jpoly.build_jtable",),
    "composition": ("jpoly.j_explicit_composition", "jpoly.j_explicit_sequences"),
    # Renderers turn computed objects into output text.  cli.main's own time
    # (the CSV/JSON writing loops and argument parsing) is added to it.
    "render": ("cli._render_poly", "jpoly.jtable_csv_rows", "jpoly.jtable_latex",
               "jpoly.latex_poly", "qstirling.StirlingTriangle.csv_rows",
               "exactpoly.json_coeff_list", "exactpoly.poly_text",
               "exactpoly.UniPoly.to_json", "exactpoly.UniPoly.to_json_dict",
               "report.CheckReport.to_json", "report.CheckReport.summary_lines"),
}
_BIT = {group: 1 << i for i, group in enumerate(INCLUSIVE)}


class SpanTotals:
    """Sums over the span dumps of a run: calls, self and inclusive time."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.inclusive_ns = Counter()
        self.counters = Counter()
        self.output_bytes = 0

    def add(self, dump: dict, output_bytes: int):
        names, parent = dump["names"], dump["parent"]
        span_name, start, end = dump["span_name"], dump["start"], dump["end"]
        name_bits = [0] * len(names)
        for group, members in INCLUSIVE.items():
            for i, name in enumerate(names):
                if name in members:
                    name_bits[i] |= _BIT[group]
        count = len(start)
        dur = [end[i] - start[i] for i in range(count)]
        covered = [0] * count
        ancestors = [0] * count        # groups present above each span
        for i in range(count):
            p = parent[i]
            if p >= 0:
                covered[p] += dur[i]
                ancestors[i] = ancestors[p] | name_bits[span_name[p]]
        for i in range(count):
            name = names[span_name[i]]
            self.calls[name] += 1
            self.self_ns[name] += dur[i] - covered[i]
            outer = name_bits[span_name[i]] & ~ancestors[i]
            if outer:
                for group, bit in _BIT.items():
                    if outer & bit:
                        self.inclusive_ns[group] += dur[i]
        self.counters.update(dump["counters"])
        self.output_bytes += output_bytes

    def n_calls(self, names) -> int:
        return sum(self.calls[n] for n in names)

    def self_s(self, names) -> float:
        return sum(self.self_ns[n] for n in names) / 1e9

    def layer_self_s(self, layer: str) -> float:
        return sum(t for n, t in self.self_ns.items() if n.startswith(layer + ".")) / 1e9


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(t: SpanTotals, rounds: int) -> dict:
    """name -> (value, unit) for every per-layer metric.  A metric whose
    spans did not run in this workload reads 0."""
    c = t.counters
    incl = {g: t.inclusive_ns[g] / 1e9 for g in INCLUSIVE}
    mul_calls = t.n_calls(MUL)
    mul_s = t.self_s(MUL)
    candidates = c["forest_candidates"] + c["parking_candidates"]
    accepted = c["forest_enumerations_accepted"] + c["parking_functions"]
    per = 1.0 / rounds
    rows = [
        # name, unit, value
        ("exactpoly.mul_calls", "count", mul_calls * per),
        ("exactpoly.mul_coeff_pairs", "count", c["mul_coeff_pairs"] * per),
        ("exactpoly.mul_self_s", "s", mul_s * per),
        ("exactpoly.coeff_pairs_per_s", "1/s", _rate(c["mul_coeff_pairs"], mul_s)),
        ("exactpoly.add_self_s", "s", t.self_s(ADD) * per),
        ("exactpoly.det_self_s", "s", t.self_s(DET) * per),
        ("exactpoly.self_s", "s", t.layer_self_s("exactpoly") * per),
        ("exactpoly.integral_mul_share", "ratio", _rate(c["integral_muls"], mul_calls)),
        ("qcalc.qbinomial_calls", "count", t.calls["qcalc.qbinomial"] * per),
        ("qcalc.self_s", "s", t.layer_self_s("qcalc") * per),
        ("qstirling.qstirling2_calls", "count", t.calls["qstirling.qstirling2"] * per),
        ("qstirling.first_kind_s", "s", incl["first_kind"] * per),
        ("qstirling.self_s", "s", t.layer_self_s("qstirling") * per),
        ("symfunc.monomial_s", "s", incl["monomial"] * per),
        ("symfunc.determinant_s", "s", incl["determinant"] * per),
        ("symfunc.self_s", "s", t.layer_self_s("symfunc") * per),
        ("jpoly.build_jtable_calls", "count", t.n_calls(INCLUSIVE["build_jtable"]) * per),
        ("jpoly.build_jtable_s", "s", incl["build_jtable"] * per),
        ("jpoly.composition_s", "s", incl["composition"] * per),
        ("jpoly.self_s", "s", t.layer_self_s("jpoly") * per),
        ("oracles.forest_s", "s", incl["forest"] * per),
        ("oracles.forests", "count", c["forests"] * per),
        ("oracles.forests_per_s", "1/s", _rate(c["forests"], incl["forest"])),
        ("oracles.parking_s", "s", incl["parking"] * per),
        ("oracles.parking_functions", "count", c["parking_functions"] * per),
        ("oracles.parking_per_s", "1/s", _rate(c["parking_functions"], incl["parking"])),
        ("oracles.raw_candidates", "count-computed", candidates * per),
        ("oracles.accept_ratio", "ratio", _rate(accepted, candidates)),
        ("oracles.self_s", "s", t.layer_self_s("oracles") * per),
        ("report.records", "count",
         t.n_calls(("report.CheckReport.add_pass", "report.CheckReport.add_fail")) * per),
        ("report.self_s", "s", t.layer_self_s("report") * per),
        ("cli.render_s", "s", (incl["render"] + t.self_s(("cli.main",))) * per),
        ("cli.output_bytes", "bytes", t.output_bytes * per),
        ("cli.self_s", "s", t.layer_self_s("cli") * per),
    ]
    return {name: (value, unit) for name, unit, value in rows}
