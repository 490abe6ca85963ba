"""Spans around the public calls into each stickfrag module, and the
per-layer metrics derived from them.

The tracer replaces module attributes with recording wrappers, so every call
the CLI or another module makes through that name is recorded, with no change
to the package.  Spans stay in memory and are handed over when the cycle ends.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Records (name, start, end, parent, attrs) for wrapped calls of one cycle."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name, attrs=None) -> None:
        """Route module.attr through a span; name may be a function of the call's args."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "run": self.run_id,
                "name": name(*args, **kwargs) if callable(name) else name,
                "parent": self._stack[-1] if self._stack else None,
                "start": perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(result, *args, **kwargs)
            return result

        setattr(module, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every stickfrag module the workloads reach."""
    from stickfrag import cli, enumeration, montecarlo, oracle

    def exact_attrs(dist, model, N, *args, **kwargs):
        return {"compositions": math.comb(N + model.m - 1, model.m - 1), "atoms": dist.atoms}

    def sampler_name(config, *args, **kwargs):
        fixed = isinstance(config.mode, montecarlo.FixedProportions)
        return "montecarlo.sample_leaf_residues" + ("" if fixed else "[dirichlet]")

    for module in (cli, oracle):
        tracer.wrap(module, "exact_distribution", "enumeration.exact_distribution", exact_attrs)
    tracer.wrap(enumeration, "composition_array", "enumeration.composition_array",
                lambda table, *a, **k: {"rows": table.shape[0], "m": table.shape[1]})
    tracer.wrap(montecarlo, "distribution_from_residues", "enumeration.distribution_from_residues",
                lambda dist, residues, *a, **k: {"rows_in": len(residues)})
    for module in (cli, montecarlo):
        tracer.wrap(module, "sample_leaf_residues", sampler_name,
                    lambda result, config, *a, **k: {"samples": config.samples})
    tracer.wrap(cli, "cross_check", "oracle.cross_check",
                lambda rep, *a, **k: {"leaves": rep.leaves, "deviation": rep.max_mass_deviation,
                                      "passed": rep.passed})
    tracer.wrap(oracle, "brute_force_leaves", "oracle.brute_force_leaves")
    tracer.wrap(oracle, "distribution_from_leaves", "oracle.distribution_from_leaves")
    tracer.wrap(oracle, "build_distribution", "enumeration.build_distribution")
    tracer.wrap(oracle, "exact_residues_rational", "oracle.exact_residues_rational")
    tracer.wrap(oracle, "exact_residue_distribution", "oracle.exact_residue_distribution")
    tracer.wrap(cli, "benford_report", "benford.benford_report",
                lambda report, dist, *a, **k: {"atoms_in": dist.atoms})
    tracer.wrap(cli, "parse_config", "model.parse_config")
    tracer.wrap(cli, "classify_rationality", "model.classify_rationality")
    for attr, owner in (("write_distribution_csv", "enumeration"), ("write_digits_csv", "benford"),
                        ("write_samples_csv", "montecarlo"), ("write_metadata_json", "montecarlo")):
        tracer.wrap(cli, attr, f"{owner}.{attr}")
    tracer.wrap(cli, "main", "cli.main", lambda code, *a, **k: {"exit": code})


WRITERS = ("enumeration.write_distribution_csv", "benford.write_digits_csv",
           "montecarlo.write_samples_csv", "montecarlo.write_metadata_json")


def span_table(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds (total minus children)."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = s["end"] - s["start"]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time[s["id"]]
    return table


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced cycle (zero where a layer is not reached)."""
    table = span_table(spans)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def attr_sum(name, key):
        return sum(s.get("attrs", {}).get(key, 0) for s in spans if s["name"] == name)

    tables = [s["attrs"] for s in spans if s["name"] == "enumeration.composition_array"]
    compositions = attr_sum("enumeration.exact_distribution", "compositions")
    atoms = attr_sum("enumeration.exact_distribution", "atoms")
    checks = [s["attrs"] for s in spans if s["name"] == "oracle.cross_check"]
    return {
        "enumeration.composition_table_s": total("enumeration.composition_array"),
        "enumeration.exact_s": total("enumeration.exact_distribution"),
        "enumeration.engine_rest_s": table.get("enumeration.exact_distribution", {}).get("self_s", 0.0),
        "enumeration.merge_s": total("enumeration.distribution_from_residues"),
        "enumeration.compositions": compositions,
        "enumeration.table_bytes": sum(t["rows"] * t["m"] * 8 for t in tables),
        "enumeration.atoms_out": atoms,
        "enumeration.atoms_per_composition": atoms / compositions if compositions else 0.0,
        "enumeration.merge_rows_in": attr_sum("enumeration.distribution_from_residues", "rows_in"),
        "montecarlo.sample_s": total("montecarlo.sample_leaf_residues"),
        "montecarlo.dirichlet_sample_s": total("montecarlo.sample_leaf_residues[dirichlet]"),
        "montecarlo.write_s": total("montecarlo.write_samples_csv"),
        "montecarlo.samples": attr_sum("montecarlo.sample_leaf_residues", "samples")
        + attr_sum("montecarlo.sample_leaf_residues[dirichlet]", "samples"),
        "oracle.brute_s": total("oracle.brute_force_leaves"),
        "oracle.cross_check_s": total("oracle.cross_check"),
        "oracle.residue_scan_s": total("oracle.exact_residues_rational"),
        "oracle.residue_distribution_s": total("oracle.exact_residue_distribution"),
        "oracle.leaves": sum(c["leaves"] for c in checks),
        "oracle.max_mass_deviation": max((c["deviation"] for c in checks), default=0.0),
        "oracle.checks_failed": sum(not c["passed"] for c in checks),
        "benford.report_s": total("benford.benford_report"),
        "benford.atoms_in": attr_sum("benford.benford_report", "atoms_in"),
        "model.parse_s": total("model.parse_config"),
        "model.classify_s": total("model.classify_rationality"),
        "cli.call_s": total("cli.main"),
        "cli.write_s": sum(total(w) for w in WRITERS),
        "cli.overhead_s": table.get("cli.main", {}).get("self_s", 0.0),
        # a call that raised has no attrs and counts as a non-zero exit
        "cli.exit_nonzero": sum(s.get("attrs", {}).get("exit") != 0 for s in spans if s["name"] == "cli.main"),
    }
