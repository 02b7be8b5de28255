"""Workload definitions, seeded input generation and answer extraction.

Nothing here imports edtorus: the parent process stays light, and every
edtorus import happens in a fresh worker process.

A request is an ``edtorus`` argv.  A token ``@name`` in it stands for the
fixture file generated from the case-study presentation ``name``.
"""

from __future__ import annotations

import random

# Case-study presentations the fixtures are generated from (``edtorus case ...``).
FIXTURE_CASES = {
    "sl_9_3": ["sl", "9", "3"],
    "sl_10_5": ["sl", "10", "5"],
    "sl_14_5": ["sl", "14", "5"],
    "sl_8_2": ["sl", "8", "2"],
    "so_2": ["so", "2"],
    "so_1": ["so", "1"],
    "sl_7_2": ["sl", "7", "2"],
    "sl_7_3": ["sl", "7", "3"],
    "sl_5_2": ["sl", "5", "2"],
}

_SESSION_FIXTURES = ("sl_9_3", "sl_10_5", "sl_14_5", "sl_8_2", "so_2", "so_1")

# Requests of each workload, issued in order by one client.
WORKLOADS = {
    "sylow-cases": [
        ["ed", "case", "sl", "9", "2"],
        ["ed", "case", "sl", "10", "3"],
        ["ed", "case", "sl", "11", "3"],
        ["ed", "case", "sl", "7", "2"],
    ],
    "abelian-session": [
        [cmd, "@" + fx] for fx in _SESSION_FIXTURES for cmd in ("validate", "stabilizer", "eta", "ed")
    ],
    "lattice-search": [
        ["symrank", "@sl_7_2", "-B", "1"],
        ["symrank", "@sl_7_3", "-B", "1"],
        ["symrank", "@so_2", "-B", "2"],
        ["eta", "@so_2", "--rep", "none", "-B", "2"],
        ["oracle", "symrank", "@so_2", "-B", "2"],
        ["oracle", "symrank", "@sl_5_2", "-B", "1"],
        ["oracle", "stab", "@sl_7_3"],
        ["oracle", "stab", "@so_2"],
    ],
}

# Per-layer metrics (as reported by tracer.layer_metrics) that each workload
# must exercise: the self-test requires them to be nonzero there.
MAPPED_LAYER_METRICS = {
    "sylow-cases": [
        "symrank.FLattice.init_s",
        "monogrp.ComponentGroup.init_s",
        "monogrp.table_entries",
        "monogrp.validate.self_s",
        "monogrp.ComponentGroup.elementary_rank.self_s",
        "monogrp.ComponentGroup.rep_actions.self_s",
        "stab.generic_stabilizer.calls",
        "stab.generic_stabilizer.self_s",
        "stab.is_p_faithful.calls",
        "pipeline.upper_witness_sln.self_s",
    ],
    "abelian-session": [
        "monogrp.character_lattice_action.calls",
        "monogrp.character_lattice_action.self_s",
        "monogrp.validate.miss_ratio",
        "monogrp.ComponentGroup.abelian_decomposition.calls",
        "monogrp.ComponentGroup.abelian_decomposition.self_s",
        "monogrp.ComponentGroup.characters.self_s",
        "zlat.smith_normal_form.calls",
        "zlat.smith_normal_form.self_s",
        "zlat.smith_normal_form.max_cells",
        "monogrp.ComponentGroup.elementary_rank.self_s",
        "monogrp.ComponentGroup.rep_actions.self_s",
        "stab.generic_stabilizer.calls",
        "stab.generic_stabilizer.self_s",
        "stab.is_p_faithful.calls",
        "pipeline.build_generically_free_extension.self_s",
        "cli.presentation_from_json.self_s",
        "cli.emit.self_s",
    ],
    "lattice-search": [
        "symrank.symrank.calls",
        "symrank.symrank.self_s",
        "symrank.box_vectors",
        "symrank.eta_bounds.self_s",
        "oracle.symrank_bruteforce.self_s",
        "oracle.ff_stabilizer.self_s",
        "cli.presentation_from_json.self_s",
        "cli.emit.self_s",
    ],
}

# Fields of a JSON report that carry mathematics.  Element indices, notes and
# any field added later are never compared.
ANSWER_FIELDS = (
    "exact",
    "lower",
    "upper",
    "eta_lower",
    "eta_upper",
    "ed_lower",
    "ed_upper",
    "stabilizer_order",
    "component_order",
    "p_rank",
    "value",
    "status",
    "min_order",
)


def request_id(argv: list[str]) -> str:
    return " ".join(argv)


def fixture_names(workload: str) -> list[str]:
    names = {tok[1:] for argv in WORKLOADS[workload] for tok in argv if tok.startswith("@")}
    return sorted(names)


def relabel(doc: dict, rng: random.Random) -> dict:
    """Renumber the lines of a presentation by a random permutation tau.

    Line i becomes line tau[i]: its weight moves with it, each generator
    sigma becomes tau sigma tau^-1, and the coefficient scaling line i moves
    to line tau[i].  The character lattice and its group action are unchanged.
    """
    m = len(doc["weights"])
    tau = list(range(m))
    rng.shuffle(tau)
    weights = [None] * m
    for i, w in enumerate(doc["weights"]):
        weights[tau[i]] = w
    gens = []
    for g in doc["generators"]:
        perm, num, den = [0] * m, [0] * m, [0] * m
        for i in range(m):
            perm[tau[i]] = tau[g["perm"][i] - 1] + 1
            num[tau[i]] = g["coeff_num"][i]
            den[tau[i]] = g["coeff_den"][i]
        gens.append({"perm": perm, "coeff_num": num, "coeff_den": den})
    return {**doc, "weights": weights, "generators": gens}


def answer(doc) -> dict:
    """The mathematical fields of one JSON report, flattened."""
    out = {k: doc[k] for k in ANSWER_FIELDS if k in doc}
    if "symrank" in doc:
        sr = doc["symrank"] or {}
        out["symrank.value"] = sr.get("value")
        out["symrank.status"] = sr.get("status")
    return out
