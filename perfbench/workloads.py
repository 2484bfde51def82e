"""Workloads, their inputs, and the output check.

Each workload is a list of ``centdet`` CLI operations run in one fresh
process.  ``{inputs}`` in an argument is replaced by the directory that
holds the run's ``.pcp`` files.  README.md gives the reason for each
workload.
"""

import hashlib
import json
import os
import random

WORKLOADS = {
    # cup-product chain-map lifts dominate; no product group, no group work
    "ring_p2": [
        ["cohomology", "32#18", "--degree", "10"],
    ],
    # p = 2 reports dominated by the resolution build; D8xZ4 is a
    # non-p-central product whose d0 recursion shares a Workspace
    "report_p2": [
        ["invariants", "64#187", "--degree", "8"],
        ["invariants", "D8xZ4", "--degree", "10"],
    ],
    # odd p: the generic (non-bit-packed) elimination path
    "report_p3": [
        ["invariants", "{inputs}/W23.pcp", "--degree", "2"],
        ["invariants", "{inputs}/H27.pcp", "--degree", "10"],
        ["invariants", "{inputs}/Z9xZ9.pcp", "--degree", "8"],
    ],
    # orders 64-128: elementary abelian subgroup enumeration, no resolution
    "info_large": [
        ["info", "E8xD8"],
        ["info", "D8xD8xZ2"],
        ["info", "D16xD8"],
    ],
}

# The documented output fields that the check covers.  Keys a later
# version adds to an output do not change its digest.
DOCUMENTED = {
    "info": ("group_id", "order", "center_rank", "rank", "p_central"),
    "cohomology": ("group_id", "degree_bound", "betti", "ring_generators_by_degree"),
    "invariants": ("group_id", "p", "order", "rank", "center_rank", "p_central",
                   "type", "e", "h", "d0", "d1", "e_prime", "e_double_prime",
                   "cess_nonzero", "truncation_degree", "certified"),
}

INPUTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")
DEFAULT_SEED = 0


def op_key(argv: list[str]) -> str:
    """The name of an operation, independent of where its inputs live."""
    return " ".join(a.rsplit("/", 1)[-1] for a in argv)


def documented_fields(command: str, stdout: str) -> dict:
    """The documented fields of one operation's JSON output.

    Raises ValueError or KeyError when the output is not such a JSON object.
    """
    out = json.loads(stdout)
    return {k: out[k] for k in DOCUMENTED[command]}


def digest(fields: dict) -> str:
    canon = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def write_relabelled_inputs(directory: str, seed: int) -> None:
    """Write each shipped .pcp group under a new generating sequence.

    The sequence is the one ``pc_structure`` picks from a shuffle of the
    elements seeded by ``seed``; the basename, and so the group id, is
    kept.  Needs ``centdet`` importable.
    """
    from centdet.catalog import format_pcp, load_pcp
    from centdet.pgroup import pc_structure

    for name in sorted(os.listdir(INPUTS_DIR)):
        G = load_pcp(os.path.join(INPUTS_DIR, name))
        elems = list(range(G.order))
        random.Random(f"{seed}:{name}").shuffle(elems)
        pres, _, _ = pc_structure(elems, G.mult, G.inv, G.p)
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(format_pcp(pres, f"{name} relabelled with seed {seed}"))
