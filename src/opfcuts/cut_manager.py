"""Cut pool: admission filtering, aging, slack-based dropping, persistence.

The warm-start file is UTF-8 JSON lines with a version header; variable
references are symbolic (bus / pair / branch ids), so saved cuts survive model
rebuilds and transfer to load-perturbed instances of the same network.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import CutFileError
from .separation import VIOLATION_THRESHOLD, LinearCut

T_AGE = 5
EPS_SLACK = 1e-5
COSINE_BOUND = 0.999
K_ADD = 5
FILE_HEADER = {"fmt": "cutpool", "v": 1}


@dataclass
class CutPool:
    cuts: dict = field(default_factory=dict)   # content_hash -> LinearCut

    def __len__(self):
        return len(self.cuts)

    def active(self):
        return list(self.cuts.values())


def _cosine(a: LinearCut, b: LinearCut) -> float:
    # only called on cuts with the same keys in the same (canonical) order;
    # a plain loop, as sum() compensates rounding from Python 3.12 on
    dot = na = nb = 0.0
    for x, y in zip(a.terms.values(), b.terms.values()):
        dot += x * y
        na += x * x
        nb += y * y
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / math.sqrt(na * nb)


def admit(pool: CutPool, candidates):
    """Filter candidates into the pool; returns the admitted list.

    Rejects duplicates by hash, near-parallel cuts on the same variable
    support, and sub-threshold violations; admits by decreasing violation,
    at most `K_ADD` per provenance group per call.

    The parallelism check runs only within the current batch.  Checking
    against the whole pool can deadlock the loop: a refined cut is almost
    parallel to the stale one it should replace, so nothing gets admitted
    while a real violation persists.  Aging retires the stale copy instead.
    """
    by_support: dict[tuple, list] = {}
    admitted = []
    per_group: dict[tuple, int] = {}
    ordered = sorted(candidates, key=lambda c: -c.violation_at_birth)
    for cut in ordered:
        if cut.violation_at_birth / cut.inf_norm < VIOLATION_THRESHOLD:
            continue
        if cut.content_hash in pool.cuts:
            continue
        group = cut.provenance
        if per_group.get(group, 0) >= K_ADD:
            continue
        support = tuple(cut.terms)
        if any(abs(_cosine(cut, other)) > COSINE_BOUND
               for other in by_support.get(support, [])):
            continue
        pool.cuts[cut.content_hash] = cut
        by_support.setdefault(support, []).append(cut)
        per_group[group] = per_group.get(group, 0) + 1
        admitted.append(cut)
    return admitted


def age_and_drop(pool: CutPool, slacks: dict):
    """Reset age on tight cuts, age the rest, drop old consistently-slack ones.

    `slacks` maps content hash to the slack a.x - b of the cut's LP row
    (missing: tight), here normalized.  Returns the list of dropped cuts.
    """
    dropped = []
    for h, cut in list(pool.cuts.items()):
        if slacks.get(h, 0.0) / cut.inf_norm < EPS_SLACK:
            cut.age = 0
            continue
        cut.age += 1
        if cut.age >= T_AGE:
            dropped.append(cut)
            del pool.cuts[h]
    return dropped


# -- persistence ----------------------------------------------------------


def _key_to_json(key):
    return list(key) if isinstance(key, tuple) else key


def _key_from_json(raw):
    if isinstance(raw, list):
        return tuple(_key_from_json(v) for v in raw)
    return raw


def save_cuts(pool: CutPool, stream):
    """Write the pool as JSON lines; one record per cut."""
    stream.write(json.dumps(FILE_HEADER) + "\n")
    for cut in sorted(pool.active(), key=lambda c: c.content_hash):
        rec = {
            "kind": cut.kind,
            "support": _key_to_json(cut.provenance),
            "terms": [[_key_to_json(k), w] for k, w in cut.terms.items()],
            "rhs": cut.rhs,
        }
        stream.write(json.dumps(rec) + "\n")


def load_cuts(stream, model=None) -> tuple[CutPool, int]:
    """Read a cut file; returns (pool, skipped count).

    Cuts naming a variable `model` neither has nor can add (see
    `RelaxationModel.has_variables`) are skipped; ages reset.  Without a
    model every well-formed cut is kept; `cutplane` skips what it lacks.
    """
    pool = CutPool()
    skipped = 0
    first = stream.readline()
    try:
        header = json.loads(first)
    except json.JSONDecodeError:
        raise CutFileError("missing or malformed cut file header", record=0)
    if header.get("fmt") != "cutpool" or header.get("v") != 1:
        raise CutFileError("unsupported cut file header %r" % (header,),
                           record=0)
    for num, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            terms = {_key_from_json(k): float(w) for k, w in rec["terms"]}
            rhs = float(rec["rhs"])
            if not isinstance(rec["kind"], str):  # the content hash encodes it
                raise TypeError("cut kind must be a string")
            # a cut needs a nonzero coefficient to be normalized and finite
            # numbers for the LP; json accepts NaN and Infinity
            if not any(terms.values()) or not all(
                    map(math.isfinite, [rhs, *terms.values()])):
                raise ValueError("no finite nonzero cut")
            cut = LinearCut(terms=terms, rhs=rhs, kind=rec["kind"],
                            provenance=_key_from_json(rec["support"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            raise CutFileError(
                "malformed cut record %d (last good record %d)"
                % (num, num - 1), record=num)
        if model is not None and not model.has_variables(cut.terms):
            skipped += 1
            continue
        pool.cuts[cut.content_hash] = cut
    return pool, skipped
