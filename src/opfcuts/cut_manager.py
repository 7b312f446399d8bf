"""Cut pool: admission order, slack-based dropping, persistence.

A pool holds what a cut file holds: cuts by content hash, which never
change, and a simplex basis.  Ages live in a dict that each run keeps.

The warm-start file is UTF-8 JSON lines; variable references are symbolic
(bus / pair / branch ids), so saved cuts survive model rebuilds and transfer
to load-perturbed instances of the same network.  Version 2 reads:

    {"fmt": "cutpool", "v": 2}
    {"kind": "jabr", "support": [1, 2], "terms": [[key, w], ...], "rhs": b}
    ...one record per cut, by content hash...
    {"basis": {"columns": [[key, s], ...], "base_rows": "BBLU...",
               "cuts": [[content hash, s], ...]}}

The closing basis record is the simplex basis of the run's last LP solve,
the `lp_backend.SavedBasis` the backend reads by name: one status letter s
of `lp_backend.STATUS_LETTERS` per column key (sorted by `repr`), per base
row in row order and per cut row (sorted by hash).  It is left out when the
pool has no basis; `load_cuts` takes it in any place, but once.  Version 1
files have no basis record, and still load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import CutFileError
from .lp_backend import STATUS_LETTERS, SavedBasis
from .separation import LinearCut, _plain

T_AGE = 5
EPS_SLACK = 1e-5
FILE_HEADER = {"fmt": "cutpool", "v": 2}
_LETTERS = frozenset(STATUS_LETTERS)


@dataclass
class CutPool:
    cuts: dict = field(default_factory=dict)   # content_hash -> LinearCut
    basis: SavedBasis | None = None  # of the last LP solve; a warm start hint

    def __len__(self):
        return len(self.cuts)


def admit(pool: CutPool, candidates):
    """Add the candidates the pool lacks, by decreasing violation; returns
    them in that order, the order of their LP rows.  Separation builds only
    admissible cuts; the skip keeps a row id from entering the LP twice."""
    admitted = []
    for cut in sorted(candidates, key=lambda c: -c.violation_at_birth):
        if cut.content_hash not in pool.cuts:
            pool.cuts[cut.content_hash] = cut
            admitted.append(cut)
    return admitted


def age_and_drop(pool: CutPool, slacks: dict, ages: dict):
    """Count each cut's consecutive slack rounds in `ages` (a tight cut has
    none) and drop the cuts slack for `T_AGE` rounds.

    `slacks` maps content hash to the slack a.x - b of the cut's LP row
    (missing: tight), here normalized.  Returns the list of dropped cuts.
    """
    dropped = []
    for h, cut in list(pool.cuts.items()):
        if slacks.get(h, 0.0) / cut.inf_norm < EPS_SLACK:
            ages.pop(h, None)
            continue
        ages[h] = ages.get(h, 0) + 1
        if ages[h] >= T_AGE:
            dropped.append(cut)
            del pool.cuts[h], ages[h]
    return dropped


# -- persistence ----------------------------------------------------------


def _key_from_json(raw):
    """The variable key written as `raw`: lists become tuples, nested ones
    too (the branch or generator key inside a flow or generation key)."""
    if type(raw) is not list:
        return raw
    return tuple([_key_from_json(v) if type(v) is list else v for v in raw])


def save_cuts(pool: CutPool, stream):
    """Write the pool as JSON lines: one record per cut, then its basis.

    Keys and provenance go through `_plain`, so a numpy integer is written
    as the int it equals; JSON writes a tuple as a list.
    """
    stream.write(json.dumps(FILE_HEADER) + "\n")
    for cut in sorted(pool.cuts.values(), key=lambda c: c.content_hash):
        rec = {
            "kind": cut.kind,
            "support": _plain(cut.provenance),
            "terms": [[_plain(k), w] for k, w in cut.terms.items()],
            "rhs": cut.rhs,
        }
        stream.write(json.dumps(rec) + "\n")
    if pool.basis is not None:
        columns = sorted([[_plain(k), s]
                          for k, s in pool.basis.columns.items()],
                         key=lambda item: repr(item[0]))
        stream.write(json.dumps({"basis": {
            "columns": columns, "base_rows": pool.basis.base_rows,
            "cuts": sorted(map(list, pool.basis.cuts.items()))}}) + "\n")


def _basis_from_json(raw) -> SavedBasis:
    """The basis record's value; ValueError or TypeError when malformed."""
    columns = {_key_from_json(k): s for k, s in raw["columns"]}
    cuts = dict(raw["cuts"])
    base = raw["base_rows"]
    # bool is an int, but no content hash
    if not isinstance(base, str) or any(type(h) is not int for h in cuts) \
            or not _LETTERS.issuperset([*base, *columns.values(),
                                        *cuts.values()]):
        raise ValueError("malformed basis record")
    return SavedBasis(columns=columns, base_rows=base, cuts=cuts)


def load_cuts(stream, model=None) -> tuple[CutPool, int]:
    """Read a cut file; returns (pool, skipped count).

    Cuts naming a variable `model` neither has nor can add (see
    `RelaxationModel.has_variables`) are skipped.  Without a
    model every well-formed cut is kept; `cutplane` skips what it lacks.
    The pool carries the file's basis, if it has one, as saved.
    """
    pool = CutPool()
    skipped = 0
    first = stream.readline()
    try:
        header = json.loads(first)
    except json.JSONDecodeError:
        raise CutFileError("missing or malformed cut file header", record=0)
    if not isinstance(header, dict) or header.get("fmt") != "cutpool" \
            or header.get("v") not in (1, 2):
        raise CutFileError("unsupported cut file header %r" % (header,),
                           record=0)
    for num, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            if header["v"] == 2 and "basis" in rec:
                if pool.basis is not None:
                    raise ValueError("a second basis record")
                pool.basis = _basis_from_json(rec["basis"])
                continue
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
