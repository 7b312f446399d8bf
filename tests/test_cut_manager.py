import dataclasses
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import opfcuts
from opfcuts import cut_manager, separation
from opfcuts.cut_manager import (CutPool, SavedBasis, admit, age_and_drop,
                                 load_cuts, save_cuts)
from opfcuts.errors import CutFileError
from opfcuts.hermitian import eigen, psd_cutoff
from opfcuts.relaxation import build_m0
from opfcuts.separation import PSD_TOL, LinearCut, cut_hashes, eigen_cut


def _cut(terms, rhs=0.0, kind="eigen", prov=(1, 2), viol=1.0):
    return LinearCut(terms=dict(terms), rhs=rhs, kind=kind, provenance=prov,
                     violation_at_birth=viol)


def _content(cut):
    """What a cut file keeps of a cut."""
    return cut.kind, cut.provenance, cut.rhs, list(cut.terms.items())


def test_admit_keeps_cuts_of_equal_content():
    """Admission numbers cuts and skips none: two cuts that are one cut
    after normalization both enter, under ids of their own."""
    pool = CutPool()
    a = _cut({("v2", 1): 1.0})
    b = _cut({("v2", 1): 2.0})
    assert cut_hashes([a]) == cut_hashes([b])
    assert admit(pool, [a]) == {0: a}
    assert admit(pool, [b]) == {1: b}
    assert pool.cuts == {0: a, 1: b}


def test_ids_never_repeat_after_a_drop(monkeypatch):
    """A dropped cut's id is never given again, not even when it was the
    last one given; ids follow decreasing violation."""
    monkeypatch.setattr(cut_manager, "T_AGE", 1)
    pool = CutPool()
    low, high = _cut({("v2", 1): 1.0}, viol=1.0), _cut({("v2", 2): 1.0},
                                                         viol=2.0)
    assert admit(pool, [low, high]) == {0: high, 1: low}
    assert age_and_drop(pool, {1: 1.0}, {}) == {1: low}
    again = _cut({("v2", 3): 1.0})
    assert admit(pool, [again]) == {2: again}
    assert CutPool({5: low}).next_id == 6


def test_admit_nonparallel_same_support_coexist():
    pool = CutPool()
    a = _cut({("v2", 1): 1.0, ("v2", 2): 1.0}, viol=2.0)
    b = _cut({("v2", 1): 1.0, ("v2", 2): -1.0}, viol=1.0)
    assert len(admit(pool, [a, b])) == 2


def test_admit_stale_pool_copy_does_not_block():
    """A near-parallel refinement of an existing cut is still admitted."""
    pool = CutPool()
    admit(pool, [_cut({("v2", 1): 1.0, ("v2", 2): 1.0}, viol=2.0)])
    refined = _cut({("v2", 1): 1.0, ("v2", 2): 1.00001}, viol=0.5)
    assert list(admit(pool, [refined]).values()) == [refined]


def test_age_and_drop(monkeypatch):
    monkeypatch.setattr(cut_manager, "T_AGE", 5)
    pool = CutPool()
    tight = _cut({("v2", 1): 1.0})
    slack = _cut({("v2", 2): 1.0})
    t, s = admit(pool, [tight, slack])
    ages = {}
    slacks = {t: 0.0, s: 1.0}
    for age in range(1, 5):
        assert age_and_drop(pool, slacks, ages) == {}
        assert ages == {s: age}
    assert age_and_drop(pool, slacks, ages) == {s: slack}
    assert list(pool.cuts) == [t]
    assert ages == {}


def test_age_resets_on_tightness(monkeypatch):
    monkeypatch.setattr(cut_manager, "T_AGE", 2)
    pool = CutPool()
    cut = _cut({("v2", 1): 1.0})
    [h] = admit(pool, [cut])
    ages = {}
    for i in range(20):
        slack = 1.0 if i % 2 else 0.0
        age_and_drop(pool, {h: slack}, ages)
        assert ages == ({h: 1} if i % 2 else {})
    assert pool.cuts[h] is cut


class _FakeModel:
    def __init__(self, keys):
        self.keys = set(keys)

    def has_variables(self, terms):
        return set(terms) <= self.keys


def test_save_load_round_trip():
    pool = CutPool()
    cuts = [_cut({("v2", 1): 1.0, ("c", 1, 2): -0.5}, rhs=0.1),
            _cut({("s", 1, 2): 2.0}, rhs=-1.0, kind="jabr")]
    admit(pool, cuts)
    buf = io.StringIO()
    save_cuts(pool, buf)
    buf.seek(0)
    again, skipped = load_cuts(
        buf, _FakeModel([("v2", 1), ("c", 1, 2), ("s", 1, 2)]))
    assert skipped == 0
    assert sorted(map(_content, again.cuts.values())) \
        == sorted(map(_content, cuts))


def test_term_order_is_canonical():
    """Insertion order changes neither the term order, the hash nor the file."""
    items = [(("v2", 2), 1.0), (("c", 1, 2), -0.5), (("s", 1, 2), 0.25),
             (("v2", 1), 4.0)]
    cuts = [_cut(items, rhs=0.1), _cut(items[::-1], rhs=0.1)]
    texts = []
    for cut in cuts:
        assert list(cut.terms) == sorted(cut.terms, key=repr)
        pool = CutPool()
        admit(pool, [cut])
        buf = io.StringIO()
        save_cuts(pool, buf)
        texts.append(buf.getvalue())
    assert list(cuts[0].terms) == list(cuts[1].terms)
    assert cut_hashes(cuts[:1]) == cut_hashes(cuts[1:])
    assert texts[0] == texts[1]


def test_born_cut_hashes_like_its_reloaded_copy(case14):
    """Seed 8078 gives a coefficient that numpy's round and Python's
    round(x, 12) round apart; a cut born with numpy floats would hash apart
    from its copy read back from the cut file."""
    rng = np.random.default_rng(8078)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = (a + a.conj().T)[None]
    [cut] = eigen_cut(eigen(x), psd_cutoff(x, PSD_TOL), [(9, 4, 7)])
    assert all(type(w) is float for w in cut.terms.values())
    assert any(round(np.float64(w / cut.inf_norm), 12)
               != round(w / cut.inf_norm, 12) for w in cut.terms.values())
    buf = io.StringIO()
    save_cuts(CutPool({0: cut}), buf)
    buf.seek(0)
    loaded, skipped = load_cuts(buf, build_m0(case14))
    assert skipped == 0
    assert cut_hashes(list(loaded.cuts.values())) == cut_hashes([cut])


def test_numpy_integer_keys_save_like_ints():
    """A cut keyed by numpy integers saves as its int-keyed twin and loads
    back with the same content hash."""
    texts, hashes = [], set()
    for bus in (np.int64(4), 4):
        cut = LinearCut({("v2", bus): 1.0}, 0.0, "eigen", (bus,))
        buf = io.StringIO()
        save_cuts(CutPool({0: cut}), buf)
        texts.append(buf.getvalue())
        buf.seek(0)
        loaded, _ = load_cuts(buf)
        hashes.update(cut_hashes([cut, *loaded.cuts.values()]))
    assert texts[0] == texts[1]
    assert len(hashes) == 1


def test_load_skips_unknown_variables():
    pool = CutPool()
    admit(pool, [_cut({("v2", 1): 1.0}),
                 _cut({("v2", 99): 1.0}, prov=(99,))])
    buf = io.StringIO()
    save_cuts(pool, buf)
    buf.seek(0)
    again, skipped = load_cuts(buf, _FakeModel([("v2", 1)]))
    assert skipped == 1
    assert len(again) == 1


def test_load_without_model_keeps_every_cut():
    pool = CutPool()
    admit(pool, [_cut({("v2", 1): 1.0}),
                 _cut({("v2", 99): 1.0}, prov=(99,))])
    buf = io.StringIO()
    save_cuts(pool, buf)
    buf.seek(0)
    again, skipped = load_cuts(buf)
    assert skipped == 0
    assert set(again.cuts) == set(pool.cuts)


def test_load_bad_header():
    with pytest.raises(CutFileError):
        load_cuts(io.StringIO("not json\n"), _FakeModel([]))
    with pytest.raises(CutFileError):
        load_cuts(io.StringIO('{"fmt": "cutpool", "v": 99}\n'), _FakeModel([]))
    with pytest.raises(CutFileError):  # JSON, but not an object
        load_cuts(io.StringIO('["cutpool", 2]\n'), _FakeModel([]))


def test_load_malformed_record_reports_position():
    text = ('{"fmt": "cutpool", "v": 1}\n'
            '{"kind": "eigen", "support": [1, 2], '
            '"terms": [[["v2", 1], 1.0]], "rhs": 0.0}\n'
            '{"kind": "eigen"}\n')
    with pytest.raises(CutFileError, match="record 2"):
        load_cuts(io.StringIO(text), _FakeModel([("v2", 1)]))


@pytest.mark.parametrize("kind", ["5", "null", "[\"eigen\"]"])
def test_load_rejects_non_string_kind(kind):
    """The content hash encodes the kind; a non-string one is malformed."""
    text = ('{"fmt": "cutpool", "v": 1}\n'
            '{"kind": %s, "support": [1], "terms": [[["v2", 1], 1.0]], '
            '"rhs": 0.0}\n' % kind)
    with pytest.raises(CutFileError, match="record 1"):
        load_cuts(io.StringIO(text), _FakeModel([("v2", 1)]))


def test_load_keeps_cuts_on_chord_pairs(case14, cold_report):
    """A cut on a pair with no branch loads; one on an unknown bus does not.
    The model is asked about each distinct key once."""
    model = build_m0(case14)
    assert any(key[1:] not in model.pairs.pair_branches
               for cut in cold_report.pool.cuts.values()
               for key in cut.terms if key[0] in ("c", "s"))
    stray = _cut({("v2", 1): 1.0, ("c", 1, 999): -1.0}, prov=(1, 999))
    pool = CutPool(dict(cold_report.pool.cuts))
    admit(pool, [stray])
    asked = []
    has_variables = model.has_variables
    model.has_variables = lambda keys: asked.extend(keys) or \
        has_variables(keys)
    again, skipped = load_cuts(io.StringIO(_saved(pool)), model)
    assert skipped == 1
    assert sorted(cut_hashes(list(again.cuts.values()))) \
        == sorted(cut_hashes(list(cold_report.pool.cuts.values())))
    named = {key for cut in pool.cuts.values() for key in cut.terms}
    assert sorted(asked, key=repr) == sorted(named, key=repr)


def _saved(pool) -> str:
    buf = io.StringIO()
    save_cuts(pool, buf)
    return buf.getvalue()


def _records(pool) -> str:
    """The pool's cuts as the line records of versions 1 and 2, in pool
    order."""
    return "".join(json.dumps({
        "kind": cut.kind, "support": cut.provenance,
        "terms": [[k, w] for k, w in cut.terms.items()], "rhs": cut.rhs})
        + "\n" for cut in pool.cuts.values())


def _in_hash_order(pool) -> list:
    """The pool's ids in the order its file keeps its cuts."""
    hashes = dict(zip(pool.cuts, cut_hashes(list(pool.cuts.values()))))
    return sorted(pool.cuts, key=hashes.__getitem__)


def test_saved_text_round_trips_with_its_basis(cold_report):
    """save -> load -> save gives the same text: a version 3 header and one
    document, its keys and basis in key and hash order whatever the order
    of the basis dicts.  The loaded pool numbers its cuts in file order,
    and each keeps its basis letter."""
    text = _saved(cold_report.pool)
    lines = text.splitlines()
    assert json.loads(lines[0]) == {"fmt": "cutpool", "v": 3}
    assert len(lines) == 2
    assert list(json.loads(lines[1])) == ["keys", "cuts", "basis"]
    loaded, skipped = load_cuts(io.StringIO(text))
    assert skipped == 0
    basis = cold_report.pool.basis
    order = _in_hash_order(cold_report.pool)
    assert list(map(_content, loaded.cuts.values())) \
        == [_content(cold_report.pool.cuts[h]) for h in order]
    assert loaded.basis == dataclasses.replace(basis, cuts={
        i: basis.cuts[h] for i, h in enumerate(order) if h in basis.cuts})
    assert _saved(loaded) == text
    shuffled = SavedBasis(
        columns=dict(reversed(basis.columns.items())),
        base_rows=basis.base_rows, cuts=dict(reversed(basis.cuts.items())))
    assert _saved(CutPool(cold_report.pool.cuts, shuffled)) == text


def test_v1_file_loads_without_basis(cold_report):
    v1 = '{"fmt": "cutpool", "v": 1}\n' + _records(cold_report.pool)
    loaded, _ = load_cuts(io.StringIO(v1))
    assert loaded.basis is None
    assert list(map(_content, loaded.cuts.values())) == [
        _content(cold_report.pool.cuts[h])
        for h in _in_hash_order(cold_report.pool)]
    # a v1 file has no basis record; one there is a malformed cut record
    record = json.dumps({"basis": _BASIS}) + "\n"
    with pytest.raises(CutFileError,
                       match="record %d" % (len(cold_report.pool) + 1)):
        load_cuts(io.StringIO(v1 + record))


def test_first_malformed_line_record_is_reported():
    """A bad number in an early record is found before a record that is
    no JSON at all, later in the file."""
    good = ('{"kind": "eigen", "support": [1], "terms": [[["v2", 1], 1.0]], '
            '"rhs": 0.0}\n')
    nan = good.replace("0.0}", "NaN}")
    for lines, record in ([good, nan, good, "garbage\n"], 2), \
            ([good, good, "garbage\n", nan], 3):
        with pytest.raises(CutFileError, match="record %d " % record):
            load_cuts(io.StringIO('{"fmt": "cutpool", "v": 1}\n'
                                  + "".join(lines)))


V2_FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                          "case14_pool_v2.jsonl")


def test_v2_file_loads_like_its_v3_save(case14):
    """A version 2 file (case14's cold pool and basis as saved before
    version 3) loads to the cuts, hashes and basis of its own version 3
    save, each cut hashed like its record built alone, and warm-starts to
    the same trajectory."""
    with open(V2_FIXTURE, encoding="utf-8") as fh:
        v2, _ = load_cuts(fh)
    with open(V2_FIXTURE, encoding="utf-8") as fh:
        records = [json.loads(line) for line in list(fh)[1:-1]]
    alone = [LinearCut({cut_manager._key_from_json(k): w
                        for k, w in rec["terms"]}, rec["rhs"], rec["kind"],
                       cut_manager._key_from_json(rec["support"]))
             for rec in records]
    assert list(v2.cuts.values()) == alone
    assert len(v2.cuts) == 91 and v2.basis is not None
    v3, _ = load_cuts(io.StringIO(_saved(v2)))
    assert list(v3.cuts) == list(v2.cuts) == sorted(v2.cuts)
    assert v3.cuts == v2.cuts and v3.basis == v2.basis
    pert = opfcuts.perturb_loads(case14, seed=3, mu_frac=0.0,
                                 sigma_frac=0.01)
    runs = [opfcuts.cutplane(pert, opfcuts.RunConfig(), warm=pool)
            for pool in (v2, v3)]
    trajectories = [[(st.objective.hex(), st.bound.hex(), st.cuts_added,
                      st.cuts_dropped, st.lp_iterations) for st in r.rounds]
                    + [r.termination] for r in runs]
    assert trajectories[0] == trajectories[1]
    assert runs[0].rounds[0].lp_iterations == 0


def test_pool_without_basis_saves_no_basis_record():
    pool = CutPool()
    admit(pool, [_cut({("v2", 1): 1.0})])
    text = _saved(pool)
    assert len(text.splitlines()) == 2
    assert load_cuts(io.StringIO(text))[0].basis is None


_BASIS = {"columns": [[["v2", 1], "B"]], "base_rows": "LB", "cuts": [[7, "U"]]}


@pytest.mark.parametrize("change", [
    {"base_rows": 5},
    {"base_rows": "LX"},
    {"columns": [[["v2", 1], "BB"]]},
    {"columns": [[["v2", 1]]]},
    {"columns": [[{"v2": 1}, "B"]]},       # a key that cannot be hashed
    {"cuts": [["7", "U"]]},
    {"cuts": [[True, "U"]]},
    {"cuts": None},
], ids=["base-not-str", "base-letter", "long-letter", "no-letter",
        "dict-key", "str-hash", "bool-hash", "no-cuts"])
def test_malformed_basis_record_raises(change):
    record = {"basis": dict(_BASIS, **change)}
    text = ('{"fmt": "cutpool", "v": 2}\n'
            '{"kind": "eigen", "support": [1], "terms": [[["v2", 1], 1.0]], '
            '"rhs": 0.0}\n' + json.dumps(record) + "\n")
    with pytest.raises(CutFileError, match="record 2"):
        load_cuts(io.StringIO(text))


def test_second_basis_record_raises():
    record = json.dumps({"basis": _BASIS}) + "\n"
    text = '{"fmt": "cutpool", "v": 2}\n' + record + record
    # no cut hashes to 7, so its letter names no cut
    assert load_cuts(io.StringIO(text[:-len(record)]))[0].basis == \
        SavedBasis({("v2", 1): "B"}, "LB", {})
    with pytest.raises(CutFileError, match="record 2"):
        load_cuts(io.StringIO(text))


_COSINES = """
import random
from opfcuts.separation import LinearCut, _cosine

rng = random.Random(0)
clique = (1, 2, 3, 4, 5)
keys = [("v2", b) for b in clique] + [
    (k, a, b) for k in "cs" for i, a in enumerate(clique)
    for b in clique[i + 1:]]
def cut():
    return LinearCut({k: rng.uniform(-1, 1) for k in keys}, 0.0, "eigen",
                     clique)
print(" ".join(_cosine(cut(), cut()).hex() for _ in range(200)))
"""


def test_cosine_independent_of_hash_seed():
    src = os.path.dirname(os.path.dirname(opfcuts.__file__))
    out = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out.append(subprocess.run([sys.executable, "-c", _COSINES], env=env,
                                  capture_output=True, text=True,
                                  check=True).stdout)
    assert out[0] == out[1]


def _raising(*args):
    raise AssertionError("a content hash was computed")


def test_cold_run_and_version_3_load_hash_nothing(case14, cold_report,
                                                   monkeypatch):
    text = _saved(cold_report.pool)
    monkeypatch.setattr(separation, "_content_hashes", _raising)
    report = opfcuts.cutplane(case14, opfcuts.RunConfig())
    loaded, skipped = load_cuts(io.StringIO(text), build_m0(case14))
    assert skipped == 0 and len(loaded) == len(report.pool)
    assert list(loaded.cuts) == list(range(len(loaded)))


def test_save_and_line_loads_hash_in_one_batch(cold_report, monkeypatch):
    calls = []
    batch = separation._content_hashes

    def counting(kinds, *args):
        calls.append(len(kinds))
        return batch(kinds, *args)

    monkeypatch.setattr(separation, "_content_hashes", counting)
    _saved(cold_report.pool)
    assert calls == [len(cold_report.pool)]
    load_cuts(io.StringIO('{"fmt": "cutpool", "v": 1}\n'
                          + _records(cold_report.pool)))
    with open(V2_FIXTURE, encoding="utf-8") as fh:
        load_cuts(fh)
    assert calls == [len(cold_report.pool)] * 2 + [91]


def test_cuts_of_equal_content_round_trip(case14, cold_report):
    """A pool may hold two cuts of one content, each under its own id.
    Its file keeps both, the earlier id first, and saves again as the same
    text; loaded, both rows enter the LP and the first solve is
    certified."""
    pool = CutPool(dict(cold_report.pool.cuts))
    first = next(iter(pool.cuts.values()))
    twin = LinearCut({k: 2.0 * w for k, w in first.terms.items()},
                     2.0 * first.rhs, first.kind, first.provenance)
    [h] = admit(pool, [twin])
    assert cut_hashes([twin]) == cut_hashes([first])
    text = _saved(pool)
    loaded, skipped = load_cuts(io.StringIO(text))
    assert skipped == 0 and len(loaded) == len(pool)
    order = _in_hash_order(pool)
    assert order.index(h) == order.index(next(iter(pool.cuts))) + 1
    assert list(map(_content, loaded.cuts.values())) \
        == [_content(pool.cuts[i]) for i in order]
    assert _saved(loaded) == text
    report = opfcuts.cutplane(case14, opfcuts.RunConfig(max_rounds=1),
                              warm=loaded)
    assert np.isfinite(report.rounds[0].bound)
