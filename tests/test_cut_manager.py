import io
import os
import subprocess
import sys

import numpy as np
import pytest

import opfcuts
from opfcuts import cut_manager
from opfcuts.cut_manager import (CutPool, admit, age_and_drop, load_cuts,
                                 save_cuts)
from opfcuts.errors import CutFileError
from opfcuts.hermitian import eigen, psd_cutoff
from opfcuts.relaxation import build_m0
from opfcuts.separation import PSD_TOL, LinearCut, eigen_cut


def _cut(terms, rhs=0.0, kind="eigen", prov=(1, 2), viol=1.0):
    return LinearCut(terms=dict(terms), rhs=rhs, kind=kind, provenance=prov,
                     violation_at_birth=viol)


def test_admit_duplicate_hash_rejected():
    pool = CutPool()
    a = _cut({("v2", 1): 1.0})
    b = _cut({("v2", 1): 2.0})  # same cut after normalization
    assert len(admit(pool, [a])) == 1
    assert admit(pool, [b]) == []
    assert len(pool) == 1


def test_admit_threshold():
    pool = CutPool()
    weak = _cut({("v2", 1): 1.0, ("c", 1, 2): -1.0}, viol=1e-6)
    assert admit(pool, [weak]) == []
    strong = _cut({("v2", 1): 1.0, ("c", 1, 2): -1.0}, viol=1e-4)
    assert len(admit(pool, [strong])) == 1


def test_admit_parallel_keeps_most_violated():
    pool = CutPool()
    big = _cut({("v2", 1): 1.0, ("v2", 2): 1.0}, viol=2.0)
    near = _cut({("v2", 1): 1.0, ("v2", 2): 1.0001}, viol=1.0)
    admitted = admit(pool, [near, big])
    assert admitted == [big]


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
    assert admit(pool, [refined]) == [refined]


def test_admit_k_add_per_group(monkeypatch):
    monkeypatch.setattr(cut_manager, "K_ADD", 5)
    monkeypatch.setattr(cut_manager, "COSINE_BOUND", 1.0 - 1e-12)
    pool = CutPool()
    cands = [_cut({("v2", 1): 1.0, ("v2", 2): float(i)}, viol=10.0 - i)
             for i in range(2, 12)]
    admitted = admit(pool, cands)
    assert len(admitted) == 5
    assert [c.violation_at_birth for c in admitted] == [8, 7, 6, 5, 4]
    other = _cut({("v2", 3): 1.0}, prov=(3,))
    assert len(admit(pool, [other])) == 1


def test_age_and_drop(monkeypatch):
    monkeypatch.setattr(cut_manager, "T_AGE", 5)
    pool = CutPool()
    tight = _cut({("v2", 1): 1.0})
    slack = _cut({("v2", 2): 1.0})
    admit(pool, [tight, slack])
    for _ in range(4):
        dropped = age_and_drop(
            pool, {tight.content_hash: 0.0, slack.content_hash: 1.0})
        assert dropped == []
    dropped = age_and_drop(
        pool, {tight.content_hash: 0.0, slack.content_hash: 1.0})
    assert dropped == [slack]
    assert tight.content_hash in pool.cuts
    assert tight.age == 0


def test_age_resets_on_tightness(monkeypatch):
    monkeypatch.setattr(cut_manager, "T_AGE", 2)
    pool = CutPool()
    cut = _cut({("v2", 1): 1.0})
    admit(pool, [cut])
    for i in range(20):
        slack = 1.0 if i % 2 else 0.0
        age_and_drop(pool, {cut.content_hash: slack})
    assert cut.content_hash in pool.cuts


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
    for c in pool.active():
        c.age = 3
    buf = io.StringIO()
    save_cuts(pool, buf)
    buf.seek(0)
    again, skipped = load_cuts(
        buf, _FakeModel([("v2", 1), ("c", 1, 2), ("s", 1, 2)]))
    assert skipped == 0
    assert set(again.cuts) == set(pool.cuts)
    assert all(c.age == 0 for c in again.active())


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
    assert cuts[0].content_hash == cuts[1].content_hash
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
    save_cuts(CutPool({cut.content_hash: cut}), buf)
    buf.seek(0)
    loaded, skipped = load_cuts(buf, build_m0(case14))
    assert skipped == 0
    assert list(loaded.cuts) == [cut.content_hash]


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
    """A cut on a pair with no branch loads; one on an unknown bus does not."""
    model = build_m0(case14)
    assert any(key[1:] not in model.pairs.pair_branches
               for cut in cold_report.pool.active()
               for key in cut.terms if key[0] in ("c", "s"))
    buf = io.StringIO()
    save_cuts(cold_report.pool, buf)
    buf.write('{"kind": "eigen", "support": [1, 999], '
              '"terms": [[["v2", 1], 1.0], [["c", 1, 999], -1.0]], '
              '"rhs": 0.0}\n')
    buf.seek(0)
    again, skipped = load_cuts(buf, model)
    assert skipped == 1
    assert set(again.cuts) == set(cold_report.pool.cuts)


_COSINES = """
import random
from opfcuts.cut_manager import _cosine
from opfcuts.separation import LinearCut

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
