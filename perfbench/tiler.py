"""Deterministic tiling of a MATPOWER case into a chain of copies.

Copy j of the base case renumbers bus i to i + j * stride, where stride is
the largest base bus id, and scales every load by its own factor drawn from
the seed.  Neighbouring copies are joined by two tie lines between fixed
buses, with impedances also drawn from the seed.  One seed always gives the
same network; different seeds give networks of the same topology whose
loads and tie impedances differ slightly, so the certified bound varies
little from seed to seed (the number of rounds still does: the stall test
reacts to any change of the loads).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from opfcuts.case_io import Branch, CaseData

LOAD_SIGMA = 0.002
TIE_R = 0.02
TIE_X = 0.08
TIE_B = 0.02
TIE_RATE_PU = 0.5
# tie lines leave a copy from its low-voltage side and enter the next copy
# on its high-voltage side, the way case14 itself is fed: 9 -> 2, 13 -> 4
TIE_FROM = (9, 13)
TIE_TO = (2, 4)


def _mw(pu: float, base_mva: float) -> float:
    """`pu` rounded to 1e-4 MW, so MATPOWER text carries it exactly."""
    return round(pu * base_mva, 4) / base_mva


def tile_case(base: CaseData, k: int, seed: int) -> CaseData:
    """`k` seeded copies of `base` joined in a chain by tie lines."""
    if k < 1:
        raise ValueError("need at least one copy")
    ids = {b.id for b in base.buses}
    if not (set(TIE_FROM) | set(TIE_TO)) <= ids:
        raise ValueError("base case lacks the tie-line buses")
    stride = max(ids)
    mva = base.base_mva
    rng = np.random.default_rng(seed)
    buses, branches, gens = [], [], []
    for j in range(k):
        off = j * stride
        for b in base.buses:
            f = max(0.0, 1.0 + LOAD_SIGMA * rng.normal())
            buses.append(replace(b, id=b.id + off,
                                 p_load=_mw(b.p_load * f, mva),
                                 q_load=_mw(b.q_load * f, mva)))
        branches.extend(replace(br, from_bus=br.from_bus + off,
                                to_bus=br.to_bus + off)
                        for br in base.branches)
        gens.extend(replace(g, bus=g.bus + off) for g in base.generators)
    for j in range(k - 1):
        for a, b in zip(TIE_FROM, TIE_TO):
            scale = 1.0 + 0.1 * rng.random()
            branches.append(Branch(
                from_bus=a + j * stride, to_bus=b + (j + 1) * stride,
                r=round(TIE_R * scale, 6), x=round(TIE_X * scale, 6),
                b_charge=TIE_B, rate_a=TIE_RATE_PU))
    return CaseData(base_mva=base.base_mva, buses=tuple(buses),
                    branches=tuple(branches), generators=tuple(gens),
                    name="%sx%d_s%d" % (base.name, k, seed))
