"""Cutting-plane lower bounds for AC optimal power flow.

Linear outer approximation of clique-decomposed semidefinite relaxations:
parse a MATPOWER case, build the linearly constrained base model, then
iterate LP solves against dynamically separated Jabr, eigenvector, and
projection cuts.
"""

from .case_io import CaseData, parse_case, parse_case_file, perturb_loads
from .cut_manager import CutPool, load_cuts, save_cuts
from .driver import RunConfig, RunReport, cutplane, report_table
from .errors import OpfCutsError
from .hermitian import HermitianMatrix, eigen, psd_project, realify, w_to_x
from .network import PairGraph, chordal_cliques, enumerate_three_cycles
from .relaxation import RelaxationModel, build_m0
from .theory import TheoryCheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "CaseData", "parse_case", "parse_case_file", "perturb_loads",
    "CutPool", "load_cuts", "save_cuts",
    "RunConfig", "RunReport", "cutplane", "report_table",
    "OpfCutsError",
    "HermitianMatrix", "eigen", "psd_project", "realify", "w_to_x",
    "PairGraph", "chordal_cliques", "enumerate_three_cycles",
    "RelaxationModel", "build_m0",
    "TheoryCheckResult", "run_all",
    "__version__",
]
