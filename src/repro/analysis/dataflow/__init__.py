"""Forward dataflow framework over the frontend AST.

Three clients (the tentpole of the dataflow milestone):

* :mod:`.affineprop` — constant & affine-form propagation plus
  induction-variable recognition, feeding precise Eq. 5 index forms into
  :func:`repro.analysis.loops.find_loops`;
* :mod:`.safety` — the static transform-safety verifier behind
  ``catt lint`` and the pipeline's static validation pre-gate;
* :mod:`.homogeneity` — the block-homogeneity query that gates the
  simulator's widened-block dedup (:mod:`repro.sim.replay`).

:mod:`.cfg` and :mod:`.solver` are the shared framework underneath.
"""

from .affineprop import AffineFlow, FlowEnv, LoopMeta, PtrState, ptr_state_of
from .cfg import CFG, BasicBlock, CFGLoop, build_cfg
from .homogeneity import HomogeneityReport, block_homogeneity
from .solver import solve_forward

__all__ = [
    "AffineFlow",
    "FlowEnv",
    "LoopMeta",
    "PtrState",
    "ptr_state_of",
    "CFG",
    "BasicBlock",
    "CFGLoop",
    "build_cfg",
    "solve_forward",
    "HomogeneityReport",
    "block_homogeneity",
]
