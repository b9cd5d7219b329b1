"""Derivation synthesis against the engine it replaced.

``reference_synth.py`` is synthesis as it stood before it read the
bounded evaluator's types.  The requests are the typed generator's and
the subject-expansion suite's at seeds 0 and 7, each at its minimal
target and at every computation class of the universe.  Both engines
must raise ``Unsynthesizable`` on the same requests, or give valid
derivations with one conclusion; the new derivation is never the larger
tree.
"""
import pytest

import reference_synth as reference
from conftest import tree_size

from ubcalc.assignment import Unsynthesizable, check_derivation, synth_derivation, typable_nontrivial
from ubcalc.harness import GenConfig, _universe, gen_term
from ubcalc.reduction import DEFAULT_RULES, enumerate_steps
from ubcalc.typesys import C_OMEGA, to_ctype

CASES = 30


def _requests(cfg: GenConfig):
    """The closed subjects synthesis is asked to type: the typed
    generator's probes and every one-step reduct of a suite case."""
    for i in range(cfg.cases):
        yield gen_term(cfg, i * 50)
        for step in enumerate_steps(gen_term(cfg, i), DEFAULT_RULES):
            yield step.result


def _synth(engine, subject, target, cfg, universe):
    try:
        return engine((), subject, target, universe[0], cfg.atoms)
    except Unsynthesizable:
        return None


@pytest.mark.parametrize("seed", [0, 7])
def test_synthesis_matches_the_reference(seed):
    cfg = GenConfig(seed=seed, cases=CASES)
    universe = _universe(cfg)
    pairs = raised = 0
    for subject in _requests(cfg):
        minimal = typable_nontrivial(subject, universe, cfg.atoms)
        for target in [minimal or C_OMEGA] + [to_ctype(c) for c in universe[1]]:
            got = _synth(synth_derivation, subject, target, cfg, universe)
            want = _synth(reference.synth_derivation, subject, target, cfg, universe)
            pairs += 1
            assert (got is None) == (want is None), (subject, target)
            if got is None:
                raised += 1
                continue
            assert got.conclusion == want.conclusion
            assert check_derivation(got, cfg.atoms).valid
            assert check_derivation(want, cfg.atoms).valid
            assert tree_size(got) <= tree_size(want)
    assert pairs > 400 and 0 < raised < pairs
