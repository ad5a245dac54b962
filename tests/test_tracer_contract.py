"""The benchmark's per-layer tracer (perfbench/tracer.py) replaces every
primitive named in its KINDS while it is active, and rejects any tape entry
recorded outside them; it also times the functions named in its _SPANS by
replacing them. So a renamed, removed or new primitive in lifthead.tensor,
or a renamed or bypassed span target, breaks a traced benchmark run
(``perfbench/run.py --trace 1``) or empties its timings. This test runs the
tracer at the tiny profile to catch that here.
"""

import os
import sys

import numpy as np

import lifthead.cli as cli
import lifthead.model as M
import lifthead.synthetic as S
import lifthead.tensor as T
import lifthead.training as TR

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench"))

import tracer  # noqa: E402

# tape entries of one tiny training step, as the benchmark counts them
TINY_ENTRIES_PER_STEP = 148


def test_traced_tiny_train_step_and_eval_forward():
    missing = [kind for kind in tracer.KINDS if not callable(getattr(T, kind, None))]
    assert not missing, f"tracer KINDS not in lifthead.tensor: {missing}"
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracer._SPANS
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"tracer spans not in lifthead: {missing}"
    cfg = {f.name: f.default for f in cli.FIELDS}
    cfg.update(cli.PROFILES["tiny"], epochs=1)
    hc, tc = cli.head_config(cfg), cli.train_config(cfg)
    data = S.generate(tc.batch_size, S.SyntheticGen(n_patches=hc.n_patches, c_in=hc.c_in))
    params = M.init_head(hc, np.random.default_rng(0))
    with tracer.Tracer() as tr:
        result = TR.train(hc, params, data, tc)
        out = M.forward(hc, result.params, TR.stack_samples(data)[0])
    assert len(result.metrics) == 1
    assert sum(tr.kind_entries.values()) == TINY_ENTRIES_PER_STEP
    assert tr.span_calls["model.forward"] == 2
    # train() makes its averaged model through the traced name
    assert tr.span_calls["training.average_checkpoints"] == 1
    assert np.isfinite(out.keypoints.data).all()
