"""Property test (hypothesis): the level-wise tile engine against the
single forward, over the architectures and grids it has to serve.

For any U-Net the repo can build — 2-D/3-D, depth 1-3, 2-4 base filters,
0-2 architectural adaptations, stride-2 conv down-sampling — on ragged
grids (the last tile may be shorter than the halo), any aligned tile
size and batch 1-3:

* tiled == ``predict_batch`` to 1e-5;
* the one-block plan is the plain forward, bitwise ``predict_batch``;
* over a plan with the network's halo or a wider one (built with
  ``plan_tiles``; the predict paths take the network's), the tiled bare
  network == its single forward to 1e-5, serial == thread == process
  executors *bitwise*, and a stream restricted to ``tiles=S`` delivers
  exactly ``S``, once each, with cores bit-equal to the full stream's.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import MGDiffNet, PoissonProblem2D, PoissonProblem3D
from repro.autograd import Tensor, no_grad
from repro.core.inference import predict_batch, prepare_batch_inputs
from repro.serve import (make_executor, plan_tiles, receptive_halo,
                         stream_tiled_forward, tiled_forward, tiled_predict)

TOLERANCE = 1e-5


@pytest.fixture(scope="module")
def executors():
    with make_executor("thread", 2) as thread, \
            make_executor("process", 2) as process:
        yield thread, process


@st.composite
def cases(draw):
    ndim = draw(st.sampled_from([2, 3]))
    depth = draw(st.integers(1, 3))
    unit = 2 ** depth
    # Grid sizes in alignment units, small enough for a 3-D depth-3 net.
    cells = draw(st.integers(1, 6 if ndim == 2 else 24 // unit))
    return dict(
        ndim=ndim, depth=depth, resolution=cells * unit,
        tile=unit * draw(st.integers(1, cells)),
        base_filters=draw(st.integers(2, 4)),
        adaptations=draw(st.integers(0, 2)),
        extra_halo=draw(st.sampled_from([0, 0, 2, 6])),
        batch=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 10 ** 6)))


def _build(case):
    rng = np.random.default_rng(case["seed"])
    model = MGDiffNet(ndim=case["ndim"], base_filters=case["base_filters"],
                      depth=case["depth"], rng=case["seed"])
    for _ in range(case["adaptations"]):
        model.adapt(rng=int(rng.integers(1 << 30)))
    # One training-mode forward so eval-mode BatchNorm is not the identity.
    shape = (2, 1) + (2 ** case["depth"] * 2,) * case["ndim"]
    with no_grad():
        model.net(Tensor(rng.standard_normal(shape).astype(np.float32)))
    problem = (PoissonProblem2D if case["ndim"] == 2
               else PoissonProblem3D)(case["resolution"])
    omegas = rng.uniform(-3.0, 3.0, size=(case["batch"], 4))
    return model, problem, omegas, rng


@given(case=cases())
@settings(max_examples=25, deadline=None)
def test_tiled_inference_parity(executors, case):
    model, problem, omegas, rng = _build(case)
    tile = case["tile"]
    ref = predict_batch(model, problem, omegas)

    tiled = tiled_predict(model, problem, omegas, tile=tile)
    assert tiled.shape == ref.shape
    assert np.abs(tiled - ref).max() <= TOLERANCE
    np.testing.assert_array_equal(
        tiled_predict(model, problem, omegas), ref)      # the one-block plan

    x = prepare_batch_inputs(problem, omegas)[0]
    plan = plan_tiles(x.shape[2:], tile,
                      receptive_halo(model) + case["extra_halo"],
                      2 ** case["depth"])
    with model.evaluating(), no_grad():
        full = model.net(Tensor(x)).numpy()
        serial = tiled_forward(model.net, x, plan)
        assert np.abs(serial - full).max() <= TOLERANCE

        for executor in executors:
            got = tiled_forward(model.net, x, plan, executor=executor)
            np.testing.assert_array_equal(got, serial, err_msg=executor.kind)

        subset = [int(i) for i in rng.permutation(plan.num_tiles)
                  [:int(rng.integers(1, plan.num_tiles + 1))]]
        records = list(stream_tiled_forward(model.net, x, plan, tiles=subset))
    assert sorted(i for i, _, _ in records) == sorted(subset)
    for i, sl, core in records:
        assert sl == tuple(slice(a, b) for a, b in plan.blocks[i])
        np.testing.assert_array_equal(core, serial[(slice(None),) * 2 + sl])
