"""Autograd profiler tests."""

import ast
import threading
from pathlib import Path

import numpy as np

from repro.autograd import Tensor, conv_nd, profiler
from repro.autograd.function import Function
from repro.autograd.profiler import profile

SRC = Path(__file__).resolve().parents[2] / "src"


class TestProfiler:
    def test_records_forward_ops(self):
        with profile() as prof:
            x = Tensor(np.ones((2, 2)), requires_grad=True)
            y = (x * 2.0 + 1.0).sum()
        assert prof.forward["Mul"].calls == 1
        assert prof.forward["Add"].calls == 1
        assert prof.forward["Sum"].calls == 1
        assert prof.total_seconds() > 0

    def test_records_backward_ops(self):
        with profile() as prof:
            x = Tensor(np.ones((2, 2)), requires_grad=True)
            (x * 3.0).sum().backward()
        assert prof.backward["Mul"].calls == 1
        assert prof.backward["Sum"].calls == 1

    def test_conv_dominates_network_time(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 4, 16, 16)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((8, 4, 3, 3)).astype(np.float32),
                   requires_grad=True)
        with profile() as prof:
            for _ in range(3):
                conv_nd(x, w, padding=1).sum().backward()
        assert prof.forward["ConvNd"].calls == 3
        assert prof.backward["ConvNd"].calls == 3

    def test_apply_restored_after_exit(self):
        orig = Function.apply.__func__
        with profile():
            assert profiler.running
        assert Function.apply.__func__ is orig
        assert profiler.running == ()

    def test_restored_even_on_exception(self):
        orig = Function.apply.__func__
        try:
            with profile():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert Function.apply.__func__ is orig
        assert profiler.running == ()

    def test_profiles_may_close_in_any_order(self):
        """Enter A, enter B, exit A, exit B — two threads' sessions
        interleaved: each profile counts exactly the ops it was open
        for, and none keeps counting after both have closed."""
        x = Tensor(np.ones(3), requires_grad=True)
        a, b = profile(), profile()
        prof_a = a.__enter__()
        prof_b = b.__enter__()
        (x * 2.0).sum().backward()
        a.__exit__(None, None, None)
        (x * 3.0).sum()
        b.__exit__(None, None, None)
        (x * 4.0).sum().backward()
        assert prof_a.forward["Mul"].calls == 1
        assert prof_a.backward["Mul"].calls == 1
        assert prof_b.forward["Mul"].calls == 2
        assert prof_b.forward["Sum"].calls == 2
        assert prof_b.backward["Mul"].calls == 1
        assert profiler.running == ()

    def test_ops_on_every_thread_are_recorded(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with profile() as prof:
            worker = threading.Thread(target=lambda: (x * 2.0).sum())
            worker.start()
            worker.join()
        assert prof.forward["Mul"].calls == 1

    def test_the_pool_line_is_a_pool_stats_delta(self):
        from repro.backend import PoolStats, get_pool

        with profile() as prof:
            with get_pool().arena(100):
                pass
        assert isinstance(prof.pool, PoolStats)
        assert prof.pool.hits + prof.pool.misses == 1

    def test_no_recording_outside_context(self):
        with profile() as prof:
            pass
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).sum().backward()
        assert "Mul" not in prof.forward


def test_nothing_in_src_assigns_function_apply():
    """The profiler is a read of ``profiler.running`` inside
    ``Function.apply``; no module may patch the method itself."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "setattr" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)
                  and node.args[1].value == "apply"):
                targets = [ast.Attribute(node.args[0], "apply")]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr == "apply"
                        and ast.unparse(target.value).split(".")[-1]
                        == "Function"):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders
