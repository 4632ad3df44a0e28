"""The draw-ahead producer: forked and inline runs give the same bits, and
no child outlives a run, however it ends."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cellaug import drawahead
from cellaug.cli import main
from cellaug.drawahead import draw_ahead
from cellaug.nn import DenseNetwork, LayerSpec, TrainConfig, TrainingDiverged, init_network, train
from cellaug.vae import VaeTrainConfig, train_vaes

# (SLOT_BYTES, RING_BYTES): the defaults, one record per slot in two slots,
# and a few records per slot in a few slots, so that slots are reused
RINGS = [None, (1, 1), (2000, 7000)]


@pytest.fixture(params=RINGS, ids=["default-ring", "two-slots", "small-ring"])
def forked(request, monkeypatch):
    """Force the forked producer, count the forks and check that none is left."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    if request.param:
        monkeypatch.setattr(drawahead, "SLOT_BYTES", request.param[0])
        monkeypatch.setattr(drawahead, "RING_BYTES", request.param[1])
    monkeypatch.setattr(drawahead, "_forks", lambda count: count > 0)
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    yield forks
    assert_no_child_left()


def inline(run, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(drawahead, "_forks", lambda count: False)
        return run()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


RAGGED = [((5,), np.intp), ((2, 3), np.float64)]  # the layout of ragged's records


def ragged(count):
    """Records whose first array shrinks with the step, as a short batch does."""
    rng = np.random.default_rng(1)
    for r in range(count):
        yield rng.permutation(5 - r % 3), rng.random((2, 3))


class TestDrawAhead:
    def test_forked_records_equal_inline(self, forked):
        want = [tuple(a.copy() for a in record) for record in ragged(11)]
        with draw_ahead(ragged(11), RAGGED, 11) as records:
            for (order, u), (want_order, want_u) in zip(records, want, strict=True):
                assert np.array_equal(order[: len(want_order)], want_order)
                assert np.array_equal(u, want_u)
        assert forked == [1]

    def test_reads_only_count_records(self, forked):
        with draw_ahead(ragged(20), RAGGED, 4) as records:
            assert len(list(records)) == 4

    def test_no_records_run_inline(self, forked):
        with draw_ahead(ragged(3), RAGGED, 0) as records:
            assert list(records) == []
        assert forked == []

    def test_killed_child_raises_child_process_error(self, forked, monkeypatch):
        # one record per slot, so that the parent waits on the child at every read
        monkeypatch.setattr(drawahead, "SLOT_BYTES", 1)
        with draw_ahead(ragged(10_000), RAGGED, 10_000) as records:
            next(records)
            os.kill(child_pid(), signal.SIGKILL)
            with pytest.raises(ChildProcessError, match="killed by signal 9"):
                for _ in records:
                    pass

    def test_error_in_the_reader_leaves_no_child(self, forked):
        with pytest.raises(KeyError):
            with draw_ahead(ragged(100), RAGGED, 100) as records:
                next(records)
                raise KeyError("reader failed")


def child_pid(parent=None):
    """The pid of a child process of `parent` (default: this process), or None."""
    parent = parent or os.getpid()
    try:
        children = Path(f"/proc/{parent}/task/{parent}/children").read_text().split()
    except OSError:
        pytest.skip("no /proc/<pid>/task/<pid>/children")
    return int(children[0]) if children else None


class TestTrainers:
    @pytest.mark.parametrize("dropout, rows, batch, epochs", [
        (0.1, 23, 5, 7),    # a short last batch of 3 rows
        (0.0, 23, 5, 7),
        (0.1, 40, 64, 3),   # one batch of all rows
        (0.1, 23, 5, 0),
    ])
    def test_localizer_forked_equals_inline(self, forked, monkeypatch, dropout, rows, batch,
                                            epochs):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, (rows, 4))
        y = rng.integers(0, 3, rows)
        specs = [LayerSpec(4, 6, "relu"), LayerSpec(6, 5, "relu"), LayerSpec(5, 3, "softmax")]
        cfg = TrainConfig(0.05, batch, epochs, seed=3)

        def run():
            return train(init_network(specs, 2, dropout_rate=dropout), x, y, cfg)

        want, want_trace = inline(run, monkeypatch)
        got, trace = run()
        assert forked == ([1] if epochs else [])
        assert trace == want_trace
        for a, b in zip(got.weights + got.biases, want.weights + want.biases, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("rows", [12, 70])  # full batch, and batches of 32, 32 and 6
    def test_vae_forked_equals_inline(self, forked, monkeypatch, rows):
        x = np.random.default_rng(rows).random((3, rows, 6))
        cfg = VaeTrainConfig(epochs=9, learning_rate=0.01, seed=4)

        def run():
            return train_vaes(x, cfg, [10, 11, 12])

        want = inline(run, monkeypatch)
        got = run()
        assert forked == [1]
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a.trace, b.trace)
            for net, ref in ((a.encoder, b.encoder), (a.decoder, b.decoder)):
                for p, q in zip(net.weights + net.biases, ref.weights + ref.biases, strict=True):
                    assert np.array_equal(p, q)

    def test_diverging_localizer_leaves_no_child(self, forked):
        net = DenseNetwork([LayerSpec(1, 2, "softmax")], [np.array([[1.0, 1e300]])],
                           [np.zeros(2)])
        with pytest.raises(TrainingDiverged, match="loss diverged at epoch 1"):
            train(net, np.array([[1e80]]), np.array([0]), TrainConfig(1.0, 1, 10, seed=0))
        assert forked == [1]
        assert_no_child_left()

    def test_diverging_vae_leaves_no_child(self, forked):
        x = np.random.default_rng(0).random((3, 8, 4))
        x[1] *= 1e160
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="location 11"):
            train_vaes(x, VaeTrainConfig(epochs=50, seed=0), [10, 11, 12])
        assert forked == [1]
        assert_no_child_left()


def run_cli(argv, *python_flags):
    """The CLI in a child process with two BLAS threads, so that all of its
    stderr is seen and the fork happens in a multi-threaded process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return [sys.executable, *python_flags, "-m", "cellaug.cli", *map(str, argv)], env


@pytest.fixture
def desk(tmp_path):
    path = tmp_path / "desk.jsonl"
    assert main(["synth", "--seed", "1", "--out", str(path)]) == 0
    return path


def test_successful_runs_leave_stderr_empty(tmp_path, desk):
    # -W default shows every warning, Python 3.12's warning on forking a
    # multi-threaded process included
    cfg = tmp_path / "short.cfg"
    cfg.write_text("vae.epochs = 30\nprofile.epochs = 3\n")
    for command in ("compare", "train"):
        argv, env = run_cli([command, desk, "--config", cfg, "--train-scans", "5",
                             "--out", tmp_path / f"{command}.json"], "-W", "default")
        result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""


@pytest.mark.skipif(not drawahead._forks(1), reason="draws run inline on one CPU")
def test_killed_producer_fails_compare_with_one_error_line(tmp_path, desk):
    argv, env = run_cli(["compare", desk, "--seed", "1", "--train-scans", "5",
                         "--out", tmp_path / "c.json"])
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        deadline = time.monotonic() + 60
        while (pid := child_pid(proc.pid)) is None and proc.poll() is None:
            assert time.monotonic() < deadline, "no producer was forked"
            time.sleep(0.002)
        assert pid is not None, "compare ended before a producer was seen"
        os.kill(pid, signal.SIGKILL)
        _, stderr = proc.communicate(timeout=300)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    assert lines[0].startswith("error: ") and "killed by signal 9" in lines[0]
    assert not (tmp_path / "c.json").exists()
