import pytest

from masktab import blas, cli

bundled = pytest.mark.skipif(blas.threads() is None,
                             reason="numpy's BLAS is not the bundled OpenBLAS")


@pytest.fixture
def two_threads():
    """numpy's BLAS at two threads for the test, then back as it was."""
    get, put = blas._openblas()
    before = get()
    put(2)
    yield
    put(before)


@bundled
def test_one_thread_holds_and_restores(two_threads):
    with blas.one_thread():
        assert blas.threads() == 1
    assert blas.threads() == 2
    with pytest.raises(RuntimeError), blas.one_thread():
        raise RuntimeError
    assert blas.threads() == 2


@bundled
def test_commands_run_at_one_blas_thread(two_threads, monkeypatch, tmp_path):
    seen = []
    monkeypatch.setattr(cli, "cmd_report", lambda args: seen.append(blas.threads()) or 0)
    assert cli.main(["report", str(tmp_path)]) == 0
    assert seen == [1] and blas.threads() == 2


def test_unknown_blas_is_left_alone(monkeypatch):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    assert blas.threads() is None
    with blas.one_thread():
        assert blas.threads() is None
