"""CLI smoke tests."""

import argparse

import pytest

from repro.cli import build_parser, main


class TestCLI:
    def test_probe(self, capsys):
        assert main(["probe"]) == 0
        out = capsys.readouterr().out
        assert "(0, 1)" in out and "(6, 7)" in out

    def test_spmv(self, capsys):
        assert main(["spmv", "--matrix", "raefsky3", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "GFLOPS" in out and "Spaden" in out

    def test_table1(self, capsys):
        assert main(["table1", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "webbase1M" in out

    def test_formats(self, capsys):
        assert main(["formats", "--matrix", "raefsky3", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "bitbsr" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_kernel_fails_cleanly(self):
        from repro.errors import KernelError

        with pytest.raises(KernelError):
            main(["spmv", "--kernel", "nope", "--scale", "0.02"])


def test_command_set():
    # the audited set: paper tables and figures, verification, analysis,
    # the chaos campaign and the planner bench; host-plane timing
    # belongs to benchmarks/e2e, not to a CLI harness
    (commands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    expected = {
        "table1", "spmv", "figures", "probe", "formats", "verify",
        "analyze", "report", "chaos", "plan", "plan-bench",
    }
    assert set(commands.choices) == expected
