"""Inputs that must finish within a wall-clock budget.

Each case runs the CLI in-process and asserts both its output and its
elapsed time, in the style of the acceptance suite's `crit.elapsed`
budgets.  The expected outputs were produced by the earlier classifier,
which factored the full discriminant and took about 47 s on the first
case.
"""

import contextlib
import io
import time

from ellbrauer.cli import main as cli_main


class _Budget:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def __exit__(self, exc_type, exc, tb):
        return False


def _cli(*argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(list(argv))
    return code, buffer.getvalue().splitlines()


def test_fibers_with_degree_32_discriminant():
    # disc = 16 p^2 q^2 (p - q)^2 has degree 32; p, q and p - q have
    # degree at most 6 and are factored instead.
    with _Budget() as budget:
        code, lines = _cli(
            "fibers", "--p", "(t^4+t+1)*(t^2+1)", "--q", "t^4+3*t^2+7"
        )
    assert code == 0
    assert lines == [
        "t^2+1 : I_2",
        "t^4+t+1 : I_2",
        "t^4+3*t^2+7 : I_2",
        "t^6+t^3-2*t^2+t-6 : I_2",
        "infinity : I_4",
        "euler number = 36",
        "chi = 3",
        "K3 = no",
        "rank upper bound = 21",
        "Mordell-Weil rank bound = 9",
        "semistable = yes",
    ]
    assert budget.elapsed < 2.0
