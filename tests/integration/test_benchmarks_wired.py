"""Every benchmark harness must be reachable from a Makefile target.

A harness that no target runs can break without anyone noticing, so each
``benchmarks/*.py`` file has to appear in some target's recipe.
"""

from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def test_every_benchmark_is_run_by_a_make_target():
    recipes = "\n".join(
        line
        for line in (REPO_ROOT / "Makefile").read_text().splitlines()
        if line.startswith("\t")
    )
    harnesses = sorted((REPO_ROOT / "benchmarks").glob("*.py"))
    assert harnesses
    unwired = [
        path.name for path in harnesses if f"benchmarks/{path.name}" not in recipes
    ]
    assert not unwired, f"benchmarks not run by any Makefile target: {unwired}"
