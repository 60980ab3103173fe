"""Each command-line invocation of a pass starts with nothing compiled."""

from racah import core

from perfbench import workloads


def test_cli_invocation_drops_compiled_rewrite_systems():
    core.rewrite_system(4)
    assert core.rewrite_system.cache_info().currsize == 1
    code, data = workloads._call_cli(("list-relations", "--rank", "4"))
    assert code == 0 and data
    assert core.rewrite_system.cache_info().currsize == 0
