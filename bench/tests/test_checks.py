"""A run is correct only when no operation failed and every check held."""

from bench.workloads import PassResult, check


def _pass(failed=0, errors=(), digest="d"):
    return PassResult(traced=False, setup_s=0.1, work_s=1.0, work=100.0,
                      latencies_ms=[1.0], attempted=100, failed=failed,
                      rss_mb=50.0, digest=digest, errors=list(errors))


def test_clean_passes_are_correct():
    assert check([_pass(), _pass(), _pass()]) == []


def test_a_failed_operation_fails_the_run_without_any_exception():
    errors = check([_pass(), _pass(failed=3), _pass()])
    assert errors == ["3 of 300 operations failed"]


def test_pass_errors_and_differing_digests_fail_the_run():
    assert check([_pass(errors=["replay mismatch"]), _pass()]) \
        == ["replay mismatch"]
    assert len(check([_pass(digest="a"), _pass(digest="b")])) == 1
