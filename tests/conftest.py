import pytest


@pytest.fixture
def run_suite():
    """Run one `discordlim.verify` suite at a pinned (seed, samples). It
    must pass and make exactly `checks` checks, so a suite that stops
    making a check fails here as surely as one whose check fails."""

    def run(suite, seed, samples, checks):
        res = suite(seed, samples)
        assert res.ok, f"{res.name}: {len(res.failures)} failures, first {res.failures[:5]}"
        assert res.checks == checks, f"{res.name}: {res.checks} checks, pinned {checks}"
        return res

    return run
