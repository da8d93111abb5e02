import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 result never depends on the draw or on earlier runs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def evals(monkeypatch):
    """Counter of the energy_and_gradient calls the NCG solves make."""
    import dnflow.elliptic as elliptic

    calls = [0]
    counted = elliptic.energy_and_gradient

    def counting(*args):
        calls[0] += 1
        return counted(*args)

    monkeypatch.setattr(elliptic, "energy_and_gradient", counting)
    return calls
