import pytest


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
