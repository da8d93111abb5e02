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


@pytest.fixture
def record_contexts(monkeypatch):
    """record_contexts(*modules) -> a list that gets, in order, every
    SolveContext the modules make through their binding of the name."""
    import dnflow.elliptic as elliptic

    def record(*modules):
        made = []

        def make(*args, **kwargs):
            made.append(elliptic.SolveContext(*args, **kwargs))
            return made[-1]

        for module in modules:
            monkeypatch.setattr(module, "SolveContext", make)
        return made

    return record
