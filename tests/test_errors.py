"""The command line's exit status and stderr prefix for each package error."""

import pytest

import gradflow.errors as errors
from gradflow import cli

# (exit status, stderr prefix) of each error type
EXPECTED = {
    "GradflowError": (2, "error"),
    "ProgramSyntaxError": (2, "error"),
    "ValidationFailed": (2, "error"),
    "UnboundName": (2, "error"),
    "DomainError": (2, "error"),
    "ShapeMismatch": (2, "error"),
    "OutOfBounds": (2, "error"),
    "NonTermination": (2, "error"),
    "MissingTapeValue": (2, "error"),
    "DependentUnreachable": (2, "error"),
    "IrrecomputableValue": (2, "error"),
    "NegativeResident": (2, "error"),
    "UnresolvableTripCount": (3, "unsupported"),
    "UnsupportedLoop": (3, "unsupported"),
    "UnsupportedConstruct": (3, "unsupported"),
    "NoFixpoint": (3, "unsupported"),
    "PathExplosion": (3, "unsupported"),
    "BatchDivergence": (3, "unsupported"),
    "Infeasible": (4, "infeasible"),
}


def _error_types(cls=errors.GradflowError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_types(sub)


def _raised_by_load(monkeypatch, capsys, exc) -> tuple[int, str]:
    def load(path):
        raise exc

    monkeypatch.setattr(cli, "load_program", load)
    code = cli.main(["fmt", "program.json"])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def test_every_error_type_has_an_expected_exit():
    assert {cls.__name__ for cls in _error_types()} == EXPECTED.keys()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_an_error_exits_with_its_status_and_prefix(name, monkeypatch, capsys):
    cls = getattr(errors, name)
    exc = cls([errors.Diagnostic("Code", "broken")]) if cls is errors.ValidationFailed else cls("broken")
    code, err = _raised_by_load(monkeypatch, capsys, exc)
    status, prefix = EXPECTED[name]
    assert (code, err) == (status, f"{prefix}: {exc}\n")


@pytest.mark.parametrize("exact, what", [(True, "minimum achievable peak"), (False, "peak lower bound")])
def test_an_infeasible_limit_prints_its_peak(exact, what, monkeypatch, capsys):
    exc = errors.Infeasible("no plan fits", 3 << 20, exact=exact)
    code, err = _raised_by_load(monkeypatch, capsys, exc)
    assert code == 4
    assert err == f"infeasible: no plan fits\n{what}: 3145728 bytes (3.00 MiB)\n"
