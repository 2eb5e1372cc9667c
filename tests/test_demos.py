import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load_demo(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_transport_demo_leaves_working_directory_alone(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    load_demo("04_transport_equation").main()
    assert list(tmp_path.iterdir()) == []


def test_transport_demo_writes_into_given_directory(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(tmp_path)
    load_demo("04_transport_equation").main(str(out))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert sorted(p.name for p in out.iterdir()) == ["transport.series",
                                                     "transport_solution.csv"]


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    load_demo(name).main()
    assert capsys.readouterr().out
