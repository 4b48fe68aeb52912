import importlib.util
from pathlib import Path


def test_two_runs_of_the_digest_script_are_identical(tmp_path, capsys):
    # the script's own check: at a reduced size, a second run on one checkout reports
    # "identical" for every name, and each name holds floats in the .npz beside the JSON
    path = Path(__file__).resolve().parents[1] / "scripts" / "digests.py"
    spec = importlib.util.spec_from_file_location("digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert script.main(["--out", str(first), "--small"]) == 0
    names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert script.main(["--out", str(second), "--small", "--against", str(first)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == names and len(names) == 6 * 4
    assert all(line.endswith(": identical") for line in lines), lines
    assert {name.split("/")[0] for name in names} == {"run_all", "build_psi", "build_pi", "theoretical_v"}
    assert first.with_suffix(".npz").exists() and second.with_suffix(".npz").exists()
