import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "digests_across_pythons.py"


def load_script():
    spec = importlib.util.spec_from_file_location("digests_across_pythons", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("stdout, code", [
    ("", 1),
    ('{"digest": null}\n{"correct": false, "attempted": 3, "failed": 3}', 0),
])
def test_a_failed_run_ends_in_one_line_and_exit_2(tmp_path, capsys, stdout, code):
    # A stand-in interpreter whose run fails as an older Python's does:
    # a traceback on stderr, then a non-zero exit or every operation failed.
    python = tmp_path / "python"
    python.write_text(
        "#!/bin/sh\n"
        "echo 'Traceback (most recent call last):' >&2\n"
        "echo \"AttributeError: 'int' object has no attribute 'bit_count'\" >&2\n"
        f"printf '%s\\n' '{stdout}'\n"
        f"exit {code}\n"
    )
    python.chmod(0o755)
    assert load_script().main([str(python)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"run failed: {python} grid: "
        "AttributeError: 'int' object has no attribute 'bit_count'\n"
    )
