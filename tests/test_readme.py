"""The README's examples: the Python blocks, run in order in one namespace,
and the CLI quick start, run in a fresh directory."""

import re
import shlex
from pathlib import Path

from harxlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.S | re.M)
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```$", TEXT, flags=re.S | re.M)


def test_readme_python_blocks_run():
    assert len(BLOCKS) >= 3
    namespace = {"__name__": "readme"}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
        # a "# -> text" line states the verdict of the expression on the line above it
        lines = block.splitlines()
        for above, line in zip(lines, lines[1:]):
            if line.startswith("# -> "):
                assert eval(above, namespace).describe() == line[len("# -> "):]


def test_readme_cli_quick_start_runs(tmp_path, monkeypatch, capsys):
    (block,) = [b for b in SH_BLOCKS if "cat > demo.spec <<'EOF'" in b]
    heredoc = re.search(r"^cat > demo\.spec <<'EOF'\n(.*?)^EOF$", block, flags=re.S | re.M)
    (tmp_path / "demo.spec").write_text(heredoc.group(1), encoding="utf-8")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("harxlab ")]
    assert [argv[0] for argv in commands] == ["simulate", "sweep", "wiener", "audit"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
    curves = [f"{name}_seed{seed}.csv" for name in ("lms_slow", "mflms") for seed in (1, 2, 3)]
    expected = curves + ["lms_slow_summary.json", "mflms_summary.json", "sweep_eta.csv", "sweep_eta.json"]
    assert sorted(p.name for p in (tmp_path / "results").iterdir()) == sorted(expected)
