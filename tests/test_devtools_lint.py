"""Determinism linter tests (``repro.devtools``).

Three layers:

* every rule's ``bad`` snippet must trigger its code and its ``good``
  snippet must not -- the documented examples are the fixtures, so the
  ``--explain`` output can never drift from the implementation;
* framework behaviour -- inline suppressions, pyproject config parsing,
  module scoping, JSON output, CLI exit codes;
* the self-lint gate -- ``src/`` must lint clean, with zero suppressions
  inside the determinism-critical engine modules.
"""

import io
import json
from pathlib import Path

import pytest

from repro.devtools.engine import (
    LintConfig,
    lint_paths,
    lint_source,
    load_config,
    module_name_for_path,
    parse_suppressions,
)
from repro.devtools.rules import default_rules, rule_by_code
from repro.devtools.lint import run as lint_run
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Modules where a suppression comment is a review error, not a waiver.
PROTECTED_MODULES = {
    "repro.faults.timeline",
    "repro.scheduler.engine",
    "repro.scheduler.placement",
}

RULES = default_rules()


# ------------------------------------------------------------------ fixtures
@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.code)
def test_bad_snippet_triggers_rule(rule):
    result = lint_source(rule.bad, module=rule.example_module)
    codes = [finding.code for finding in result.findings]
    assert rule.code in codes, f"{rule.code} bad example produced {codes}"


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.code)
def test_good_snippet_is_clean(rule):
    result = lint_source(rule.good, module=rule.example_module)
    own = [finding for finding in result.findings if finding.code == rule.code]
    assert not own, f"{rule.code} good example still flagged: {own}"


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.code)
def test_explain_mentions_code_and_suppression(rule):
    text = type(rule).explain()
    assert rule.code in text
    assert f"# repro: allow[{rule.code}]" in text


def test_rule_codes_are_unique_and_ordered():
    codes = [rule.code for rule in RULES]
    assert codes == sorted(codes)
    assert len(codes) == len(set(codes))
    assert rule_by_code("D001") is type(RULES[0])
    assert rule_by_code("Z999") is None


# -------------------------------------------------------------- suppressions
def test_inline_suppression_moves_finding_to_suppressed():
    source = "import random\n\nvalue = random.random()  # repro: allow[D001]\n"
    result = lint_source(source, module="repro.example")
    assert result.ok
    assert [finding.code for finding in result.suppressed] == ["D001"]


def test_suppression_is_per_line_and_per_code():
    source = (
        "import random\n"
        "a = random.random()  # repro: allow[D002]\n"  # wrong code: no waiver
        "b = random.random()\n"
    )
    result = lint_source(source, module="repro.example")
    assert [finding.line for finding in result.findings] == [2, 3]
    assert not result.suppressed


def test_parse_suppressions_handles_code_lists():
    source = "x = 1  # repro: allow[D001, D003]\ny = 2\n"
    assert parse_suppressions(source) == {1: {"D001", "D003"}}


# -------------------------------------------------------------------- config
def test_from_mapping_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        LintConfig.from_mapping({"engine-modulez": ["repro"]})


def test_from_mapping_rejects_malformed_codes():
    with pytest.raises(ValueError, match="rule codes"):
        LintConfig.from_mapping({"ignore": ["D1"]})


def test_global_ignore_disables_rule():
    config = LintConfig.from_mapping({"ignore": ["D001"]})
    result = lint_source("import random\nx = random.random()\n",
                         module="repro.example", config=config)
    assert result.ok


def test_per_file_ignores_match_globs():
    config = LintConfig.from_mapping(
        {"per-file-ignores": {"legacy_*.py": ["D001"]}}
    )
    source = "import random\nx = random.random()\n"
    hit = lint_source(source, module="repro.example", config=config,
                      path="src/repro/fresh.py")
    miss = lint_source(source, module="repro.example", config=config,
                       path="src/repro/legacy_rng.py")
    assert [finding.code for finding in hit.findings] == ["D001"]
    assert miss.ok


def test_module_scoping_limits_rules():
    config = LintConfig(engine_modules=("somepkg",))
    result = lint_source("import random\nx = random.random()\n",
                         module="repro.example", config=config)
    assert result.ok


def test_from_pyproject_roundtrip(tmp_path):
    pytest.importorskip("tomllib")
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        "[tool.repro-lint]\n"
        'engine-modules = ["repro"]\n'
        'ignore = ["D008"]\n'
        "[tool.repro-lint.per-file-ignores]\n"
        '"*/generated_*.py" = ["D003"]\n'
    )
    config = LintConfig.from_pyproject(pyproject)
    assert config.ignore == ("D008",)
    assert config.per_file_ignores == (("*/generated_*.py", ("D003",)),)


def test_repo_pyproject_config_loads():
    config = load_config(SRC)
    assert config.engine_modules == ("repro",)
    assert "repro.scheduler" in config.ordered_modules


def test_module_name_for_path():
    path = SRC / "repro" / "scheduler" / "engine.py"
    assert module_name_for_path(path) == "repro.scheduler.engine"
    assert module_name_for_path(SRC / "repro" / "__init__.py") == "repro"


# ----------------------------------------------------------------------- CLI
def test_cli_list_rules_and_explain():
    stream = io.StringIO()
    assert lint_run(["--list-rules"], stream=stream) == 0
    listed = stream.getvalue()
    for rule in RULES:
        assert rule.code in listed

    stream = io.StringIO()
    assert lint_run(["--explain", "d001"], stream=stream) == 0
    assert "D001" in stream.getvalue()


def _write_package_module(tmp_path, name, source):
    """Write ``source`` as ``repro/<name>.py`` so module scoping applies."""
    package = tmp_path / "repro"
    package.mkdir(exist_ok=True)
    (package / "__init__.py").touch()
    path = package / name
    path.write_text(source)
    return path


def test_cli_json_output_and_exit_code(tmp_path):
    bad = _write_package_module(tmp_path, "bad.py",
                                "import random\nx = random.random()\n")
    stream = io.StringIO()
    status = lint_run([str(bad), "--format", "json",
                       "--config", str(REPO_ROOT / "pyproject.toml")],
                      stream=stream)
    assert status == 1
    payload = json.loads(stream.getvalue())
    assert payload["counts"] == {"D001": 1}
    assert payload["findings"][0]["code"] == "D001"
    assert payload["findings"][0]["line"] == 2


def test_cli_clean_file_exits_zero(tmp_path):
    good = _write_package_module(
        tmp_path, "good.py",
        "import random\nrng = random.Random(7)\nx = rng.random()\n",
    )
    stream = io.StringIO()
    assert lint_run([str(good), "--config",
                     str(REPO_ROOT / "pyproject.toml")], stream=stream) == 0
    assert "0 finding(s)" in stream.getvalue()


def test_repro_cli_lint_subcommand(capsys):
    assert cli_main(["lint", str(SRC)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_repro_cli_lint_subcommand_fails_on_findings(tmp_path, capsys):
    bad = _write_package_module(tmp_path, "bad.py",
                                "import random\nx = random.random()\n")
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["lint", str(bad)])
    assert excinfo.value.code == 1
    assert "D001" in capsys.readouterr().out


# ------------------------------------------------------------------ self-lint
def test_src_tree_lints_clean():
    result = lint_paths([SRC], config=load_config(SRC))
    rendered = "\n".join(finding.render() for finding in result.findings)
    assert result.ok, f"determinism linter findings in src/:\n{rendered}"


def test_protected_modules_carry_no_suppressions():
    result = lint_paths([SRC], config=load_config(SRC))
    waived = {finding.module for finding in result.suppressed}
    assert not waived & PROTECTED_MODULES

    # Stronger than the merged result: the files must not contain the
    # waiver comment at all, even on lines no rule currently flags.
    for module in sorted(PROTECTED_MODULES):
        path = SRC.joinpath(*module.split(".")).with_suffix(".py")
        assert parse_suppressions(path.read_text(encoding="utf-8")) == {}, (
            f"suppression comment found in determinism-critical {module}"
        )
