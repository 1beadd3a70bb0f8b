"""The package root re-exports the full public API, and the README's Library
section indexes exactly that API and runs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import mackeybox

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("\n## Library\n") :]


def test_all_names_resolve():
    missing = [name for name in mackeybox.__all__ if not hasattr(mackeybox, name)]
    assert missing == []


def test_the_readme_indexes_exactly_the_public_names():
    """One index line per name of ``__all__``, and no line for any other."""
    indexed = re.findall(r"^- `(\w+)[`(]", library_section(), flags=re.M)
    assert sorted(indexed) == sorted(mackeybox.__all__)


def test_the_readme_library_example_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```$", library_section(), flags=re.M | re.S)
    exec(compile(block, str(README), "exec"), {})


def test_core_workflow_via_root_namespace():
    m = mackeybox.twisted_burnside(5, 2)
    assert mackeybox.check_axioms(m) == ()
    assert mackeybox.classify_invertible(m).d_class == 2
    inverse, certificate = mackeybox.invert(m)
    assert mackeybox.is_mackey_isomorphism(certificate)
    assert mackeybox.parse_functor(mackeybox.render_lewis(inverse, "machine")) == inverse
    assert mackeybox.isotropy_sequence(m).exact
    assert mackeybox.is_mackey_isomorphism(mackeybox.unit_isomorphism(m))


def test_the_command_line_starts_without_dataclasses_or_inspect():
    """Each pipeline stage is a fresh interpreter, so an import that the CLI
    does not need is paid on every stage; ``-S`` keeps the host's ``site``
    imports out of the answer."""
    probe = "import sys, mackeybox.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
