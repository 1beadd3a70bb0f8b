"""The package root re-exports the full public API, and the README's Library
section indexes exactly that API and runs."""

import re
from pathlib import Path

import mackeybox

README = Path(__file__).resolve().parent.parent / "README.md"


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
    assert mackeybox.parse_functor(mackeybox.render_machine(inverse)) == inverse
    assert mackeybox.isotropy_sequence(m).exact
    assert mackeybox.is_mackey_isomorphism(mackeybox.unit_isomorphism(m))
