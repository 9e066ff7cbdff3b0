"""The long hunt is written down twice: as CI's ``fuzz`` step and as the
command the repo's verify recipe gives for running it by hand. Both
must name the same test ids, or one of them stops hunting a property
the other still does."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CI = ROOT / ".github" / "workflows" / "ci.yml"
RECIPE = ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
LONG = "--hypothesis-profile=long"


def hunted_ids(command: str) -> set[str]:
    """The ``tests/…`` ids one shell command passes to pytest."""
    return set(re.findall(r"(?<!\S)(tests/\S*\.py(?:::\S+)?)", command))


def ci_hunt() -> str:
    """The ``run: |`` block of the CI step that runs the long profile."""
    text = CI.read_text(encoding="utf-8")
    at = text.index(LONG)
    start = text.rindex("run: |", 0, at)
    end = text.find("\n\n", at)
    return text[start:end if end != -1 else len(text)]


def recipe_hunt() -> str:
    """The recipe's first fenced ``sh`` block that runs the long profile:
    the whole hunt (later ones re-run a part of it)."""
    text = RECIPE.read_text(encoding="utf-8")
    return next(block for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                if LONG in block)


def test_recipe_hunts_what_ci_hunts():
    ci, recipe = hunted_ids(ci_hunt()), hunted_ids(recipe_hunt())
    assert ci, "no test ids found in CI's long-profile step"
    assert sorted(ci - recipe) == [], "named by CI only"
    assert sorted(recipe - ci) == [], "named by the recipe only"


def test_every_hunted_file_exists():
    for test_id in hunted_ids(ci_hunt()):
        assert (ROOT / test_id.split("::")[0]).is_file(), test_id
