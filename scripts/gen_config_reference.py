#!/usr/bin/env python3
"""Regenerate docs/CONFIG.md from the configuration dataclasses.

Parses ``src/repro/common/config.py`` and emits one section per config
block (``MachineConfig`` first, then every nested block in field
order): the class docstring, then a table of field name, type, default
(as written in the source, so ``8 * MIB`` stays readable), and the
field's attribute docstring.  The whole file is generated — editing it
by hand is futile; change the dataclasses and re-run.

Run from the repo root::

    python scripts/gen_config_reference.py          # rewrite docs/CONFIG.md
    python scripts/gen_config_reference.py --check  # exit 1 if stale

CI's docs job runs ``--check``, so a new config field without a
regenerated reference fails the build rather than silently drifting.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCE = REPO_ROOT / "src" / "repro" / "common" / "config.py"
DOC = REPO_ROOT / "docs" / "CONFIG.md"

ROOT_CLASS = "MachineConfig"


@dataclass
class Field:
    name: str
    annotation: str
    default: Optional[str]
    doc: str


@dataclass
class Block:
    name: str
    doc: str
    fields: list


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _default_source(node: Optional[ast.expr], source: str) -> Optional[str]:
    """The default as written, unwrapping ``field(default_factory=X)``."""
    if node is None:
        return None
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "field"
    ):
        for kw in node.keywords:
            if kw.arg == "default_factory":
                if isinstance(kw.value, ast.Name):
                    return f"{kw.value.id}()"
                if isinstance(kw.value, ast.Lambda):
                    # Show the constructed value, without the lambda's
                    # inline comments.
                    return ast.unparse(kw.value.body)
                return ast.get_source_segment(source, kw.value) or "?"
            if kw.arg == "default":
                return ast.get_source_segment(source, kw.value)
        return "field(...)"
    return ast.get_source_segment(source, node)


def _collapse(text: str) -> str:
    """One markdown-table-safe line."""
    return " ".join(text.split()).replace("|", "\\|")


def parse_blocks(source: str) -> dict:
    """Every dataclass in the module, keyed by name, in source order."""
    tree = ast.parse(source)
    blocks: dict[str, Block] = {}
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
            continue
        fields: list[Field] = []
        body = iter(node.body)
        previous: Optional[Field] = None
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                previous = Field(
                    name=statement.target.id,
                    annotation=ast.get_source_segment(source, statement.annotation)
                    or "?",
                    default=_default_source(statement.value, source),
                    doc="",
                )
                fields.append(previous)
                continue
            # An attribute docstring: a bare string literal directly
            # after the field it documents.
            if (
                previous is not None
                and isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Constant)
                and isinstance(statement.value.value, str)
            ):
                previous.doc = statement.value.value
            previous = None
        blocks[node.name] = Block(
            name=node.name, doc=ast.get_docstring(node) or "", fields=fields
        )
    return blocks


def _render_block(block: Block, blocks: dict) -> list:
    lines = [f"## `{block.name}`", ""]
    if block.doc:
        lines.append(block.doc.strip())
        lines.append("")
    lines.append("| field | type | default | description |")
    lines.append("|---|---|---|---|")
    for field_ in block.fields:
        annotation = field_.annotation
        # Cross-link nested blocks.
        for name in blocks:
            if name in annotation:
                annotation = annotation.replace(name, f"[{name}](#{name.lower()})")
                break
        default = f"`{_collapse(field_.default)}`" if field_.default else "-"
        lines.append(
            f"| `{field_.name}` | {_collapse(annotation)} | {default} "
            f"| {_collapse(field_.doc)} |"
        )
    lines.append("")
    return lines


def render() -> str:
    source = SOURCE.read_text()
    blocks = parse_blocks(source)
    if ROOT_CLASS not in blocks:
        raise SystemExit(f"{ROOT_CLASS} not found in {SOURCE}")
    # MachineConfig first, then its nested blocks in field order, then
    # any remaining dataclasses in source order.
    order = [ROOT_CLASS]
    for field_ in blocks[ROOT_CLASS].fields:
        for name in blocks:
            if name in field_.annotation and name not in order:
                order.append(name)
    order.extend(name for name in blocks if name not in order)

    out = [
        "# Configuration reference",
        "",
        "<!-- generated by scripts/gen_config_reference.py; do not edit by hand -->",
        "",
        "Every configuration block, field, and default below is extracted",
        "from the live dataclasses (`repro.common.config`); regenerate with",
        "`python scripts/gen_config_reference.py` after changing them.",
        "Defaults are shown as written in the source (`8 * MIB`, not",
        "`8388608`); all times are nanoseconds, all sizes bytes.  What the",
        "blocks *mean* is covered in [MODEL.md](MODEL.md); fault profiles",
        "in [FAULTS.md](FAULTS.md).",
        "",
        "Blocks that equal their disabled default are omitted from",
        "`MachineConfig.to_dict()` so sweep-cache keys stay stable; see the",
        "field notes below.",
        "",
    ]
    for name in order:
        out.extend(_render_block(blocks[name], blocks))
    return "\n".join(out).rstrip() + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if the committed reference is stale, change nothing",
    )
    args = parser.parse_args(argv)

    fresh = render()
    current = DOC.read_text() if DOC.exists() else None
    if args.check:
        if fresh != current:
            print(
                "config reference is stale: run "
                "`python scripts/gen_config_reference.py`",
                file=sys.stderr,
            )
            return 1
        print("config reference is up to date")
        return 0
    if fresh != current:
        DOC.write_text(fresh)
        print(f"rewrote {DOC}")
    else:
        print("config reference already up to date")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
