"""Generate ``docs/API.md`` from the public surface of ``repro``.

Walks every module under the ``repro`` package, collects its public
symbols (``__all__`` when declared, otherwise top-level names that do
not start with an underscore and were defined in that module), and
renders one reference section per module: each symbol's signature plus
the first line of its docstring.  The output is deterministic — sorted
module and symbol order, no timestamps — so the generated file can be
committed and diffed.

Usage::

    PYTHONPATH=src python tools/gen_api_docs.py           # rewrite docs/API.md
    PYTHONPATH=src python tools/gen_api_docs.py --check   # CI staleness gate

``--check`` regenerates in memory and exits 1 if ``docs/API.md`` on
disk differs, printing the command that refreshes it.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
OUT_PATH = REPO_ROOT / "docs" / "API.md"

HEADER = """\
# `repro` API reference

One section per module, one entry per public symbol: the signature and
the first line of the docstring.  **Generated — do not edit by hand.**
Regenerate with::

    PYTHONPATH=src python tools/gen_api_docs.py

CI runs the same script with ``--check`` and fails if this file is
stale relative to the source tree.
"""


def iter_module_names(package="repro"):
    """Sorted dotted names of ``package`` and every submodule under it."""
    root = importlib.import_module(package)
    names = {package}
    for info in pkgutil.walk_packages(root.__path__, prefix=package + "."):
        # ``__main__`` modules execute their CLI on import; other
        # underscore modules (``repro._lazy``) are not public surface.
        if info.name.rsplit(".", 1)[-1].startswith("_"):
            continue
        names.add(info.name)
    return sorted(names)


def public_symbols(module):
    """``(name, object)`` pairs of the module's public surface, sorted.

    Honors ``__all__`` when declared; otherwise takes non-underscore
    top-level names whose ``__module__`` matches (so re-exports in
    package ``__init__`` files with ``__all__`` are kept, but implicit
    imports are not double-documented).
    """
    declared = getattr(module, "__all__", None)
    out = []
    for name in sorted(declared if declared is not None else vars(module)):
        if name.startswith("_"):
            continue
        try:
            obj = getattr(module, name)
        except AttributeError:
            continue
        if declared is None:
            if inspect.ismodule(obj):
                continue
            if getattr(obj, "__module__", module.__name__) != module.__name__:
                continue
            if not callable(obj) and not inspect.isclass(obj):
                continue
        out.append((name, obj))
    return out


def _signature(obj):
    """``name(args)`` best effort; classes use ``__init__``'s arguments."""
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _first_doc_line(obj):
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.strip().splitlines()[0].strip()


def _render_symbol(name, obj, lines):
    kind = "class" if inspect.isclass(obj) else (
        "function" if callable(obj) else "data")
    if kind == "data":
        lines.append(f"- `{name}` — {_first_doc_line(obj)}".rstrip(" —"))
        return
    sig = _signature(obj)
    doc = _first_doc_line(obj)
    lines.append(f"- **`{name}{sig}`** ({kind})")
    if doc:
        lines.append(f"  — {doc}")
    if inspect.isclass(obj):
        for mname, member in sorted(vars(obj).items()):
            if mname.startswith("_"):
                continue
            if not (inspect.isfunction(member) or isinstance(
                    member, (classmethod, staticmethod, property))):
                continue
            if isinstance(member, property):
                mdoc = _first_doc_line(member)
                lines.append(f"  - `.{mname}` (property)"
                             + (f" — {mdoc}" if mdoc else ""))
                continue
            fn = member.__func__ if isinstance(
                member, (classmethod, staticmethod)) else member
            mdoc = _first_doc_line(fn)
            lines.append(f"  - `.{mname}{_signature(fn)}`"
                         + (f" — {mdoc}" if mdoc else ""))


def render(package="repro"):
    """The full markdown document as a string."""
    lines = [HEADER]
    for mod_name in iter_module_names(package):
        try:
            module = importlib.import_module(mod_name)
        except Exception as exc:  # pragma: no cover - import-broken module
            lines.append(f"## `{mod_name}`\n\n*import failed: {exc}*\n")
            continue
        symbols = public_symbols(module)
        if not symbols:
            continue
        lines.append(f"## `{mod_name}`")
        mod_doc = _first_doc_line(module)
        if mod_doc:
            lines.append(f"\n{mod_doc}\n")
        else:
            lines.append("")
        for name, obj in symbols:
            _render_symbol(name, obj, lines)
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if docs/API.md is stale")
    parser.add_argument("--out", default=str(OUT_PATH),
                        help="output path (default docs/API.md)")
    args = parser.parse_args(argv)

    if str(SRC_ROOT) not in sys.path:
        sys.path.insert(0, str(SRC_ROOT))
    text = render()
    out = Path(args.out)
    if args.check:
        on_disk = out.read_text() if out.exists() else ""
        if on_disk != text:
            print(
                f"{out} is stale — regenerate with:\n"
                "    PYTHONPATH=src python tools/gen_api_docs.py",
                file=sys.stderr,
            )
            return 1
        print(f"{out} is up to date")
        return 0
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    print(f"wrote {out} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
