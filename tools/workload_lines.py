"""The lines of a checkout's genspectra that no benchmark request reaches.

Runs every request of the chosen workloads and seeds through
``genspectra.cli.main`` of the checkout at SRC_ROOT, as
``tools/response_digest.py`` does (same options, same request loop), with
a ``sys.settrace`` line tracer on the files of that checkout's
``src/genspectra``. Then it prints, for each module, the executable lines
of its functions (from ``co_lines``) that no request reached, as ranges
under the name of the function that holds them:

    genspectra/apps.py: 58 of 175 function lines unreached
      kernel_matrix: 307-308, 313, 315-316, 327-330

Module and class bodies run at import, before the trace starts, and are
left out; a function that runs only at import, such as the backend
selection, shows as unreached.

A range runs over executable lines only, so it may span comments. The
output depends only on the code and the requests, so two runs give the
same text, and ``diff`` of two checkouts' outputs shows which lines a
change brought into or out of the traffic:

    python3 tools/workload_lines.py . --workloads small-pencils --seeds 1

The backend follows ``GENSPECTRA_KERNELS``, as in the CLI; with the
compiled one, ``kernels/pykernels.py`` is reached nowhere.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path
from types import CodeType

sys.path.insert(0, str(Path(__file__).resolve().parent))

from response_digest import arguments, digests_in_temp_dir  # noqa: E402


def _lines(code: CodeType) -> set[int]:
    """Executable lines of ``code`` and of the comprehensions and lambdas in it."""
    found = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType) and const.co_name.startswith("<"):
            found |= _lines(const)
    return found


def _functions(code: CodeType):
    """(qualified name, executable lines) of each function defined in
    ``code``, a module, class or function, and in those it defines."""
    for const in code.co_consts:
        if isinstance(const, CodeType) and not const.co_name.startswith("<"):
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                yield const.co_qualname, _lines(const)
            yield from _functions(const)


def _ranges(lines: list[int], unreached: set[int]) -> list[str]:
    """Runs of ``unreached`` among the sorted ``lines``, as "a" or "a-b"."""
    runs, start, prev = [], None, None
    for line in lines + [None]:
        if line is not None and line in unreached:
            start = line if start is None else start
            prev = line
        elif start is not None:
            runs.append(str(start) if start == prev else f"{start}-{prev}")
            start = None
    return runs


def main(argv=None) -> int:
    args, cli = arguments(__doc__.splitlines()[0], argv)
    package = Path(cli.__file__).parent  # as the code objects name their files
    prefix = str(package) + "/"
    reached: set[tuple[str, int]] = set()

    def on_line(frame, event, arg):
        if event in ("call", "line"):
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return on_line(frame, event, arg)
        return None

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        digests_in_temp_dir(cli.main, args.workloads, args.seeds)
    finally:
        sys.settrace(before)

    for path in sorted(package.rglob("*.py")):
        filename = str(path)
        module = compile(path.read_text(encoding="utf-8"), filename, "exec")
        rows, total, missed = [], 0, 0
        for name, lines in _functions(module):
            unreached = {line for line in lines if (filename, line) not in reached}
            total += len(lines)
            missed += len(unreached)
            if unreached:
                rows.append(f"  {name}: {', '.join(_ranges(sorted(lines), unreached))}")
        print(f"{path.relative_to(package.parent)}: {missed} of {total} function lines unreached")
        for row in rows:
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
