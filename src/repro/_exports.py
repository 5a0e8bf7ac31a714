"""PEP 562 lazy exports, shared by every package ``__init__`` under ``repro``.

A package declares which module defines each of its public names; the
module is imported the first time one of its names is looked up on the
package.  Importing a package -- or any module inside it, which runs the
package ``__init__`` first -- therefore costs only the ``__init__`` itself,
and a run imports just the modules it uses.
"""

from __future__ import annotations

import sys
from typing import Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """Return ``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module (a full dotted name) to the
    public names it contributes.  A resolved name is stored in the
    package's namespace, so every later lookup is a plain attribute read;
    an unknown name raises :class:`AttributeError`, so ``hasattr`` works.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # __import__ rather than importlib.import_module: it takes the
        # interpreter's own import path, which ``-X importtime`` reports
        __import__(origin[name])
        value = namespace[name] = getattr(sys.modules[origin[name]], name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return list(origin), __getattr__, __dir__
