"""Package exports resolved on first use (PEP 562).

A package lists each public name under its home module; the module is
imported when the name is first read from the package, and the value
is then kept in the package's globals. So ``import repro.x`` loads the
modules a run reaches, not the whole of ``src/``.

A name that is also a submodule's name (``repro.xquery.pretty``) is
bound *eagerly*: importing a submodule sets the package attribute of
that name to the module, which would shadow a lazy export.
"""

from __future__ import annotations

from importlib import import_module


def lazy_exports(namespace: dict, homes: dict[str, str],
                 eager: tuple[str, ...] = ()) -> list[str]:
    """Give the package whose globals are ``namespace`` a
    ``__getattr__`` and ``__dir__`` that resolve each name in ``homes``
    (relative module → space-separated names) from its module; resolve
    the ``eager`` names now. Returns the names, for ``__all__``."""
    package = namespace["__name__"]
    home_of = {name: module for module, names in homes.items()
               for name in names.split()}

    def __getattr__(name: str):
        module = home_of.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module, package),
                                          name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home_of.keys())

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    for name in eager:
        __getattr__(name)
    return list(home_of)
