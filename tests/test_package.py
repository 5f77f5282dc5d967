import importlib
import pkgutil
import re
from pathlib import Path

import cozero

PUBLIC = {
    "wiener_brute",
    "wiener_quotient",
    "wiener_closed",
    "parse_ring_spec",
    "RingSpec",
    "integers_mod",
    "product_of_integers_mod",
    "product_of_fields",
    "WienerReport",
    "STATUS_VALUE",
    "STATUS_EMPTY",
    "STATUS_DISCONNECTED",
    "BruteForceLimitError",
    "FactorizationError",
}


def test_public_surface_is_the_routes_specs_report_and_errors():
    assert len(cozero.__all__) == len(PUBLIC)
    assert set(cozero.__all__) == PUBLIC
    for name in cozero.__all__:
        assert getattr(cozero, name) is not None, name


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_names_resolve():
    # Every backticked `module.name` of a cozero module in README.md, with
    # or without the `cozero.` prefix, imports: prose that names a deleted
    # or renamed function fails here.
    modules = {info.name for info in pkgutil.iter_modules(cozero.__path__)}
    named = 0
    for module, attrs in re.findall(r"`(?:cozero\.)?([a-z_]+)\.([A-Za-z_][\w.]*)`", README.read_text()):
        if module not in modules:
            continue
        target = importlib.import_module(f"cozero.{module}")
        for attr in attrs.split("."):
            assert hasattr(target, attr), f"README names `{module}.{attrs}`, which does not resolve"
            target = getattr(target, attr)
        named += 1
    assert named >= 8
