import importlib
import pkgutil

import pytest

import ibrownian

MODULES = ["ibrownian"] + [f"ibrownian.{m.name}" for m in pkgutil.iter_modules(ibrownian.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
