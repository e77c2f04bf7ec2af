import dataclasses
import importlib

import pytest

from schrodeform.scenarios import moving_interval_scenario, translation_family


def test_family_and_scenario_reject_new_attributes():
    scen = moving_interval_scenario()
    fam = translation_family(lambda t: [t], lambda t: [1.0])
    for obj in (scen, scen.family, fam):
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.path = None


@pytest.mark.parametrize("module", ["schrodeform.geometry", "schrodeform.moser",
                                    "schrodeform.scenarios"])
def test_export_lists_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
