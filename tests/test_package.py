import types

import sysid_rls


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(sysid_rls.__all__)) == len(sysid_rls.__all__)
    for name in sysid_rls.__all__:
        assert not isinstance(getattr(sysid_rls, name), types.ModuleType), name


def test_all_lists_every_public_import():
    public = {name for name, value in vars(sysid_rls).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(sysid_rls.__all__)
