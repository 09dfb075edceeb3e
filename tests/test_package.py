"""The package's public surface: ``__all__`` names exactly what ``__init__`` imports."""

import types

import movingheat


def test_every_name_in_all_resolves():
    assert len(set(movingheat.__all__)) == len(movingheat.__all__)
    for name in movingheat.__all__:
        assert getattr(movingheat, name).__module__.startswith("movingheat."), name


def test_all_equals_the_imported_public_names():
    # a deletion that drops a name from one list but not the other fails here
    imported = {name for name, value in vars(movingheat).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(movingheat.__all__) == imported
