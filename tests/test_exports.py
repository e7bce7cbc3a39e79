"""The package's top-level export list."""

import inspect

import adaptive_shadows


def test_every_export_resolves():
    for name in adaptive_shadows.__all__:
        assert hasattr(adaptive_shadows, name), f"stale export {name}"


def test_exports_are_exactly_the_public_names():
    public = {name for name, value in vars(adaptive_shadows).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(adaptive_shadows.__all__) == sorted(public)
    assert len(set(adaptive_shadows.__all__)) == len(adaptive_shadows.__all__)
