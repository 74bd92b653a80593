import sqtilings


def test_every_exported_name_resolves():
    for name in sqtilings.__all__:
        getattr(sqtilings, name)  # AttributeError names a stale export
    assert len(set(sqtilings.__all__)) == len(sqtilings.__all__)
    assert "count_tables" in sqtilings.__all__
