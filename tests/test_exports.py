import nhzm


def test_every_exported_name_resolves():
    # __all__ and the imports above it are kept by hand; a name deleted
    # from a module but left in the list must fail here
    missing = [name for name in nhzm.__all__ if not hasattr(nhzm, name)]
    assert missing == []
    assert len(set(nhzm.__all__)) == len(nhzm.__all__)
