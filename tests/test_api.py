import mackeykit


def test_every_exported_name_resolves_once():
    names = mackeykit.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(mackeykit, n)]
    assert not missing, missing
