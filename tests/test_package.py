import balcut


def test_every_export_resolves_once():
    names = balcut.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(balcut, name) is not None, name
