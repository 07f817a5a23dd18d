import latticediff


def test_every_export_resolves():
    missing = [name for name in latticediff.__all__
               if not hasattr(latticediff, name)]
    assert missing == []
    assert len(set(latticediff.__all__)) == len(latticediff.__all__)
