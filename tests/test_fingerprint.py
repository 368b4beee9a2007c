"""Every pinned output is unchanged: the fingerprint in `fingerprint.json`
(see `make_fingerprint.py`) recomputed entry by entry."""

import json

import make_fingerprint


def test_outputs_match_the_fingerprint():
    pinned = json.loads(make_fingerprint.FINGERPRINT.read_text())
    assert pinned["versions"] == make_fingerprint.versions(), (
        f"fingerprint.json was made with {pinned['versions']}, this run has "
        f"{make_fingerprint.versions()}: digests differ across library versions, "
        "so regenerate it with tests/make_fingerprint.py on the parent commit")
    now = make_fingerprint.digests()
    differ = sorted(k for k in pinned["digests"].keys() | now.keys()
                    if pinned["digests"].get(k) != now.get(k))
    assert not differ, f"{len(differ)} entries differ: " + ", ".join(differ)
