"""Every CLI output is pinned by one digest (``tests/output_digest.py``).

A change that alters any output, exit code or message fails here; if the
new output is intended, update ``DIGEST`` and ``CODES`` and say so in
CHANGES.md.
"""

from output_digest import digest

DIGEST = "96baf1339801eb4a6fcde327c5debc4f54f07882ceeea0d91f60fb7427d9bb9a"
CODES = {"0": 1992, "2": 360, "3": 288}


def test_every_cli_output_is_unchanged(monkeypatch):
    # the order cap is read from the environment; the digest is taken at the default
    monkeypatch.delenv("FRACMIRROR_MAX_N", raising=False)
    assert digest() == (DIGEST, CODES)
