"""A forged user talk page: one revision, anonymous unless told otherwise,
creates an author's talk page and signs it, many times, as other authors. A
talk-signature network that trusts every signature reads each one as a
message to that author."""

import ipaddress

FORGER = "10.0.0.1"
FORGED_PAGE_ID = 999_999  # no synth page has it


def forge_talk_page(dump: str, owner: str, signers: list[str],
                    contributor: str = FORGER) -> str:
    """`dump` with one more page, `User talk:<owner>`, whose only revision,
    by `contributor` (an IP or a username), carries one signature of each
    name in `signers`."""
    text = " ".join(f"hi [[User:{name}|{name}]] 12:01, 3 March 2011 (UTC)"
                    for name in signers)
    try:
        ipaddress.ip_address(contributor)
        tag = "ip"
    except ValueError:
        tag = "username"
    page = (f"  <page>\n    <title>User talk:{owner}</title>\n    <ns>3</ns>\n"
            f"    <id>{FORGED_PAGE_ID}</id>\n    <revision>\n      <id>1</id>\n"
            "      <timestamp>2011-03-03T12:01:00Z</timestamp>\n"
            f"      <contributor><{tag}>{contributor}</{tag}></contributor>\n"
            f"      <text>{text}</text>\n    </revision>\n  </page>\n")
    assert dump.endswith("</mediawiki>\n") and "&" not in text + owner + contributor
    return dump[:-len("</mediawiki>\n")] + page + "</mediawiki>\n"
