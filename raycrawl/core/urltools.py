"""URL canonicalization + SHA-1 keying.

The reference normalizes free-text locations against an abbreviation
dictionary before matching (``Cansin_Location_Detection.py:122-193``); the
crawl-engine analog is canonicalizing URLs before the seen-set check so the
same page never enters the frontier twice under two spellings.

Canonical form:
  * scheme + host lowercased
  * default ports stripped (``:80`` http, ``:443`` https)
  * fragment dropped
  * query parameters sorted by (key, value); empty query dropped
  * path ``.``/``..`` segments resolved, duplicate slashes collapsed
  * trailing slash kept only for the root path

``url_hash`` is the 20-byte SHA-1 of the canonical URL — the key of the
URL-seen set (bloom/cuckoo) and the dedup key everywhere (reference analog:
first-occurrence exact dedup, ``GenerateUserUseridDict.py:53-56``).
"""

from __future__ import annotations

import hashlib
from urllib.parse import urlsplit, urlunsplit, parse_qsl, urlencode, urljoin

_DEFAULT_PORT = {"http": "80", "https": "443"}

# tracking parameters stripped during canonicalization (they never change
# page content, only analytics attribution — keeping them would make the
# URL-seen set treat every campaign link as a distinct page)
_TRACKING_PREFIXES = ("utm_",)
_TRACKING_KEYS = {"gclid", "fbclid", "mc_cid", "mc_eid"}


# Fast-path predicate: a URL this regex matches IS its own canonical form
# (lowercase http/https scheme, lowercase host with no port/userinfo, a
# rooted path of plain segments with no query/fragment, no trailing slash
# except root). Everything else falls through to the urllib slow path, so a
# miss costs correctness nothing — only the ~25 µs/link urlsplit tax.
# Exact-equivalence with canonicalize_url is pinned by
# tests/test_round4b.py (hypothesis over messy/pchar URL corpora).
import re as _re

_FAST_URL_RE = _re.compile(
    r"(https?)://([a-z0-9](?:[a-z0-9.\-]*[a-z0-9])?)"
    r"(/|(?:/[A-Za-z0-9_.\-~]+)+)"
)

# The "light" shape: absolute http(s), plain lowercase-able host, optional
# explicit port, a path free of query content (an empty trailing '?' is
# allowed — canonicalize drops it), optional fragment. No userinfo ('@'),
# no IPv6 ('['), no whitespace/control chars (urlsplit strips \t\r\n —
# charset exclusion keeps that case on the slow path).
_LIGHT_URL_RE = _re.compile(
    r"(https?)://([A-Za-z0-9.\-]+)(?::(\d+))?"
    r"((?:/[^?#\s\x00-\x1f@\[\]]*)?)\??(?:#\S*)?"
)


def _fast_canonical(url: str) -> tuple[str, str] | None:
    """(canonical, host) when ``url`` is provably already canonical."""
    m = _FAST_URL_RE.fullmatch(url)
    if m is None:
        return None
    path = m.group(3)
    # '.'/'..' segments are the one case the charset can't exclude
    if "/." in path and (
        "/./" in path or "/../" in path
        or path.endswith("/.") or path.endswith("/..")
    ):
        return None
    return url, m.group(2)


def _light_canonical(url: str) -> tuple[str, str] | None:
    """Canonicalize the common messy shapes (uppercase host, default port,
    ``.``/``..``/``//`` path segments, empty query, fragment) with plain
    string ops — no urllib. Returns None for anything outside the proven
    shape (non-empty query, userinfo, IPv6, whitespace, relative), which
    then takes the full urllib slow path. Exact equivalence with
    ``canonicalize_url`` is pinned by tests/test_round4b.py."""
    m = _LIGHT_URL_RE.fullmatch(url)
    if m is None:
        return None
    scheme, host, port, path = m.groups()
    host = host.lower()
    netloc = host
    if port is not None:
        p = int(port)
        if p > 65535:  # urlsplit raises on out-of-range ports
            return None
        if str(p) != _DEFAULT_PORT[scheme]:
            netloc = f"{host}:{p}"
    segs: list[str] = []
    for seg in path.split("/"):
        if seg in ("", "."):
            continue
        if seg == "..":
            if segs:
                segs.pop()
            continue
        segs.append(seg)
    return f"{scheme}://{netloc}/" + "/".join(segs), host


def host_of_canonical(canonical_url: str) -> str:
    """Host of an ALREADY-canonical URL by string slicing (canonical netloc
    is ``host`` or ``host:port`` — never userinfo; bracketed IPv6 falls back
    to the urlsplit path). ~10× cheaper than ``host_of`` per call."""
    i = canonical_url.find("://")
    if i < 0:
        return host_of(canonical_url)
    j = canonical_url.find("/", i + 3)
    netloc = canonical_url[i + 3:] if j < 0 else canonical_url[i + 3:j]
    if netloc.startswith("["):
        return host_of(canonical_url)
    k = netloc.find(":")
    if k < 0:
        return netloc
    # exactly one ':' followed by digits is host:port; anything else
    # (bare IPv6 netlocs, empty/odd ports) defers to urlsplit so the
    # result is bit-identical to host_of
    if k == netloc.rfind(":") and netloc[k + 1:].isdigit():
        return netloc[:k]
    return host_of(canonical_url)


def is_base_independent(url: str) -> bool:
    """True when ``canonicalize_url(url, base)`` provably cannot depend on
    ``base``: an absolute http(s) URL with a non-empty netloc. With an EMPTY
    netloc (``http:///x``) urljoin substitutes the base's netloc — or, when
    the schemes differ, keeps the empty one — so such links are
    base-dependent and must not be shared through a cross-page memo.
    ``\\t\\r\\n`` right after ``//`` are excluded because urlsplit deletes
    them, which can expose an empty netloc (conservative False is safe —
    it only skips the memo)."""
    if url.startswith("http://"):
        k = 7
    elif url.startswith("https://"):
        k = 8
    else:
        return False
    return k < len(url) and url[k] not in "/?#\t\r\n"


def canonical_and_host(url: str, base: str | None = None) -> tuple[str, str]:
    """``(canonicalize_url(url, base), host_of(...))`` in one call — the
    decode hot path's shape. Already-canonical absolute links (the common
    case in a well-linked corpus) skip urljoin/urlsplit entirely; the rest
    pay ONE urlsplit chain instead of the three the naive composition
    does."""
    if (base is None or url.startswith(("http://", "https://"))):
        fast = _fast_canonical(url)
        if fast is not None:
            return fast
        fast = _light_canonical(url)
        if fast is not None:
            return fast
    cu = canonicalize_url(url, base=base)
    return cu, host_of_canonical(cu)


def canonicalize_url(url: str, base: str | None = None) -> str:
    """Return the canonical form of ``url`` (optionally joined to ``base``)."""
    if base:
        url = urljoin(base, url)
    parts = urlsplit(url.strip())
    scheme = parts.scheme.lower() or "http"
    host = parts.hostname.lower() if parts.hostname else ""
    port = parts.port
    netloc = host
    if port is not None and str(port) != _DEFAULT_PORT.get(scheme, ""):
        netloc = f"{host}:{port}"
    # resolve path segments
    segs: list[str] = []
    for seg in parts.path.split("/"):
        if seg in ("", "."):
            continue
        if seg == "..":
            if segs:
                segs.pop()
            continue
        segs.append(seg)
    path = "/" + "/".join(segs)
    pairs = [
        (k, v)
        for k, v in parse_qsl(parts.query, keep_blank_values=True)
        if k not in _TRACKING_KEYS
        and not any(k.startswith(p) for p in _TRACKING_PREFIXES)
    ]
    query = urlencode(sorted(pairs))
    return urlunsplit((scheme, netloc, path, query, ""))


# Crawler-trap heuristics (classic spider-trap shapes: calendar loops,
# session-id mills, facet explosions). Purely URL-shape — no fetch needed,
# so the frontier can gate offers before spending a politeness token.
TRAP_MAX_DEPTH = 6    # path segments ≥ this → 'deep'
TRAP_MAX_PARAMS = 3   # query params ≥ this → 'params'


def trap_reason(canonical_url: str) -> str | None:
    """Classify a canonical URL as a likely crawler trap.

    Returns ``None`` for an ordinary URL, else the first matching reason:
    ``'deep'`` (path depth ≥ TRAP_MAX_DEPTH), ``'repeat'`` (a path segment
    occurs more than once — calendar/loop traps), ``'params'`` (≥
    TRAP_MAX_PARAMS query parameters — facet explosions)."""
    parts = urlsplit(canonical_url)
    segs = [s for s in parts.path.split("/") if s]
    if len(segs) >= TRAP_MAX_DEPTH:
        return "deep"
    if len(segs) != len(set(segs)):
        return "repeat"
    if parts.query and len(parse_qsl(parts.query, keep_blank_values=True)) >= TRAP_MAX_PARAMS:
        return "params"
    return None


def url_sha1(canonical_url: str) -> bytes:
    """20-byte SHA-1 of the canonical URL — the frontier/seen key."""
    return hashlib.sha1(canonical_url.encode("utf-8")).digest()


def host_of(canonical_url: str) -> str:
    return urlsplit(canonical_url).hostname or ""


def netlocs(urls):
    """Netloc (port kept) of each URL in an Arrow string array, vectorized:
    per row ``url.split("://", 1)[1].split("/", 1)[0]``, which is also
    DuckDB's ``split_part(split_part(url, '://', 2), '/', 1)``."""
    import pyarrow.compute as pc

    return pc.struct_field(pc.extract_regex(urls, "://(?P<n>[^/]*)"), [0])


def host_shard_key(host: str) -> int:
    """The 4-byte host hash that ``shard_of_host`` mods. Stored per seen
    digest in checkpoints (u32) so a reshard can recompute the owning
    shard for ANY shard count without knowing the host string — the key
    that makes seen-set redistribution exact instead of union-replicated."""
    h = hashlib.sha1(host.encode("utf-8")).digest()
    return int.from_bytes(h[:4], "big")


def shard_of_host(host: str, num_shards: int) -> int:
    """Stable host→shard partitioning (pins every host to ONE frontier shard
    so its politeness token bucket is owned by exactly one actor)."""
    return host_shard_key(host) % num_shards
