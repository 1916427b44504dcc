"""Porter suffix-stripping stemmer.

Implements the original 1980 rule set (steps 1a through 5b) with the
standard longest-match semantics: within a step, only the longest matching
suffix is considered, and if its condition fails the step makes no change.
Words of one or two letters are returned unchanged. The implementation is
deliberately dependency-free so the text pipeline stays deterministic and
self-contained; swap :func:`stem` to substitute another stemmer.
"""

from __future__ import annotations

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a vowel only when preceded by a consonant
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: [C](VC)^m[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """Ends consonant-vowel-consonant with the final consonant not w, x, y."""
    n = len(word)
    if n < 3:
        return False
    return (
        _is_consonant(word, n - 3)
        and not _is_consonant(word, n - 2)
        and _is_consonant(word, n - 1)
        and word[-1] not in "wxy"
    )


def _rule_step(word: str, rules, suffixes: tuple[str, ...]) -> str:
    """Apply the longest-suffix rule whose suffix matches.

    ``rules`` is a sequence of (suffix, replacement, min_measure) triples,
    ordered so that any suffix appears before its own proper suffixes, and
    ``suffixes`` is the tuple of their suffixes: one ``endswith`` call
    rejects most words.
    """
    if not word.endswith(suffixes):
        return word
    for suffix, repl, min_m in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_m:
                return stem + repl
            return word
    return word


_STEP2 = (
    ("ational", "ate", 0),
    ("ization", "ize", 0),
    ("iveness", "ive", 0),
    ("fulness", "ful", 0),
    ("ousness", "ous", 0),
    ("tional", "tion", 0),
    ("biliti", "ble", 0),
    ("entli", "ent", 0),
    ("ousli", "ous", 0),
    ("ation", "ate", 0),
    ("alism", "al", 0),
    ("aliti", "al", 0),
    ("iviti", "ive", 0),
    ("enci", "ence", 0),
    ("anci", "ance", 0),
    ("izer", "ize", 0),
    ("abli", "able", 0),
    ("alli", "al", 0),
    ("ator", "ate", 0),
    ("eli", "e", 0),
)
_STEP2_SUFFIXES = tuple(rule[0] for rule in _STEP2)

_STEP3 = (
    ("icate", "ic", 0),
    ("ative", "", 0),
    ("alize", "al", 0),
    ("iciti", "ic", 0),
    ("ical", "ic", 0),
    ("ful", "", 0),
    ("ness", "", 0),
)
_STEP3_SUFFIXES = tuple(rule[0] for rule in _STEP3)

_STEP4 = (
    ("ement", "", 1),
    ("ance", "", 1),
    ("ence", "", 1),
    ("able", "", 1),
    ("ible", "", 1),
    ("ment", "", 1),
    ("ant", "", 1),
    ("ent", "", 1),
    ("ism", "", 1),
    ("ate", "", 1),
    ("iti", "", 1),
    ("ous", "", 1),
    ("ive", "", 1),
    ("ize", "", 1),
    ("ion", "", 1),  # extra s/t condition handled in _step4
    ("al", "", 1),
    ("er", "", 1),
    ("ic", "", 1),
    ("ou", "", 1),
)
_STEP4_SUFFIXES = tuple(rule[0] for rule in _STEP4)


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            return stem + "ee"
        return word

    stripped = None
    if word.endswith("ed"):
        stem = word[:-2]
        if _has_vowel(stem):
            stripped = stem
    elif word.endswith("ing"):
        stem = word[:-3]
        if _has_vowel(stem):
            stripped = stem
    if stripped is None:
        return word

    word = stripped
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step4(word: str) -> str:
    if not word.endswith(_STEP4_SUFFIXES):
        return word
    for suffix, repl, min_m in _STEP4:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_m:
                if suffix == "ion" and not stem.endswith(("s", "t")):
                    return word
                return stem + repl
            return word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


def stem(word: str) -> str:
    """Stem one lowercase word."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _rule_step(word, _STEP2, _STEP2_SUFFIXES)
    word = _rule_step(word, _STEP3, _STEP3_SUFFIXES)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
