"""Porter suffix-stripping stemmer.

The original 1980 rule set, steps 1a through 5b: step 2 has ``abli`` ->
``able`` and ``eli`` -> ``e`` and not the later ``logi`` -> ``log``. Within
a step only the longest matching suffix is considered, and if its condition
fails the step makes no change. Words of one or two letters are returned
unchanged. Dependency-free, so the text pipeline stays deterministic.

Each condition is read off the word's consonant/vowel form, built left to
right: a, e, i, o and u are vowels, and y is a vowel exactly when the letter
before it is a consonant. m is the number of ``vc`` pairs in the form.
"""

from __future__ import annotations


def _form(word: str) -> str:
    """The consonant/vowel form of ``word``: one "c" or "v" per letter."""
    form = ""
    for ch in word:
        form += "v" if ch in "aeiou" or (ch == "y" and form[-1:] == "c") else "c"
    return form


def _rule_step(word: str, rules, suffixes: tuple[str, ...]) -> str:
    """Apply the longest-suffix rule whose suffix matches.

    ``rules`` holds (suffix, replacement, min_measure) triples, each suffix
    before its own proper suffixes; ``suffixes`` lists them, so one
    ``endswith`` call rejects most words. ``ion`` also needs s or t before it.
    """
    if word.endswith(suffixes):
        suffix, repl, min_m = next(rule for rule in rules if word.endswith(rule[0]))
        stem = word[: len(word) - len(suffix)]
        if _form(stem).count("vc") > min_m and (
                suffix != "ion" or stem.endswith(("s", "t"))):
            return stem + repl
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

_STEP3 = (
    ("icate", "ic", 0),
    ("ative", "", 0),
    ("alize", "al", 0),
    ("iciti", "ic", 0),
    ("ical", "ic", 0),
    ("ful", "", 0),
    ("ness", "", 0),
)

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
    ("ion", "", 1),
    ("al", "", 1),
    ("er", "", 1),
    ("ic", "", 1),
    ("ou", "", 1),
)

_RULE_STEPS = tuple((rules, tuple(rule[0] for rule in rules))
                    for rules in (_STEP2, _STEP3, _STEP4))


def _step1a(word: str) -> str:
    if word.endswith(("sses", "ies")):
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        return word[:-1] if _form(word[:-3]).count("vc") > 0 else word
    if word.endswith("ed"):
        stem = word[:-2]
    elif word.endswith("ing"):
        stem = word[:-3]
    else:
        return word
    form = _form(stem)
    if "v" not in form:
        return word
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if stem[-1] == stem[-2:-1] and form[-1] == "c" and stem[-1] not in "lsz":
        return stem[:-1]
    if form.count("vc") == 1 and form.endswith("cvc") and stem[-1] not in "wxy":
        return stem + "e"
    return stem


def _step5(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        form = _form(stem)
        m = form.count("vc")
        if m > 1 or (m == 1 and not (form.endswith("cvc") and stem[-1] not in "wxy")):
            word = stem
    if word.endswith("ll") and _form(word).count("vc") > 1:
        return word[:-1]
    return word


def stem(word: str) -> str:
    """Stem one lowercase word."""
    if len(word) <= 2:
        return word
    word = _step1b(_step1a(word))
    if word.endswith("y") and "v" in _form(word[:-1]):
        word = word[:-1] + "i"
    for rules, suffixes in _RULE_STEPS:
        word = _rule_step(word, rules, suffixes)
    return _step5(word)
