import pytest

from conftest import TESTDATA
from selfcite.porter import _STEP2, _STEP3, _STEP4, stem

# word<TAB>stem lines; each stem is the one the stemmer gave when the list
# was made, so any change of stem is a change of behaviour
GOLDEN = TESTDATA / "porter_golden.tsv"

# final outputs of the published algorithm for its own worked examples
CLASSIC_PAIRS = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("sky", "sky"),
    ("happy", "happi"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controlling", "control"),
    ("rolling", "roll"),
    ("cement", "cement"),
    ("generalization", "gener"),
    ("oscillators", "oscil"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
]


@pytest.mark.parametrize("word,expected", CLASSIC_PAIRS)
def test_classic_vocabulary(word, expected):
    assert stem(word) == expected


@pytest.mark.parametrize("word,expected", [
    ("clustering", "cluster"),
    ("clusters", "cluster"),
    ("cluster", "cluster"),
    ("methods", "method"),
    ("graphs", "graph"),
    ("graph", "graph"),
    ("spectral", "spectral"),
    ("large", "larg"),
])
def test_pipeline_vocabulary(word, expected):
    assert stem(word) == expected


def test_short_words_unchanged():
    for word in ("a", "is", "be", "by", "no"):
        assert stem(word) == word


def test_digit_bearing_tokens_are_inert():
    # synthetic vocabularies end in digits so no suffix rule can fire
    for token in ("a3t12", "bg7", "x0", "a15t0"):
        assert stem(token) == token


def test_idempotent_on_common_stems():
    for word, stemmed in CLASSIC_PAIRS:
        assert stem(stemmed) in (stemmed, stem(stemmed))


@pytest.mark.parametrize("word,expected", [
    # a final digit ends no suffix of any step
    ("2010", "2010"),
    ("covid19", "covid19"),
    ("x86", "x86"),
    # step 5b drops one l of a final ll only when m > 1
    ("fall", "fall"),
    ("skill", "skill"),
    ("controll", "control"),
    ("install", "instal"),
    # the shortest suffix of steps 2, 3 and 4, with the measure met or not
    ("vileli", "vile"),
    ("useful", "us"),
    ("homologou", "homolog"),
    ("electric", "electr"),
    ("metric", "metric"),
    # step 4's ion needs s or t before it
    ("adoption", "adopt"),
    ("opinion", "opinion"),
])
def test_suffix_tests(word, expected):
    assert stem(word) == expected


@pytest.mark.parametrize("suffix", ["", "ed", "ing", "ness", "ement"])
def test_long_y_run(suffix):
    # y alternates consonant, vowel, ... along the run: far deeper than the
    # recursion limit if each letter's class were found by recursion
    expected = "y" * 5000 if suffix in ("ness", "ement") else "y" * 4999 + "i"
    assert stem("y" * 5000 + suffix) == expected


def _golden():
    with open(GOLDEN, encoding="utf-8") as f:
        return [tuple(line.rstrip("\n").split("\t")) for line in f]


def test_golden_vocabulary():
    wrong = [(word, expected, stem(word)) for word, expected in _golden()
             if stem(word) != expected]
    assert not wrong, wrong[:20]


def _measure(word):
    """m of [C](VC)^m[V], where y is a vowel after a consonant."""
    form = ""
    for ch in word:
        vowel = ch in "aeiou" or (ch == "y" and form[-1:] == "c")
        form += "v" if vowel else "c"
    return form.count("vc")


def _suffix_outcomes(word):
    """(suffix, outcome) for steps 2, 3 and 4 of a word steps 1a-1c leave alone.

    The outcome is "fires", "measure" when the measure bound refuses the
    longest matching suffix, or "st" when ion lacks s or t before it.
    """
    outcomes = []
    for rules, bound in ((_STEP2, 0), (_STEP3, 0), (_STEP4, 1)):
        for suffix, repl in (rule[:2] for rule in rules):
            if word.endswith(suffix):
                base = word[: len(word) - len(suffix)]
                if _measure(base) <= bound:
                    outcomes.append((suffix, "measure"))
                elif suffix == "ion" and not base.endswith(("s", "t")):
                    outcomes.append((suffix, "st"))
                else:
                    outcomes.append((suffix, "fires"))
                    word = base + repl
                break
    return outcomes


def test_golden_vocabulary_covers_every_suffix():
    seen = set()
    for word, _ in _golden():
        if len(word) > 2 and (word.endswith("ss") or not word.endswith(("s", "ed", "ing", "y"))):
            seen.update(_suffix_outcomes(word))
    suffixes = [rule[0] for rules in (_STEP2, _STEP3, _STEP4) for rule in rules]
    # the 1980 rule set: 20 + 7 + 19 rules, without the later logi
    assert len(set(suffixes)) == len(suffixes) == 46
    missing = [(s, o) for s in suffixes for o in ("fires", "measure") if (s, o) not in seen]
    assert not missing
    assert ("ion", "st") in seen


def test_golden_vocabulary_covers_edge_tokens():
    words = [word for word, _ in _golden()]
    assert {len(w) for w in words} >= {1, 2}
    assert any(c.isdigit() for w in words for c in w)
    assert any(w.startswith("y") for w in words)
    assert any(w[i] == "y" and w[i - 1] in "aeiou" for w in words for i in range(1, len(w)))
    assert any(w[i] == "y" and w[i - 1] not in "aeiouy" for w in words for i in range(1, len(w)))
