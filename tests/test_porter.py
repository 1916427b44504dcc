import pytest

from selfcite.porter import stem

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
