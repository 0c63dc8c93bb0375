"""Bundled lexicon, bilingual dictionary, morphology table and case frames.

All linguistic resources ship as code tables here and are turned into the
runtime objects (Lexicon, BilingualDictionary, MorphTable, CaseFrameList)
used by the default pipeline.  Only the case frames can be replaced by a
user file: a TSV named by ``RunConfig.case_frame_path``.

Japanese surfaces are romanized morpheme tokens (kunrei-style), with
particles and tense suffixes kept as separate tokens: "mituke ta",
"panda o".  Verb stems are stored per form slot; class letters key the
morphology table:

    v  vowel stems       past +ta   pres +ru   passive stem +rare
    c  consonant stems   past +ta   pres +u    passive stem +re
    cd consonant, -da    past +da   pres +u    passive stem +re
    s  suru compounds    past +ta   pres +ru   passive stem +re
    k  kuru compounds    past +ta   pres +u    passive stem +rare
"""

from __future__ import annotations

from .grammar import GrammarError, LexEntry, Lexicon

# --------------------------------------------------------------------------
# Verbs: lemma, past, participle (None = same as past), frames, regularity,
#        JA class, past stem, present stem, passive stem.
# Frames: trans intrans unacc objom dit cp inf infbase passv
# --------------------------------------------------------------------------

VERBS = [
    # general transitives
    ("find", "found", None, "trans", "irregular", "v", "mituke", "mituke", "mituke"),
    ("help", "helped", None, "trans passv", "regular", "v", "tasuke", "tasuke", "tasuke"),
    ("see", "saw", "seen", "trans passv", "irregular", "v", "mi", "mi", "mi"),
    ("break", "broke", "broken", "trans passv", "irregular", "c", "kowasi", "kowas", "kowasa"),
    ("eat", "ate", "eaten", "trans objom passv", "irregular", "v", "tabe", "tabe", "tabe"),
    ("buy", "bought", None, "trans passv", "irregular", "c", "kat", "ka", "kawa"),
    ("call", "called", None, "trans passv", "regular", "c", "yobidasi", "yobidas", "yobidasa"),
    ("love", "loved", None, "trans", "regular", "s", "aisi", "aisu", "aisa"),
    ("know", "knew", "known", "trans cp", "irregular", "c", "sit", "sir", "sira"),
    ("like", "liked", None, "trans", "regular", "cd", "konon", "konom", "konoma"),
    ("observe", "observed", None, "trans passv", "regular", "s", "kansatusi", "kansatusu", "kansatusa"),
    ("seek", "sought", None, "trans", "irregular", "c", "sagasi", "sagas", "sagasa"),
    ("hear", "heard", None, "trans passv", "irregular", "c", "kii", "kik", "kika"),
    ("hold", "held", None, "trans passv", "irregular", "c", "mot", "mot", "mota"),
    ("touch", "touched", None, "trans passv", "regular", "c", "sawat", "sawar", "sawara"),
    ("wash", "washed", None, "trans passv", "regular", "c", "arat", "ara", "arawa"),
    ("open", "opened", None, "trans passv", "regular", "v", "ake", "ake", "ake"),
    ("close", "closed", None, "trans passv", "regular", "v", "sime", "sime", "sime"),
    ("teach", "taught", None, "trans dit", "irregular", "v", "osie", "osie", "osie"),
    ("drink", "drank", "drunk", "trans", "irregular", "cd", "non", "nom", "noma"),
    ("admire", "admired", None, "trans cp", "regular", "s", "syoosansi", "syoosansu", "syoosansa"),
    ("appreciate", "appreciated", None, "trans", "regular", "s", "hyookasi", "hyookasu", "hyookasa"),
    ("throw", "threw", "thrown", "trans passv", "irregular", "v", "nage", "nage", "nage"),
    ("pack", "packed", None, "trans", "regular", "v", "tume", "tume", "tume"),
    ("enjoy", "enjoyed", None, "trans", "regular", "cd", "tanosin", "tanosim", "tanosima"),
    # active -> passive targets (train: active transitive only)
    ("move", "moved", None, "trans passv", "regular", "c", "ugokasi", "ugokas", "ugokasa"),
    ("recognize", "recognized", None, "trans passv", "regular", "s", "ninsikisi", "ninsikisu", "ninsikisa"),
    ("raise", "raised", None, "trans passv", "regular", "v", "sodate", "sodate", "sodate"),
    ("carry", "carried", None, "trans passv", "regular", "cd", "hakon", "hakob", "hakoba"),
    ("push", "pushed", None, "trans passv", "regular", "c", "osi", "os", "osa"),
    # passive -> active targets (train: passive only)
    ("drop", "dropped", None, "trans passv", "regular", "c", "otosi", "otos", "otosa"),
    ("use", "used", None, "trans passv", "regular", "c", "tukat", "tuka", "tukawa"),
    ("clean", "cleaned", None, "trans passv", "regular", "s", "soojisi", "soojisu", "soojisa"),
    ("lift", "lifted", None, "trans passv", "regular", "v", "motiage", "motiage", "motiage"),
    ("support", "supported", None, "trans passv", "regular", "v", "sasae", "sasae", "sasae"),
    # object-omitted -> transitive targets (train: object omitted only)
    ("write", "wrote", "written", "trans objom", "irregular", "c", "kai", "kak", "kaka"),
    ("draw", "drew", "drawn", "trans objom", "irregular", "c", "egai", "egak", "egaka"),
    ("paint", "painted", None, "trans objom", "regular", "c", "nut", "nur", "nura"),
    ("study", "studied", None, "trans objom", "regular", "s", "benkyoosi", "benkyoosu", "benkyoosa"),
    ("cook", "cooked", None, "trans objom", "regular", "s", "ryourisi", "ryourisu", "ryourisa"),
    # unaccusative -> transitive targets (train: unaccusative only)
    ("explode", "exploded", None, "unacc trans", "regular", "s", "bakuhatusi", "bakuhatusu", "bakuhatusa"),
    ("melt", "melted", None, "unacc trans", "regular", "v", "toke", "toke", "toke"),
    ("burn", "burned", None, "unacc trans", "regular", "v", "moe", "moe", "moe"),
    ("roll", "rolled", None, "unacc trans", "regular", "c", "korogat", "korogar", "korogara"),
    ("change", "changed", None, "unacc trans", "regular", "c", "kawat", "kawar", "kawara"),
    # tense targets: present transitive seen, present complement unseen
    ("learn", "learned", None, "trans cp", "regular", "cd", "manan", "manab", "manaba"),
    ("notice", "noticed", None, "trans cp", "regular", "c", "kizui", "kizuk", "kizuka"),
    ("discover", "discovered", None, "trans cp", "regular", "s", "hakkensi", "hakkensu", "hakkensa"),
    ("confirm", "confirmed", None, "trans cp", "regular", "s", "kakuninsi", "kakuninsu", "kakuninsa"),
    ("understand", "understood", None, "trans cp", "irregular", "s", "rikaisi", "rikaisu", "rikaisa"),
    # ditransitives
    ("give", "gave", "given", "dit passv", "irregular", "v", "age", "age", "age"),
    ("bring", "brought", None, "dit passv", "irregular", "k", "motteki", "mottekur", "motteko"),
    ("send", "sent", None, "dit passv", "irregular", "c", "okut", "okur", "okura"),
    ("lend", "lent", None, "dit", "irregular", "c", "kasi", "kas", "kasa"),
    ("offer", "offered", None, "dit", "regular", "s", "teikyoosi", "teikyoosu", "teikyoosa"),
    ("hand", "handed", None, "dit", "regular", "c", "tewatasi", "tewatas", "tewatasa"),
    ("pass", "passed", None, "dit passv", "regular", "c", "watasi", "watas", "watasa"),
    ("award", "awarded", None, "dit", "regular", "s", "jyuyosi", "jyuyosu", "jyuyosa"),
    ("show", "showed", "shown", "dit trans", "regular", "v", "mise", "mise", "mise"),
    ("serve", "served", None, "dit trans", "regular", "c", "dasi", "das", "dasa"),
    ("mail", "mailed", None, "dit trans", "regular", "s", "yuusoosi", "yuusoosu", "yuusoosa"),
    ("promise", "promised", None, "dit trans", "regular", "s", "yakusokusi", "yakusokusu", "yakusokusa"),
    ("sell", "sold", None, "dit trans", "irregular", "c", "ut", "ur", "ura"),
    ("grant", "granted", None, "dit", "regular", "v", "atae", "atae", "atae"),
    ("assign", "assigned", None, "dit", "regular", "v", "wariate", "wariate", "wariate"),
    ("issue", "issued", None, "dit", "regular", "s", "hakkoosi", "hakkoosu", "hakkoosa"),
    ("toss", "tossed", None, "dit", "regular", "c", "hoot", "hoor", "hoora"),
    ("feed", "fed", None, "dit", "irregular", "c", "yasinat", "yasina", "yasinawa"),
    ("gift", "gifted", None, "dit", "regular", "s", "zooteisi", "zooteisu", "zooteisa"),
    ("forward", "forwarded", None, "dit", "regular", "s", "tensoosi", "tensoosu", "tensoosa"),
    ("ship", "shipped", None, "dit", "regular", "s", "yusoosi", "yusoosu", "yusoosa"),
    ("deliver", "delivered", None, "dit", "regular", "s", "haitatusi", "haitatusu", "haitatusa"),
    # complement-clause verbs
    ("think", "thought", None, "cp", "irregular", "c", "omot", "omo", "omowa"),
    ("say", "said", None, "cp", "irregular", "c", "it", "i", "iwa"),
    ("believe", "believed", None, "cp", "regular", "v", "sinji", "sinji", "sinji"),
    ("hope", "hoped", None, "cp", "regular", "c", "negat", "nega", "negawa"),
    ("realize", "realized", None, "cp", "regular", "c", "satot", "sator", "satora"),
    ("expect", "expected", None, "cp", "regular", "s", "kitaisi", "kitaisu", "kitaisa"),
    ("dream", "dreamed", None, "cp", "regular", "v", "yumemi", "yumemi", "yumemi"),
    ("mean", "meant", None, "cp", "irregular", "s", "imisi", "imisu", "imisa"),
    ("prove", "proved", None, "cp", "regular", "s", "syoomeisi", "syoomeisu", "syoomeisa"),
    ("wish", "wished", None, "cp", "regular", "c", "inot", "inor", "inora"),
    # infinitive-taking verbs
    ("want", "wanted", None, "inf", "regular", "cd", "nozon", "nozom", "nozoma"),
    ("plan", "planned", None, "inf", "regular", "s", "keikakusi", "keikakusu", "keikakusa"),
    ("decide", "decided", None, "inf", "regular", "v", "kime", "kime", "kime"),
    ("attempt", "attempted", None, "inf", "regular", "v", "kokoromi", "kokoromi", "kokoromi"),
    ("choose", "chose", "chosen", "inf", "irregular", "s", "sentakusi", "sentakusu", "sentakusa"),
    ("prepare", "prepared", None, "inf trans", "regular", "s", "junbisi", "junbisu", "junbisa"),
    ("start", "started", None, "inf trans", "regular", "v", "hajime", "hajime", "hajime"),
    ("continue", "continued", None, "inf trans", "regular", "v", "tuzuke", "tuzuke", "tuzuke"),
    ("try", "tried", None, "inf trans", "regular", "c", "tamesi", "tames", "tamesa"),
    ("begin", "began", "begun", "inf trans", "irregular", "s", "kaisisi", "kaisisu", "kaisisa"),
    ("need", "needed", None, "inf", "regular", "s", "hituyootosi", "hituyootosu", "hituyootosa"),
    ("agree", "agreed", None, "inf", "regular", "s", "dooisi", "dooisu", "dooisa"),
    # intransitives
    ("run", "ran", "run", "intrans infbase", "irregular", "c", "hasit", "hasir", "hasira"),
    ("talk", "talked", None, "intrans infbase", "regular", "c", "hanasi", "hanas", "hanasa"),
    ("walk", "walked", None, "intrans infbase", "regular", "c", "arui", "aruk", "aruka"),
    ("sleep", "slept", None, "intrans infbase", "irregular", "c", "nemut", "nemur", "nemura"),
    ("cry", "cried", None, "intrans infbase", "regular", "c", "nai", "nak", "naka"),
    ("smile", "smiled", None, "intrans infbase", "regular", "cd", "hohoen", "hohoem", "hohoema"),
    ("fall", "fell", "fallen", "intrans unacc infbase", "irregular", "v", "oti", "oti", "oti"),
    # primitive-verb targets
    ("jump", "jumped", None, "intrans infbase", "regular", "s", "janpusi", "janpusu", "janpusa"),
    ("dance", "danced", None, "intrans infbase", "regular", "c", "odot", "odor", "odora"),
    ("swim", "swam", "swum", "intrans infbase", "irregular", "cd", "oyoi", "oyog", "oyoga"),
    ("shout", "shouted", None, "intrans infbase", "regular", "cd", "saken", "sakeb", "sakeba"),
    ("laugh", "laughed", None, "intrans infbase", "regular", "c", "warat", "wara", "warawa"),
    # unaccusative pool
    ("vanish", "vanished", None, "unacc", "regular", "v", "kie", "kie", "kie"),
    ("shatter", "shattered", None, "unacc", "regular", "v", "kudake", "kudake", "kudake"),
    ("bloom", "bloomed", None, "unacc", "regular", "c", "sai", "sak", "saka"),
    ("sink", "sank", "sunk", "unacc", "irregular", "cd", "sizun", "sizum", "sizuma"),
    ("freeze", "froze", "frozen", "unacc", "irregular", "c", "koot", "koor", "koora"),
    ("grow", "grew", "grown", "unacc intrans", "irregular", "s", "seityoosi", "seityoosu", "seityoosa"),
]

# Animate common nouns (rank order = list order within all common nouns).
ANIMATE_NOUNS = [
    ("woman", "jyosei"), ("man", "dansei"), ("girl", "onnanoko"),
    ("boy", "syoonen"), ("child", "kodomo"), ("kid", "kozoo"),
    ("dog", "inu"), ("cat", "neko"), ("baby", "akatyan"),
    ("teacher", "kyoosi"), ("student", "gakusei"), ("friend", "tomodati"),
    ("mother", "hahaoya"), ("father", "titioya"), ("doctor", "isya"),
    ("driver", "untensyu"), ("guy", "otoko"), ("visitor", "hoomonsya"),
    ("guest", "kyaku"), ("host", "syusaisya"), ("hero", "eiyuu"),
    ("patient", "kanjya"), ("tenant", "kyojyuusya"), ("chef", "ryoorinin"),
    ("director", "kantoku"), ("horse", "uma"), ("chicken", "tori"),
    ("bird", "kotori"), ("monkey", "saru"), ("fish", "sakana"),
    ("bunny", "usagi"), ("bear", "kuma"), ("lion", "raion"),
    ("soldier", "heisi"), ("sailor", "suihei"), ("lawyer", "bengosi"),
    ("scientist", "kagakusya"), ("farmer", "noohu"), ("judge", "saibankan"),
    ("king", "oosama"), ("queen", "jyooo"), ("prince", "ooji"),
    ("writer", "sakka"), ("singer", "kasyu"), ("dancer", "dansaa"),
    ("guard", "keibiin"), ("coach", "kooti"), ("citizen", "simin"),
    ("champion", "oojya"), ("captain", "sentyoo"),
    # pattern targets
    ("goat", "yagi"), ("wolf", "ookami"), ("fox", "kitune"),
    ("deer", "sika"), ("sheep", "hituji"),
    ("panda", "panda"), ("zebra", "simauma"), ("camel", "rakuda"),
    ("koala", "koara"), ("lemur", "kitunezaru"),
    ("thief", "doroboo"), ("spy", "supai"), ("pilot", "pairotto"),
    ("nurse", "kangosi"), ("clown", "piero"),
    ("trainer", "toreenaa"), ("editor", "hensyuusya"), ("barber", "tokoya"),
    ("tailor", "sitateya"), ("magician", "majisyan"),
]

# Inanimate common nouns; the third field marks plausible PP locations.
INANIMATE_NOUNS = [
    ("apple", "ringo", 0), ("book", "hon", 1), ("box", "hako", 1),
    ("cup", "kappu", 1), ("table", "teeburu", 1), ("tree", "ki", 1),
    ("house", "ie", 1), ("room", "heya", 1), ("bed", "beddo", 1),
    ("cake", "keeki", 0), ("car", "kuruma", 1), ("tool", "doogu", 0),
    ("plate", "sara", 1), ("jar", "bin", 0), ("bottle", "botoru", 0),
    ("pen", "pen", 0), ("bag", "kaban", 0), ("key", "kagi", 0),
    ("game", "geemu", 0), ("doll", "ningyoo", 0), ("guitar", "gitaa", 0),
    ("ball", "booru", 0), ("bowl", "wan", 0), ("chair", "isu", 1),
    ("shoe", "kutu", 0), ("newspaper", "sinbun", 0), ("fig", "itijiku", 0),
    ("cookie", "kukkii", 0), ("road", "dooro", 1), ("seat", "zaseki", 1),
    ("bench", "benti", 1), ("shelf", "tana", 1), ("desk", "tukue", 1),
    ("stone", "isi", 0), ("window", "mado", 0), ("flower", "hana", 0),
    ("plant", "syokubutu", 0), ("drink", "nomimono", 0), ("pizza", "piza", 0),
    ("melon", "meron", 0), ("banana", "banana", 0), ("crayon", "kureyon", 0),
    ("toy", "omotya", 0), ("present", "purezento", 0), ("mirror", "kagami", 0),
    ("clock", "tokei", 0), ("watch", "udedokei", 0), ("ring", "yubiwa", 0),
    ("crown", "oukan", 0), ("coin", "koin", 0), ("bell", "suzu", 0),
    ("brick", "renga", 0), ("leaf", "happa", 0), ("weapon", "buki", 0),
    ("brain", "noo", 0), ("wine", "wain", 0), ("beer", "biiru", 0),
    ("shirt", "syatu", 0), ("towel", "taoru", 0), ("pillow", "makura", 0),
    ("knife", "naihu", 0), ("spoon", "supuun", 0), ("basket", "kago", 0),
    ("bucket", "baketu", 0), ("hammer", "hanmaa", 0), ("jacket", "jyaketto", 0),
    ("scarf", "mahuraa", 0), ("hat", "boosi", 0), ("radio", "rajio", 0),
    ("cloud", "kumo", 0), ("soap", "sekken", 0), ("purse", "saihu", 0),
    ("chalk", "tyooku", 0), ("boat", "booto", 1), ("stage", "suteeji", 1),
]

PROPER_NOUNS = [
    ("Emma", "ema"), ("Liam", "riamu"), ("Olivia", "oribia"),
    ("Noah", "noa"), ("Ava", "eeba"), ("Sophia", "sofia"),
    ("William", "uiriamu"), ("James", "jeemuzu"), ("Oliver", "oribaa"),
    ("Charlotte", "syaarotto"), ("Lucas", "ruukasu"), ("Mia", "mia"),
    ("Mason", "meison"), ("Ethan", "iisan"), ("Isabella", "izabera"),
    ("Logan", "roogan"), ("Harper", "haapaa"), ("Jacob", "jeikobu"),
    ("Michael", "maikeru"), ("Daniel", "danieru"), ("Henry", "henrii"),
    ("Jackson", "jakuson"), ("Samuel", "samyueru"), ("David", "debiddo"),
    ("Joseph", "josehu"), ("Carter", "kaataa"), ("Owen", "oouen"),
    ("John", "jon"), ("Luke", "ruuku"), ("Jack", "jakku"),
    ("Ben", "ben"), ("Emily", "emirii"), ("Sam", "samu"),
    ("Lina", "rina"), ("Lucy", "ruusii"), ("Grace", "gureisu"),
    ("Leo", "reo"), ("Anna", "anna"), ("Sarah", "seera"), ("Tom", "tomu"),
    # pattern targets
    ("Chris", "kurisu"), ("Morgan", "moogan"), ("Casey", "keisii"),
    ("Jordan", "jyoodan"), ("Riley", "rairii"),
    ("Taylor", "teiraa"), ("Quinn", "kuin"), ("Avery", "eibarii"),
    ("Rowan", "roowan"), ("Sage", "seiji"),
    ("Coco", "koko"), ("Milo", "miro"), ("Ziggy", "jigii"),
    ("Juno", "jyuno"), ("Remy", "remii"),
    ("Nova", "noba"), ("Kai", "kai"), ("Suki", "suki"),
    ("Bodhi", "boodi"), ("Luca", "ruka"),
]

ADJECTIVES = [
    ("small", "tiisai"), ("big", "ookii"), ("red", "akai"),
    ("blue", "aoi"), ("old", "hurui"), ("new", "atarasii"),
    ("tall", "takai"), ("rare", "mezurasii"), ("unique", "tokuyuuna"),
    ("square", "sikakui"), ("round", "marui"), ("beautiful", "utukusii"),
    ("calm", "odayakana"), ("English", "igirisuno"), ("white", "siroi"),
    ("black", "kuroi"), ("green", "midorino"), ("young", "wakai"),
    ("strong", "tuyoi"), ("soft", "yawarakai"), ("heavy", "omoi"),
    ("light", "karui"), ("plastic", "purasutikkuno"), ("wooden", "mokuseino"),
    ("cheap", "yasui"), ("expensive", "kookana"), ("narrow", "semai"),
    ("wide", "hiroi"), ("bright", "akarui"), ("dark", "kurai"),
    ("long", "nagai"), ("short", "mijikai"), ("clever", "kasikoi"),
    ("quiet", "sizukana"), ("famous", "yuumeina"), ("modern", "gendaitekina"),
    ("tiny", "gokusyoona"), ("warm", "atatakai"), ("cold", "tumetai"),
    ("dry", "kawaita"), ("wet", "nureta"), ("pretty", "kireina"),
    ("simple", "kantanna"),
]

PREPOSITIONS = [("on", "ue"), ("in", "naka"), ("beside", "yoko")]


def _pres3sg(lemma: str) -> str:
    if lemma.endswith(("s", "sh", "ch", "x", "o", "z")):
        return lemma + "es"
    if lemma.endswith("y") and lemma[-2] not in "aeiou":
        return lemma[:-1] + "ies"
    return lemma + "s"


def build_lexicon() -> Lexicon:
    entries = []
    for rank, (lemma, past, part, _frames, reg, _cls, _pa, _pr, _ps) in \
            enumerate(VERBS, 1):
        entries.append(LexEntry(
            lemma, "Verb", {"regularity": reg},
            {"past": past, "pres": _pres3sg(lemma), "part": part or past,
             "inf": lemma},
            rank))
    rank = 0
    for lemma, _ja in ANIMATE_NOUNS:
        rank += 1
        entries.append(LexEntry(
            lemma, "CommonNoun", {"animacy": "animate"}, {"base": lemma}, rank))
    for lemma, _ja, _loc in INANIMATE_NOUNS:
        rank += 1
        entries.append(LexEntry(
            lemma, "CommonNoun", {"animacy": "inanimate"}, {"base": lemma},
            rank))
    for rank, (lemma, _ja) in enumerate(PROPER_NOUNS, 1):
        entries.append(LexEntry(
            lemma, "ProperNoun", {"animacy": "animate"}, {"base": lemma}, rank))
    for rank, (lemma, _ja) in enumerate(ADJECTIVES, 1):
        entries.append(LexEntry(lemma, "Adjective", {}, {"base": lemma}, rank))
    for rank, (lemma, _ja) in enumerate(PREPOSITIONS, 1):
        entries.append(LexEntry(lemma, "Preposition", {}, {"base": lemma}, rank))
    return Lexicon(entries)


def dictionary_rows():
    """(lemma, pos, bundle) -> target tokens, as flat rows."""
    rows = []
    for lemma, _past, _part, _frames, _reg, cls, ja_past, ja_pres, ja_pass in VERBS:
        rows.append((lemma, "Verb", "class", (cls,)))
        rows.append((lemma, "Verb", "stem_past", (ja_past,)))
        rows.append((lemma, "Verb", "stem_pres", (ja_pres,)))
        rows.append((lemma, "Verb", "stem_pass", (ja_pass,)))
    for lemma, ja in ANIMATE_NOUNS:
        rows.append((lemma, "CommonNoun", "base", tuple(ja.split())))
    for lemma, ja, _loc in INANIMATE_NOUNS:
        rows.append((lemma, "CommonNoun", "base", tuple(ja.split())))
    for lemma, ja in PROPER_NOUNS:
        rows.append((lemma, "ProperNoun", "base", tuple(ja.split())))
    for lemma, ja in ADJECTIVES:
        rows.append((lemma, "Adjective", "base", tuple(ja.split())))
    for lemma, ja in PREPOSITIONS:
        rows.append((lemma, "Preposition", "base", tuple(ja.split())))
    return rows


# Morphology: (class, tense, voice) -> suffix tokens appended to the stem
# named in the first element.  The interrogative marker is uniform.
MORPH_ROWS = [
    ("v", "past", "active", "stem_past", ("ta",)),
    ("v", "pres", "active", "stem_pres", ("ru",)),
    ("v", "past", "passive", "stem_pass", ("rare", "ta")),
    ("c", "past", "active", "stem_past", ("ta",)),
    ("c", "pres", "active", "stem_pres", ("u",)),
    ("c", "past", "passive", "stem_pass", ("re", "ta")),
    ("cd", "past", "active", "stem_past", ("da",)),
    ("cd", "pres", "active", "stem_pres", ("u",)),
    ("cd", "past", "passive", "stem_pass", ("re", "ta")),
    ("s", "past", "active", "stem_past", ("ta",)),
    ("s", "pres", "active", "stem_pres", ("ru",)),
    ("s", "past", "passive", "stem_pass", ("re", "ta")),
    ("k", "past", "active", "stem_past", ("ta",)),
    ("k", "pres", "active", "stem_pres", ("u",)),
    ("k", "past", "passive", "stem_pass", ("rare", "ta")),
]

QUESTION_PARTICLE = "ka"

# Selectional restrictions: licensed (verb, role, noun) pairs with the
# replacement ranking implied by list order.  Any (verb, role) absent here is
# open-world (never checked).
CASE_FRAMES = [
    ("eat", "direct_object",
     ["apple", "cake", "cookie", "fig", "melon", "banana", "pizza"]),
    ("drink", "direct_object", ["wine", "beer", "drink"]),
    ("cook", "direct_object", ["cake", "pizza", "melon", "banana", "apple"]),
    ("bloom", "inanimate_subject", ["flower", "tree", "plant"]),
]


def _check_tables():
    verbs = [v[0] for v in VERBS]
    if len(set(verbs)) != len(verbs):
        raise GrammarError("duplicate verb lemma in lexicon tables")
    ja = {}
    for lemma, pos, bundle, toks in dictionary_rows():
        if bundle in ("base", "stem_past"):
            key = (pos, toks)
            if key in ja and pos != "Verb":
                raise GrammarError(
                    f"target surface {toks} shared by {ja[key]} and {lemma}")
            ja[key] = lemma


_check_tables()
