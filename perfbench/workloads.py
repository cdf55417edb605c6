"""Seeded input generators: C functions, pair manifests, a CWE CSV, a model script.

Everything here is a pure function of the seed.  The library under test only
ever sees the files written from these values (a function JSONL file, a pair
manifest and a CWE-style CSV) plus the answers of the benchmark's scripted
model backend.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# -- vocabulary ---------------------------------------------------------------

_SECURITY_WORDS = (
    "buffer overflow underflow write read bounds out of pointer null dereference "
    "free use after double heap stack integer wraparound sign conversion truncation "
    "format string injection command sql path traversal race condition toctou leak "
    "exposure sensitive information disclosure crypto weak random predictable "
    "authentication authorization missing improper validation input neutralization "
    "resource exhaustion uncontrolled allocation limit length size index array copy "
    "memory uninitialized variable return value check unchecked error handling "
    "exception lock deadlock concurrent shared state privilege permission access "
    "control file descriptor socket network request response header cookie session "
    "token password credential storage plaintext cleartext encoding decoding parser "
    "loop infinite recursion depth off by one calculation incorrect type confusion "
    "cast signed unsigned expired release reference count object lifetime dangling "
    "external entity xml deserialization untrusted data trust boundary redirect "
    "origin cross site scripting forgery downgrade certificate signature hash "
    "product attacker function code allows may can when the a an of to in by with "
    "that which from this is be or not for on as are it its without"
).split()

_SYLLABLES = (
    "ka lo mi ra te sun vor pel dax qui ben tor lin mes fra gol hep zin cor wal "
    "nav rip sel tam uko yer bri cha dre fli gru jos kle mar nox pru"
).split()

_VERBS = (
    "parse read write copy load store fill scan emit decode encode pack unpack "
    "append merge split build fetch push pop flush drain sync map bind init free"
).split()
_NOUNS = (
    "buf pkt msg hdr frame record entry node chunk block item slot page table "
    "field token path name key value blob cell row col queue ring list tree"
).split()
_CALLEES = (
    "log_debug notify update_stats check_state release_ref touch_entry "
    "emit_event step_one step_two step_three validate consume visit"
).split()


VOCABULARY = 8000


def vocabulary(seed: int) -> list[str]:
    """Security words first, then pronounceable synthetic terms, in Zipf rank order."""
    rng = random.Random(f"vocabulary:{seed}")
    words = list(dict.fromkeys(_SECURITY_WORDS))
    seen = set(words)
    while len(words) < VOCABULARY:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Zipf:
    """Draw words with probability proportional to 1 / rank."""

    def __init__(self, rng: random.Random, words: list[str]):
        self.rng = rng
        self.words = words
        total = 0.0
        self.cum: list[float] = []
        for rank in range(1, len(words) + 1):
            total += 1.0 / rank
            self.cum.append(total)

    def draw(self, k: int) -> list[str]:
        return self.rng.choices(self.words, cum_weights=self.cum, k=k)


# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    kind: str  # small | large
    workers: int
    mean_latency_s: float


WORKLOADS = {
    "small-cpu": Workload("small", workers=1, mean_latency_s=0.0),
    "large-cpu": Workload("large", workers=1, mean_latency_s=0.0),
    "small-model": Workload("small", workers=2, mean_latency_s=0.020),
}


# -- CWE corpus ---------------------------------------------------------------

CWE_ENTRIES = 1000
CWE_EXAMPLE_SHARE = 0.7


def cwe_csv_rows(seed: int) -> list[dict[str, str]]:
    """About a thousand synthetic weakness rows in the CWE CSV column layout.

    The shape figures are unverified estimates, not measured on a real
    export: names of 2-10 words, descriptions of 8-60 words, and a code
    example of 3-30 one-line statements on about 70% of entries.  Words come
    from an 8000-word Zipf vocabulary; the examples also carry numeric
    literals.
    """
    rng = random.Random(f"cwe:{seed}")
    zipf = _Zipf(rng, vocabulary(seed))
    ids = sorted(rng.sample(range(1, 1500), CWE_ENTRIES))
    rows = []
    for cwe in ids:
        name = " ".join(w.capitalize() for w in zipf.draw(rng.randint(2, 10)))
        description = " ".join(zipf.draw(rng.randint(8, 60))).capitalize() + "."
        example = ""
        if rng.random() < CWE_EXAMPLE_SHARE:
            lines = []
            for _ in range(rng.randint(3, 30)):
                a, b, c = zipf.draw(3)
                lines.append(f"{a}_{b} = {c}({a}, {rng.randint(0, 4096)});")
            example = "\n".join(lines)
        rows.append(
            {
                "CWE-ID": str(cwe),
                "Name": name,
                "Weakness Abstraction": rng.choice(("Base", "Variant", "Class")),
                "Status": rng.choice(("Draft", "Incomplete", "Stable")),
                "Description": description,
                "Demonstrative Examples": example,
            }
        )
    return rows


# -- C functions ----------------------------------------------------------------


@dataclass
class GeneratedFunction:
    id: str
    code: str
    label: str  # ground truth: vulnerable | benign
    shape: str
    statements: int
    family: str  # functions that share code by construction (a pair's two members)
    expected_error: str | None = None  # exception class run_triage is known to raise today


class _Namer:
    """Identifiers unique to one generated function (suffix = function serial)."""

    def __init__(self, rng: random.Random, serial: int):
        self.rng = rng
        self.suffix = serial
        self.used: set[str] = set()

    def name(self) -> str:
        while True:
            candidate = f"{self.rng.choice(_NOUNS)}_{self.rng.choice(_NOUNS)}{self.suffix}"
            if candidate not in self.used:
                self.used.add(candidate)
                return candidate

    def callee(self) -> str:
        return f"{self.rng.choice(_CALLEES)}_{self.rng.choice(_NOUNS)}"


SMALL_SHAPES = 15


def _small_statement(rng: random.Random, nm: _Namer, v: list[str], i: str, n: str, p: str, shape: int):
    """Statement ``shape`` from the fixture corpus, renamed; returns (lines, statements)."""
    a, b = rng.sample(v, 2)
    c = rng.randint(1, 512)
    f = nm.callee()
    if shape == 0:
        return [f"{a} = {b} + {c};"], 1
    if shape == 1:
        return [f"{a} += {c};"], 1
    if shape == 2:
        return [f"{f}({a}, {c});"], 1
    if shape == 3:
        return [f"{a} = {f}({b});"], 1
    if shape == 4:
        return [f"if ({a} < {c}) {{", f"    return -{c};", "}"], 2
    if shape == 5:
        return [f"if ({a} > {b}) {{", f"    {a} = {a} - {b};", "} else {", f"    {a} = {c};", "}"], 3
    if shape == 6:
        return [f"while ({a} > {c}) {{", f"    {f}({a});", f"    {a}--;", "}"], 3
    if shape == 7:
        return [f"for ({i} = 0; {i} < {n}; {i}++) {{", f"    {a} = {a} + {i};", "}"], 2
    if shape == 8:
        return ["do {", f"    {f}({a});", f"    {a}--;", f"}} while ({a} > {c});"], 3
    if shape == 9:
        return [
            f"switch ({a}) {{",
            "case 0:",
            f"    {b} = {b} + 1;",
            "    break;",
            "case 1:",
            f"    {b} = {b} - {c};",
            "    break;",
            "default:",
            f"    {b} = {a};",
            "}",
        ], 6
    if shape == 10:
        return [f"{a} = {a} > {b} ? {a} : {c};"], 1
    if shape == 11:
        return [f"while (*{p}) {{", f"    {a}++;", f"    {p}++;", "}"], 3
    if shape == 12:
        return [
            f"for ({i} = 0; {i} < {n}; {i}++) {{",
            f"    if ({i} == {c}) {{",
            "        break;",
            "    }",
            f"    {a} = {a} + {i};",
            "}",
        ], 4
    if shape == 13:
        return [
            f"for ({i} = 0; {i} < {n}; {i}++) {{",
            f"    if ({i} % {c % 7 + 2}) {{",
            "        continue;",
            "    }",
            f"    {a}++;",
            "}",
        ], 4
    return [
        f"if ({a} > 0) {{",
        f"    if ({b} > {c}) {{",
        f"        {a} = {a} + {b};",
        "    }",
        "}",
    ], 3


def _sink(rng: random.Random, nm: _Namer, dst: str, src: str, ln: str, n: str, v: list[str]):
    """(vulnerable lines, benign lines) for one of four CWE-shaped sinks."""
    cap = rng.choice((64, 128, 256, 512, 1024))
    kind = rng.randrange(4)
    if kind == 0:
        vuln = [f"memcpy({dst}, {src}, {ln});"]
        fix = [f"if ({ln} > {cap}) {{", "    return -1;", "}"] + vuln
    elif kind == 1:
        a = v[0]
        vuln = [f"{dst}[{a}] = {src}[0];"]
        fix = [f"if ({a} < 0 || {a} >= {ln}) {{", "    return -1;", "}"] + vuln
    elif kind == 2:
        vuln = [f"strcpy({dst}, {src});"]
        fix = [f"strncpy({dst}, {src}, {ln} - 1);", f"{dst}[{ln} - 1] = 0;"]
    else:
        a, f, size = v[1], nm.callee(), rng.choice((4, 8, 16))
        vuln = [f"{a} = {n} * {size};", f"{f}({dst}, {a});"]
        fix = [f"if ({n} > {cap} / {size}) {{", "    return -1;", "}"] + vuln
    return vuln, fix


def _indent(lines: list[str]) -> str:
    return "".join(f"    {line}\n" for line in lines)


def small_sizes(rng: random.Random, count: int) -> list[int]:
    """Statement targets for ``count`` pairs: one draw from each of ``count``
    equal-probability strata of the log-uniform law over [5, 60], shuffled.

    Dataset functions are mostly short; stratifying keeps every batch's size
    mix, and so its path-explosion tail, the same from seed to seed.
    """
    sizes = [round(5 * 12 ** ((j + rng.random()) / count)) for j in range(count)]
    rng.shuffle(sizes)
    return sizes


def small_pair(rng: random.Random, serial: int, target: int) -> tuple[GeneratedFunction, GeneratedFunction]:
    """A vulnerable function of about ``target`` statements and its patched benign twin."""
    nm = _Namer(rng, serial)
    fname = f"{rng.choice(_VERBS)}_{rng.choice(_NOUNS)}_{serial}"
    dst, src, ln, n = nm.name(), nm.name(), nm.name(), nm.name()
    v = [nm.name() for _ in range(rng.randint(2, 4))]
    i, p = nm.name(), nm.name()
    head = [f"int {x} = {rng.randint(0, 64)};" for x in v] + [f"int {i};", f"const char *{p} = {src};"]
    count = len(head)
    body: list[str] = []
    # Shapes are dealt from shuffled decks rather than drawn independently,
    # so a function's branch count, and with it the path-enumeration cost
    # that makes up the latency tail, follows its size closely.
    deck: list[int] = []
    while count < target - 1:
        if not deck:
            deck = list(range(SMALL_SHAPES))
            rng.shuffle(deck)
        lines, stmts = _small_statement(rng, nm, v, i, n, p, deck.pop())
        if count + stmts > 56:
            break
        body.extend(lines)
        count += stmts
    vuln, fix = _sink(rng, nm, dst, src, ln, n, v)
    signature = f"int {fname}(char *{dst}, const char *{src}, size_t {ln}, int {n}) {{\n"
    tail = [f"return {v[0]};"]
    pair = []
    for label, sink in (("vulnerable", vuln), ("benign", fix)):
        code = signature + _indent(head + body + sink + tail) + "}\n"
        stmts = count + len([s for s in sink if s.endswith(";")]) + 1
        pair.append(GeneratedFunction("", code, label, "small", stmts, f"s{serial}"))
    pair[0].id, pair[1].id = f"s{serial}-v", f"s{serial}-b"
    return pair[0], pair[1]


def _large_body(rng: random.Random, nm: _Namer, shape: str, size: int, v: list[str]) -> list[str]:
    lines: list[str] = []
    if shape == "straight":
        for k in range(size):
            a, b = v[k % len(v)], v[(k * 7 + 3) % len(v)]
            lines.append(f"{a} = {b} + {rng.randint(1, 9999)};")
    elif shape == "calls":
        callees = [nm.callee() for _ in range(6)]
        for k in range(size):
            lines.append(f"{rng.choice(callees)}({v[k % len(v)]}, {rng.randint(0, 9999)});")
    elif shape == "ifs":
        a, b = v[0], v[1]
        for _ in range(size // 2):
            c = rng.randint(0, 9999)
            lines += [f"if ({a} > {c}) {{", f"    {b} = {b} + {c};", "}"]
    else:  # nested ifs and loops, blocks of depth 2-4 around one statement
        k = 0
        while k < size:
            depth = rng.randint(2, 4)
            opened = []
            for d in range(depth):
                pad = "    " * d
                c = rng.randint(1, 9999)
                a = v[(k + d) % len(v)]
                if d % 2 == 0:
                    opened.append(f"{pad}if ({a} > {c}) {{")
                else:
                    opened.append(f"{pad}for ({v[-1]} = 0; {v[-1]} < {c}; {v[-1]}++) {{")
            lines += opened
            lines.append("    " * depth + f"{v[0]} = {v[0]} + {v[1]};")
            lines += ["    " * d + "}" for d in reversed(range(depth))]
            k += depth + 1
    return lines


# Each large-function cycle holds one function per (shape, size) below; the
# seed changes identifiers, constants and order, never sizes, so every cycle
# costs about the same.  Sequential ifs from 50 up hit the 4096-path
# enumeration cap.  The 1200-call function is the known RecursionError input
# of path enumeration and is kept on purpose, far from the threshold (about
# 1000 calls) so that the extra stack frames of tracing cannot flip its
# outcome.  The other eleven succeed today, so the latency median is the
# sixth-cheapest function (ifs 100, about 0.2 s on a 2-vCPU host) and p90 lies
# among the samples of the tenth (straight 2400, about 2 s).  The five below
# the median cost under 0.1 s and the five above it about 1 s or more, and the
# eleventh (ifs 1600) about 4 s: samples of one function vary by up to a
# quarter within a run, and closer neighbours would move the percentiles
# from one function to another.
LARGE_GRID: tuple[tuple[str, int], ...] = (
    ("straight", 150),
    ("straight", 300),
    ("straight", 2400),
    ("calls", 150),
    ("calls", 200),
    ("calls", 300),
    ("calls", 1200),
    ("ifs", 100),
    ("ifs", 600),
    ("ifs", 1600),
    ("nested", 300),
    ("nested", 400),
)


# Grid points whose function raises out of ``run_triage`` today.  Only these
# may fail a run's functions; any other escaping exception fails the run.
KNOWN_ERRORS = {("calls", 1200): "RecursionError"}


def large_function(rng: random.Random, serial: int, shape: str, size: int, label: str) -> GeneratedFunction:
    nm = _Namer(rng, serial)
    fname = f"{rng.choice(_VERBS)}_{rng.choice(_NOUNS)}_{serial}"
    v = [nm.name() for _ in range(12)]
    head = [f"int {x} = {rng.randint(0, 64)};" for x in v[2:]]
    body = _large_body(rng, nm, shape, size, v)
    code = f"int {fname}(int {v[0]}, int {v[1]}) {{\n" + _indent(head + body + [f"return {v[0]};"]) + "}\n"
    fid = f"L{serial}-{shape}"
    error = KNOWN_ERRORS.get((shape, size))
    return GeneratedFunction(fid, code, label, shape, size + len(head) + 1, fid, error)


def large_cycle(rng: random.Random, cycle: int) -> list[GeneratedFunction]:
    """One function per grid point, in seeded order; labels alternate so
    consecutive functions form (vulnerable, benign) pairs."""
    grid = list(LARGE_GRID)
    rng.shuffle(grid)
    base = cycle * len(grid)
    return [
        large_function(rng, base + k, shape, size, "vulnerable" if k % 2 == 0 else "benign")
        for k, (shape, size) in enumerate(grid)
    ]


# -- model script --------------------------------------------------------------

# In every batch exactly one function gets each scripted fault, so every run
# exercises the retry, fallback and degradation paths in a fixed share.
FAULT_KINDS = ("judge-retry", "query-fallback", "explain-error")
MODEL_ACCURACY = 0.7

_COMMON_QUERIES = (
    "buffer overflow via unchecked length",
    "out of bounds write in copy loop",
    "null pointer dereference after failed allocation",
    "integer overflow in size calculation",
    "use after free of released buffer",
    "missing bounds check on array index",
)


@dataclass
class ScriptEntry:
    """What the scripted model answers for one function, and what that implies."""

    label: str  # the verdict the script gives
    queries: list[str]  # query texts the pipeline should retrieve with
    faults: set[str] = field(default_factory=set)


def script_for(
    rng: random.Random, zipf: _Zipf, batch: list[GeneratedFunction], eligible
) -> dict[str, ScriptEntry]:
    """Seeded answers for one batch; one ``eligible`` function per fault kind.

    Half the functions get one query and half get two, so the batch's cost
    mix does not depend on the seed.
    """
    counts = [1, 2] * (len(batch) // 2) + [1] * (len(batch) % 2)
    rng.shuffle(counts)
    script = {}
    for fn, count in zip(batch, counts):
        right = rng.random() < MODEL_ACCURACY
        label = fn.label if right else ("benign" if fn.label == "vulnerable" else "vulnerable")
        queries = []
        for _ in range(count):
            if rng.random() < 0.05:
                queries.append(rng.choice(_COMMON_QUERIES))
            else:
                queries.append(" ".join(zipf.draw(rng.randint(3, 8))))
        script[fn.id] = ScriptEntry(label, queries)
    candidates = [fn.id for fn in batch if eligible(fn)]
    for kind in FAULT_KINDS:
        script[rng.choice(candidates)].faults.add(kind)
    return script


def query_zipf(seed: int) -> _Zipf:
    """Query words come from the corpus vocabulary, with their own draw order."""
    return _Zipf(random.Random(f"queries:{seed}"), vocabulary(seed))
