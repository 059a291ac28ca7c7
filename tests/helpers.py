"""Shared builders for hand-assembled STIX bundles, reports, predictions
and feature rows used across the test modules."""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import numpy as np

from ttpmine.attack_kb import UsageMatrix
from ttpmine.corpus import make_report, pair_universe
from ttpmine.ctfidf import TOP_K_SCORES, CtfidfModel, ReportPrediction, _score_stream
from ttpmine.embeddings import WordVectors
from ttpmine.features.apriori import METRIC_NAMES
from ttpmine.features.builder import FeatureRows, PairKey, build_report_features, f4_table
from ttpmine.features.layout import N_SLOTS, SLOT_NAMES
from ttpmine.labels import ALL_LABELS, NULL, POSITIVE_LABELS

E2E_DIR = Path(__file__).parent / "data" / "e2e"
REPO_ROOT = Path(__file__).parent.parent

_rel_ids = itertools.count()


def score_sentences(model: CtfidfModel, token_lists) -> np.ndarray:
    """Max-normalized cosine scores of each token sequence against each
    class, as a ``(len(token_lists), classes)`` matrix: `_score_stream`
    of the sequences chained into one stream, each token given as its
    vocabulary id."""
    n_rows = len(token_lists)
    lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=n_rows)
    rows = np.repeat(np.arange(n_rows), lengths)
    tokens = list(itertools.chain.from_iterable(token_lists))
    ids = np.fromiter(
        map(model.vocab.get, tokens, itertools.repeat(-1)), dtype=np.intp, count=len(tokens)
    )
    return _score_stream(model, ids, rows, n_rows)


# A usage matrix without actors or techniques: every pair's f4 slots are zero.
EMPTY_USAGE = UsageMatrix(actors=(), techniques=(), cells=np.zeros((0, 0), dtype=np.int8))


def attack_pattern(ext_id: str, name: str, *, revoked: bool = False,
                   deprecated: bool = False) -> dict:
    obj = {
        "type": "attack-pattern",
        "id": "attack-pattern--" + ext_id.lower().replace(".", "-"),
        "name": name,
        "external_references": [
            {"source_name": "mitre-attack", "external_id": ext_id}
        ],
    }
    if revoked:
        obj["revoked"] = True
    if deprecated:
        obj["x_mitre_deprecated"] = True
    return obj


def actor(ext_id: str, kind: str = "intrusion-set", name: str = "some actor") -> dict:
    return {
        "type": kind,
        "id": f"{kind}--{ext_id.lower()}",
        "name": name,
        "external_references": [
            {"source_name": "mitre-attack", "external_id": ext_id}
        ],
    }


def uses(source: dict, target: dict, description: str = "",
         *, revoked: bool = False) -> dict:
    obj = {
        "type": "relationship",
        "id": f"relationship--{next(_rel_ids):08d}",
        "relationship_type": "uses",
        "source_ref": source["id"],
        "target_ref": target["id"],
        "description": description,
    }
    if revoked:
        obj["revoked"] = True
    return obj


def bundle(*objects: dict, collection_version: str | None = None) -> bytes:
    objs = list(objects)
    if collection_version is not None:
        objs.insert(
            0,
            {
                "type": "x-mitre-collection",
                "id": "x-mitre-collection--fixture",
                "x_mitre_version": collection_version,
            },
        )
    payload = {"type": "bundle", "id": "bundle--fixture", "objects": objs}
    return json.dumps(payload).encode("utf-8")


def usage_bundle(seed: int, actors: int = 150, techniques: int = 60) -> bytes:
    """A seeded bundle with many actors of every kind and about 5% of
    actor-technique cells used, plus what the usage matrix must skip or
    fold: sub-technique targets, revoked or deprecated techniques,
    revoked relationships and actors, targets missing from the bundle,
    repeated uses, an actor with no external id, and non-actor sources."""
    rng = np.random.default_rng(seed)
    kinds = ("intrusion-set", "malware", "tool", "campaign")
    techs = [attack_pattern(f"T{3000 + k}", f"Technique {k}") for k in range(techniques)]
    subs = [attack_pattern(f"T{3000 + k}.00{k % 3 + 1}", f"Sub {k}")
            for k in range(0, techniques, 4)]
    dropped = [
        attack_pattern(f"T{5000 + k}", f"Gone {k}", revoked=k % 2 == 0,
                       deprecated=k % 2 == 1)
        for k in range(6)
    ]
    ghosts = [{"id": f"attack-pattern--ghost-{k}"} for k in range(4)]
    people = [actor(f"A{1000 + k}", kind=kinds[k % 4]) for k in range(actors)]
    people[0]["external_references"] = []
    people[1]["revoked"] = True
    targets = techs + subs + dropped + ghosts
    p = np.full(len(targets), 0.05)
    p[len(techs):] = 0.02
    rels = [
        uses(a, t, revoked=bool(rng.random() < 0.05))
        for a in people
        for t, hit in zip(targets, rng.random(len(targets)) < p)
        if hit
    ]
    rels += [
        uses(people[k], techs[k % techniques]) for k in range(0, actors, 7) for _ in "ab"
    ]
    rels += [uses(techs[0], techs[1]), uses(people[2], people[3])]
    order = rng.permutation(len(rels))
    return bundle(*techs, *subs, *dropped, *people, *(rels[k] for k in order))


# Descriptions whose sentences split the same alone as joined by "\n".
_DESCRIPTIONS = (
    "First act. Second act.",
    "Ends on a space. ",
    "Closes a sentence.",
    "Lower after a dot. then more",
    "Line one\nLine two",
    "Windows line\r\nNext line",
    "Asked? Answered! Done.",
    "\u00dcber alles. \u00c4rger folgt.",
    "v1.2 of tool.exe ran.",
    "",
    "   ",
    None,
)


def random_bundle(seed: int) -> bytes:
    """A seeded ATT&CK-like bundle the walk and `parse_stix_oracle` must
    read alike, in one of four layouts (indented, compact, CRLF, one
    line), some with a decoy ``objects`` list before the real one (the
    last wins, as in `json.loads`). The objects are shuffled, so
    relationships come before their endpoints, and include revoked and
    deprecated objects, sub-techniques, targets missing from the bundle,
    blank or missing names and ids, several collections, and objects
    whose id prefix disagrees with their type."""
    rng = random.Random(seed)
    kinds = ("intrusion-set", "malware", "tool", "campaign")
    techs = [attack_pattern(f"T{4000 + k}", f"Technique {k}") for k in range(rng.randint(3, 12))]
    subs = [attack_pattern(f"{t['external_references'][0]['external_id']}.00{k + 1}", f"Sub {k}")
            for k, t in enumerate(rng.sample(techs, 2))]
    dropped = [attack_pattern(f"T{4500 + k}", "Gone", revoked=k % 2 == 0, deprecated=k % 2 == 1)
               for k in range(rng.randint(0, 3))]
    odd = [attack_pattern("T4900", ""), attack_pattern("T4901", "x")]
    odd[1]["external_references"] = [
        {"source_name": "mitre-attack", "external_id": ""},
        {"source_name": "capec", "external_id": "CAPEC-1"},
        {"source_name": "mitre-attack", "external_id": "T4901"},
    ]
    people = [actor(f"A{2000 + k}", kind=rng.choice(kinds)) for k in range(rng.randint(2, 10))]
    people[0]["external_references"] = []
    people[1].pop("external_references")
    for person in rng.sample(people, 1):
        person["revoked" if rng.random() < 0.5 else "x_mitre_deprecated"] = True
    # An attack pattern and a relationship whose ids are actor ids.
    mixed = attack_pattern("T4950", "Mixed")
    mixed["id"] = "malware--mixed"
    ghosts = [{"id": f"attack-pattern--ghost-{k}"} for k in range(2)]
    sources = people + [mixed, techs[0]]
    targets = techs + subs + dropped + odd + ghosts + [mixed, people[-1]]
    rels = []
    for _ in range(rng.randint(5, 40)):
        rel = uses(rng.choice(sources), rng.choice(targets), "")
        description = rng.choice(_DESCRIPTIONS)
        if description is None:
            del rel["description"]
        else:
            rel["description"] = description
        rel["revoked"] = rng.random() < 0.1
        if rng.random() < 0.1:
            rel["relationship_type"] = "mitigates"
        rels.append(rel)
    rels[0].pop("target_ref")
    rels[1]["id"] = "tool--relationship"
    collections = [
        {"type": "x-mitre-collection", "id": f"x-mitre-collection--{k}", "x_mitre_version": v}
        for k, v in enumerate(rng.sample(["", "17.1", 15, "16.0"], 2))
    ]
    objects = techs + subs + dropped + odd + people + [mixed] + rels + collections
    rng.shuffle(objects)
    layout = rng.choice([
        {"indent": 2}, {"separators": (",", ":")}, {"indent": "\t"}, {},
    ])
    text = json.dumps({"type": "bundle", "objects": objects}, **layout)
    if "indent" in layout and layout["indent"] == "\t":
        text = text.replace("\n", "\r\n") + "\r\n"
    if rng.random() < 0.3:
        decoy = json.dumps(rng.sample(objects, len(objects) // 2), **layout)
        text = '{"objects": ' + decoy + ", " + text[1:]
    return text.encode("utf-8")


def pad_bundle(data: bytes, citations: int) -> bytes:
    """`data` with the fields ATT&CK objects carry but the kb does not
    read added to every object: creation and modification dates, a
    creator, marking refs, spec versions and `citations` citation
    references, and kill-chain phases on attack patterns."""
    payload = json.loads(data)
    for k, obj in enumerate(payload["objects"]):
        obj.update({
            "created": "2017-05-31T21:30:19.735Z",
            "modified": "2024-04-10T22:38:21.259Z",
            "created_by_ref": "identity--c78cb6e5-0c4b-4611-8297-d1b8b55e40b5",
            "object_marking_refs": ["marking-definition--fa42a846-8d90-4e51-bc29-71d5b4802168"],
            "spec_version": "2.1",
            "x_mitre_attack_spec_version": "3.2.0",
            "x_mitre_domains": ["enterprise-attack"],
        })
        obj["external_references"] = obj.get("external_references", []) + [
            {
                "source_name": f"Vendor Report {k}-{n}",
                "url": f"https://example.com/research/{k}/{n}/report.html",
                "description": f"Vendor. (2023, March {n % 28 + 1}). Report {k}-{n}.",
            }
            for n in range(citations)
        ]
        if obj.get("type") == "attack-pattern":
            obj["kill_chain_phases"] = [
                {"kill_chain_name": "mitre-attack", "phase_name": "initial-access"},
                {"kill_chain_name": "mitre-attack", "phase_name": "execution"},
            ]
    return json.dumps(payload, indent=4).encode("utf-8")


def workload_bundle(name: str, seed: int = 1) -> bytes:
    """The STIX bundle pipebench writes for workload `name` at `seed`."""
    sys.path.insert(0, str(REPO_ROOT / "pipebench"))
    try:
        from gen import World
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(REPO_ROOT / "pipebench"))
    world = World(WORKLOADS[name].bundle, seed)
    return (json.dumps(world.bundle(), sort_keys=True) + "\n").encode("utf-8")


def make_rows(values, report_ids="r1", tx="TA", ty="TB") -> FeatureRows:
    """A `FeatureRows` from a (rows, slots) array. Rows with fewer slots
    than the layout's `N_SLOTS` are padded with zeros on the right; a
    column constant over every row never splits, so a model trains on
    the padded rows as on the narrow ones. `report_ids`, `tx` and `ty`
    each take one value for every row or a sequence with one per row."""
    narrow = np.atleast_2d(np.asarray(values, dtype=np.float64))
    n = narrow.shape[0]
    values = np.zeros((n, N_SLOTS))
    values[:, : narrow.shape[1]] = narrow

    def per_row(v):
        return [v] * n if isinstance(v, str) else list(v)

    return FeatureRows(
        keys=[PairKey(*key) for key in zip(per_row(report_ids), per_row(tx), per_row(ty))],
        values=values,
    )


def v1_bins_header(bins: int) -> list[str]:
    """The header of a features CSV of the retired layout `v1-bins<bins>`:
    today's columns, then a one-hot bin column per f4 measure and bin."""
    return [
        "report_id", "tx", "ty", *SLOT_NAMES,
        *(f"f4.{name}_bin{b}" for name in METRIC_NAMES for b in range(bins)),
    ]


def report_rows(report, prediction, um=EMPTY_USAGE, wv=None) -> FeatureRows:
    """`build_report_features` on one report, with the f4 table of the
    report's own pairs."""
    return build_report_features(
        report,
        prediction,
        wv=wv,
        f4=f4_table(um, pair_universe(prediction.techniques)),
    )


def pair_row(report, tx_hits, ty_hits, wv=None) -> np.ndarray:
    """The (TX, TY) row that `build_report_features` builds for `report`
    when TX is detected in the sentences `tx_hits` and TY in `ty_hits`
    (either may be empty, and may repeat or be unsorted); read its slots
    by name through `SLOT_NAMES.index`."""
    prediction = ReportPrediction(
        report_id=report.report_id,
        hit_sentences={"TX": tuple(tx_hits), "TY": tuple(ty_hits)},
        top_scores={tid: (1.0,) + (0.0,) * (TOP_K_SCORES - 1) for tid in ("TX", "TY")},
    )
    rows = report_rows(report, prediction, wv=wv)
    assert rows.keys[0] == (report.report_id, "TX", "TY")
    return rows.values[0]


# Word pool for random reports: nouns, verbs, markers, connectives and
# referring words so every feature family sees live inputs.
_NOUNS = [
    "loader", "beacon", "payload", "macro", "registry", "service",
    "archive", "credential", "proxy", "implant", "script", "binary",
]
_VERBS = ["executed", "dropped", "copied", "queried", "spawned", "staged"]
_EXTRAS = [
    "then", "later", "during", "while", "simultaneously", "concurrently",
    "if", "otherwise", "it", "they", "this", "that", "meanwhile", "quietly",
]


def random_word_vectors(rng: np.random.Generator, dim: int = 6) -> WordVectors:
    """Seeded vectors for the random reports' nouns and verbs; their
    markers and connectives are out of vocabulary, so some sentences
    pool to the zero vector."""
    return WordVectors(
        dim=dim, table={word: rng.normal(size=dim) for word in _NOUNS + _VERBS}
    )


def random_report(rng: np.random.Generator, report_id: str,
                  n_sentences: tuple[int, int] = (3, 9)):
    """A report of short random sentences, one sentence per line."""
    count = int(rng.integers(n_sentences[0], n_sentences[1] + 1))
    lines = []
    for _ in range(count):
        length = int(rng.integers(3, 8))
        words = [
            str(rng.choice(_NOUNS + _VERBS + _EXTRAS)) for _ in range(length)
        ]
        lines.append(" ".join(words) + ".")
    return make_report(report_id, "\n".join(lines))


def random_prediction(rng: np.random.Generator, report, *tids: str,
                      n_hits: tuple[int, int] = (1, 3)) -> ReportPrediction:
    """Random but well-formed technique detections for the given ids;
    each is detected with probability 0.85, in `n_hits` (lowest,
    highest) sentences, at most the report's."""
    n = len(report.sentences)
    top_scores = {}
    hit_sentences = {}
    for tid in tids:
        if rng.random() < 0.85 and n > 0:
            k = int(rng.integers(min(n_hits[0], n), min(n_hits[1], n) + 1))
            hits = sorted(
                int(i) for i in rng.choice(n, size=k, replace=False)
            )
            scores = np.zeros(TOP_K_SCORES, dtype=np.float64)
            raw = np.sort(rng.random(min(TOP_K_SCORES, n)))[::-1]
            raw[0] = 1.0
            scores[: raw.size] = raw
            hit_sentences[tid] = tuple(hits)
            top_scores[tid] = tuple(float(v) for v in scores)
    return ReportPrediction(
        report_id=report.report_id,
        hit_sentences=hit_sentences,
        top_scores=top_scores,
    )


def e2e_config_dict(out_dir: str | Path) -> dict:
    """The bundled pipeline config with input paths made absolute."""
    data = json.loads((E2E_DIR / "config.json").read_text(encoding="utf-8"))
    for key in ("stix", "reports", "annotations"):
        data[key] = str(REPO_ROOT / data[key])
    data["out_dir"] = str(out_dir)
    return data


def tree_features(node: dict) -> set[int]:
    """Every feature index referenced by a serialized tree."""
    if "value" in node:
        return set()
    return (
        {node["feature"]}
        | tree_features(node["left"])
        | tree_features(node["right"])
    )


def _pseudo_words(rng: np.random.Generator, n: int, taken: set[str]) -> list[str]:
    """``n`` fresh pseudo-words of three consonant-vowel syllables; none is
    an English stopword or a temporal marker."""
    out: list[str] = []
    while len(out) < n:
        word = "".join(
            str(rng.choice(list("bdfgklmnprstvz"))) + str(rng.choice(list("aeiou")))
            for _ in range(3)
        )
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


# A planted relation's label and the word that opens its second sentence.
_PLANTED = (("BEFORE", "Then"), ("SIMULTANEOUS_OVERLAP", "During"),
            ("CONCURRENT", "Simultaneously"))


def write_many_class_corpus(root: Path, seed: int, techniques: int = 40) -> dict:
    """Write a seeded corpus with ``techniques`` classifier classes under
    ``root`` and return a pipeline config dict for it.

    Every technique has a private vocabulary and 20 procedure examples
    (5 from each of 4 of 8 actors), so the classifier keeps all of them.
    Each of 20 reports mentions 6 techniques, one sentence each, among
    20 filler sentences. Three relations over disjoint technique pairs,
    one of each label, are each planted (the second sentence led by the
    label's marker) and annotated in two consecutive reports.
    """
    reports, per_report, support, filler = 20, 6, 2, 20
    rng = np.random.default_rng(seed)
    taken: set[str] = set()
    tids = [f"T{7000 + k}" for k in range(techniques)]
    pools = {tid: _pseudo_words(rng, 12, taken) for tid in tids}
    filler_words = _pseudo_words(rng, 120, taken)

    def sentence(pool, lead="The"):
        words = rng.choice(pool, size=int(rng.integers(4, 7)), replace=False)
        return f"{lead} {' '.join(str(w) for w in words)}."

    patterns_objs = {tid: attack_pattern(tid, f"Technique {tid}") for tid in tids}
    actors = [actor(f"G{8000 + a}") for a in range(8)]
    rels = []
    for tid in tids:
        for a in sorted(rng.choice(len(actors), size=4, replace=False)):
            rels.extend(
                uses(actors[a], patterns_objs[tid], sentence(pools[tid]))
                for _ in range(5)
            )
    root = Path(root)
    (root / "reports").mkdir(parents=True, exist_ok=True)
    (root / "stix.json").write_bytes(
        bundle(*patterns_objs.values(), *actors, *rels)
    )

    order = [str(t) for t in rng.permutation(tids)]
    planted = [
        (order[2 * p], order[2 * p + 1], label, lead)
        for p, (label, lead) in enumerate(_PLANTED)
    ]
    annotations = []
    for r in range(reports):
        rid = f"r{r:02d}"
        hosted = [t for p, t in enumerate(planted) if p * support <= r < (p + 1) * support]
        mentioned = {tid for tx, ty, _, _ in hosted for tid in (tx, ty)}
        others = [t for t in order if t not in mentioned]
        extra = rng.choice(others, size=per_report - len(mentioned), replace=False)
        blocks = [
            [sentence(pools[tx]), sentence(pools[ty], lead)] for tx, ty, _, lead in hosted
        ]
        blocks += [[sentence(pools[str(t)])] for t in extra]
        blocks += [[sentence(filler_words)] for _ in range(filler)]
        lines = [line for k in rng.permutation(len(blocks)) for line in blocks[k]]
        (root / "reports" / f"{rid}.txt").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
        annotations += [
            {"report_id": rid, "tx": tx, "ty": ty, "labels": [label]}
            for tx, ty, label, _ in hosted
        ]
    (root / "annotations.jsonl").write_text(
        "".join(json.dumps(a, sort_keys=True) + "\n" for a in annotations),
        encoding="utf-8",
    )
    return {
        "stix": str(root / "stix.json"),
        "reports": str(root / "reports"),
        "annotations": str(root / "annotations.jsonl"),
        "out_dir": str(root / "out"),
        "min_support": 2,
        "train": {"trees": 30, "max_depth": 3, "seed": 0,
                  "negative_downsample_ratio": 20.0},
    }


def random_label_matrices(rng: np.random.Generator, n: int, grid: bool = True):
    """A boolean truth matrix and an `(n, 4)` probability matrix, columns
    in `ALL_LABELS` order. Each truth row is empty, NULL alone or one to
    three positive labels. With `grid`, probabilities take one of five
    values, so rows and columns hold ties."""
    truth = np.zeros((n, len(ALL_LABELS)), dtype=bool)
    for row, kind in zip(truth, rng.integers(0, 5, size=n).tolist()):
        if kind == 1:
            row[ALL_LABELS.index(NULL)] = True
        elif kind > 1:
            row[rng.choice(len(POSITIVE_LABELS), size=kind - 1, replace=False)] = True
    if grid:
        prob = rng.integers(0, 5, size=truth.shape) / 4
    else:
        prob = rng.random(truth.shape)
    return truth, prob


def label_sets(matrix: np.ndarray) -> list[frozenset[str]]:
    """The label set of each row of a boolean label matrix: the form the
    oracles take."""
    return [frozenset(lab for lab, t in zip(ALL_LABELS, row) if t) for row in matrix.tolist()]


def label_rows(truth: np.ndarray, prob: np.ndarray) -> tuple[list, list]:
    """The label sets and `{label: probability}` rows of a truth and a
    probability matrix: the form the metric oracles take."""
    return label_sets(truth), [dict(zip(ALL_LABELS, row)) for row in prob.tolist()]
