"""Seeded structural mutation fuzz of the command line: mutated bundled
models and instance CSVs must end in a documented exit code, never in a
wrong explanation (exit 1) or a defect (exit 5)."""
import json
import random

from dualxp.bundled import _read
from dualxp.cli import main

SEED = 2027
CASES = 300
COMMANDS = ("predict", "axp", "cxp", "enum", "verify")
# enough for the bundled models' own searches, small enough that a mutated
# model whose search blows up stops at once
BUDGET = "5000"
RETYPED = (None, True, 0, -1, 2.5, 10 ** 30, "", "zzz", [], {})


class Obj(list):
    """A JSON object as its list of (key, value) pairs, so a key can repeat."""


def encode(x) -> str:
    if isinstance(x, Obj):
        return "{" + ", ".join(json.dumps(k) + ": " + encode(v) for k, v in x) + "}"
    if isinstance(x, list):
        return "[" + ", ".join(map(encode, x)) + "]"
    return json.dumps(x)


def containers(x, out):
    """Every object and list in the document `x`, parents first."""
    if isinstance(x, list):
        out.append(x)
        for item in x:
            containers(item[1] if isinstance(x, Obj) else item, out)
    return out


def mutate_model(rng: random.Random, text: str) -> str:
    doc = json.loads(text, object_pairs_hook=Obj)
    for _ in range(rng.choice((1, 1, 2, 3))):
        objs = [c for c in containers(doc, []) if isinstance(c, Obj) and c]
        lists = [c for c in containers(doc, []) if not isinstance(c, Obj) and c]
        kind = rng.choice(("drop", "repeat", "retype", "cut", "reorder", "dangle"))
        if kind in ("drop", "repeat", "retype"):
            obj = rng.choice(objs)
            i = rng.randrange(len(obj))
            if kind == "drop":
                del obj[i]
            elif kind == "repeat":
                key, value = obj[i]
                obj.insert(rng.randrange(len(obj) + 1),
                           (key, rng.choice((value, *RETYPED))))
            else:
                obj[i] = (obj[i][0], rng.choice(RETYPED))
        elif kind == "cut":
            seq = rng.choice(lists)
            del seq[rng.randrange(len(seq)):]
        elif kind == "reorder":
            rng.shuffle(rng.choice(lists))
        else:  # a child, or a root, pointing at a node id that is not there
            ids = [(obj, i) for obj in objs for i, (key, value) in enumerate(obj)
                   if type(value) is int
                   and key not in ("format_version", "score", "scale")]
            if ids:
                obj, i = rng.choice(ids)
                obj[i] = (obj[i][0], rng.choice((-1, 10 ** 6, obj[i][1] + 1)))
    out = encode(doc)
    if rng.random() < 0.15:
        out = out[:rng.randrange(len(out))]
    return out


def mutate_csv(rng: random.Random, text: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    for _ in range(rng.choice((1, 1, 2))):
        kind = rng.choice(("cell", "column", "category", "blank", "repeat",
                           "swap", "row"))
        width = len(rows[0])
        if not width:
            break
        j = rng.randrange(width)
        if kind == "cell":
            row = rng.choice(rows[1:] or rows)
            if j < len(row):
                del row[j]
        elif kind == "column":
            for row in rows:
                if j < len(row):
                    del row[j]
        elif kind == "category":
            row = rng.choice(rows[1:] or rows)
            if j < len(row):
                row[j] = "unknown-category"
        elif kind == "blank":
            rows[0][j] = ""
        elif kind == "repeat":
            rows[0][j] = rows[0][rng.randrange(width)]
        elif kind == "swap":  # two columns change places, which is valid
            k = rng.randrange(width)
            for row in rows:
                if max(j, k) < len(row):
                    row[j], row[k] = row[k], row[j]
        else:  # a data row repeats, which is valid
            rows.append(list(rng.choice(rows)))
    return "".join(",".join(row) + "\n" for row in rows)


def test_mutated_inputs_exit_with_documented_codes(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("XDUAL_BUDGET", BUDGET)
    poole_rows = ("A,T,L,W\nknown,new,short,work\nunknown,followUp,short,home\n"
                  "known,new,long,home\n")
    ensemble_rows = "".join(_read("synth_instances.csv").splitlines(True)[:4])
    sources = [(_read("poole.json"), poole_rows),
               (_read("synth_ensemble.json"), ensemble_rows)]
    rng = random.Random(SEED)
    model_file, rows_file = tmp_path / "model.json", tmp_path / "rows.csv"
    seen = {}
    for case in range(CASES):
        model, rows = sources[case % 2]
        what = rng.choice(("model", "csv", "both"))
        if what != "csv":
            model = mutate_model(rng, model)
        if what != "model":
            rows = mutate_csv(rng, rows)
        model_file.write_text(model)
        rows_file.write_text(rows)
        for command in COMMANDS:
            code = main([command, "-m", str(model_file), "-i", str(rows_file)])
            err = capsys.readouterr().err
            assert code in (0, 3, 4), (case, command, model, rows, err)
            seen[code] = seen.get(code, 0) + 1
    # the mutations reach past the parser as well as into it
    assert seen.get(0) and seen.get(3)
