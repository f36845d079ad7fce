"""Independent references and the correctness checks of every run.

The references are transcribed from the paper's published tables and its
classification statement; nothing here reads the program's stored catalog
or trusts its own `all_match` flag.  Each check takes what the program
returned for one workload item and gives back a list of problems (empty
when the answer is right) and whether the item counts as failed.
"""

from __future__ import annotations

import json

#: The published E-type tables: label, Artin's equation, length of O/J,
#: length of O/J^[p], and whether the tangent sheaf is free (theta).
PUBLISHED = {
    2: (
        ("E_6^0", "z^2+x^3+y^2*z", 8, 32, True),
        ("E_6^1", "z^2+x^3+y^2*z+x*y*z", 6, 28, False),
        ("E_7^0", "z^2+x^3+x*y^3", 14, 56, True),
        ("E_7^1", "z^2+x^3+x*y^3+x^2*y*z", 12, 48, True),
        ("E_7^2", "z^2+x^3+x*y^3+y^3*z", 10, 40, True),
        ("E_7^3", "z^2+x^3+x*y^3+x*y*z", 8, 35, False),
        ("E_8^0", "z^2+x^3+y^5", 16, 64, True),
        ("E_8^1", "z^2+x^3+y^5+x*y^3*z", 14, 56, True),
        ("E_8^2", "z^2+x^3+y^5+x*y^2*z", 12, 48, True),
        ("E_8^3", "z^2+x^3+y^5+y^3*z", 10, 44, False),
        ("E_8^4", "z^2+x^3+y^5+x*y*z", 8, 37, False),
    ),
    3: (
        ("E_6^0", "z^2+x^3+y^4", 9, 81, True),
        ("E_6^1", "z^2+x^3+y^4+x^2*y^2", 7, 71, False),
        ("E_7^0", "z^2+x^3+x*y^3", 9, 81, True),
        ("E_7^1", "z^2+x^3+x*y^3+x^2*y^2", 7, 75, False),
        ("E_8^0", "z^2+x^3+y^5", 12, 108, True),
        ("E_8^1", "z^2+x^3+y^5+x^2*y^3", 10, 99, False),
        ("E_8^2", "z^2+x^3+y^5+x^2*y^2", 8, 85, False),
    ),
    5: (
        ("E_6", "z^2+x^3+y^4", 6, 173, False),
        ("E_7", "z^2+x^3+x*y^3", 7, 198, False),
        ("E_8^0", "z^2+x^3+y^5", 10, 250, True),
        ("E_8^1", "z^2+x^3+y^5+x*y^4", 8, 239, False),
    ),
}

#: E classes that descend; every other E class is blocked.  E_6^0 at p = 2
#: follows the case analysis (blocked by its local fundamental group C_3).
DESCENDING_E = {2: {"E_7^0", "E_8^0"}, 3: {"E_6^0", "E_8^0"}}

#: Ids of the necessary criteria, one of which must fail on a BLOCKED row.
NECESSARY = frozenset({
    "AN_P_POWER", "PIC_TORSION_P_GROUP", "PI1_TRIVIAL", "TJURINA_P_DIVISIBLE",
    "LENGTH_FORMULA", "THETA_FREE", "INVERTIBLE_SUMMAND",
})

DESCENDS, BLOCKED = "DESCENDS", "BLOCKED"
ENGINE_LIMIT_EXIT = 3


def published_row(char: int, label: str):
    for row in PUBLISHED[char]:
        if row[0] == label:
            return row
    raise KeyError(f"no published row {label} for p = {char}")


def theta_from_lengths(char: int, len_j: int, len_jp: int) -> bool:
    return len_jp == char * char * len_j


def _is_power_of(m: int, p: int) -> bool:
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return m == 1 and e >= 1


def expected_classification(char: int, max_n: int) -> dict:
    """Label -> verdict for every record `classify --max-n` enumerates,
    computed from the classification rules alone."""
    verdicts = {}
    for n in range(1, max_n + 1):
        verdicts[f"A_{n}"] = DESCENDS if _is_power_of(n + 1, char) else BLOCKED
    for n in range(4, max_n + 1):
        if char == 2:
            for r in range(n // 2):
                verdicts[f"D_{n}^{r}"] = DESCENDS if r == 0 else BLOCKED
        else:
            verdicts[f"D_{n}"] = BLOCKED
    for label, *_ in PUBLISHED[char]:
        verdicts[label] = DESCENDS if label in DESCENDING_E[char] else BLOCKED
    return verdicts


def _load(stdout: str):
    try:
        return json.loads(stdout), None
    except ValueError:
        return None, f"output is not JSON: {stdout[:80]!r}"


def check_tables(item: dict, outcome: dict):
    """`tables --char p --json`: every published row, with its lengths and
    a theta column consistent with them."""
    char = item["char"]
    if outcome["exit"] not in (0, 1):
        return True, [f"tables p={char}: exit {outcome['exit']}: {outcome['stderr'].strip()}"]
    payload, err = _load(outcome["stdout"])
    if err:
        return True, [f"tables p={char}: {err}"]
    problems = []
    rows = {row["label"]: row for row in payload["rows"]}
    if sorted(rows) != sorted(label for label, *_ in PUBLISHED[char]):
        problems.append(f"tables p={char}: rows {sorted(rows)}")
    for label, _, len_j, len_jp, theta in PUBLISHED[char]:
        row = rows.get(label)
        if row is None:
            continue
        got = (row["len_j"], row["len_jp"], row["theta_free"])
        if got != (len_j, len_jp, theta):
            problems.append(f"tables p={char} {label}: got {got}, published {(len_j, len_jp, theta)}")
        elif theta_from_lengths(char, len_j, len_jp) != theta:
            problems.append(f"tables p={char} {label}: theta disagrees with the lengths")
    return False, problems


def check_classify(item: dict, outcome: dict):
    """`classify --char p --max-n N --json`: every record's verdict equals
    the classification rules, and every BLOCKED row names a failing
    necessary criterion."""
    char, max_n = item["char"], item["max_n"]
    if outcome["exit"] not in (0, 1):
        return True, [f"classify p={char}: exit {outcome['exit']}: {outcome['stderr'].strip()}"]
    payload, err = _load(outcome["stdout"])
    if err:
        return True, [f"classify p={char}: {err}"]
    expected = expected_classification(char, max_n)
    problems = []
    labels = [row["label"] for row in payload["rows"]]
    if sorted(labels) != sorted(expected):
        problems.append(f"classify p={char}: {len(labels)} records, expected {len(expected)}")
    for row in payload["rows"]:
        want = expected.get(row["label"])
        if want is not None and row["verdict"] != want:
            problems.append(f"classify p={char} {row['label']}: {row['verdict']}, rules say {want}")
        if row["verdict"] == BLOCKED and not (row["reasons"] and set(row["reasons"]) <= NECESSARY):
            problems.append(f"classify p={char} {row['label']}: BLOCKED with reasons {row['reasons']}")
    descending = {label for label, v in expected.items() if v == DESCENDS}
    if set(payload["descending"]) != descending:
        problems.append(f"classify p={char}: descending list {payload['descending']}")
    return False, problems


def check_oracle(item: dict, outcome: dict):
    """`truncation_length_oracle` on J or J^[p] of one E row: the published
    length."""
    _, _, len_j, len_jp, _ = published_row(item["char"], item["label"])
    want = len_j if item["ideal"] == "J" else len_jp
    if outcome["value"] != want:
        return False, [f"oracle p={item['char']} {item['label']} {item['ideal']}: "
                       f"got {outcome['value']}, published {want}"]
    return False, []


def check_oracle_round(items, outcomes):
    """Theta-freeness from the oracle's two lengths of each row equals the
    published theta column."""
    lengths = {}
    for item, outcome in zip(items, outcomes):
        lengths.setdefault((item["char"], item["label"]), {})[item["ideal"]] = outcome["value"]
    problems = []
    for (char, label), got in sorted(lengths.items()):
        if isinstance(got.get("J"), int) and isinstance(got.get("Jp"), int):
            theta = published_row(char, label)[4]
            if theta_from_lengths(char, got["J"], got["Jp"]) != theta:
                problems.append(f"oracle p={char} {label}: theta from lengths {got} "
                                f"is not the published {theta}")
    return problems


def check_coords(item: dict, outcome: dict):
    """`analyze --json` on a germ in changed coordinates: the Tjurina number
    and the bracket length are the row's published values (both are
    invariant under a coordinate change), the length-formula status is the
    row's theta column, and a descending class is never BLOCKED.

    Exit 3 with the engine-limit note is the known fault of this workload
    and counts as a failed item; whatever criteria finished before the
    limit are still checked."""
    char, label = item["char"], item["label"]
    _, _, len_j, len_jp, theta = published_row(char, label)
    name = f"coords p={char} {label}"
    code = outcome["exit"]
    if code == ENGINE_LIMIT_EXIT:
        if '"engine limit"' not in outcome["stderr"]:
            return True, [f"{name}: exit 3 without the engine-limit note: {outcome['stderr'].strip()}"]
        if not outcome["stdout"].strip():
            return True, []
    elif code not in (0, 1):
        return True, [f"{name}: exit {code}: {outcome['stderr'].strip()}"]
    payload, err = _load(outcome["stdout"])
    if err:
        return True, [f"{name}: {err}"]
    problems = []
    criteria = {c["id"]: c for c in payload["criteria"]}
    tj = criteria["TJURINA_P_DIVISIBLE"]
    if tj["witness"].get("tjurina") != len_j:
        problems.append(f"{name}: Tjurina number {tj['witness'].get('tjurina')}, published {len_j}")
    if (tj["status"] == "PASS") != (len_j % char == 0):
        problems.append(f"{name}: TJURINA_P_DIVISIBLE is {tj['status']} for Tjurina number {len_j}")
    lf = criteria["LENGTH_FORMULA"]
    if lf["witness"].get("len_bracket") != len_jp:
        problems.append(f"{name}: bracket length {lf['witness'].get('len_bracket')}, published {len_jp}")
    if (lf["status"] == "PASS") != theta:
        problems.append(f"{name}: LENGTH_FORMULA is {lf['status']}, published theta {theta}")
    outcome_verdict = payload["verdict"]["outcome"]
    if label in DESCENDING_E[char] and outcome_verdict == BLOCKED:
        problems.append(f"{name}: a descending class came out BLOCKED")
    if code != ENGINE_LIMIT_EXIT and (code == 1) != (outcome_verdict == BLOCKED):
        problems.append(f"{name}: exit {code} with verdict {outcome_verdict}")
    return code == ENGINE_LIMIT_EXIT, problems


CHECKS = {
    "tables": check_tables,
    "classify": check_classify,
    "oracle": check_oracle,
    "coords": check_coords,
}


def check_round(workload: str, items, outcomes):
    """Check one round; return (attempted, failed, problems).

    An item that fails takes all the records it stands for with it."""
    attempted = failed = 0
    problems = []
    for item, outcome in zip(items, outcomes):
        item_failed, item_problems = CHECKS[workload](item, outcome)
        attempted += item["count"]
        failed += item["count"] if item_failed else 0
        problems += item_problems
    if workload == "oracle":
        problems += check_oracle_round(items, outcomes)
    return attempted, failed, problems
