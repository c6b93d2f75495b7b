"""Check an `eqlab run` CSV against the reference output of its workload.

A row matches its reference row when its identifying columns are equal and
its `empirical` value lies within the allowance of its quantity:

- fractions of samples (`exceed_fraction_K*`, `ks_statistic`,
  `torus_tail_frequency`) move in steps of 1/n_samples, so they may move by
  one step: a last-bit change of one distance can carry one sample across a
  threshold;
- `tail_frequency` (thm2) is a fraction of trials and may move by 1/trials
  for the same reason;
- `fraction_satisfied` is not compared with the reference: it must equal the
  share of its sweep's trials whose rows are all satisfied, so that fixing a
  failing row does not read as a mismatch;
- every other quantity may move by 1e-9 relative (the eigensolver's
  reconstruction tolerance, acceptance criterion 11) plus 1e-12 absolute,
  which covers quantities that are pure rounding residue, such as
  `population_drift` (~1e-16 against a 1e-10 gate).

`satisfied` is compared as well: a row that is satisfied in the reference
must stay satisfied. A row that is false in the reference is a known defect;
it still fails its trial, and is reported as known, or as fixed once it
reads true.

A trial fails when any of its rows is unsatisfied or mismatches. An
aggregate row (trial -1) that is unsatisfied or mismatches fails every trial
of its sweep, except `fraction_satisfied`, whose failures are already those
of its trials.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

KEY_COLUMNS = ("experiment", "d_S", "d_B", "d_R", "trial", "seed", "quantity")
STEP_QUANTITIES = ("ks_statistic", "torus_tail_frequency")
RELATIVE_ALLOWANCE = 1e-9
ABSOLUTE_ALLOWANCE = 1e-12


@dataclass
class Verdict:
    trials: int = 0
    failed_trials: int = 0
    structural: list[str] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    known_false: list[str] = field(default_factory=list)
    new_false: list[str] = field(default_factory=list)
    fixed: list[str] = field(default_factory=list)

    @property
    def any_false(self) -> bool:
        return bool(self.known_false or self.new_false)


def read_csv(path: str) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def allowance(quantity: str, reference: float, config: dict) -> float:
    if quantity.startswith("exceed_fraction_K") or quantity in STEP_QUANTITIES:
        return 1.0 / int(config["time_sampling"]["n_samples"]) + ABSOLUTE_ALLOWANCE
    if quantity == "tail_frequency":
        return 1.0 / int(config["trials"]) + ABSOLUTE_ALLOWANCE
    return RELATIVE_ALLOWANCE * abs(reference) + ABSOLUTE_ALLOWANCE


def row_name(row: dict) -> str:
    return f"d_B={row['d_B']} trial={row['trial']} {row['quantity']}"


def check(path: str, reference_path: str, config: dict) -> Verdict:
    header, rows = read_csv(path)
    ref_header, ref_rows = read_csv(reference_path)
    verdict = Verdict(trials=len(config["d_B"]) * int(config["trials"]))
    if header != ref_header or len(rows) != len(ref_rows):
        verdict.structural.append(
            f"{len(rows)} rows with header {header}, reference has {len(ref_rows)} with {ref_header}"
        )
        verdict.failed_trials = verdict.trials
        return verdict

    failed: set[tuple[str, str]] = set()
    sweep_failed: set[str] = set()
    trial_ok: dict[tuple[str, str], bool] = {}
    fractions = []
    for row, ref in zip(rows, ref_rows):
        if any(row[k] != ref[k] for k in KEY_COLUMNS) or float(row["wall_ms"]) != 0.0:
            verdict.structural.append(f"{row_name(row)} does not line up with {row_name(ref)}")
            continue
        name = row_name(row)
        satisfied = row["satisfied"] == "true"
        ref_satisfied = ref["satisfied"] == "true"
        if not satisfied:
            (verdict.known_false if not ref_satisfied else verdict.new_false).append(name)
        elif not ref_satisfied:
            verdict.fixed.append(name)
        if row["quantity"] == "fraction_satisfied":
            fractions.append(row)
            continue
        value, ref_value = float(row["empirical"]), float(ref["empirical"])
        mismatch = not abs(value - ref_value) <= allowance(row["quantity"], ref_value, config)
        if mismatch:
            verdict.mismatches.append(f"{name}: {row['empirical']} vs reference {ref['empirical']}")
        bad = mismatch or not satisfied
        if row["trial"] == "-1":
            if bad:
                sweep_failed.add(row["d_B"])
        else:
            key = (row["d_B"], row["trial"])
            trial_ok[key] = trial_ok.get(key, True) and satisfied
            if bad:
                failed.add(key)

    for row in fractions:
        sweep = [ok for (d_b, _), ok in trial_ok.items() if d_b == row["d_B"]]
        expected = sum(1.0 for ok in sweep if ok) / len(sweep) if sweep else float("nan")
        if float(row["empirical"]) != expected or (row["satisfied"] == "true") != all(sweep):
            verdict.mismatches.append(
                f"{row_name(row)}: {row['empirical']} but {expected!r} of the sweep's trials pass"
            )
            sweep_failed.add(row["d_B"])

    failed |= {key for key in trial_ok if key[0] in sweep_failed}
    verdict.failed_trials = verdict.trials if verdict.structural else len(failed)
    return verdict
