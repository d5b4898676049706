"""The file-facing side: JSON configs, run records, probability CSV.

Configs describe a walk declaratively; angles can be written as exact
pi-fractions ("pi*2/3") so golden files carry no decimal rounding. The
same machinery backs the command line:

    revivalwalk walk-run --config walk.json --csv probs.csv
    revivalwalk reproduce-table --which 2
"""

import io
import json

from revivalwalk import (
    golden_config,
    parse_config,
    reproduce_table,
    run_spectrum,
    run_walk,
    serialize_config,
)

config = parse_config(
    json.dumps(
        {
            "d": 1,
            "n": 3,
            "coin": {"kind": "cyclic", "phases": [0, "pi*2/3", "pi*4/3"]},
            "shifts": "usual",
            "initial": [
                {"position": [0], "coin": 1, "amp_re": 1.0, "amp_im": 0.0}
            ],
            "max_steps": 4,
        }
    )
)
print("parsed config round-trips:", parse_config(serialize_config(config)) == config)

# run_walk streams the record and the CSV to text handles while the walk runs.
record_text, csv_text = io.StringIO(), io.StringIO()
run_walk(config, record_text, csv_text)
record = json.loads(record_text.getvalue())
print("detected period:", record["period"])
print("fidelity series:", [f"{f:.3f}" for f in record["fidelity_series"]])

print("\nprobability CSV:")
print(csv_text.getvalue())

spectrum = run_spectrum(config, samples=6)
print("spectrum flat across momenta:", spectrum["k_independent"])

print("\nbundled golden walks:")
for which in (1, 2, 3):
    comparison = reproduce_table(which)
    print(
        f"  walk {which}: period {comparison.period}, "
        f"max deviation {comparison.max_abs_deviation:.2e}, "
        f"{'PASS' if comparison.passed else 'FAIL'}"
    )

print("\nbundled config for walk 2:")
print(serialize_config(golden_config(2)))
