"""Set-up probe, run in a fresh interpreter: import deperr, validate inputs.

    PYTHONPATH=src python3 bench/validate_inputs.py INPUTS.json

INPUTS.json is a list of model configs as the CLI reads them.  Prints how
many were validated.
"""

import json
import sys

from deperr.cli import model_from_dict

with open(sys.argv[1]) as fh:
    configs = json.load(fh)
for config in configs:
    model_from_dict(config)
print(len(configs))
