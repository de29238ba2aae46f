#!/usr/bin/env python3
"""Speed-limit stress report: ``form-lab stress`` run from a checkout.

Every flag (``--factor``, ``--points``, ``--seeds``), ``--config`` and the
exit codes are those of ``form-lab stress``; a run at or above c exits 3.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from form_lab import cli

if __name__ == "__main__":
    sys.exit(cli.main(["stress", *sys.argv[1:]]))
