"""Rewrite the reference trees and their manifest from this checkout.

    PYTHONPATH=src python -m tests.reference --update

Run it from the repository root, only for a change meant to alter what a
run writes, and say in the change why the trees moved.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import numpy as np

from . import MANIFEST, TREES, platform_tag, write_trees


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.reference", description=__doc__)
    parser.add_argument("--update", action="store_true", help="rewrite trees/ and manifest.json")
    args = parser.parse_args(argv)
    if not args.update:
        parser.print_usage()
        return 2
    shutil.rmtree(TREES, ignore_errors=True)
    exit_codes = write_trees(TREES)
    manifest = {"exit_codes": exit_codes, "numpy": np.__version__, "platform": platform_tag()}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {TREES} and {MANIFEST.name}: exit codes {exit_codes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
