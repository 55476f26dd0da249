"""``python -m relab``: the relab command line, without an installed script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
