"""`mmscatter` and `python -m mmscatter`: run `mmscatter.cli` as the main program, which its BLAS, GC and exit need.

A call loads only its command's layers (see `mmscatter.cli`): theory no numpy, pattern no ray tracer, simulate no fitter.
"""

import runpy


def main() -> None:
    runpy.run_module("mmscatter.cli", run_name="__main__")


if __name__ == "__main__":
    main()
