"""`python -m lexmine`: the same command line as the `lexmine` script."""
from .cli import main

main()
