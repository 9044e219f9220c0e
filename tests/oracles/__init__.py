"""Reference implementations the test-suite diffs production code against.

Nothing under ``src/`` imports these: they are the retired or deliberately
naive versions of machinery the package now implements once, kept so tests
can show that the fast path computes the same answers.
"""
