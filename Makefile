OXQ = dune exec --no-print-directory bin/oxq.exe --

.PHONY: all build test lint check crash-test bench-smoke experiments clean

all: build

build:
	dune build @all

test:
	dune runtest

# static analysis smoke test: every compiled run of a query must lint clean
# (an axis outside the encoding's join table is a middle-tier step, a note,
# not an error), a hand-written SQL statement goes through the same rules,
# and every example query lints without error findings both blind and
# schema-aware.
lint:
	$(OXQ) lint '/catalog/book[author]/title'
	$(OXQ) lint -e local '//title'
	$(OXQ) lint -e dewey '/catalog/book/title/following::title'
	$(OXQ) lint --sql 'SELECT a.id FROM doc_global a, doc_global b WHERE a.parent = b.id'
	@set -e; while IFS= read -r q; do \
	  case "$$q" in ''|\#*) continue;; esac; \
	  echo "lint: $$q"; \
	  $(OXQ) lint "$$q" >/dev/null; \
	  $(OXQ) lint --dtd examples/catalog.dtd "$$q" >/dev/null; \
	done < examples/queries.txt

# fault injection: truncate the WAL at every byte offset and kill at every
# commit / checkpoint step, asserting recovery is always prefix-consistent
crash-test:
	dune exec --no-print-directory test/test_main.exe -- test wal-crash

# build + tier-1 tests + fault injection + CLI smoke test over the
# quickstart catalog; `oxq sql --analyze` must profile the run a positional
# query executes (an operator tree with its Limit). Run this before
# recording a change in CHANGES.md.
check: build test lint crash-test bench-smoke
	$(OXQ) stats examples/catalog.xml -e dewey
	$(OXQ) query examples/catalog.xml '/catalog/book[1]/title' --trace
	$(OXQ) sql examples/catalog.xml '/catalog/book[last()]' --analyze | grep 'Limit'
	@echo "check: OK"

# regression guards (bench/smoke.ml): Q1-Q7 bump the catalog 0 times and hit
# the plan cache on >= 95% of statements; a front insert reads at most its
# renumbered rows + 100; renumbering rewrites index keys in place; LOCAL Q7
# reads at most twice GLOBAL's rows; bidder[1] / bidder[last()] read Q1's rows
# plus two per context; after warm-up, a front insert, set_text and delete
# parse no SQL and miss the plan cache 0 times; at scale 4, Q1-Q4 issue one
# statement each on GLOBAL, LOCAL and DEWEY and Q6 one on GLOBAL and DEWEY, and
# open_auction[k]/bidder[1] for 5 new k misses the plan cache 0 times; Q1/global
# latency stays within 3x of the checked-in baseline (bench/baseline.json)
bench-smoke:
	dune exec --no-print-directory bench/smoke.exe -- bench/baseline.json

experiments:
	dune exec bin/experiments.exe -- all

clean:
	dune clean
