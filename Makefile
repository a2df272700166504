OXQ = dune exec --no-print-directory bin/oxq.exe --

.PHONY: all build test lint check crash-test bench-smoke bench-record experiments clean

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

# build + tier-1 tests + fault injection + counter gate + CLI smoke test
# over the quickstart catalog; `oxq sql --analyze` must profile the run a
# positional query executes (an operator tree with its Limit). Run this
# before recording a change in CHANGES.md.
check: build test lint crash-test bench-smoke
	$(OXQ) stats examples/catalog.xml -e dewey
	$(OXQ) query examples/catalog.xml '/catalog/book[1]/title' --trace
	$(OXQ) sql examples/catalog.xml '/catalog/book[last()]' --analyze | grep 'Limit'
	@echo "check: OK"

# counter gate (bench/record.py): re-run the benchmark's traced workloads at
# the newest BENCH_<n>.json's seed and length; fail unless every `# counters`
# line (statements, rows read/written/renumbered, plan-cache hits/misses,
# catalog bumps, WAL traffic) equals the file's
bench-smoke:
	python3 bench/record.py

# write a new BENCH file from this tree: make bench-record OUT=BENCH_<n>.json
bench-record:
	@test -n "$(OUT)" || { echo "usage: make bench-record OUT=BENCH_<n>.json"; exit 2; }
	python3 bench/record.py $(OUT)

experiments:
	dune exec bin/experiments.exe -- all

clean:
	dune clean
