OXQ = dune exec --no-print-directory bin/oxq.exe --

.PHONY: all build test lint check crash-test bench-smoke bench-record experiments clean

all: build

build:
	dune build @all

test:
	dune runtest

# static analysis smoke test: every compiled run of a query must lint clean
# (an axis outside the encoding's join table is a middle-tier step, a note,
# not an error), Q5's derived table lints on every encoding, a hand-written
# SQL statement goes through the same rules,
# and every example query lints without error findings both blind and
# schema-aware.
lint:
	$(OXQ) lint '/catalog/book[author]/title'
	$(OXQ) lint -e local '//title'
	$(OXQ) lint -e dewey '/catalog/book/title/following::title'
	@set -e; for e in global global-gap local dewey ordpath; do \
	  echo "lint -e $$e: Q5"; \
	  $(OXQ) lint -e $$e '/site/open_auctions/open_auction/bidder[1]/following-sibling::bidder' >/dev/null; \
	done
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
# over the quickstart catalog; `oxq stats` must print each index's B+-tree
# shape (a bottom-up build puts the catalog's 28 keys in one leaf), `oxq sql
# --analyze` must profile the run a positional query executes (an
# operator tree with its Limit), a GLOBAL
# following:: step must join one staircase row and run no Sort and no
# Distinct operator (its ORDER BY is delivered), a DEWEY following:: step
# must join inside its run (one statement), a query on
# the directory `oxq dump` writes must print what it prints on the XML,
# `oxq stats` (XML only) must refuse that directory by name, a
# reconstructed subtree must print the same bytes on every encoding, and a
# comment holding "--" must be refused as malformed XML (exit 1, `error:`).
# Run this before recording a change in CHANGES.md.
check: build test lint crash-test bench-smoke
	$(OXQ) stats examples/catalog.xml -e dewey | tee _build/check-stats.out
	grep -qx 'index doc_dewey_path: depth 1, 1 leaves, occupancy 0.44' _build/check-stats.out
	$(OXQ) query examples/catalog.xml '/catalog/book[1]/title' --trace
	$(OXQ) sql examples/catalog.xml '/catalog/book[last()]' --analyze | grep 'Limit'
	$(OXQ) sql -e global examples/catalog.xml '/catalog/book[1]/following::title' --analyze > _build/check-stair.out
	grep -q 'Ordered .* (delivered)' _build/check-stair.out
	! grep -E '^ *(Sort \[|Distinct( |$$))' _build/check-stair.out
	$(OXQ) sql -e dewey examples/catalog.xml '/catalog/book[1]/following::title' --analyze > _build/check-dewey-following.out
	grep -q 'executed: 1 statement(s)' _build/check-dewey-following.out
	rm -rf _build/check-db
	$(OXQ) dump examples/catalog.xml -o _build/check-db
	$(OXQ) query _build/check-db '//book[2]/title' > _build/check-db.out
	$(OXQ) query examples/catalog.xml '//book[2]/title' | diff _build/check-db.out -
	! $(OXQ) stats _build/check-db 2> _build/check-db.err
	grep -qx 'error: _build/check-db: is a directory' _build/check-db.err
	$(OXQ) query -e global examples/catalog.xml '/catalog/book[2]' > _build/check-book.out
	@set -e; for e in global-gap local dewey ordpath; do \
	  echo "query -e $$e: /catalog/book[2]"; \
	  $(OXQ) query -e $$e examples/catalog.xml '/catalog/book[2]' | diff _build/check-book.out -; \
	done
	printf '<a><!-- x -- y --></a>' > _build/check-comment.xml
	! $(OXQ) query _build/check-comment.xml '/a' 2> _build/check-comment.err
	grep -q '^error: ' _build/check-comment.err
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
